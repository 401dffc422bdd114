// SmallVec (common/small_vec.hpp): the inline-then-spill vector behind
// every live VM's brick slices and circuits.  Pins the inline -> heap
// transition, copy and move of both representations, clear() returning to
// inline storage, equality across representations, raw inline storage (no
// element is built except by the push that appends it; net::Circuit, a type
// with default member initializers, through every transition), and a
// fragmented box whose allocation spills past the inline slices through
// allocate, checkpoint round-trip and release.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/small_vec.hpp"
#include "network/circuit.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "topology/box.hpp"
#include "workload/arrival_source.hpp"
#include "workload/synthetic.hpp"

namespace risa {
namespace {

using Vec = SmallVec<std::uint32_t, 2>;

Vec make(std::initializer_list<std::uint32_t> xs) {
  Vec v;
  for (const std::uint32_t x : xs) v.push_back(x);
  return v;
}

std::vector<std::uint32_t> contents(const Vec& v) {
  return {v.begin(), v.end()};
}

TEST(SmallVec, InlineUntilCapacityThenSpills) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 2u);
  v.push_back(10);
  v.push_back(11);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.capacity(), 2u);
  const auto* inline_data = v.data();

  v.push_back(12);  // the transition: contents move to the heap buffer
  EXPECT_TRUE(v.spilled());
  EXPECT_NE(v.data(), inline_data);
  EXPECT_GE(v.capacity(), 3u);
  EXPECT_EQ(contents(v), (std::vector<std::uint32_t>{10, 11, 12}));

  for (std::uint32_t x = 13; x < 40; ++x) v.push_back(x);
  ASSERT_EQ(v.size(), 30u);
  for (std::uint32_t i = 0; i < 30; ++i) EXPECT_EQ(v[i], 10 + i);
  EXPECT_EQ(v.front(), 10u);
  EXPECT_EQ(v.back(), 39u);
  v.pop_back();
  EXPECT_EQ(v.back(), 38u);
}

TEST(SmallVec, PushOfOwnElementSurvivesGrowth) {
  Vec v = make({7, 8});
  v.push_back(v[0]);  // aliases the inline buffer being spilled
  Vec w = make({1, 2, 3, 4});
  w.push_back(w[1]);  // aliases a heap buffer being reallocated
  EXPECT_EQ(contents(v), (std::vector<std::uint32_t>{7, 8, 7}));
  EXPECT_EQ(contents(w), (std::vector<std::uint32_t>{1, 2, 3, 4, 2}));
}

TEST(SmallVec, CopyOfInlineAndSpilledIsIndependent) {
  for (const Vec& original : {make({1, 2}), make({1, 2, 3, 4, 5})}) {
    Vec copy(original);
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.spilled(), original.spilled());
    copy[0] = 99;
    EXPECT_EQ(original[0], 1u);

    Vec assigned = make({5, 6, 7, 8});  // spilled target
    assigned = original;
    EXPECT_EQ(assigned, original);
    Vec small = make({9});  // inline target
    small = original;
    EXPECT_EQ(small, original);
    const Vec& alias = small;
    small = alias;  // self-assignment is a no-op
    EXPECT_EQ(small, original);
  }
}

TEST(SmallVec, MoveOfInlineAndSpilled) {
  Vec inline_src = make({3, 4});
  Vec a(std::move(inline_src));
  EXPECT_EQ(contents(a), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_FALSE(a.spilled());
  EXPECT_TRUE(inline_src.empty());  // NOLINT(bugprone-use-after-move)

  Vec spilled_src = make({1, 2, 3, 4, 5});
  const auto* heap = spilled_src.data();
  Vec b(std::move(spilled_src));
  EXPECT_EQ(b.data(), heap) << "a spilled move steals the heap buffer";
  EXPECT_EQ(contents(b), (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(spilled_src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(spilled_src.spilled());
  EXPECT_EQ(spilled_src.capacity(), 2u);
  spilled_src.push_back(6);  // a moved-from vector is reusable
  EXPECT_EQ(contents(spilled_src), (std::vector<std::uint32_t>{6}));

  Vec c = make({8, 8, 8});
  c = std::move(b);  // spilled over spilled: the old buffer is freed
  EXPECT_EQ(c.data(), heap);
  Vec d = make({1, 2, 3});
  d = make({4});  // inline over spilled: back to inline storage
  EXPECT_FALSE(d.spilled());
  EXPECT_EQ(contents(d), (std::vector<std::uint32_t>{4}));
}

TEST(SmallVec, ClearAfterSpillReturnsToInline) {
  Vec v = make({1, 2, 3, 4});
  ASSERT_TRUE(v.spilled());
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.capacity(), 2u);
  v.push_back(5);
  v.push_back(6);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(contents(v), (std::vector<std::uint32_t>{5, 6}));
}

// The heap pointer overlays the inline elements, so only the capacity
// tells the two representations apart: a vector back in inline storage
// must read the elements written there, never the pointer bytes the
// spilled buffer left in the same storage, through every transition.
template <typename T, std::size_t N>
void cycle_representations() {
  using V = SmallVec<T, N>;
  static_assert(sizeof(V) ==
                std::max(sizeof(T) * N, sizeof(T*)) + 2 * sizeof(std::uint32_t));
  const auto fill = [](V& v, std::size_t n, std::size_t base) {
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<T>(base + i));
  };
  const auto holds = [](const V& v, std::size_t n, std::size_t base) {
    // Indexed reads past N of a vector moved from a spilled one: GCC 12's
    // -Warray-bounds once flagged these (an error under RISA_WERROR).
    if (v.size() != n) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] != static_cast<T>(base + i)) return false;
    }
    return true;
  };
  for (int round = 0; round < 3; ++round) {
    V v;
    fill(v, N + 3, 10);  // spill
    ASSERT_TRUE(v.spilled());
    V copy(v);           // copy of a spilled vector: its own buffer
    ASSERT_TRUE(copy.spilled());
    ASSERT_NE(copy.data(), v.data());
    V moved(std::move(v));  // steals the buffer; v is inline and empty
    ASSERT_TRUE(holds(moved, N + 3, 10));
    ASSERT_TRUE(holds(copy, N + 3, 10));
    ASSERT_FALSE(v.spilled());  // NOLINT(bugprone-use-after-move)
    ASSERT_EQ(v.capacity(), N);
    fill(v, N, 40);  // inline again, over the stolen pointer's bytes
    ASSERT_FALSE(v.spilled());
    ASSERT_TRUE(holds(v, N, 40));
    v.push_back(static_cast<T>(40 + N));  // re-spill from inline
    ASSERT_TRUE(v.spilled());
    ASSERT_TRUE(holds(v, N + 1, 40));

    copy.clear();  // frees the buffer, back to inline
    ASSERT_FALSE(copy.spilled());
    ASSERT_EQ(copy.capacity(), N);
    fill(copy, 1, 70);
    ASSERT_TRUE(holds(copy, 1, 70));
    fill(copy, N + 4, 71);  // re-spill after clear()
    ASSERT_TRUE(copy.spilled());
    ASSERT_TRUE(holds(copy, N + 5, 70));

    V inline_copy;
    fill(inline_copy, N, 90);
    moved = inline_copy;  // copy-assign inline into a spilled target
    ASSERT_TRUE(holds(moved, N, 90));
    moved = std::move(copy);  // move-assign spilled over spilled or inline
    ASSERT_TRUE(holds(moved, N + 5, 70));
    ASSERT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    ASSERT_FALSE(copy.spilled());
    copy = std::move(inline_copy);  // move of an inline vector copies
    ASSERT_TRUE(holds(copy, N, 90));
    ASSERT_FALSE(copy.spilled());
  }
}

TEST(SmallVec, OverlaidPointerSurvivesSpillCopyMoveClearRespill) {
  cycle_representations<std::uint32_t, 2>();
  cycle_representations<std::uint8_t, 1>();  // inline bytes < pointer
  cycle_representations<std::uint64_t, 8>();  // Box's brick-ledger shape
}

TEST(SmallVec, EqualityComparesElementsAcrossRepresentations) {
  Vec spilled = make({1, 2, 3});
  spilled.pop_back();  // two elements, still in the heap buffer
  ASSERT_TRUE(spilled.spilled());
  EXPECT_EQ(spilled, make({1, 2}));
  EXPECT_NE(spilled, make({1, 3}));
  EXPECT_NE(spilled, make({1}));
  EXPECT_NE(make({1, 2, 3}), make({1, 2, 4}));
  EXPECT_EQ(Vec{}, Vec{});
}

// A trivially copyable type whose default constructor counts itself: the
// inline storage is raw, so no SmallVec operation may build an element
// except the emplace that asks for one.
struct Counted {
  static inline int built = 0;
  int value = 7;
  Counted() noexcept { ++built; }
  explicit Counted(int v) noexcept : value(v) {}
};
static_assert(std::is_trivially_copyable_v<Counted>);

TEST(SmallVec, InlineStorageBuildsOnlyTheElementsBelowSize) {
  using CV = SmallVec<Counted, 4>;
  Counted::built = 0;
  {
    CV a;
    CV b{};  // value-initialisation must not build the inline array either
    alignas(CV) std::byte raw[sizeof(CV)];
    CV* c = std::construct_at(reinterpret_cast<CV*>(raw));
    a.push_back(Counted(1));
    a.emplace_back(2);
    CV copy(a);
    CV moved(std::move(copy));
    b = moved;
    a.clear();
    std::destroy_at(c);
    EXPECT_EQ(Counted::built, 0);
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b[1].value, 2);
    a.emplace_back();  // the one default-built element asked for
    EXPECT_EQ(Counted::built, 1);
    EXPECT_EQ(a[0].value, 7);
  }
  EXPECT_EQ(Counted::built, 1);
}

// The circuit table's per-VM slot: net::Circuit has default member
// initializers, so a value-built inline array would construct both.
using CircuitVec = SmallVec<net::Circuit, 2>;

net::Circuit circuit(std::uint32_t id) {
  net::Circuit c;
  c.bandwidth = 1000 + id;
  c.id = CircuitId{id};
  c.vm = VmId{id / 4};
  c.path.push_link(LinkId{id});
  c.path.push_link(LinkId{id + 1});
  c.flow = id % 2 == 0 ? net::FlowKind::CpuRam : net::FlowKind::RamStorage;
  return c;
}

bool same(const net::Circuit& a, const net::Circuit& b) {
  return a.bandwidth == b.bandwidth && a.id == b.id && a.vm == b.vm &&
         a.flow == b.flow && std::ranges::equal(a.path.links(), b.path.links());
}

/// `v` holds circuit(base), circuit(base + 1), ..., n of them.
bool holds_circuits(const CircuitVec& v, std::size_t n, std::uint32_t base) {
  if (v.size() != n) return false;
  std::uint32_t id = base;
  for (const net::Circuit& c : v) {
    if (!same(c, circuit(id++))) return false;
  }
  return true;
}

TEST(SmallVec, CircuitsThroughPushPopCopyMoveClearRespill) {
  const auto fill = [](CircuitVec& v, std::size_t n, std::uint32_t base) {
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(circuit(base + i));
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    const bool spills = n > 2;
    CircuitVec v;
    fill(v, n, 10);
    ASSERT_EQ(v.spilled(), spills);
    ASSERT_TRUE(holds_circuits(v, n, 10));

    CircuitVec copy(v);
    ASSERT_TRUE(holds_circuits(copy, n, 10));
    ASSERT_EQ(copy.spilled(), spills);
    if (spills) {
      EXPECT_NE(copy.data(), v.data());
    }

    CircuitVec moved(std::move(v));
    ASSERT_TRUE(holds_circuits(moved, n, 10));
    EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(v.spilled());

    CircuitVec assigned;
    fill(assigned, 3, 50);  // a spilled target
    assigned = copy;
    ASSERT_TRUE(holds_circuits(assigned, n, 10));
    CircuitVec target;
    fill(target, 1, 60);  // an inline target
    target = std::move(copy);
    ASSERT_TRUE(holds_circuits(target, n, 10));

    moved.pop_back();
    ASSERT_TRUE(holds_circuits(moved, n - 1, 10));
    moved.emplace_back(circuit(10 + static_cast<std::uint32_t>(n) - 1));
    ASSERT_TRUE(holds_circuits(moved, n, 10));

    moved.clear();  // back to inline, no heap buffer
    EXPECT_TRUE(moved.empty());
    EXPECT_FALSE(moved.spilled());
    fill(moved, 2, 70);  // inline over whatever the old buffer left
    ASSERT_TRUE(holds_circuits(moved, 2, 70));
    fill(moved, 3, 72);  // re-spill after clear()
    ASSERT_TRUE(moved.spilled());
    ASSERT_TRUE(holds_circuits(moved, 5, 70));
  }
}

TEST(SmallVecRecords, FragmentedBoxSpillsSlicesAndReleasesExactly) {
  // Eight 4-unit bricks, every other one freed again: a 12-unit request
  // takes three slices, past the allocation's inline two.
  topo::Box box(BoxId{0}, RackId{0}, ResourceType::Ram, 0,
                std::vector<Units>(8, 4));
  std::vector<topo::BoxAllocation> held(8);
  for (topo::BoxAllocation& h : held) ASSERT_TRUE(box.allocate_into(4, h));
  for (const int b : {1, 4, 6}) box.release(held[b]);
  topo::BoxAllocation a;
  ASSERT_TRUE(box.allocate_into(12, a));
  ASSERT_GT(a.slices.size(), topo::BoxAllocation::kInlineSlices);
  EXPECT_TRUE(a.slices.spilled());
  EXPECT_EQ(a.slices[0], (topo::BrickSlice{1, 4}));
  EXPECT_EQ(a.slices[1], (topo::BrickSlice{4, 4}));
  EXPECT_EQ(a.slices[2], (topo::BrickSlice{6, 4}));

  // Round-trip: occupancy restored into a fresh box, the record copied
  // (as a checkpoint restore rebuilds it), then released there.
  topo::Box restored(BoxId{0}, RackId{0}, ResourceType::Ram, 0,
                     std::vector<Units>(8, 4));
  restored.restore_bricks(box.available_by_brick());
  const topo::BoxAllocation copy = a;
  EXPECT_EQ(copy.slices, a.slices);
  restored.release(copy);
  box.release(a);
  EXPECT_EQ(restored.available_by_brick(), box.available_by_brick());
  EXPECT_EQ(restored.available_units(), 12);
}

TEST(SmallVecRecords, SpilledSlicesSurviveEngineCheckpointRoundTrip) {
  // One-unit bricks: every allocation of k units takes k slices, so most
  // live records spill.  Each checkpoint must resume bit-identically, and
  // the resumed run releases every restored (spilled) allocation -- the
  // engine's end-of-run invariant checks would throw on a wrong brick.
  sim::Scenario scenario = sim::Scenario::paper_defaults();
  scenario.cluster.bricks_per_box = 128;
  scenario.cluster.units_per_brick = 1;
  wl::SyntheticConfig cfg;
  cfg.count = 2500;
  std::size_t multi_slice = 0;
  constexpr auto kInline = static_cast<Units>(topo::BoxAllocation::kInlineSlices);
  for (const wl::VmRequest& vm : wl::generate_synthetic(cfg, sim::kDefaultSeed)) {
    const UnitVector u = vm.units(scenario.cluster.unit_scale);
    for (const ResourceType t : kAllResources) multi_slice += u[t] > kInline;
  }
  ASSERT_GT(multi_slice, 1000u) << "workload too small to spill";

  std::vector<std::string> checkpoints;
  sim::CheckpointPolicy policy;
  policy.every_events = 1000;
  policy.emit = [&](const std::string& bytes) { checkpoints.push_back(bytes); };
  sim::Engine engine(scenario, "RISA");
  wl::SyntheticStreamSource source(cfg, sim::kDefaultSeed);
  const sim::SimMetrics full = engine.run_stream(source, "spill", &policy);
  ASSERT_GT(full.placed, 0u);
  ASSERT_GE(checkpoints.size(), 2u);
  const std::string want = sim::metrics_fingerprint(full);
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    sim::Engine fresh(scenario, "RISA");
    wl::SyntheticStreamSource restored(cfg, sim::kDefaultSeed);
    std::istringstream in(checkpoints[c]);
    EXPECT_EQ(sim::metrics_fingerprint(fresh.resume_stream(in, restored)), want)
        << "checkpoint " << c;
  }
}

}  // namespace
}  // namespace risa
