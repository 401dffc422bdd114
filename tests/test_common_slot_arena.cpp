// SlotArena: the generation-stamped slab + paged directory behind the
// engine's per-VM record table (DESIGN.md §13) and the circuit table.
// The core tests are the stability contract (references survive arbitrary
// later insertions) and a randomized churn differential against
// std::unordered_map shaped like the engine's lifecycle ops: admit,
// depart, kill, migrate, retry.  Generation stamps, directory-page
// recycling (pooled pages come back vacant), and deterministic slot reuse
// are pinned explicitly, and so is the insert contract: a recycled slot
// holds no stale field its next occupant could read, and a vacated value's
// spilled buffer is freed, never accumulated.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/slot_arena.hpp"
#include "common/small_vec.hpp"

// Every global operator new/delete of this binary counts itself, so a test
// can watch the heap blocks outstanding.  The array and nothrow forms
// forward here in libstdc++.
namespace {
std::atomic<std::ptrdiff_t> g_outstanding{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_outstanding.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, one of the pair would show GCC a
// malloc matched with a delete and draw -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}

namespace risa {
namespace {

TEST(SlotArena, InsertFindErase) {
  SlotArena<int> arena;
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.find(3), nullptr);

  arena.find_or_insert(3) = 30;
  arena.find_or_insert(5) = 50;
  EXPECT_EQ(arena.size(), 2u);
  ASSERT_NE(arena.find(3), nullptr);
  EXPECT_EQ(*arena.find(3), 30);
  EXPECT_EQ(*arena.find(5), 50);

  // find_or_insert on a present key returns the existing value.
  arena.find_or_insert(3) += 1;
  EXPECT_EQ(*arena.find(3), 31);

  EXPECT_TRUE(arena.erase(3));
  EXPECT_FALSE(arena.erase(3));
  EXPECT_EQ(arena.find(3), nullptr);
  EXPECT_EQ(arena.size(), 1u);
}

TEST(SlotArena, ReservedSentinelKeyThrows) {
  SlotArena<int> arena;
  EXPECT_THROW(arena.find_or_insert(0xFFFFFFFFu), std::invalid_argument);
  EXPECT_EQ(arena.find(0xFFFFFFFFu), nullptr);
  EXPECT_FALSE(arena.erase(0xFFFFFFFFu));
}

TEST(SlotArena, ReferencesSurviveArbitraryLaterInsertions) {
  // The contract the engine's admission/retry paths lean on, and exactly
  // what an open-addressing hash map cannot promise (a growth rehash moves
  // resident entries): a reference handed out stays valid until its own
  // key is erased, across thousands of later insertions.
  SlotArena<std::uint64_t> arena;
  std::vector<std::pair<std::uint32_t, std::uint64_t*>> held;
  for (std::uint32_t k = 0; k < 32; ++k) {
    std::uint64_t& v = arena.find_or_insert(k);
    v = 1000 + k;
    held.emplace_back(k, &v);
  }
  // Force many slab pages and directory pages into existence.
  for (std::uint32_t k = 100; k < 20000; ++k) arena.find_or_insert(k) = k;
  for (const auto& [key, ptr] : held) {
    EXPECT_EQ(arena.find(key), ptr) << "key " << key;
    EXPECT_EQ(*ptr, 1000 + key);
  }
}

TEST(SlotArena, GenerationBumpsOnEveryReuse) {
  // LIFO free list: erase + insert recycles the same slot, and each death
  // bumps the stamp, so a stale slot id is always detectable.
  SlotArena<int> arena;
  arena.find_or_insert(7) = 1;
  const std::uint32_t s = arena.slot_of(7);
  ASSERT_NE(s, SlotArena<int>::kNoSlot);
  const std::uint32_t g0 = arena.slot_generation(s);

  arena.erase(7);
  EXPECT_EQ(arena.slot_generation(s), g0 + 1);
  arena.find_or_insert(9) = 2;  // the freed slot is lowest-on-top
  EXPECT_EQ(arena.slot_of(9), s);
  EXPECT_EQ(arena.slot_generation(s), g0 + 1);  // claim does not bump
  arena.erase(9);
  EXPECT_EQ(arena.slot_generation(s), g0 + 2);
}

TEST(SlotArena, DirectoryPagesRecycleUnderSlidingKeyWindow) {
  // The engine's streaming shape: a 10M-wide key space with a small live
  // census.  Live directory pages must track the key *window*, not the
  // stream length, with dead pages pooled for reuse.
  SlotArena<int> arena;
  constexpr std::uint32_t kWindow = 2000;
  constexpr std::uint32_t kStream = 200000;
  for (std::uint32_t k = 0; k < kStream; ++k) {
    arena.find_or_insert(k) = 1;
    if (k >= kWindow) {
      EXPECT_TRUE(arena.erase(k - kWindow));
    }
    if (k % 9973 == 0) {
      // 2000 live keys span at most ceil(2000/4096)+1 = 2 pages.
      EXPECT_LE(arena.directory_pages_live(), 2u) << "at key " << k;
    }
  }
  EXPECT_EQ(arena.size(), kWindow);
  EXPECT_GT(arena.directory_pages_pooled(), 0u);
  // Slab capacity tracks peak occupancy, not the stream.
  EXPECT_LT(arena.slab_capacity(), 2u * kWindow + 1024u);
}

TEST(SlotArena, PooledDirectoryPagesComeBackVacant) {
  // A pooled directory page is reused without a refill, so it must come
  // back with every entry vacant -- whether it was pooled by erasing its
  // last key or by clear().  Directory pages hold 4096 keys.
  constexpr std::uint32_t kPage = 4096;
  SlotArena<std::vector<int>> arena;
  const auto expect_only = [&](std::uint32_t page,
                               const std::vector<std::uint32_t>& present) {
    for (std::uint32_t k = page * kPage; k < (page + 1) * kPage; ++k) {
      bool want = false;
      for (std::uint32_t p : present) want = want || p == k;
      if (want) {
        ASSERT_NE(arena.find(k), nullptr) << "key " << k;
      } else {
        ASSERT_EQ(arena.find(k), nullptr) << "key " << k;
        ASSERT_EQ(arena.slot_of(k), (SlotArena<std::vector<int>>::kNoSlot));
      }
    }
  };

  // Erase-to-empty: fill page 0 sparsely, drain it, reuse it as page 5.
  std::vector<std::uint32_t> old_keys;
  for (std::uint32_t k = 0; k < kPage; k += 7) {
    arena.find_or_insert(k).assign(3, 1);
    old_keys.push_back(k);
  }
  for (std::uint32_t k : old_keys) EXPECT_TRUE(arena.erase(k));
  EXPECT_EQ(arena.directory_pages_live(), 0u);
  EXPECT_EQ(arena.directory_pages_pooled(), 1u);
  const std::uint32_t reused = 5 * kPage + 3;
  EXPECT_TRUE(arena.find_or_insert(reused).empty());
  EXPECT_EQ(arena.directory_pages_pooled(), 0u);
  expect_only(5, {reused});
  expect_only(0, {});

  // clear(): pages 5 and 6 hold live keys when they are pooled, then come
  // back as pages 9 and 10.
  std::vector<std::uint32_t> live;
  for (std::uint32_t k = 5 * kPage; k < 7 * kPage; k += 5) {
    arena.find_or_insert(k).assign(2, 2);
    live.push_back(k);
  }
  arena.clear();
  EXPECT_EQ(arena.directory_pages_live(), 0u);
  EXPECT_EQ(arena.directory_pages_pooled(), 2u);
  const std::uint32_t a = 9 * kPage + 11;
  const std::uint32_t b = 10 * kPage;
  EXPECT_TRUE(arena.find_or_insert(a).empty());
  EXPECT_TRUE(arena.find_or_insert(b).empty());
  EXPECT_EQ(arena.directory_pages_pooled(), 0u);
  expect_only(9, {a});
  expect_only(10, {b});
  for (std::uint32_t k : live) EXPECT_EQ(arena.find(k), nullptr);

  // The reused pages keep counting occupancy from zero: draining them
  // pools them again.
  EXPECT_TRUE(arena.erase(a));
  EXPECT_TRUE(arena.erase(b));
  EXPECT_EQ(arena.directory_pages_pooled(), 2u);
}

TEST(SlotArena, ClearRetainsCapacityAndResetsValues) {
  SlotArena<std::vector<int>> arena;
  for (std::uint32_t i = 0; i < 100; ++i) {
    arena.find_or_insert(i).assign(4, static_cast<int>(i));
  }
  const std::size_t cap = arena.slab_capacity();
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.slab_capacity(), cap);
  EXPECT_EQ(arena.find(7), nullptr);
  // Reclaimed slots must hand back freshly constructed values.
  EXPECT_TRUE(arena.find_or_insert(7).empty());
}

TEST(SlotArena, ClearKeepsSlotSequenceDeterministic) {
  // The engine reuses one arena across runs: after clear() the slot
  // assignment sequence must replay exactly, so reused-engine runs stay
  // bit-identical to fresh ones.
  SlotArena<int> a;
  std::vector<std::uint32_t> first;
  for (std::uint32_t k = 0; k < 700; ++k) {
    a.find_or_insert(k) = 1;
    first.push_back(a.slot_of(k));
  }
  a.clear();
  for (std::uint32_t k = 0; k < 700; ++k) {
    a.find_or_insert(k + 50000) = 2;  // different keys, same slot order
    EXPECT_EQ(a.slot_of(k + 50000), first[k]) << "k " << k;
  }
}

TEST(SlotArena, ForEachVisitsEveryEntryOnce) {
  SlotArena<std::uint64_t> arena;
  std::uint64_t want_sum = 0;
  for (std::uint32_t i = 1; i <= 500; ++i) {
    arena.find_or_insert(i * 17) = i;
    want_sum += i;
  }
  std::uint64_t sum = 0;
  std::size_t visits = 0;
  arena.for_each([&](std::uint32_t key, const std::uint64_t& v) {
    EXPECT_EQ(key, v * 17);
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, 500u);
  EXPECT_EQ(sum, want_sum);
}

TEST(SlotArena, RandomLifecycleChurnMatchesUnorderedMap) {
  // Operation-by-operation differential against std::unordered_map under
  // the engine's op mix: admit (insert), depart/kill (erase), migrate
  // (mutate in place), retry (find + mutate), lookup.  On top of the value agreement,
  // every op round re-checks that references captured at admission are
  // still where the arena said they were -- the stability contract --
  // and that slot reuse always came with a generation bump.
  Rng rng(20230813);
  SlotArena<std::string> arena;
  std::unordered_map<std::uint32_t, std::string> ref;
  // key -> (address at admission, slot id, generation at admission)
  struct Held {
    std::string* ptr;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  std::unordered_map<std::uint32_t, Held> held;

  for (int op = 0; op < 60000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, 1499));
    const auto action = rng.uniform_int(0, 9);
    if (action < 4) {  // admit
      const std::string value = "vm" + std::to_string(op);
      const bool fresh = arena.find(key) == nullptr;
      std::string& v = arena.find_or_insert(key);
      v = value;
      ref[key] = value;
      if (fresh) {
        held[key] = Held{&v, arena.slot_of(key),
                         arena.slot_generation(arena.slot_of(key))};
      }
    } else if (action < 7) {  // depart / kill
      const bool erased_ref = ref.erase(key) == 1;
      EXPECT_EQ(arena.erase(key), erased_ref) << "key " << key;
      if (erased_ref) {
        // Death bumps the stamp past what the holder saw.
        const Held& h = held.at(key);
        EXPECT_GT(arena.slot_generation(h.slot), h.gen) << "key " << key;
        held.erase(key);
      }
    } else if (action < 8) {  // migrate / retry: mutate through find()
      std::string* a = arena.find(key);
      const auto r = ref.find(key);
      ASSERT_EQ(a == nullptr, r == ref.end()) << "key " << key;
      if (a != nullptr) {
        a->append("+m");
        r->second.append("+m");
      }
    } else {  // lookup
      const std::string* a = arena.find(key);
      const auto r = ref.find(key);
      if (r == ref.end()) {
        EXPECT_EQ(a, nullptr) << "key " << key;
      } else {
        ASSERT_NE(a, nullptr) << "key " << key;
        EXPECT_EQ(*a, r->second);
      }
    }
    ASSERT_EQ(arena.size(), ref.size());
    if (op % 5000 == 4999) {
      // Stability sweep: every admission-time reference still live.
      for (const auto& [k, h] : held) {
        ASSERT_EQ(arena.find(k), h.ptr) << "key " << k;
        EXPECT_EQ(arena.slot_of(k), h.slot) << "key " << k;
      }
    }
  }

  // Full agreement at the end, both directions.
  for (const auto& [key, value] : ref) {
    const std::string* found = arena.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value);
  }
  std::size_t visits = 0;
  arena.for_each([&](std::uint32_t key, const std::string& value) {
    const auto found = ref.find(key);
    ASSERT_NE(found, ref.end()) << "key " << key;
    EXPECT_EQ(found->second, value);
    ++visits;
  });
  EXPECT_EQ(visits, ref.size());
}

TEST(SlotArena, DrainToEmptyAndRefill) {
  SlotArena<int> arena;
  for (std::uint32_t i = 0; i < 300; ++i) arena.find_or_insert(i) = 1;
  for (std::uint32_t i = 0; i < 300; ++i) EXPECT_TRUE(arena.erase(i));
  EXPECT_TRUE(arena.empty());
  for (std::uint32_t i = 100000; i < 100300; ++i) arena.find_or_insert(i) = 2;
  EXPECT_EQ(arena.size(), 300u);
  for (std::uint32_t i = 100000; i < 100300; ++i) {
    ASSERT_NE(arena.find(i), nullptr);
    EXPECT_EQ(*arena.find(i), 2);
  }
}

// ---- Insert contract -------------------------------------------------------

/// A record without recycle(): vacating rebuilds it as V{}.
struct Plain {
  std::uint32_t count = 0;
  double time = 0.0;
  std::array<std::uint64_t, 3> payload{};
  SmallVec<std::uint32_t, 2> list;
};

/// A record with recycle(), shaped like the engine's VmState: `request` is
/// written by every occupant before it is read, so recycle() keeps it;
/// the scalars and the spillable list are reset.
struct Recycled {
  std::array<std::uint64_t, 4> request{};
  SmallVec<std::uint32_t, 2> list;
  std::uint32_t attempts = 0;
  double time = 0.0;
  std::uint8_t live = 0;
  void recycle() noexcept {
    list.clear();
    attempts = 0;
    time = 0.0;
    live = 0;
  }
};

void spill(SmallVec<std::uint32_t, 2>& v, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(i + 1);
}

TEST(SlotArenaInsertContract, RebuiltSlotHoldsNoStaleField) {
  for (const bool by_clear : {false, true}) {
    SlotArena<Plain> arena;
    Plain& p = arena.find_or_insert(7);
    p.count = 11;
    p.time = 2.5;
    p.payload = {1, 2, 3};
    spill(p.list, 5);
    ASSERT_TRUE(p.list.spilled());
    const std::uint32_t slot = arena.slot_of(7);
    if (by_clear) {
      arena.clear();
    } else {
      ASSERT_TRUE(arena.erase(7));
    }
    const Plain& q = arena.find_or_insert(99);
    ASSERT_EQ(arena.slot_of(99), slot) << "the erased slot is reused";
    EXPECT_EQ(q.count, 0u);
    EXPECT_EQ(q.time, 0.0);
    EXPECT_EQ(q.payload, (std::array<std::uint64_t, 3>{}));
    EXPECT_TRUE(q.list.empty());
    EXPECT_FALSE(q.list.spilled());
  }
}

TEST(SlotArenaInsertContract, RecycledSlotResetsWhatTheNextOccupantReads) {
  for (const bool by_clear : {false, true}) {
    SlotArena<Recycled> arena;
    Recycled& r = arena.find_or_insert(3);
    r.request = {4, 5, 6, 7};
    spill(r.list, 4);
    r.attempts = 2;
    r.time = 9.0;
    r.live = 1;
    const std::uint32_t slot = arena.slot_of(3);
    if (by_clear) {
      arena.clear();
    } else {
      ASSERT_TRUE(arena.erase(3));
    }
    const Recycled& q = arena.find_or_insert(40);
    ASSERT_EQ(arena.slot_of(40), slot);
    EXPECT_EQ(q.attempts, 0u);
    EXPECT_EQ(q.time, 0.0);
    EXPECT_EQ(q.live, 0);
    EXPECT_TRUE(q.list.empty());
    EXPECT_FALSE(q.list.spilled());
    // recycle() ran instead of a rebuild: the field every occupant writes
    // first still holds the last one's bytes.
    EXPECT_EQ(q.request, (std::array<std::uint64_t, 4>{4, 5, 6, 7}));
  }
}

template <typename V>
void expect_churn_holds_no_buffers() {
  constexpr std::uint32_t kLive = 200;
  SlotArena<V> arena;
  const auto fill = [&] {
    for (std::uint32_t k = 0; k < kLive; ++k) {
      spill(arena.find_or_insert(k).list, 3 + k % 6);
    }
  };
  fill();
  arena.clear();  // grows the directory pool's vector, once
  fill();
  const std::ptrdiff_t before = g_outstanding.load();
  ASSERT_GT(before, std::ptrdiff_t{kLive}) << "the counting new is not in use";
  // Same keys, so the directory never changes: every block outstanding
  // after the churn is a live value's buffer or the arena's own.
  for (std::uint32_t r = 0; r < 20000; ++r) {
    const std::uint32_t k = r % kLive;
    ASSERT_TRUE(arena.erase(k));
    EXPECT_EQ(g_outstanding.load(), before - 1) << "round " << r;
    spill(arena.find_or_insert(k).list, 3 + r % 6);
  }
  EXPECT_EQ(g_outstanding.load(), before);
  arena.clear();
  EXPECT_EQ(g_outstanding.load(), before - std::ptrdiff_t{kLive});
}

TEST(SlotArenaInsertContract, SpilledBuffersAreFreedNotAccumulated) {
  expect_churn_holds_no_buffers<Plain>();
  expect_churn_holds_no_buffers<Recycled>();
}

}  // namespace
}  // namespace risa
