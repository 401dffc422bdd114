// SlotArena: the generation-stamped slab + paged directory behind the
// engine's per-VM record table (DESIGN.md §13) and the circuit table.
// The core tests are the stability contract (references survive arbitrary
// later insertions) and a randomized churn differential against
// std::unordered_map shaped like the engine's lifecycle ops: admit,
// depart, kill, migrate, retry.  Generation stamps, directory-page recycling, and deterministic
// slot reuse are pinned explicitly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/slot_arena.hpp"

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

TEST(SlotArena, ClearAndReserveKeepSlotSequenceDeterministic) {
  // The engine reuses one arena across runs: after clear() (and after a
  // fresh reserve()) the slot assignment sequence must replay exactly, so
  // reused-engine runs stay bit-identical to fresh ones.
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

  SlotArena<int> b;
  b.reserve(700);
  for (std::uint32_t k = 0; k < 700; ++k) {
    b.find_or_insert(k) = 3;
    EXPECT_EQ(b.slot_of(k), first[k]) << "k " << k;
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

}  // namespace
}  // namespace risa
