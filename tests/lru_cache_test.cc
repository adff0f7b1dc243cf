#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace kbqa {
namespace {

using Cache = ShardedLruCache<uint64_t, std::vector<uint32_t>>;

/// Deterministic payload for a key, so stress readers can verify that a
/// hit returns exactly the bytes that were inserted.
std::vector<uint32_t> PayloadFor(uint64_t key, size_t len) {
  std::vector<uint32_t> payload(len);
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<uint32_t>(key * 31 + i);
  }
  return payload;
}

uint64_t ChargeOf(size_t len) {
  return sizeof(uint64_t) + len * sizeof(uint32_t);
}

TEST(ShardedLruCacheTest, GetMissThenHit) {
  Cache cache(/*budget_bytes=*/0);
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Get(7, &out));
  EXPECT_EQ(cache.GetStats().misses, 1u);
  EXPECT_EQ(cache.GetStats().hits, 0u);
  cache.Insert(7, PayloadFor(7, 4), 4 * sizeof(uint32_t));
  ASSERT_TRUE(cache.Get(7, &out));
  EXPECT_EQ(out, PayloadFor(7, 4));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedLruCacheTest, EvictionFollowsLruOrder) {
  // Single shard so the recency order is global. Budget fits exactly three
  // four-element entries.
  const uint64_t charge = ChargeOf(4);
  Cache cache(3 * charge, /*num_shards=*/1);
  cache.Insert(1, PayloadFor(1, 4), 4 * sizeof(uint32_t));
  cache.Insert(2, PayloadFor(2, 4), 4 * sizeof(uint32_t));
  cache.Insert(3, PayloadFor(3, 4), 4 * sizeof(uint32_t));

  // Touch 1: recency becomes 1 > 3 > 2, so inserting 4 must evict 2.
  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Get(1, &out));
  cache.Insert(4, PayloadFor(4, 4), 4 * sizeof(uint32_t));

  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(1, &out));
  EXPECT_TRUE(cache.Get(3, &out));
  EXPECT_TRUE(cache.Get(4, &out));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, 3 * charge);
}

TEST(ShardedLruCacheTest, ByteAccountingNeverExceedsBudget) {
  const uint64_t budget = 4096;
  Cache cache(budget, /*num_shards=*/4);
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t key = rng.Uniform(5000);
    const size_t len = 1 + rng.Uniform(32);
    cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
    if (i % 512 == 0) {
      EXPECT_LE(cache.GetStats().bytes, budget);
    }
  }
  const Cache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(ShardedLruCacheTest, OversizedEntryIsNotAdmitted) {
  Cache cache(ChargeOf(4) * 2, /*num_shards=*/1);
  cache.Insert(1, PayloadFor(1, 4), 4 * sizeof(uint32_t));
  // This entry alone exceeds the whole budget; admitting it would purge
  // the shard, so it must be skipped and leave the books untouched.
  cache.Insert(2, PayloadFor(2, 1000), 1000 * sizeof(uint32_t));
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(1, &out));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, ChargeOf(4));
}

TEST(ShardedLruCacheTest, UnboundedNeverEvicts) {
  Cache cache(/*budget_bytes=*/0);
  for (uint64_t key = 0; key < 1000; ++key) {
    cache.Insert(key, PayloadFor(key, 8), 8 * sizeof(uint32_t));
  }
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1000u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, 1000 * ChargeOf(8));
  EXPECT_EQ(cache.budget_bytes(), 0u);
}

TEST(ShardedLruCacheTest, DuplicateInsertReplacesValueAndKeepsCharge) {
  Cache cache(/*budget_bytes=*/0, /*num_shards=*/1);
  cache.Insert(5, PayloadFor(5, 8), 8 * sizeof(uint32_t));
  cache.Insert(5, PayloadFor(6, 8), 8 * sizeof(uint32_t));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, ChargeOf(8));
  // Same-key insert replaces: the later value wins (a mutable KB can
  // legitimately recompute a key to a different value).
  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Get(5, &out));
  EXPECT_EQ(out, PayloadFor(6, 8));
}

// Regression: a same-key replacement with a different-sized value must
// re-book exactly the size delta, in the shard books and in the global
// reservation, in both the growing and the shrinking direction.
TEST(ShardedLruCacheTest, ReplacementRebooksSizeDeltaExactly) {
  const uint64_t budget = 4096;
  Cache cache(budget, /*num_shards=*/2);
  cache.Insert(9, PayloadFor(9, 4), 4 * sizeof(uint32_t));
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(4));
  EXPECT_EQ(cache.reserved_bytes(), ChargeOf(4));

  cache.Insert(9, PayloadFor(9, 32), 32 * sizeof(uint32_t));  // grow
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(32));
  EXPECT_EQ(cache.reserved_bytes(), ChargeOf(32));

  cache.Insert(9, PayloadFor(9, 2), 2 * sizeof(uint32_t));  // shrink
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(2));
  EXPECT_EQ(cache.reserved_bytes(), ChargeOf(2));

  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Get(9, &out));
  EXPECT_EQ(out, PayloadFor(9, 2));
}

// The accounting-storm regression: across borrowing shards, after an
// arbitrary insert / different-size-replace / evict storm, the drift
// between the two books — per-shard committed bytes and the global atomic
// reservation — must return exactly to zero at quiescence, and the
// committed bytes must sit within the budget. Any leak in the replacement
// or eviction paths shows up here as a residue between the two.
TEST(ShardedLruCacheTest, StormAccountingReturnsExactlyToZero) {
  const uint64_t charge4 = ChargeOf(4);
  const uint64_t budget = 48 * charge4;  // small: forces cross-shard borrow
  Cache cache(budget, /*num_shards=*/8);
  Rng rng(20250808);
  uint64_t gets = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.Uniform(96);
    if (rng.Uniform(2) == 0) {  // insert or same-key replace, fresh size
      const size_t len = 1 + rng.Uniform(24);
      cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
    } else {
      std::vector<uint32_t> out;
      (void)cache.Get(key, &out);
      ++gets;
    }
    if (i % 1024 == 0) {
      EXPECT_LE(cache.GetStats().bytes, budget);
      EXPECT_LE(cache.reserved_bytes(), budget);
    }
  }
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(cache.reserved_bytes(), stats.bytes);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses, gets);
}

// Concurrent flavor of the storm: 8 threads mixing inserts, replacements
// and lookups over a keyspace that overflows the budget. Once the threads
// have joined, the two books must agree exactly (run under ASan/TSan
// configurations this also gates the locking of the eviction and
// replacement paths).
TEST(ShardedLruCacheTest, ConcurrentStormThenDrainReturnsToZero) {
  const uint64_t budget = 1 << 14;
  Cache cache(budget, /*num_shards=*/8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(777 + static_cast<uint64_t>(t));
      std::vector<uint32_t> out;
      for (int i = 0; i < 8000; ++i) {
        const uint64_t key = rng.Uniform(512);
        if (rng.Uniform(2) == 0) {
          (void)cache.Get(key, &out);
        } else {
          const size_t len = 1 + rng.Uniform(16);
          cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(cache.reserved_bytes(), stats.bytes);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ShardedLruCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  Cache cache(0, /*num_shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8u);
  Cache one(0, /*num_shards=*/0);
  EXPECT_EQ(one.num_shards(), 1u);
}

// Regression for the per-shard budget split: when every key hashes to the
// same shard, the cache must still be able to fill the WHOLE budget from
// that one shard (global accounting / shard borrowing) instead of
// thrashing its 1/N slice while sibling shards sit empty.
TEST(ShardedLruCacheTest, SkewedKeysUseWholeBudgetNotOneShardSlice) {
  const size_t kShards = 16;
  const uint64_t charge = ChargeOf(4);
  const uint64_t budget = 64 * charge;  // room for 64 entries globally
  Cache cache(budget, kShards);

  // Replicate the cache's shard mix to mine keys that all land in shard 0.
  auto shard_of = [&](uint64_t key) {
    uint64_t h = static_cast<uint64_t>(std::hash<uint64_t>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h & (kShards - 1);
  };
  std::vector<uint64_t> skewed;
  for (uint64_t key = 0; skewed.size() < 64; ++key) {
    if (shard_of(key) == 0) skewed.push_back(key);
  }

  for (uint64_t key : skewed) {
    cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t));
  }

  // With the old budget/num_shards split only 4 of these 64 entries could
  // be resident; with global accounting all 64 fit and none were evicted.
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 64u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, budget);
  std::vector<uint32_t> out;
  for (uint64_t key : skewed) {
    EXPECT_TRUE(cache.Get(key, &out)) << key;
  }

  // One more skewed insert must evict exactly the LRU entry, keeping the
  // total pinned at the budget.
  for (uint64_t key = skewed.back() + 1;; ++key) {
    if (shard_of(key) != 0) continue;
    EXPECT_EQ(cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t)),
              1u);
    break;
  }
  EXPECT_EQ(cache.GetStats().bytes, budget);
  EXPECT_FALSE(cache.Get(skewed.front(), &out));  // LRU victim
}

// Borrowing: a hot shard that needs room may evict from a cold sibling
// when its own list is empty, instead of failing the insert.
TEST(ShardedLruCacheTest, BorrowsFromSiblingShardWhenOwnShardEmpty) {
  const size_t kShards = 4;
  const uint64_t charge = ChargeOf(4);
  Cache cache(2 * charge, kShards);
  auto shard_of = [&](uint64_t key) {
    uint64_t h = static_cast<uint64_t>(std::hash<uint64_t>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h & (kShards - 1);
  };
  // Fill the budget entirely from one shard...
  uint64_t shard_a = 0;
  while (shard_of(shard_a) != 0) ++shard_a;
  uint64_t shard_a2 = shard_a + 1;
  while (shard_of(shard_a2) != 0) ++shard_a2;
  cache.Insert(shard_a, PayloadFor(shard_a, 4), 4 * sizeof(uint32_t));
  cache.Insert(shard_a2, PayloadFor(shard_a2, 4), 4 * sizeof(uint32_t));
  ASSERT_EQ(cache.GetStats().bytes, 2 * charge);

  // ...then insert into a different, empty shard: it must borrow (evict
  // from shard 0) rather than give up or blow the budget.
  uint64_t other = 0;
  while (shard_of(other) != 1) ++other;
  EXPECT_EQ(cache.Insert(other, PayloadFor(other, 4), 4 * sizeof(uint32_t)),
            1u);
  std::vector<uint32_t> out;
  EXPECT_TRUE(cache.Get(other, &out));
  EXPECT_EQ(cache.GetStats().bytes, 2 * charge);
  EXPECT_EQ(cache.GetStats().entries, 2u);
}

// Multi-threaded stress: concurrent Get/Insert over a keyspace several
// times the budget. Run under the ASAN=ON configuration this doubles as a
// data-race / lifetime check on the shard books; value integrity is
// asserted on every hit.
TEST(ShardedLruCacheTest, ConcurrentMixedLoadKeepsBooksAndValuesIntact) {
  const uint64_t budget = 64 * 1024;
  const uint64_t keyspace = 4096;
  Cache cache(budget, /*num_shards=*/8);
  std::atomic<uint64_t> corrupt_hits{0};
  std::vector<std::thread> threads;
  const int num_threads = 8;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      std::vector<uint32_t> out;
      for (int i = 0; i < 20000; ++i) {
        const uint64_t key = rng.Uniform(keyspace);
        const size_t len = 1 + key % 16;
        if (cache.Get(key, &out)) {
          if (out != PayloadFor(key, len)) corrupt_hits.fetch_add(1);
        } else {
          cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(corrupt_hits.load(), 0u);
  const Cache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace kbqa
