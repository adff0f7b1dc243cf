#ifndef KBQA_UTIL_LRU_CACHE_H_
#define KBQA_UTIL_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa {

/// The books of one ShardedLruCache. `hits`/`misses` count Get calls;
/// `entries` is the number of resident keys and `bytes` their summed
/// charges; `evictions` counts entries dropped to stay under
/// `budget_bytes` (0 = unbounded, never evicts).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t evictions = 0;
  uint64_t budget_bytes = 0;
};

/// Memory-budgeted, sharded LRU cache.
///
/// The key space is hash-partitioned over N independent shards (N rounded
/// up to a power of two), each guarded by its own mutex and holding its own
/// recency list, so concurrent lookups on different shards never contend.
/// Every entry is byte-accounted as `sizeof(Key) + payload_bytes` (the
/// caller states the payload size at insert time).
///
/// The budget is enforced *globally*, not per shard: an atomic byte total
/// is reserved before an entry is admitted, and when the reservation does
/// not fit the inserter evicts LRU tails starting from its own shard and
/// borrowing round-robin from siblings. A key-skewed workload can therefore
/// fill the entire budget from one hot shard instead of thrashing that
/// shard's 1/N slice while the others sit empty. Eviction order is LRU
/// within a shard and approximately LRU across shards. A budget of 0 means
/// unbounded: nothing is ever evicted and the cache degenerates to a
/// sharded memo table.
///
/// Accounting invariant: shard byte counters are only incremented after a
/// successful global reservation and decremented before the global counter
/// is released, so `GetStats().bytes <= budget_bytes()` holds at every
/// instant, including mid-insert under concurrency.
///
/// Lookups are copy-out: `Get` copies the stored value into the caller's
/// buffer under the shard lock. Returning references would pin entries
/// against eviction (or dangle after one); copying keeps the locking
/// trivial and the eviction policy exact. Values are expected to be small
/// (e.g. the per-(entity, path) value vectors of the online engine).
///
/// Thread safety: all methods are safe to call concurrently. Eviction
/// never holds two shard locks at once, so borrowing cannot deadlock.
template <typename Key, typename Value>
class ShardedLruCache {
 public:
  using Stats = CacheStats;

  /// `budget_bytes == 0` means unbounded. `num_shards` is rounded up to a
  /// power of two (minimum 1).
  explicit ShardedLruCache(uint64_t budget_bytes, size_t num_shards = 16)
      : budget_bytes_(budget_bytes) {
    size_t shards = 1;
    while (shards < num_shards) shards <<= 1;
    shards_ = std::vector<Shard>(shards);
  }

  /// Copies the value for `key` into `*out` and promotes the entry to
  /// most-recently-used. Returns false (leaving `*out` untouched) when the
  /// key is absent. Either way the lookup is booked as a hit or a miss
  /// under the shard lock already held.
  bool Get(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return false;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    *out = it->second->value;
    return true;
  }

  /// Inserts `value` under `key`, charging `sizeof(Key) + payload_bytes`
  /// against the global budget and evicting least-recently-used entries —
  /// from this key's shard first, then borrowing from sibling shards — as
  /// needed; returns how many entries were evicted. If the key is already
  /// present its value is REPLACED and the books are re-charged by the
  /// size delta (the new reservation is kept, the old entry's charge is
  /// released), so a same-key insert with a different-sized value leaves
  /// the accounting exact. An entry whose charge alone exceeds the whole
  /// budget is not cached at all.
  uint64_t Insert(const Key& key, Value value, uint64_t payload_bytes) {
    const uint64_t charge = sizeof(Key) + payload_bytes;
    const size_t home = ShardIndexFor(key);
    uint64_t evicted = 0;
    if (budget_bytes_ != 0) {
      if (charge > budget_bytes_) return 0;
      // Reserve the charge against the global total before touching the
      // shard. Every pass either wins the CAS, evicts a victim, or learns
      // the budget is fully held by in-flight reservations and gives up
      // (a cache insert is best-effort). A replacement therefore briefly
      // holds old + new charge; the old charge is released under the
      // shard lock below. The eviction loop may evict this very key —
      // that is fine, the insert then lands as a fresh entry.
      while (true) {
        uint64_t current = total_bytes_.load(std::memory_order_relaxed);
        if (current + charge <= budget_bytes_) {
          if (total_bytes_.compare_exchange_weak(
                  current, current + charge, std::memory_order_relaxed)) {
            break;
          }
          continue;  // lost the race; re-read
        }
        if (!EvictOne(home)) return evicted;
        ++evicted;
      }
    }
    Shard& shard = shards_[home];
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Replace in place: promote, swap the value, re-book the charge
      // delta. Shard bytes move before the global release so the
      // "reserved >= committed" invariant holds throughout.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      Entry& entry = *it->second;
      const uint64_t old_charge = entry.charge;
      entry.value = std::move(value);
      entry.charge = charge;
      shard.bytes += charge;
      shard.bytes -= old_charge;
      if (budget_bytes_ != 0) {
        total_bytes_.fetch_sub(old_charge, std::memory_order_relaxed);
      }
      return evicted;
    }
    shard.lru.push_front(Entry{key, std::move(value), charge});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += charge;
    return evicted;
  }

  /// Merged accounting across shards. `entries`/`bytes` are a point-in-time
  /// view; `hits`, `misses` and `evictions` are monotone.
  Stats GetStats() const {
    Stats stats;
    stats.budget_bytes = budget_bytes_;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      stats.hits += shard.hits;
      stats.misses += shard.misses;
      stats.entries += shard.index.size();
      stats.bytes += shard.bytes;
      stats.evictions += shard.evictions;
    }
    return stats;
  }

  uint64_t budget_bytes() const { return budget_bytes_; }
  size_t num_shards() const { return shards_.size(); }

  /// Bytes currently reserved against the budget: committed entries plus
  /// in-flight insert reservations. Quiescent, this equals GetStats().bytes
  /// exactly — the accounting-regression tests assert it after
  /// insert/replace/evict storms. Always 0 when unbounded.
  uint64_t reserved_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Key key;
    Value value;
    uint64_t charge = 0;
  };

  struct Shard {
    mutable Mutex mu;
    /// Front = most recently used. std::list keeps iterators stable across
    /// splice, so the index maps keys straight to list nodes.
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<Key, typename std::list<Entry>::iterator> index
        GUARDED_BY(mu);
    uint64_t bytes GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
  };

  size_t ShardIndexFor(const Key& key) const {
    // std::hash of an integer key is commonly the identity; mix so shard
    // selection doesn't alias with any structure in the key encoding.
    uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h & (shards_.size() - 1));
  }

  Shard& ShardFor(const Key& key) { return shards_[ShardIndexFor(key)]; }

  /// Evicts one LRU tail, preferring `home` and then borrowing round-robin
  /// from sibling shards, taking one shard lock at a time. Returns false
  /// when every shard is empty (nothing left to evict).
  bool EvictOne(size_t home) {
    const size_t n = shards_.size();
    for (size_t i = 0; i < n; ++i) {
      Shard& shard = shards_[(home + i) & (n - 1)];
      MutexLock lock(shard.mu);
      if (shard.lru.empty()) continue;
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.charge;
      const uint64_t charge = victim.charge;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
      total_bytes_.fetch_sub(charge, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  uint64_t budget_bytes_ = 0;
  /// Bytes reserved against the budget: committed shard bytes plus any
  /// in-flight insert reservations. Always >= GetStats().bytes.
  std::atomic<uint64_t> total_bytes_{0};
  std::vector<Shard> shards_;
};

}  // namespace kbqa

#endif  // KBQA_UTIL_LRU_CACHE_H_
