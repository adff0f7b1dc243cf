#ifndef KBQA_UTIL_THREAD_POOL_H_
#define KBQA_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace kbqa {

/// The shared-memory parallelism layer: a per-call fork-join.
///
/// A ThreadPool holds only its thread count. Each RunShards call starts
/// `min(num_threads, num_shards) - 1` threads which, together with the
/// caller, claim shard indices from one atomic cursor; the call joins them
/// before it returns. No thread outlives a call, and calls from several
/// threads at once (or from inside a shard) are independent of one
/// another.
///
/// Determinism contract: work is always a *fixed* number of statically
/// sharded tasks (independent of the thread count), each shard writes only
/// shard-local state, and shard results are merged in shard order by the
/// caller (see ParallelFor / ParallelReduce below). Which thread runs which shard is therefore
/// unobservable — results are bit-identical with 1, 2, or N threads.
///
/// Shard callables must not throw; an escaped exception terminates the
/// process (same policy as std::thread).
class ThreadPool {
 public:
  /// One thread means "run every shard inline on the caller". Values < 1
  /// are clamped to 1.
  explicit ThreadPool(int num_threads)
      : num_threads_(num_threads < 1 ? 1 : num_threads) {}

  int num_threads() const { return num_threads_; }

  /// Runs fn(shard) for every shard in [0, num_shards) on the calling
  /// thread plus up to num_threads() - 1 threads started for this call.
  /// Blocks until all shards complete.
  void RunShards(size_t num_shards,
                 const std::function<void(size_t)>& fn) const;

 private:
  int num_threads_;
};

/// Half-open index range of one static shard.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
};

/// The range of shard `shard` (of `num_shards`) over `n` items: contiguous
/// blocks, the first `n % num_shards` blocks one item longer. Purely
/// arithmetic — the same (n, num_shards) always yields the same split.
inline ShardRange ShardOf(size_t n, size_t shard, size_t num_shards) {
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  ShardRange r;
  r.begin = shard * base + (shard < extra ? shard : extra);
  r.end = r.begin + base + (shard < extra ? 1 : 0);
  return r;
}

/// Runs fn(shard, begin, end) for every shard of a fixed static split of
/// [0, n). `fn` must only touch shard-local state.
template <typename Fn>
void ParallelFor(ThreadPool& pool, size_t n, size_t num_shards, Fn&& fn) {
  if (n == 0) return;
  if (num_shards > n) num_shards = n;
  pool.RunShards(num_shards, [&](size_t shard) {
    ShardRange r = ShardOf(n, shard, num_shards);
    fn(shard, r.begin, r.end);
  });
}

/// Map-reduce over a fixed static split of [0, n): `map(shard, begin,
/// end)` produces one partial result per shard; partials are merged into
/// `acc` strictly in shard order via `merge(acc, std::move(partial))`.
/// Because the shard count is fixed by the caller (not derived from the
/// thread count), the merged result is bit-identical for any pool size.
template <typename Acc, typename MapFn, typename MergeFn>
Acc ParallelReduce(ThreadPool& pool, size_t n, size_t num_shards, Acc acc,
                   MapFn&& map, MergeFn&& merge) {
  if (n == 0) return acc;
  if (num_shards > n) num_shards = n;
  using Partial = decltype(map(size_t{0}, size_t{0}, size_t{0}));
  std::vector<Partial> partials(num_shards);
  pool.RunShards(num_shards, [&](size_t shard) {
    ShardRange r = ShardOf(n, shard, num_shards);
    partials[shard] = map(shard, r.begin, r.end);
  });
  for (size_t shard = 0; shard < num_shards; ++shard) {
    merge(acc, std::move(partials[shard]));
  }
  return acc;
}

}  // namespace kbqa

#endif  // KBQA_UTIL_THREAD_POOL_H_
