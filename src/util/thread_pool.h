#ifndef KBQA_UTIL_THREAD_POOL_H_
#define KBQA_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa {

/// A fixed-size worker pool for the shared-memory parallelism layer.
///
/// Work is expressed as *jobs* of statically sharded tasks, submitted
/// through one entry point, RunShards: the caller participates as a worker
/// and blocks until its job completes. Jobs from several callers queue
/// FIFO and workers cooperatively drain the front job, so concurrent
/// RunShards calls share the workers instead of serializing.
///
/// Determinism contract: work is always a *fixed* number of statically
/// sharded tasks (independent of the thread count), each shard writes only
/// shard-local state, and shard results are merged in shard order by the
/// caller (see ParallelFor / ParallelReduce below). Which thread runs which shard is therefore
/// unobservable — results are bit-identical with 1, 2, or N threads.
///
/// Shard callables must not throw; the pool has no recovery path and
/// terminates on an escaped exception (same policy as std::thread).
class ThreadPool {
 public:
  /// Creates `num_threads - 1` workers (the caller participates in every
  /// RunShards call, so one thread means "no workers, run inline").
  /// Values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);
  /// Joins the workers. No RunShards call may still be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(shard) for every shard in [0, num_shards), distributing
  /// shards across the workers plus the calling thread. Blocks until all
  /// shards complete. Safe to call repeatedly and from several threads at
  /// once (jobs queue FIFO); not reentrant from inside a shard.
  void RunShards(size_t num_shards, const std::function<void(size_t)>& fn);

 private:
  /// One queued job; `fn` is the RunShards caller's callable, alive
  /// across the blocking call.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t next_shard = 0;
    size_t num_shards = 0;
    size_t in_flight = 0;
    bool done = false;
  };

  void WorkerLoop();
  /// Claims and runs shards of `job` until none remain to hand out. The
  /// thread that retires the last shard marks the job done and signals
  /// job_done_.
  void DrainJob(const std::shared_ptr<Job>& job);

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_ready_;
  CondVar job_done_;
  /// Jobs that still have unclaimed shards, FIFO. A job leaves the queue
  /// the moment its last shard is claimed (it may still be running).
  std::deque<std::shared_ptr<Job>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
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
