#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>

#include "obs/obs.h"

namespace kbqa {

void ThreadPool::RunShards(size_t num_shards,
                           const std::function<void(size_t)>& fn) const {
  if (num_shards == 0) return;
  std::atomic<size_t> next_shard{0};
  const auto drain = [&] {
    for (size_t shard = next_shard.fetch_add(1, std::memory_order_relaxed);
         shard < num_shards;
         shard = next_shard.fetch_add(1, std::memory_order_relaxed)) {
      KBQA_TRACE_SPAN("thread_pool.task");
      fn(shard);
    }
  };
  const size_t wanted =
      std::min(static_cast<size_t>(num_threads_), num_shards) - 1;
  std::vector<std::thread> helpers;
  helpers.reserve(wanted);
  try {
    while (helpers.size() < wanted) helpers.emplace_back(drain);
  } catch (const std::system_error&) {
    // The system refused a thread: the ones already started and the
    // caller still claim every shard, and the results do not depend on
    // how many threads ran them.
  }
  drain();  // The caller runs shards too.
  // join() orders every shard's writes before the caller's next read.
  for (std::thread& helper : helpers) helper.join();
  KBQA_COUNTER_ADD("thread_pool.tasks", num_shards);
}

}  // namespace kbqa
