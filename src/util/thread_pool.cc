#include "util/thread_pool.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/mutex.h"

namespace kbqa {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        work_ready_.Wait(mu_);
      }
      // Every RunShards call has returned before the destructor runs, so
      // no job is left to drain.
      if (shutdown_) return;
      job = queue_.front();
    }
    DrainJob(job);
  }
}

void ThreadPool::DrainJob(const std::shared_ptr<Job>& job) {
  for (;;) {
    size_t shard;
    {
      MutexLock lock(mu_);
      if (job->next_shard >= job->num_shards) return;
      shard = job->next_shard++;
      ++job->in_flight;
      if (job->next_shard >= job->num_shards) {
        // Last shard claimed: unqueue the job so other threads move on to
        // the next one (it keeps running via this scope's shared_ptr).
        auto it = std::find(queue_.begin(), queue_.end(), job);
        if (it != queue_.end()) queue_.erase(it);
      }
    }
    {
      KBQA_TRACE_SPAN("thread_pool.task");
      (*job->fn)(shard);
    }
    KBQA_COUNTER_ADD("thread_pool.tasks", 1);
    bool last = false;
    {
      MutexLock lock(mu_);
      --job->in_flight;
      if (job->next_shard >= job->num_shards && job->in_flight == 0) {
        job->done = true;
        last = true;
      }
    }
    if (last) job_done_.NotifyAll();
  }
}

void ThreadPool::RunShards(size_t num_shards,
                           const std::function<void(size_t)>& fn) {
  if (num_shards == 0) return;
  // Queue depth is a high-water gauge: the shard count of the job being
  // submitted (drained to 0 by completion below).
  KBQA_GAUGE_SET("thread_pool.queue_depth", num_shards);
  KBQA_COUNTER_ADD("thread_pool.jobs", 1);
  if (workers_.empty()) {
    // Single-threaded pool: run inline, no synchronization.
    for (size_t shard = 0; shard < num_shards; ++shard) {
      KBQA_TRACE_SPAN("thread_pool.task");
      fn(shard);
    }
    KBQA_COUNTER_ADD("thread_pool.tasks", num_shards);
    KBQA_GAUGE_SET("thread_pool.queue_depth", 0);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;  // Alive for the duration: this call blocks on the job.
  job->num_shards = num_shards;
  {
    MutexLock lock(mu_);
    queue_.push_back(job);
  }
  work_ready_.NotifyAll();
  DrainJob(job);  // The caller is a worker too.
  {
    MutexLock lock(mu_);
    while (!job->done) job_done_.Wait(mu_);
  }
  KBQA_GAUGE_SET("thread_pool.queue_depth", 0);
}

}  // namespace kbqa
