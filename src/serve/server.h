#ifndef KBQA_SERVE_SERVER_H_
#define KBQA_SERVE_SERVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/live_engine.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace kbqa::serve {

/// Knobs of the in-process serving front door. Defaults are a sane
/// low-latency configuration; the load harness sweeps them.
struct ServingOptions {
  /// Answering worker threads. Each takes a batch straight from the queue
  /// whenever it is idle, so at most this many batches are ever in flight;
  /// everything else waits in the queue, where admission control sees it.
  /// A separate reaper thread sheds queued requests whose deadline passes.
  int num_workers = 1;
  /// Admission control: a Submit that would make the queue deeper than
  /// this is rejected with kUnavailable (backpressure to the caller
  /// instead of unbounded memory + doomed-to-expire latency).
  size_t max_queue_depth = 1024;
  /// Most requests one batch carries. Workers are work-conserving: an
  /// idle worker takes whatever is queued at once, so batches only grow
  /// past one request from what queued while every worker was busy.
  size_t max_batch_size = 32;
  /// Applied at admission to requests that carry no deadline of their own:
  /// deadline = arrival + default_timeout. Queue wait therefore counts
  /// against the budget — a request that expires while queued is shed
  /// without ever entering the answer pipeline. nullopt = no implicit
  /// deadline.
  std::optional<std::chrono::nanoseconds> default_timeout;
  /// Optional SLO burn-rate monitor (must outlive the server). Every
  /// terminal outcome — answered, error, rejected, shed — is recorded as
  /// good/bad against its spec, independent of wide-event sampling.
  obs::SloMonitor* slo = nullptr;
};

/// The outcome of one served request, delivered to its callback.
struct ServeResponse {
  core::AnswerResult result;
  /// Admission to the moment a worker took its batch off the queue (for
  /// shed requests: admission to shed).
  uint64_t queue_ns = 0;
  /// Handler start to completion inside the worker (0 for shed requests).
  uint64_t service_ns = 0;
  /// Size of the coalesced batch this request rode in (0 if shed).
  size_t batch_size = 0;
};

/// Point-in-time accounting. submitted == rejected + completed +
/// shed_expired + shed_shutdown + (still queued or in flight).
struct ServingStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;       // admission refusals (kUnavailable)
  uint64_t completed = 0;      // went through the answer pipeline
  uint64_t shed_expired = 0;   // deadline passed while queued
  uint64_t shed_shutdown = 0;  // queued at destruction (kUnavailable)
  uint64_t batches = 0;        // non-empty batches workers took to serve
  uint64_t queue_depth = 0;    // current
};

/// In-process async serving front door over the KBQA online engine: a
/// bounded MPMC request queue with admission control, `num_workers`
/// worker threads that take batches straight from it, and one reaper
/// thread that sheds requests whose deadline passes while they queue.
///
/// A worker that is idle takes min(queued, max_batch_size) requests at
/// once, sheds the ones already expired, and serves the rest in order. It
/// never holds a request back while it could serve it; coalescing happens
/// only under load, from what queued while every worker was busy. Since
/// only an idle worker takes work, at most num_workers batches are in
/// flight, and every other accepted request is still in the queue, where
/// admission control counts it.
///
/// Request lifecycle:
///   Submit -> [bounded queue] -> idle worker -> {shed if expired}
///          -> handler(question, options) -> callback
///   (the reaper sheds a queued request the moment its deadline passes)
///
/// The callback of every *accepted* request is invoked exactly once, on a
/// worker thread (or, for a request shed on its deadline, on whichever of
/// a worker and the reaper shed it; at shutdown, on the reaper). A rejected
/// Submit returns kUnavailable and never invokes the callback. Destruction
/// stops admission, sheds still-queued requests with kUnavailable, lets
/// each worker finish the batch it holds, then joins all threads.
///
/// Thread safety: Submit/Answer/stats are safe from any thread.
class Server {
 public:
  /// The unit of work a batch is made of. The engine adapter is
  /// OnlineInference::AnswerCached; tests substitute instrumented or
  /// deliberately slow handlers to pin down queueing behavior.
  using Handler =
      std::function<core::AnswerResult(const std::string& question,
                                       const core::AnswerOptions& options)>;
  using Callback = std::function<void(ServeResponse)>;

  Server(Handler handler, const ServingOptions& options);
  /// Fronts a trained online engine (which must outlive the server):
  /// every request goes through AnswerCached, so the opt-in answer memo
  /// and per-request deadlines compose with batching.
  static std::unique_ptr<Server> ForEngine(
      const core::OnlineInference* engine, const ServingOptions& options);
  /// Fronts a live-mutation engine (DESIGN.md §10): identical serving
  /// semantics, but every request routes through the engine's current
  /// epoch state, so snapshot swaps land between requests without
  /// draining the server.
  static std::unique_ptr<Server> ForLiveEngine(
      const core::LiveKbqaEngine* engine, const ServingOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Asynchronous entry point. Accepts the request into the queue and
  /// returns Ok, or rejects with kUnavailable (queue at its depth bound,
  /// or server shutting down) without ever invoking `done`.
  /// `options.deadline` (or ServingOptions::default_timeout) is measured
  /// against wall time from this call on — queue wait spends the budget.
  [[nodiscard]] Status Submit(std::string question,
                              const core::AnswerOptions& options,
                              Callback done);
  [[nodiscard]] Status Submit(std::string question, Callback done) {
    return Submit(std::move(question), core::AnswerOptions{},
                  std::move(done));
  }

  /// Blocking convenience wrapper: Submit + wait. A rejection comes back
  /// as a ServeResponse whose result.status is the kUnavailable status.
  ServeResponse Answer(const std::string& question,
                       const core::AnswerOptions& options = {});

  ServingStats stats() const;
  const ServingOptions& options() const { return options_; }

 private:
  struct Request {
    std::string question;
    core::AnswerOptions options;
    Callback done;
    std::chrono::steady_clock::time_point enqueue_time;
    /// Request-scoped telemetry (DESIGN.md §8): the sampling decision and
    /// trace id are fixed at admission; the context then travels by value
    /// with the request and is stamped by every layer it crosses. Exactly
    /// one wide event is emitted per terminal outcome.
    obs::RequestContext ctx;
  };

  /// One serving thread: waits for queued work, takes a batch, sheds its
  /// expired requests and serves the rest.
  void WorkerLoop();
  /// The deadline thread: sleeps until the earliest queued deadline (or a
  /// Submit re-aims it), then sheds every queued request past its
  /// deadline. At shutdown it sheds whatever is still queued.
  void ReaperLoop();
  /// The reaper's scan, under mu_: moves every expired request out of the
  /// queue into `expired` and returns true if there was one. Otherwise
  /// sets reaper_wake_at_ to the earliest deadline left in the queue
  /// (time_point::max(): none).
  bool TakeExpired(std::vector<Request>* expired) REQUIRES(mu_);
  /// Serves one batch, already free of expired requests, in order.
  void ServeBatch(std::vector<Request> batch,
                  std::chrono::steady_clock::time_point take_time);
  /// Completes a request without entering the pipeline (expired in queue
  /// or shutdown shed), emitting its terminal wide event and SLO record.
  void CompleteShed(Request* request, Status status,
                    obs::WideOutcome outcome);
  /// CompleteShed for a request whose deadline passed while it queued.
  void ShedExpired(Request* request);
  /// Terminal accounting for an admission-rejected request (never queued,
  /// callback never invoked — but still exactly one wide event).
  void RecordRejected(const Request& request);

  const Handler handler_;
  const ServingOptions options_;

  mutable Mutex mu_;
  // Idle workers wait here for a non-empty queue or stop. Submit wakes one
  // when its push makes the queue non-empty, and a worker that leaves
  // requests behind wakes the next, so a queue with requests in it always
  // has a worker awake for it without a wake per request.
  CondVar work_cv_;
  // The reaper waits here for an earlier deadline or stop.
  CondVar reaper_cv_;
  std::deque<Request> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  // When the reaper's wait times out: max() while it waits with no
  // timeout, min() while it is not in that wait. A Submit whose deadline
  // comes earlier wakes it to re-aim the wait.
  std::chrono::steady_clock::time_point reaper_wake_at_ GUARDED_BY(mu_) =
      std::chrono::steady_clock::time_point::min();

  // Per-instance accounting (sharded relaxed atomics; the global
  // online.serve.* registry metrics mirror these when obs is enabled).
  obs::ShardedCounter submitted_;
  obs::ShardedCounter rejected_;
  obs::ShardedCounter completed_;
  obs::ShardedCounter shed_expired_;
  obs::ShardedCounter shed_shutdown_;
  obs::ShardedCounter batches_;

  // Last: the threads start in the constructor and use every member above.
  std::vector<std::thread> workers_;
  std::thread reaper_;
};

}  // namespace kbqa::serve

#endif  // KBQA_SERVE_SERVER_H_
