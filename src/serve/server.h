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

#include "core/live_engine.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace kbqa::serve {

/// Knobs of the in-process serving front door. Defaults are a sane
/// low-latency configuration; the load harness sweeps them.
struct ServingOptions {
  /// Answering worker threads (the batch-execution parallelism), and the
  /// cap on batches in flight: once this many are unfinished the batcher
  /// stalls, leaving requests queued where admission control sees them.
  /// The batcher thread is separate and never answers questions itself.
  int num_workers = 1;
  /// Admission control: a Submit that would make the queue deeper than
  /// this is rejected with kUnavailable (backpressure to the caller
  /// instead of unbounded memory + doomed-to-expire latency).
  size_t max_queue_depth = 1024;
  /// Admission control on queued request payload bytes (question text +
  /// per-request overhead). 0 = no byte limit.
  uint64_t max_queue_bytes = 0;
  /// Most requests one batch carries. The batcher is work-conserving: it
  /// dispatches whatever is queued as soon as an in-flight slot is free,
  /// so batches only grow past one request while every slot is busy.
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
  /// Admission to batch dispatch (for shed requests: admission to shed).
  uint64_t queue_ns = 0;
  /// Dispatch to completion inside the worker (0 for shed requests).
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
  uint64_t batches = 0;        // batches dispatched to the pool
  uint64_t queue_depth = 0;    // current
};

/// In-process async serving front door over the KBQA online engine: a
/// bounded MPMC request queue with admission control, a work-conserving
/// batcher, and worker threads (util/thread_pool) that execute batches
/// concurrently — the batcher dispatches batch k+1 while k is still
/// running, via the pool's async Submit + completion notification.
///
/// The batcher closes the batch it is building at the first of: an
/// in-flight slot is free, the batch holds max_batch_size requests, or the
/// earliest deadline among its requests has passed (so the shed happens
/// on time). It never holds requests while a slot sits idle; coalescing
/// happens only under load, from what queued while every slot was busy.
///
/// Request lifecycle:
///   Submit -> [bounded queue] -> batcher -> {shed if expired}
///          -> worker pool -> handler(question, options) -> callback
///
/// The callback of every *accepted* request is invoked exactly once, on a
/// worker thread (or on the batcher/destructor thread for shed requests).
/// A rejected Submit returns kUnavailable and never invokes the callback.
/// Destruction stops admission, sheds still-queued requests with
/// kUnavailable, waits for in-flight batches, then joins all threads.
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
  /// returns Ok, or rejects with kUnavailable (queue past its depth/byte
  /// bound, or server shutting down) without ever invoking `done`.
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
    uint64_t charge_bytes = 0;
    /// Request-scoped telemetry (DESIGN.md §8): the sampling decision and
    /// trace id are fixed at admission; the context then travels by value
    /// with the request and is stamped by every layer it crosses. Exactly
    /// one wide event is emitted per terminal outcome.
    obs::RequestContext ctx;
  };

  void BatcherLoop();
  /// The batcher's close rule, evaluated under mu_: true once the batch it
  /// would take should go now. Otherwise sets batcher_wake_at_ to when
  /// the answer changes without a signal (time_point::max(): never).
  bool CloseBatchNow() REQUIRES(mu_);
  /// Completes a request without entering the pipeline (expired in queue
  /// or shutdown shed), emitting its terminal wide event and SLO record.
  void CompleteShed(Request* request, Status status,
                    obs::WideOutcome outcome);
  void Dispatch(std::vector<Request> batch);
  /// Terminal accounting for an admission-rejected request (never queued,
  /// callback never invoked — but still exactly one wide event).
  void RecordRejected(const Request& request);

  const Handler handler_;
  const ServingOptions options_;

  mutable Mutex mu_;
  // The batcher's one wait: arrivals that can close a batch, a freed
  // in-flight slot, and stop all signal it.
  CondVar batcher_cv_;
  std::deque<Request> queue_ GUARDED_BY(mu_);
  uint64_t queue_bytes_ GUARDED_BY(mu_) = 0;
  // Dispatched-but-unfinished batches, capped at num_workers: past the cap
  // the batcher stalls and requests stay queued, where admission control
  // sees them.
  int inflight_batches_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  // When the batcher's close wait times out: max() while it waits with no
  // timeout, min() while it is not in that wait. A Submit whose deadline
  // comes earlier wakes it to re-aim the wait.
  std::chrono::steady_clock::time_point batcher_wake_at_ GUARDED_BY(mu_) =
      std::chrono::steady_clock::time_point::min();

  // Per-instance accounting (sharded relaxed atomics; the global
  // online.serve.* registry metrics mirror these when obs is enabled).
  obs::ShardedCounter submitted_;
  obs::ShardedCounter rejected_;
  obs::ShardedCounter completed_;
  obs::ShardedCounter shed_expired_;
  obs::ShardedCounter shed_shutdown_;
  obs::ShardedCounter batches_;

  // Declared after every member its jobs and completion callbacks touch
  // (handler_, mu_, batcher_cv_, the counters): ~pool_ drains in-flight
  // batches, so it must run before those members are destroyed.
  ThreadPool pool_;
  std::thread batcher_;
};

}  // namespace kbqa::serve

#endif  // KBQA_SERVE_SERVER_H_
