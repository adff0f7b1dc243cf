#include "serve/server.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace kbqa::serve {

namespace {

constexpr auto kNoTimeout = std::chrono::steady_clock::time_point::max();
constexpr auto kNotWaiting = std::chrono::steady_clock::time_point::min();

uint64_t NanosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// Steady time point -> the absolute-ns time base the wide-event layer
/// uses (same clock, so stage sums and server sums stay comparable).
uint64_t ToNs(std::chrono::steady_clock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// Remaining deadline budget (possibly negative) at `at_ns`; 0 when the
/// request carries no deadline.
int64_t BudgetNsAt(
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    uint64_t at_ns) {
  if (!deadline) return 0;
  return static_cast<int64_t>(ToNs(*deadline)) - static_cast<int64_t>(at_ns);
}

/// Common wide-event header shared by every terminal outcome.
obs::WideEvent BaseEvent(const obs::RequestContext& ctx,
                         obs::WideOutcome outcome, bool has_deadline,
                         size_t question_bytes) {
  obs::WideEvent event;
  event.trace_id = ctx.trace_id;
  event.admit_ns = ctx.admit_ns;
  event.outcome = outcome;
  event.has_deadline = has_deadline;
  event.question_bytes = static_cast<uint32_t>(question_bytes);
  return event;
}

/// Feeds a served request's stage clock into the online.stage.<stage>_ns
/// histograms. They read the same RequestContext records the request's
/// wide event carries, so metrics and events agree by construction. A
/// stage the request never entered records nothing; an answer-cache hit
/// enters none.
void RecordStageHistograms(const obs::RequestContext& ctx) {
  static const std::array<obs::Histogram*, obs::kWideStageCount> kStages =
      [] {
        std::array<obs::Histogram*, obs::kWideStageCount> h{};
        for (size_t s = 0; s < obs::kWideStageCount; ++s) {
          h[s] = obs::MetricsRegistry::Global().GetHistogram(
              std::string("online.stage.") + obs::WideStageName(s) + "_ns");
        }
        return h;
      }();
  for (size_t s = 0; s < obs::kWideStageCount; ++s) {
    if (ctx.stages[s].count > 0) kStages[s]->Record(ctx.stages[s].ns);
  }
}

ServingOptions Sanitize(ServingOptions options) {
  if (options.num_workers < 1) options.num_workers = 1;
  if (options.max_queue_depth < 1) options.max_queue_depth = 1;
  if (options.max_batch_size < 1) options.max_batch_size = 1;
  return options;
}

}  // namespace

Server::Server(Handler handler, const ServingOptions& options)
    : handler_(std::move(handler)),
      options_(Sanitize(options)),
      // num_workers dedicated workers: the +1 "caller" slot of the pool
      // belongs to the batcher, which only ever uses the async Submit path
      // and never drains shards itself.
      pool_(options_.num_workers + 1),
      batcher_([this] { BatcherLoop(); }) {}

std::unique_ptr<Server> Server::ForEngine(const core::OnlineInference* engine,
                                          const ServingOptions& options) {
  return std::make_unique<Server>(
      [engine](const std::string& question,
               const core::AnswerOptions& answer_options) {
        return engine->AnswerCached(question, answer_options);
      },
      options);
}

std::unique_ptr<Server> Server::ForLiveEngine(
    const core::LiveKbqaEngine* engine, const ServingOptions& options) {
  return std::make_unique<Server>(
      [engine](const std::string& question,
               const core::AnswerOptions& answer_options) {
        return engine->AnswerCached(question, answer_options);
      },
      options);
}

Server::~Server() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  batcher_cv_.NotifyAll();
  // The batcher sheds whatever is still queued, then exits; ~pool_ waits
  // for every dispatched batch (and its completion callbacks) to retire.
  batcher_.join();
}

Status Server::Submit(std::string question, const core::AnswerOptions& options,
                      Callback done) {
  submitted_.Add(1);
  KBQA_COUNTER_ADD("online.serve.submitted", 1);
  Request request;
  request.question = std::move(question);
  request.options = options;
  request.done = std::move(done);
  request.enqueue_time = std::chrono::steady_clock::now();
  if (!request.options.deadline && options_.default_timeout) {
    // The implicit budget starts now: time spent queued is spent budget,
    // so a request that languishes is shed instead of served late.
    request.options.deadline = request.enqueue_time + *options_.default_timeout;
  }
  request.charge_bytes = request.question.size() + sizeof(Request);
  // The wide-event sampling decision is fixed at admission so every layer
  // downstream sees a consistent answer, and so rejections are sampled at
  // the same rate as served requests.
  if (obs::WideEvents::Sample()) {
    request.ctx.sampled = true;
    request.ctx.trace_id = obs::WideEvents::NextTraceId();
    request.ctx.admit_ns = ToNs(request.enqueue_time);
  }
  bool wake_batcher = false;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      rejected_.Add(1);
      KBQA_COUNTER_ADD("online.serve.rejected", 1);
      RecordRejected(request);
      return Status::Unavailable("server shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth ||
        (options_.max_queue_bytes != 0 &&
         queue_bytes_ + request.charge_bytes > options_.max_queue_bytes)) {
      rejected_.Add(1);
      KBQA_COUNTER_ADD("online.serve.rejected", 1);
      RecordRejected(request);
      return Status::Unavailable("serving queue full");
    }
    // Wake the batcher only when this push can change its decision: the
    // queue was empty, the batch just filled, or this request's deadline
    // comes before the batcher's current wait would end.
    wake_batcher = queue_.empty() ||
                   queue_.size() + 1 == options_.max_batch_size ||
                   (request.options.deadline &&
                    *request.options.deadline < batcher_wake_at_);
    queue_bytes_ += request.charge_bytes;
    queue_.push_back(std::move(request));
    KBQA_GAUGE_SET("online.serve.queue_depth", queue_.size());
  }
  if (wake_batcher) batcher_cv_.NotifyOne();
  return Status::Ok();
}

ServeResponse Server::Answer(const std::string& question,
                             const core::AnswerOptions& options) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool ready = false;
    ServeResponse response;
  };
  auto waiter = std::make_shared<Waiter>();
  Status admitted = Submit(question, options, [waiter](ServeResponse r) {
    MutexLock lock(waiter->mu);
    waiter->response = std::move(r);
    waiter->ready = true;
    waiter->cv.NotifyAll();
  });
  if (!admitted.ok()) {
    ServeResponse response;
    response.result.status = std::move(admitted);
    return response;
  }
  MutexLock lock(waiter->mu);
  while (!waiter->ready) waiter->cv.Wait(waiter->mu);
  return std::move(waiter->response);
}

ServingStats Server::stats() const {
  ServingStats stats;
  stats.submitted = submitted_.Value();
  stats.rejected = rejected_.Value();
  stats.completed = completed_.Value();
  stats.shed_expired = shed_expired_.Value();
  stats.shed_shutdown = shed_shutdown_.Value();
  stats.batches = batches_.Value();
  {
    MutexLock lock(mu_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

void Server::RecordRejected(const Request& request) {
  const uint64_t now_ns = obs::NowSteadyNs();
  if (options_.slo != nullptr) {
    options_.slo->Record(/*good=*/false, now_ns);
  }
  if (!request.ctx.sampled) return;
  obs::WideEvent event =
      BaseEvent(request.ctx, obs::WideOutcome::kRejected,
                request.options.deadline.has_value(), request.question.size());
  event.total_ns =
      now_ns > event.admit_ns ? now_ns - event.admit_ns : 0;
  event.deadline_budget_ns = BudgetNsAt(request.options.deadline, now_ns);
  obs::WideEvents::Record(event);
}

void Server::CompleteShed(Request* request, Status status,
                          obs::WideOutcome outcome) {
  ServeResponse response;
  response.result.status = std::move(status);
  const auto now = std::chrono::steady_clock::now();
  response.queue_ns = NanosBetween(request->enqueue_time, now);
  const uint64_t now_ns = ToNs(now);
  if (options_.slo != nullptr) {
    options_.slo->Record(/*good=*/false, now_ns);
  }
  if (request->ctx.sampled) {
    // A shed request never entered the pipeline: its whole life was queue
    // wait, and it carries zero stage records by construction.
    obs::WideEvent event = BaseEvent(request->ctx, outcome,
                                     request->options.deadline.has_value(),
                                     request->question.size());
    event.queue_wait_ns = response.queue_ns;
    event.total_ns = response.queue_ns;
    event.deadline_budget_ns = BudgetNsAt(request->options.deadline, now_ns);
    obs::WideEvents::Record(event);
  }
  request->done(std::move(response));
}

bool Server::CloseBatchNow() {
  batcher_wake_at_ = kNoTimeout;
  if (queue_.empty()) return false;
  if (inflight_batches_ < options_.num_workers ||
      queue_.size() >= options_.max_batch_size) {
    return true;
  }
  // Every slot is busy and the batch has room: keep it open, but only
  // until the earliest deadline among its requests, so Dispatch can shed
  // them on time instead of when a slot frees.
  for (const Request& request : queue_) {
    if (request.options.deadline) {
      batcher_wake_at_ = std::min(batcher_wake_at_, *request.options.deadline);
    }
  }
  return batcher_wake_at_ != kNoTimeout &&
         batcher_wake_at_ <= std::chrono::steady_clock::now();
}

void Server::BatcherLoop() {
  for (;;) {
    std::vector<Request> batch;
    {
      MutexLock lock(mu_);
      while (!stopping_ && !CloseBatchNow()) {
        if (batcher_wake_at_ == kNoTimeout) {
          batcher_cv_.Wait(mu_);
        } else {
          batcher_cv_.WaitUntil(mu_, batcher_wake_at_);
        }
      }
      batcher_wake_at_ = kNotWaiting;
      if (stopping_) break;
      const size_t take = std::min(queue_.size(), options_.max_batch_size);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        queue_bytes_ -= queue_.front().charge_bytes;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      KBQA_GAUGE_SET("online.serve.queue_depth", queue_.size());
    }
    Dispatch(std::move(batch));
  }
  // Shutdown: complete whatever is still queued without serving it, so
  // every accepted callback fires exactly once.
  std::deque<Request> leftover;
  {
    MutexLock lock(mu_);
    leftover.swap(queue_);
    queue_bytes_ = 0;
    KBQA_GAUGE_SET("online.serve.queue_depth", 0);
  }
  for (Request& request : leftover) {
    shed_shutdown_.Add(1);
    KBQA_COUNTER_ADD("online.serve.shed_shutdown", 1);
    CompleteShed(&request, Status::Unavailable("server shutting down"),
                 obs::WideOutcome::kShedShutdown);
  }
}

void Server::Dispatch(std::vector<Request> batch) {
  // Acquire an in-flight slot, shedding along the way: a request whose
  // deadline lapses — whether it already lapsed in the queue or lapses
  // while this batch stalls behind a saturated pool — never reaches the
  // handler and never enters template matching. The slot wait is bounded
  // by the earliest pending deadline so sheds happen when the deadline
  // passes, not when the stall ends.
  for (;;) {
    // Shed pass. Outside mu_: the batch is private to the batcher thread
    // here, and shed callbacks may re-enter Submit.
    const auto now = std::chrono::steady_clock::now();
    size_t kept = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      Request& request = batch[i];
      if (request.options.deadline && *request.options.deadline <= now) {
        shed_expired_.Add(1);
        KBQA_COUNTER_ADD("online.serve.shed_expired", 1);
        CompleteShed(&request,
                     Status::DeadlineExceeded("deadline expired in queue"),
                     obs::WideOutcome::kShedExpired);
      } else {
        if (kept != i) batch[kept] = std::move(request);
        ++kept;
      }
    }
    batch.resize(kept);
    if (batch.empty()) return;

    std::optional<std::chrono::steady_clock::time_point> earliest;
    for (const Request& request : batch) {
      if (request.options.deadline &&
          (!earliest || *request.options.deadline < *earliest)) {
        earliest = request.options.deadline;
      }
    }

    // Bound the number of unfinished batches in the pool: past the cap,
    // requests wait in the admission-controlled queue (visible to
    // backpressure) instead of in an invisible pool backlog.
    bool acquired = false;
    {
      MutexLock lock(mu_);
      while (inflight_batches_ >= options_.num_workers) {
        if (earliest.has_value()) {
          // Timeout: a deadline lapsed while stalled — rerun the shed
          // pass.
          if (!batcher_cv_.WaitUntil(mu_, *earliest)) break;
        } else {
          batcher_cv_.Wait(mu_);
        }
      }
      if (inflight_batches_ < options_.num_workers) {
        ++inflight_batches_;
        acquired = true;
      }
    }
    if (acquired) break;
  }

  batches_.Add(1);
  KBQA_COUNTER_ADD("online.serve.batches", 1);
  KBQA_HISTOGRAM_RECORD("online.serve.batch_size", batch.size());

  struct BatchState {
    std::vector<Request> requests;
    std::chrono::steady_clock::time_point dispatch_time;
  };
  auto state = std::make_shared<BatchState>();
  state->requests = std::move(batch);
  state->dispatch_time = std::chrono::steady_clock::now();

  const size_t num_shards =
      std::min(state->requests.size(),
               static_cast<size_t>(options_.num_workers));
  pool_.Submit(
      num_shards,
      [this, state, num_shards](size_t shard) {
        const ShardRange range =
            ShardOf(state->requests.size(), shard, num_shards);
        for (size_t i = range.begin; i < range.end; ++i) {
          Request& request = state->requests[i];
          const auto start = std::chrono::steady_clock::now();
          if (request.ctx.sampled) {
            // Anchor the stage clock at the service-start reading the
            // server already took: stage intervals then live strictly
            // inside [start, end), so their sum can never exceed the
            // service_ns measured from the same readings.
            request.ctx.StartClockAt(ToNs(start));
            request.options.request_context = &request.ctx;
          }
          ServeResponse response;
          response.queue_ns =
              NanosBetween(request.enqueue_time, state->dispatch_time);
          response.batch_size = state->requests.size();
          response.result = handler_(request.question, request.options);
          const auto end = std::chrono::steady_clock::now();
          response.service_ns = NanosBetween(start, end);
          completed_.Add(1);
          KBQA_COUNTER_ADD("online.serve.completed", 1);
          KBQA_HISTOGRAM_RECORD("online.serve.queue_wait_ns",
                                response.queue_ns);
          KBQA_HISTOGRAM_RECORD("online.serve.service_ns",
                                response.service_ns);
          KBQA_HISTOGRAM_RECORD("online.serve.latency_ns",
                                response.queue_ns + response.service_ns);
          const Status& st = response.result.status;
          if (options_.slo != nullptr) {
            options_.slo->RecordRequest(
                st.ok(), NanosBetween(request.enqueue_time, end), ToNs(end));
          }
          if (request.ctx.sampled) {
            obs::WideOutcome outcome;
            if (st.ok()) {
              outcome = response.result.answered
                            ? obs::WideOutcome::kAnswered
                            : obs::WideOutcome::kUnanswered;
            } else if (st.code() == StatusCode::kDeadlineExceeded) {
              outcome = obs::WideOutcome::kDeadlineExceeded;
            } else {
              outcome = obs::WideOutcome::kError;
            }
            obs::WideEvent event =
                BaseEvent(request.ctx, outcome,
                          request.options.deadline.has_value(),
                          request.question.size());
            event.batch_size =
                static_cast<uint32_t>(state->requests.size());
            event.queue_wait_ns = response.queue_ns;
            event.batch_wait_ns =
                NanosBetween(state->dispatch_time, start);
            event.service_ns = response.service_ns;
            event.total_ns = NanosBetween(request.enqueue_time, end);
            // Budget at the decision point: what remained when the batch
            // was handed to the pool (the moment shedding last looked).
            event.deadline_budget_ns = BudgetNsAt(
                request.options.deadline, ToNs(state->dispatch_time));
            event.StampFrom(request.ctx);
            obs::WideEvents::Record(event);
            RecordStageHistograms(request.ctx);
          }
          request.done(std::move(response));
        }
      },
      [this] {
        {
          MutexLock lock(mu_);
          --inflight_batches_;
        }
        batcher_cv_.NotifyOne();
      });
}

}  // namespace kbqa::serve
