#include "serve/server.h"

#include <algorithm>
#include <array>
#include <cstddef>
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

bool IsExpired(
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::chrono::steady_clock::time_point now) {
  return deadline && *deadline <= now;
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
    : handler_(std::move(handler)), options_(Sanitize(options)) {
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  reaper_ = std::thread([this] { ReaperLoop(); });
}

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
  work_cv_.NotifyAll();
  reaper_cv_.NotifyAll();
  // The reaper sheds whatever is still queued, then exits; each worker
  // finishes the batch it holds (its callbacks included) and exits.
  reaper_.join();
  for (std::thread& worker : workers_) worker.join();
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
  // The wide-event sampling decision is fixed at admission so every layer
  // downstream sees a consistent answer, and so rejections are sampled at
  // the same rate as served requests.
  if (obs::WideEvents::Sample()) {
    request.ctx.sampled = true;
    request.ctx.trace_id = obs::WideEvents::NextTraceId();
    request.ctx.admit_ns = ToNs(request.enqueue_time);
  }
  bool wake_worker = false;
  bool wake_reaper = false;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      rejected_.Add(1);
      KBQA_COUNTER_ADD("online.serve.rejected", 1);
      RecordRejected(request);
      return Status::Unavailable("server shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      rejected_.Add(1);
      KBQA_COUNTER_ADD("online.serve.rejected", 1);
      RecordRejected(request);
      return Status::Unavailable("serving queue full");
    }
    // Wake the reaper only when this request's deadline comes before the
    // reaper's current wait would end.
    wake_reaper = request.options.deadline &&
                  *request.options.deadline < reaper_wake_at_;
    wake_worker = queue_.empty();
    queue_.push_back(std::move(request));
    KBQA_GAUGE_SET("online.serve.queue_depth", queue_.size());
  }
  if (wake_worker) work_cv_.NotifyOne();
  if (wake_reaper) reaper_cv_.NotifyOne();
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

void Server::ShedExpired(Request* request) {
  shed_expired_.Add(1);
  KBQA_COUNTER_ADD("online.serve.shed_expired", 1);
  CompleteShed(request, Status::DeadlineExceeded("deadline expired in queue"),
               obs::WideOutcome::kShedExpired);
}

void Server::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch;
    std::vector<Request> expired;
    std::chrono::steady_clock::time_point take_time;
    bool more = false;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (stopping_) return;
      // Take what is queued, up to a full batch. A request whose deadline
      // already lapsed never reaches the handler and never enters template
      // matching.
      take_time = std::chrono::steady_clock::now();
      const size_t take = std::min(queue_.size(), options_.max_batch_size);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        Request& request = queue_.front();
        if (IsExpired(request.options.deadline, take_time)) {
          expired.push_back(std::move(request));
        } else {
          batch.push_back(std::move(request));
        }
        queue_.pop_front();
      }
      KBQA_GAUGE_SET("online.serve.queue_depth", queue_.size());
      more = !queue_.empty();
    }
    if (more) work_cv_.NotifyOne();
    // Outside mu_: callbacks may re-enter Submit.
    for (Request& request : expired) ShedExpired(&request);
    if (!batch.empty()) ServeBatch(std::move(batch), take_time);
  }
}

bool Server::TakeExpired(std::vector<Request>* expired) {
  const auto now = std::chrono::steady_clock::now();
  reaper_wake_at_ = kNoTimeout;
  size_t kept = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    Request& request = queue_[i];
    if (IsExpired(request.options.deadline, now)) {
      expired->push_back(std::move(request));
      continue;
    }
    if (request.options.deadline) {
      reaper_wake_at_ = std::min(reaper_wake_at_, *request.options.deadline);
    }
    if (kept != i) queue_[kept] = std::move(request);
    ++kept;
  }
  if (expired->empty()) return false;
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
               queue_.end());
  KBQA_GAUGE_SET("online.serve.queue_depth", queue_.size());
  return true;
}

void Server::ReaperLoop() {
  for (;;) {
    std::vector<Request> expired;
    {
      MutexLock lock(mu_);
      while (!stopping_ && !TakeExpired(&expired)) {
        if (reaper_wake_at_ == kNoTimeout) {
          reaper_cv_.Wait(mu_);
        } else {
          reaper_cv_.WaitUntil(mu_, reaper_wake_at_);
        }
      }
      reaper_wake_at_ = kNotWaiting;
      if (stopping_) break;
    }
    // Outside mu_: callbacks may re-enter Submit.
    for (Request& request : expired) ShedExpired(&request);
  }
  // Shutdown: complete whatever is still queued without serving it, so
  // every accepted callback fires exactly once.
  std::deque<Request> leftover;
  {
    MutexLock lock(mu_);
    leftover.swap(queue_);
    KBQA_GAUGE_SET("online.serve.queue_depth", 0);
  }
  for (Request& request : leftover) {
    shed_shutdown_.Add(1);
    KBQA_COUNTER_ADD("online.serve.shed_shutdown", 1);
    CompleteShed(&request, Status::Unavailable("server shutting down"),
                 obs::WideOutcome::kShedShutdown);
  }
}

void Server::ServeBatch(std::vector<Request> batch,
                        std::chrono::steady_clock::time_point take_time) {
  batches_.Add(1);
  KBQA_COUNTER_ADD("online.serve.batches", 1);
  KBQA_HISTOGRAM_RECORD("online.serve.batch_size", batch.size());
  for (Request& request : batch) {
    const auto start = std::chrono::steady_clock::now();
    if (request.ctx.sampled) {
      // Anchor the stage clock at the service-start reading the server
      // already took: stage intervals then live strictly inside
      // [start, end), so their sum can never exceed the service_ns
      // measured from the same readings.
      request.ctx.StartClockAt(ToNs(start));
      request.options.request_context = &request.ctx;
    }
    ServeResponse response;
    response.queue_ns = NanosBetween(request.enqueue_time, take_time);
    response.batch_size = batch.size();
    response.result = handler_(request.question, request.options);
    const auto end = std::chrono::steady_clock::now();
    response.service_ns = NanosBetween(start, end);
    completed_.Add(1);
    KBQA_COUNTER_ADD("online.serve.completed", 1);
    KBQA_HISTOGRAM_RECORD("online.serve.queue_wait_ns", response.queue_ns);
    KBQA_HISTOGRAM_RECORD("online.serve.service_ns", response.service_ns);
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
        outcome = response.result.answered ? obs::WideOutcome::kAnswered
                                           : obs::WideOutcome::kUnanswered;
      } else if (st.code() == StatusCode::kDeadlineExceeded) {
        outcome = obs::WideOutcome::kDeadlineExceeded;
      } else {
        outcome = obs::WideOutcome::kError;
      }
      obs::WideEvent event =
          BaseEvent(request.ctx, outcome, request.options.deadline.has_value(),
                    request.question.size());
      event.batch_size = static_cast<uint32_t>(batch.size());
      event.queue_wait_ns = response.queue_ns;
      event.batch_wait_ns = NanosBetween(take_time, start);
      event.service_ns = response.service_ns;
      event.total_ns = NanosBetween(request.enqueue_time, end);
      // Budget at the decision point: what remained when the worker took
      // the batch (the moment shedding last looked).
      event.deadline_budget_ns =
          BudgetNsAt(request.options.deadline, ToNs(take_time));
      event.StampFrom(request.ctx);
      obs::WideEvents::Record(event);
      RecordStageHistograms(request.ctx);
    }
    request.done(std::move(response));
  }
}

}  // namespace kbqa::serve
