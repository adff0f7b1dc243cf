#include "serve_loops.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "trace.h"
#include "util/rng.h"

namespace perfladder {

namespace {

enum Outcome : uint8_t { kPending = 0, kOk, kNotOk, kWrong, kRejected };

float Micros(uint64_t ns) {
  return static_cast<float>(static_cast<double>(ns) * 1e-3);
}

/// One slot per request, written by the request's callback and read by the
/// driving thread only after the loop's completion counter (released by
/// every callback) says all callbacks have run.
struct Slots {
  explicit Slots(size_t n)
      : done_ns(n), latency_us(n), queue_us(n), service_us(n),
        batch_size(n), outcome(n, kPending) {}

  void Fill(size_t i, uint64_t now, uint64_t start_ns,
            const kbqa::serve::ServeResponse& response, uint8_t result) {
    done_ns[i] = now;
    latency_us[i] = Micros(now - start_ns);
    queue_us[i] = Micros(response.queue_ns);
    service_us[i] = Micros(response.service_ns);
    batch_size[i] = static_cast<float>(response.batch_size);
    outcome[i] = result;
  }

  LoopResult Summarize(size_t submitted) const {
    LoopResult out;
    out.submitted = submitted;
    for (size_t i = 0; i < submitted; ++i) {
      switch (outcome[i]) {
        case kOk:
          ++out.completed;
          break;
        case kNotOk:
          ++out.not_ok;
          continue;
        case kWrong:
          ++out.wrong;
          break;
        case kRejected:
          ++out.rejected;
          continue;
        default:
          continue;
      }
      out.latency_us.emplace_back(done_ns[i], latency_us[i]);
      out.queue_us.push_back(queue_us[i]);
      out.service_us.push_back(service_us[i]);
      out.batch_size.push_back(batch_size[i]);
    }
    return out;
  }

  std::vector<uint64_t> done_ns;
  std::vector<float> latency_us;
  std::vector<float> queue_us;
  std::vector<float> service_us;
  std::vector<float> batch_size;
  std::vector<uint8_t> outcome;
};

uint8_t Check(const kbqa::serve::ServeResponse& response,
              const RefAnswer& ref) {
  if (!response.result.status.ok()) return kNotOk;
  return ref.Matches(response.result) ? kOk : kWrong;
}

/// State shared by the closed loop's driving thread and its callbacks;
/// lives until every callback has finished. Only the first kClosedSlots
/// requests keep a slot; every request counts in the outcome and per-window
/// counters.
struct ClosedLoopState {
  static constexpr size_t kClosedSlots = 1 << 18;

  kbqa::serve::Server* server;
  const std::vector<std::string>* questions;
  const std::vector<RefAnswer>* refs;
  const std::vector<uint32_t>* draws;
  uint64_t begin_ns;
  uint64_t end_ns;
  uint64_t max_requests;
  uint64_t request_base;
  Slots slots;
  std::vector<std::atomic<uint64_t>> window_done;
  std::atomic<uint64_t> outcomes[kRejected + 1] = {};
  std::atomic<uint64_t> next{0};
  std::atomic<int64_t> outstanding{0};

  ClosedLoopState(kbqa::serve::Server* s, const std::vector<std::string>* q,
                  const std::vector<RefAnswer>* r,
                  const std::vector<uint32_t>* d, double seconds,
                  uint64_t max)
      : server(s), questions(q), refs(r), draws(d), begin_ns(NowNs()),
        end_ns(begin_ns + static_cast<uint64_t>(seconds * 1e9)),
        max_requests(max),
        request_base(
            trace::NewRequestIds(std::min<uint64_t>(max, kClosedSlots))),
        slots(std::min<uint64_t>(max, kClosedSlots)),
        window_done(static_cast<size_t>(seconds * 1e9 / kRateWindowNs) + 2) {}

  void SubmitNext() {
    const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= max_requests) return;
    outstanding.fetch_add(1, std::memory_order_relaxed);
    const uint32_t q = (*draws)[i % draws->size()];
    const uint64_t start = NowNs();
    const kbqa::Status status = server->Submit(
        (*questions)[q], [this, i, q, start](kbqa::serve::ServeResponse r) {
          OnDone(i, q, start, r);
        });
    trace::Record("serve.submit", "serve.request", request_base + i, start,
                  NowNs());
    if (!status.ok()) {
      outcomes[kRejected].fetch_add(1, std::memory_order_relaxed);
      if (i < slots.outcome.size()) slots.outcome[i] = kRejected;
      outstanding.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  void OnDone(uint64_t i, uint32_t q, uint64_t start,
              const kbqa::serve::ServeResponse& response) {
    const uint64_t now = NowNs();
    const uint8_t outcome = Check(response, (*refs)[q]);
    if (i < slots.outcome.size()) slots.Fill(i, now, start, response, outcome);
    outcomes[outcome].fetch_add(1, std::memory_order_relaxed);
    const size_t w = static_cast<size_t>((now - begin_ns) / kRateWindowNs);
    if (w < window_done.size()) {
      window_done[w].fetch_add(1, std::memory_order_relaxed);
    }
    const uint64_t checked = NowNs();
    trace::Record("serve.check", "serve.request", request_base + i, now,
                  checked);
    trace::Record("serve.request", nullptr, request_base + i, start, checked);
    if (checked < end_ns) SubmitNext();
    outstanding.fetch_sub(1, std::memory_order_acq_rel);
  }
};

}  // namespace

LoopResult RunOpenLoop(kbqa::serve::Server& server,
                       const std::vector<std::string>& questions,
                       const std::vector<RefAnswer>& refs,
                       const std::vector<uint32_t>& draws, double rate_qps,
                       double seconds, uint64_t seed) {
  // The arrival schedule is fixed before the first send: Poisson gaps at
  // the workload's constant rate, never adjusted to how the server keeps
  // up.
  const size_t n = static_cast<size_t>(rate_qps * seconds);
  std::vector<uint64_t> offsets(n);
  kbqa::Rng rng(seed);
  double t = 0;
  for (uint64_t& offset : offsets) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_qps;
    offset = static_cast<uint64_t>(t * 1e9);
  }
  Slots slots(n);
  std::atomic<uint64_t> finished{0};
  std::vector<double> lateness_us;
  lateness_us.reserve(n);
  const uint64_t request_base = trace::NewRequestIds(n);
  const uint64_t begin = NowNs() + 1'000'000;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t due = begin + offsets[i];
    WaitUntil(due);
    const uint64_t sent = NowNs();
    lateness_us.push_back(static_cast<double>(sent - due) * 1e-3);
    const uint32_t q = draws[i % draws.size()];
    const kbqa::Status status = server.Submit(
        questions[q], [&slots, &finished, &refs, i, q, due,
                       request_base](kbqa::serve::ServeResponse r) {
          const uint64_t now = NowNs();
          slots.Fill(i, now, due, r, Check(r, refs[q]));
          const uint64_t checked = NowNs();
          trace::Record("serve.check", "serve.request", request_base + i, now,
                        checked);
          trace::Record("serve.request", nullptr, request_base + i, due,
                        checked);
          finished.fetch_add(1, std::memory_order_release);
        });
    trace::Record("serve.submit", "serve.request", request_base + i, sent,
                  NowNs());
    if (!status.ok()) {
      slots.outcome[i] = kRejected;
      finished.fetch_add(1, std::memory_order_release);
    }
  }
  while (finished.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  LoopResult out = slots.Summarize(n);
  out.begin_ns = begin;
  out.end_ns = NowNs();
  out.lateness_us = std::move(lateness_us);
  return out;
}

LoopResult RunClosedLoop(kbqa::serve::Server& server,
                         const std::vector<std::string>& questions,
                         const std::vector<RefAnswer>& refs,
                         const std::vector<uint32_t>& draws, size_t window,
                         double seconds, uint64_t max_requests) {
  auto state = std::make_unique<ClosedLoopState>(&server, &questions, &refs,
                                                 &draws, seconds, max_requests);
  for (size_t w = 0; w < window; ++w) state->SubmitNext();
  while (state->outstanding.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const uint64_t submitted =
      std::min(state->next.load(std::memory_order_relaxed), max_requests);
  // Slots hold per-request figures; the counters hold every outcome.
  LoopResult out = state->slots.Summarize(
      std::min<size_t>(submitted, state->slots.outcome.size()));
  out.submitted = submitted;
  out.completed = state->outcomes[kOk].load();
  out.not_ok = state->outcomes[kNotOk].load();
  out.wrong = state->outcomes[kWrong].load();
  out.rejected = state->outcomes[kRejected].load();
  out.begin_ns = state->begin_ns;
  out.end_ns = NowNs();
  // Full windows only: the last one the loop reached is partial.
  const uint64_t full = (std::min(out.end_ns, state->end_ns) - out.begin_ns) /
                        kRateWindowNs;
  for (uint64_t w = 0; w < full && w < state->window_done.size(); ++w) {
    out.window_rates.push_back(
        static_cast<double>(state->window_done[w].load()) * 1e9 /
        static_cast<double>(kRateWindowNs));
  }
  return out;
}

void AddToTally(const LoopResult& loop, Tally* tally) {
  tally->attempted += loop.submitted;
  tally->failed += loop.rejected + loop.not_ok + loop.wrong;
  tally->wrong += loop.wrong;
}

}  // namespace perfladder
