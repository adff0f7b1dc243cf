#ifndef PERFLADDER_SERVE_LOOPS_H_
#define PERFLADDER_SERVE_LOOPS_H_

// Load generators in front of serve::Server: an open loop (one submitter
// thread, arrivals on a precomputed schedule) and a closed loop (a fixed
// window of outstanding requests, resubmitted from the completion
// callback).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ladder.h"
#include "serve/server.h"

namespace perfladder {

/// What one loop observed. Latencies are in microseconds.
struct LoopResult {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;  // callbacks with an OK status and right answer
  uint64_t rejected = 0;   // Submit refused
  uint64_t not_ok = 0;     // callback with a non-OK status (shed)
  uint64_t wrong = 0;      // OK status, answer differs from the reference
  /// (completion time, latency): open loop from the scheduled arrival,
  /// closed loop from the Submit call.
  std::vector<std::pair<uint64_t, double>> latency_us;
  std::vector<double> queue_us;
  std::vector<double> service_us;
  std::vector<double> batch_size;
  /// Open loop only: actual send time minus scheduled time.
  std::vector<double> lateness_us;
  /// Closed loop only: completions per second in each full rate window.
  std::vector<double> window_rates;
};

/// Width of the windows rates are taken over.
inline constexpr uint64_t kRateWindowNs = 500'000'000;

/// Poisson arrivals at `rate_qps` for `seconds`; arrival i asks
/// questions[draws[i % draws.size()]].
LoopResult RunOpenLoop(kbqa::serve::Server& server,
                       const std::vector<std::string>& questions,
                       const std::vector<RefAnswer>& refs,
                       const std::vector<uint32_t>& draws, double rate_qps,
                       double seconds, uint64_t seed);

/// `window` requests kept outstanding until `seconds` pass or
/// `max_requests` have been sent, whichever comes first; request i asks
/// questions[draws[i % draws.size()]]. Per-request figures (latency, queue,
/// service, batch size) are kept for the first 2^18 requests only.
LoopResult RunClosedLoop(kbqa::serve::Server& server,
                         const std::vector<std::string>& questions,
                         const std::vector<RefAnswer>& refs,
                         const std::vector<uint32_t>& draws, size_t window,
                         double seconds, uint64_t max_requests);

/// Adds a loop's outcomes to the run's tally.
void AddToTally(const LoopResult& loop, Tally* tally);

}  // namespace perfladder

#endif  // PERFLADDER_SERVE_LOOPS_H_
