#ifndef KBQA_OBS_TRACE_H_
#define KBQA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "obs/metrics.h"

namespace kbqa::obs {

class SpanSite;

namespace internal {

/// True while Tracing::Start()/Stop() bounds a collection window.
inline std::atomic<bool> g_trace_active{false};

/// SpanGuard's slow path: records the elapsed time into the site's
/// histogram and appends a trace event while a trace is active.
void FinishSpan(const SpanSite* site, uint64_t begin_ticks);

}  // namespace internal

/// One static instrumentation site created by KBQA_TRACE_SPAN. Interns the
/// "span.<name>" latency histogram once; the per-entry cost is just the
/// guard below.
class SpanSite {
 public:
  explicit SpanSite(const char* name)
      : name_(name),
        histogram_(MetricsRegistry::Global().GetHistogram(
            std::string("span.") + name)) {}

  const char* name() const { return name_; }
  Histogram* histogram() const { return histogram_; }

 private:
  const char* name_;
  Histogram* histogram_;
};

/// RAII span: on destruction records the elapsed nanoseconds into the
/// site's histogram and, when a trace is being collected, appends a trace
/// event to the calling thread's ring buffer.
class SpanGuard {
 public:
  explicit SpanGuard(const SpanSite* site) : site_(site) {
    if (!RuntimeEnabled()) {
      site_ = nullptr;
      return;
    }
    begin_ = NowTicks();
  }
  ~SpanGuard() {
    if (site_ != nullptr) internal::FinishSpan(site_, begin_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const SpanSite* site_;  // null when this entry was skipped
  uint64_t begin_ = 0;
};

/// Process-wide trace collection over per-thread ring buffers. Spans feed
/// their histograms whether or not a trace is active; Start()/Stop()
/// bound the window in which they additionally emit trace events.
class Tracing {
 public:
  /// Clears all ring buffers and starts collecting.
  static void Start();
  static void Stop();
  static bool active() {
    return internal::g_trace_active.load(std::memory_order_relaxed);
  }

  /// Writes the collected events as Chrome trace-event JSON (load in
  /// chrome://tracing or Perfetto). Events are sorted by (thread, begin
  /// time), so the single-threaded export is deterministic in structure.
  static void ExportChromeTrace(std::ostream& os);

  /// Plain-text top-N summary of all span histograms ("span.*" in the
  /// global registry) ordered by total time.
  static void WriteSpanSummary(std::ostream& os, size_t top_n);

  /// Events currently held across all rings (capped by ring capacity).
  static size_t CollectedEvents();
};

}  // namespace kbqa::obs

#endif  // KBQA_OBS_TRACE_H_
