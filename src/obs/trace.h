#ifndef KBQA_OBS_TRACE_H_
#define KBQA_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.h"

namespace kbqa::obs {

/// One static instrumentation site created by KBQA_TRACE_SPAN. Interns the
/// "span.<name>" latency histogram once; the per-entry cost is just the
/// guard below.
class SpanSite {
 public:
  explicit SpanSite(const char* name)
      : histogram_(MetricsRegistry::Global().GetHistogram(
            std::string("span.") + name)) {}

  Histogram* histogram() const { return histogram_; }

 private:
  Histogram* histogram_;
};

/// RAII span: on destruction records the elapsed steady-clock nanoseconds
/// into the site's histogram. A span entered while the registry is
/// disabled records nothing.
class SpanGuard {
 public:
  explicit SpanGuard(const SpanSite* site) : site_(site) {
    if (!Enabled()) {
      site_ = nullptr;
      return;
    }
    begin_ns_ = NowSteadyNs();
  }
  ~SpanGuard() {
    if (site_ != nullptr) site_->histogram()->Record(NowSteadyNs() - begin_ns_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const SpanSite* site_;  // null when this entry was skipped
  uint64_t begin_ns_ = 0;
};

/// Plain-text top-N summary of all span histograms ("span.*" in the global
/// registry) ordered by total time.
void WriteSpanSummary(std::ostream& os, size_t top_n);

}  // namespace kbqa::obs

#endif  // KBQA_OBS_TRACE_H_
