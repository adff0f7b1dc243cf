#ifndef KBQA_OBS_OBS_H_
#define KBQA_OBS_OBS_H_

/// Umbrella header for instrumentation sites: include this and use the
/// macros below. Each macro caches its registry lookup in a function-local
/// static, so the steady-state cost is the increment alone. Guard any
/// surrounding stat computation with `if (obs::Enabled())`.

#include "obs/metrics.h"
#include "obs/trace.h"

#define KBQA_OBS_CONCAT_INNER(a, b) a##b
#define KBQA_OBS_CONCAT(a, b) KBQA_OBS_CONCAT_INNER(a, b)

/// Bumps the named process-wide counter by n.
#define KBQA_COUNTER_ADD(name, n)                                        \
  do {                                                                   \
    static ::kbqa::obs::Counter* const kbqa_obs_counter =                \
        ::kbqa::obs::MetricsRegistry::Global().GetCounter(name);         \
    kbqa_obs_counter->Add(static_cast<uint64_t>(n));                     \
  } while (0)

/// Sets the named gauge to v (converted to double).
#define KBQA_GAUGE_SET(name, v)                                          \
  do {                                                                   \
    static ::kbqa::obs::Gauge* const kbqa_obs_gauge =                    \
        ::kbqa::obs::MetricsRegistry::Global().GetGauge(name);           \
    kbqa_obs_gauge->Set(static_cast<double>(v));                         \
  } while (0)

/// Records v into the named log-bucketed histogram.
#define KBQA_HISTOGRAM_RECORD(name, v)                                   \
  do {                                                                   \
    static ::kbqa::obs::Histogram* const kbqa_obs_histogram =            \
        ::kbqa::obs::MetricsRegistry::Global().GetHistogram(name);       \
    kbqa_obs_histogram->Record(static_cast<uint64_t>(v));                \
  } while (0)

/// Scoped span: records the scope's elapsed steady-clock ns into histogram
/// "span.<name>" on exit. Use for coarse offline stages (EM iterations, BFS
/// rounds, pool tasks); the answer path is timed by obs::RequestContext
/// instead.
#define KBQA_TRACE_SPAN(name)                                            \
  static const ::kbqa::obs::SpanSite KBQA_OBS_CONCAT(kbqa_obs_site_,     \
                                                     __LINE__){name};    \
  const ::kbqa::obs::SpanGuard KBQA_OBS_CONCAT(kbqa_obs_span_,           \
                                               __LINE__)(                \
      &KBQA_OBS_CONCAT(kbqa_obs_site_, __LINE__))

#endif  // KBQA_OBS_OBS_H_
