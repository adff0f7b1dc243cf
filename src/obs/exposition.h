#ifndef KBQA_OBS_EXPOSITION_H_
#define KBQA_OBS_EXPOSITION_H_

/// TablePrinter rendering of a MetricsSnapshot. Header-only on purpose:
/// kbqa_util links *against* kbqa_obs (the thread pool is instrumented),
/// so the obs library cannot itself link util symbols without a static
/// library cycle — every includer of this header already links both.

#include <ostream>
#include <string>

#include "obs/metrics.h"
#include "util/table_printer.h"

namespace kbqa::obs {

/// Renders the snapshot as two aligned tables: scalar metrics (counters +
/// gauges) and histograms with interpolated quantiles. Histogram values
/// are unit-free; by convention latency metrics carry a "_ns" suffix or a
/// "span." prefix (always nanoseconds).
inline void RenderMetricsTable(const MetricsSnapshot& snap,
                               std::ostream& os) {
  TablePrinter scalars("Observability: counters & gauges");
  scalars.SetHeader({"metric", "value"});
  for (const auto& c : snap.counters) {
    scalars.AddRow({c.name, TablePrinter::Int(static_cast<long long>(c.value))});
  }
  for (const auto& g : snap.gauges) {
    scalars.AddRow({g.name, TablePrinter::Num(g.value, 3)});
  }
  scalars.Print(os);

  TablePrinter hists("Observability: histograms (log2 buckets)");
  hists.SetHeader({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    hists.AddRow({h.name,
                  TablePrinter::Int(static_cast<long long>(h.count)),
                  TablePrinter::Num(h.Mean(), 1),
                  TablePrinter::Int(static_cast<long long>(
                      h.ValueAtQuantile(0.50))),
                  TablePrinter::Int(static_cast<long long>(
                      h.ValueAtQuantile(0.90))),
                  TablePrinter::Int(static_cast<long long>(
                      h.ValueAtQuantile(0.99))),
                  TablePrinter::Int(static_cast<long long>(
                      h.ValueAtQuantile(1.0)))});
  }
  hists.Print(os);
}

}  // namespace kbqa::obs

#endif  // KBQA_OBS_EXPOSITION_H_
