#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <vector>

namespace kbqa::obs {

void WriteSpanSummary(std::ostream& os, size_t top_n) {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::vector<const MetricsSnapshot::HistogramEntry*> spans;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("span.", 0) == 0 && h.count > 0) spans.push_back(&h);
  }
  std::sort(spans.begin(), spans.end(),
            [](const auto* a, const auto* b) {
              if (a->sum != b->sum) return a->sum > b->sum;
              return a->name < b->name;
            });
  if (spans.size() > top_n) spans.resize(top_n);

  os << "[obs] top spans by total time\n";
  char buf[160];
  for (const auto* h : spans) {
    std::snprintf(buf, sizeof(buf),
                  "  %-32s count %-10llu total %10.3f ms   avg %9.3f us   "
                  "p99 %9.3f us\n",
                  h->name.c_str(),
                  static_cast<unsigned long long>(h->count),
                  static_cast<double>(h->sum) / 1e6,
                  h->Mean() / 1e3,
                  static_cast<double>(h->ValueAtQuantile(0.99)) / 1e3);
    os << buf;
  }
  if (spans.empty()) os << "  (no spans recorded)\n";
}

}  // namespace kbqa::obs
