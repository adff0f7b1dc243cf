#ifndef PERFLADDER_TRACE_H_
#define PERFLADDER_TRACE_H_

// The ladder's own spans, recorded around calls into each layer. Spans are
// kept in per-thread memory while the run is timed and written out when it
// ends. A span names its parent by name within the same request id, which
// lets a span end on another thread than the one it started on (a served
// request starts at its scheduled arrival and ends in its callback).

#include <cstdint>
#include <string>
#include <vector>

namespace perfladder {

struct Span {
  const char* name = nullptr;
  const char* parent = nullptr;  // null for a root span
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Per-name totals over every recorded span.
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // duration minus the union of its children's
};

namespace trace {

/// Spans are recorded only while enabled; off by default.
void SetEnabled(bool on);

/// Records one finished span on the calling thread's buffer. Names must be
/// string literals: spans keep the pointer.
void Record(const char* name, const char* parent, uint64_t request,
            uint64_t start_ns, uint64_t end_ns);

/// Reserves `n` consecutive request ids, unique within the process.
uint64_t NewRequestIds(uint64_t n);

/// Every span recorded so far, across threads.
std::vector<Span> Collect();
/// Self time per span name: a span's duration minus the part of its
/// interval that its children (same request, parent == its name) cover.
std::vector<SpanSummary> Summarize(const std::vector<Span>& spans);
/// Writes one JSON object per span; false when the file cannot be written.
bool WriteJsonl(const std::vector<Span>& spans, const std::string& path);

}  // namespace trace
}  // namespace perfladder

#endif  // PERFLADDER_TRACE_H_
