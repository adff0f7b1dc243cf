#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa::obs {

namespace {

/// One exported trace row (a relaxed snapshot of a ring slot).
struct TraceEvent {
  const char* name;      // static string owned by the SpanSite
  uint64_t begin_ticks;
  uint64_t dur_ns;
};

constexpr size_t kRingCapacity = 1 << 14;  // per thread; oldest overwritten

/// One ring slot. Fields are individually atomic (relaxed — plain stores
/// on x86) so an export that overlaps live recording reads well-defined
/// values instead of racing: a torn slot can mix two events' fields, but
/// exports taken after Tracing::Stop() + quiescence see exact data, and a
/// mid-flight export degrades to at most one stale/mixed row per thread
/// rather than undefined behavior.
struct TraceSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> begin_ticks{0};
  std::atomic<uint64_t> dur_ns{0};
};

/// Per-thread event ring. Only the owning thread writes. `count` is the
/// monotone number of events ever pushed (slot = count % capacity).
struct ThreadRing {
  std::vector<TraceSlot> events{kRingCapacity};
  std::atomic<uint64_t> count{0};
  uint32_t tid = 0;
};

struct TraceState {
  Mutex mu;
  /// Guarded: the vector grows when new threads register their rings; the
  /// rings themselves are written lock-free by their owning threads.
  std::vector<std::unique_ptr<ThreadRing>> rings GUARDED_BY(mu);
  std::atomic<uint64_t> start_ticks{0};
};

TraceState& State() {
  // Leaked: rings must outlive thread exit and static destruction order.
  static TraceState* const kState = new TraceState();  // NOLINT(kbqa-naked-new)
  return *kState;
}

ThreadRing* LocalRing() {
  thread_local ThreadRing* const ring = [] {
    auto owned = std::make_unique<ThreadRing>();
    TraceState& s = State();
    MutexLock lock(s.mu);
    owned->tid = static_cast<uint32_t>(s.rings.size());
    s.rings.push_back(std::move(owned));
    return s.rings.back().get();
  }();
  return ring;
}

}  // namespace

namespace internal {

void FinishSpan(const SpanSite* site, uint64_t begin_ticks) {
  const uint64_t end = NowTicks();
  const uint64_t dur_ns = TicksToNanos(end - begin_ticks);
  site->histogram()->Record(dur_ns);
  if (g_trace_active.load(std::memory_order_relaxed)) {
    ThreadRing* ring = LocalRing();
    const uint64_t idx = ring->count.load(std::memory_order_relaxed);
    TraceSlot& slot = ring->events[idx % kRingCapacity];
    slot.name.store(site->name(), std::memory_order_relaxed);
    slot.begin_ticks.store(begin_ticks, std::memory_order_relaxed);
    slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
    ring->count.store(idx + 1, std::memory_order_release);
  }
}

}  // namespace internal

void Tracing::Start() {
  TraceState& s = State();
  MutexLock lock(s.mu);
  for (auto& ring : s.rings) ring->count.store(0, std::memory_order_relaxed);
  s.start_ticks.store(NowTicks(), std::memory_order_relaxed);
  internal::g_trace_active.store(true, std::memory_order_release);
}

void Tracing::Stop() {
  internal::g_trace_active.store(false, std::memory_order_release);
}

size_t Tracing::CollectedEvents() {
  TraceState& s = State();
  MutexLock lock(s.mu);
  size_t total = 0;
  for (const auto& ring : s.rings) {
    total += static_cast<size_t>(std::min<uint64_t>(
        ring->count.load(std::memory_order_acquire), kRingCapacity));
  }
  return total;
}

void Tracing::ExportChromeTrace(std::ostream& os) {
  struct Row {
    uint32_t tid;
    const char* name;
    uint64_t begin_ticks;
    uint64_t dur_ns;
  };
  std::vector<Row> rows;
  uint64_t dropped = 0;
  uint64_t start_ticks = 0;
  {
    TraceState& s = State();
    MutexLock lock(s.mu);
    start_ticks = s.start_ticks.load(std::memory_order_relaxed);
    for (const auto& ring : s.rings) {
      const uint64_t count = ring->count.load(std::memory_order_acquire);
      const uint64_t kept = std::min<uint64_t>(count, kRingCapacity);
      dropped += count - kept;
      for (uint64_t i = 0; i < kept; ++i) {
        const TraceSlot& slot = ring->events[i];
        const TraceEvent e{slot.name.load(std::memory_order_relaxed),
                           slot.begin_ticks.load(std::memory_order_relaxed),
                           slot.dur_ns.load(std::memory_order_relaxed)};
        // A slot published before the acquire-read of `count` is complete;
        // a null name can only appear if an export overlaps live recording
        // (torn slot) — skip it rather than emit a broken row.
        if (e.name == nullptr) continue;
        rows.push_back({ring->tid, e.name, e.begin_ticks, e.dur_ns});
      }
    }
  }
  // Ring order is span-*completion* order; present begin order instead
  // (and make the export deterministic for a fixed span structure).
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.begin_ticks != b.begin_ticks) return a.begin_ticks < b.begin_ticks;
    return std::strcmp(a.name, b.name) < 0;
  });

  os << "{\"displayTimeUnit\": \"ms\", \"droppedEvents\": " << dropped
     << ", \"traceEvents\": [";
  char buf[64];
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const uint64_t rel =
        r.begin_ticks >= start_ticks ? r.begin_ticks - start_ticks : 0;
    os << (i ? ",\n" : "\n");
    os << "{\"name\": \"" << r.name
       << "\", \"cat\": \"kbqa\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << r.tid << ", \"ts\": ";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(TicksToNanos(rel)) / 1000.0);
    os << buf << ", \"dur\": ";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(r.dur_ns) / 1000.0);
    os << buf << "}";
  }
  os << (rows.empty() ? "]}\n" : "\n]}\n");
}

void Tracing::WriteSpanSummary(std::ostream& os, size_t top_n) {
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
                  "p99 <= %9.3f us\n",
                  h->name.c_str(),
                  static_cast<unsigned long long>(h->count),
                  static_cast<double>(h->sum) / 1e6,
                  h->Mean() / 1e3,
                  static_cast<double>(h->ApproxQuantile(0.99)) / 1e3);
    os << buf;
  }
  if (spans.empty()) os << "  (no spans recorded)\n";
}

}  // namespace kbqa::obs
