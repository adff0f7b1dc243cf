#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace perfladder::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_request{1};

/// Every thread's span buffer; buffers outlive their threads so spans
/// recorded on short-lived threads survive until Collect.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

std::vector<Span>& ThreadBuffer() {
  thread_local std::vector<Span>* buffer = [] {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<std::vector<Span>>());
    registry.buffers.back()->reserve(1 << 16);
    return registry.buffers.back().get();
  }();
  return *buffer;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Record(const char* name, const char* parent, uint64_t request,
            uint64_t start_ns, uint64_t end_ns) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer().push_back(Span{name, parent, request, start_ns, end_ns});
}

uint64_t NewRequestIds(uint64_t n) {
  return g_next_request.fetch_add(n, std::memory_order_relaxed);
}

std::vector<Span> Collect() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<Span> spans;
  for (const auto& buffer : registry.buffers) {
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return spans;
}

std::vector<SpanSummary> Summarize(const std::vector<Span>& spans) {
  // Parent candidates by (request, name); a child attaches to the
  // candidate whose interval contains its start.
  using Key = std::pair<uint64_t, std::string_view>;
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return std::hash<std::string_view>()(key.second) ^
             std::hash<uint64_t>()(key.first * 0x9e3779b97f4a7c15ULL);
    }
  };
  std::unordered_map<Key, std::vector<size_t>, KeyHash> by_key;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_key[{spans[i].request, spans[i].name}].push_back(i);
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& child : spans) {
    if (child.parent == nullptr) continue;
    auto it = by_key.find(Key{child.request, child.parent});
    if (it == by_key.end()) continue;
    for (size_t p : it->second) {
      const Span& parent = spans[p];
      if (child.start_ns >= parent.start_ns &&
          child.start_ns <= parent.end_ns) {
        children[p].emplace_back(std::max(child.start_ns, parent.start_ns),
                                 std::min(child.end_ns, parent.end_ns));
        break;
      }
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const uint64_t duration =
        span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
    // Union of child intervals: children on other threads may overlap.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cur_begin = 0;
    uint64_t cur_end = 0;
    bool open = false;
    for (const auto& [begin, end] : kids) {
      if (end <= begin) continue;
      if (open && begin <= cur_end) {
        cur_end = std::max(cur_end, end);
        continue;
      }
      if (open) covered += cur_end - cur_begin;
      cur_begin = begin;
      cur_end = end;
      open = true;
    }
    if (open) covered += cur_end - cur_begin;
    SpanSummary& summary = by_name[span.name];
    summary.name = span.name;
    ++summary.count;
    summary.total_ns += static_cast<double>(duration);
    summary.self_ns +=
        static_cast<double>(duration - std::min(covered, duration));
  }
  std::vector<SpanSummary> out;
  for (auto& [name, summary] : by_name) out.push_back(summary);
  return out;
}

bool WriteJsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"parent\":%s%s%s,\"request\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 span.name, span.parent ? "\"" : "",
                 span.parent ? span.parent : "null", span.parent ? "\"" : "",
                 static_cast<unsigned long long>(span.request),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfladder::trace
