#include "obs/wide_event.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa::obs {

namespace {

constexpr const char* kStageNames[kWideStageCount] = {
    "ner", "conceptualize", "template_match", "score", "value_lookup",
    "rank",
};

constexpr const char* kOutcomeNames[kWideOutcomeCount] = {
    "answered",     "unanswered",   "deadline_exceeded", "error",
    "rejected",     "shed_expired", "shed_shutdown",
};

// ---- ring slot packing -------------------------------------------------
//
// A WideEvent flattens into a fixed array of uint64 words so a ring slot
// can be per-field atomic. Word 0 is the slot's sequence tag: the monotone
// event index + 1, stored before the payload. Each payload word is stored
// with release and loaded with acquire, so a reader whose copy picked up
// any word of a lapping write is guaranteed to see that write's new tag
// when it re-reads the tag after the copy (ReadRow); a row whose tag is
// not index + 1 on both reads is rejected, never returned torn.

constexpr size_t kSlotWords = 24;

enum SlotWord : size_t {
  kWordSeq = 0,
  kWordTraceId,
  kWordAdmitNs,
  kWordFlags,          // outcome | has_deadline << 8
  kWordSizes,          // batch_size | question_bytes << 32
  kWordQueueWaitNs,
  kWordBatchWaitNs,
  kWordServiceNs,
  kWordTotalNs,
  kWordBudgetNs,       // int64 bit-cast
  kWordStageNs0,       // .. kWordStageNs0 + 5
  kWordStageCounts0 = kWordStageNs0 + kWideStageCount,  // 2 counts per word
  kWordValueCache = kWordStageCounts0 + 3,  // hits | misses << 32
  kWordAnswerCache,
  kWordBlockCache,
  kWordBlocksDecoded,
  kWordKbEpoch,
};
static_assert(kWordKbEpoch == kSlotWords - 1, "slot layout mismatch");

uint64_t PackPair(uint32_t lo, uint32_t hi) {
  return static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
}

void EncodeEvent(const WideEvent& e, uint64_t (&w)[kSlotWords]) {
  w[kWordTraceId] = e.trace_id;
  w[kWordAdmitNs] = e.admit_ns;
  w[kWordFlags] = static_cast<uint64_t>(e.outcome) |
                  (static_cast<uint64_t>(e.has_deadline ? 1 : 0) << 8);
  w[kWordSizes] = PackPair(e.batch_size, e.question_bytes);
  w[kWordQueueWaitNs] = e.queue_wait_ns;
  w[kWordBatchWaitNs] = e.batch_wait_ns;
  w[kWordServiceNs] = e.service_ns;
  w[kWordTotalNs] = e.total_ns;
  w[kWordBudgetNs] = static_cast<uint64_t>(e.deadline_budget_ns);
  for (size_t i = 0; i < kWideStageCount; ++i) {
    w[kWordStageNs0 + i] = e.stages[i].ns;
  }
  for (size_t i = 0; i < 3; ++i) {
    w[kWordStageCounts0 + i] =
        PackPair(e.stages[2 * i].count, e.stages[2 * i + 1].count);
  }
  w[kWordValueCache] = PackPair(e.value_cache_hits, e.value_cache_misses);
  w[kWordAnswerCache] = PackPair(e.answer_cache_hits, e.answer_cache_misses);
  w[kWordBlockCache] = PackPair(e.block_cache_hits, e.block_cache_misses);
  w[kWordBlocksDecoded] = e.blocks_decoded;
  w[kWordKbEpoch] = e.kb_epoch;
}

WideEvent DecodeEvent(const uint64_t (&w)[kSlotWords]) {
  WideEvent e;
  e.trace_id = w[kWordTraceId];
  e.admit_ns = w[kWordAdmitNs];
  uint64_t outcome = w[kWordFlags] & 0xff;
  if (outcome >= kWideOutcomeCount) outcome = 0;  // never index past names
  e.outcome = static_cast<WideOutcome>(outcome);
  e.has_deadline = ((w[kWordFlags] >> 8) & 1) != 0;
  e.batch_size = static_cast<uint32_t>(w[kWordSizes]);
  e.question_bytes = static_cast<uint32_t>(w[kWordSizes] >> 32);
  e.queue_wait_ns = w[kWordQueueWaitNs];
  e.batch_wait_ns = w[kWordBatchWaitNs];
  e.service_ns = w[kWordServiceNs];
  e.total_ns = w[kWordTotalNs];
  e.deadline_budget_ns = static_cast<int64_t>(w[kWordBudgetNs]);
  for (size_t i = 0; i < kWideStageCount; ++i) {
    e.stages[i].ns = w[kWordStageNs0 + i];
  }
  for (size_t i = 0; i < 3; ++i) {
    e.stages[2 * i].count = static_cast<uint32_t>(w[kWordStageCounts0 + i]);
    e.stages[2 * i + 1].count =
        static_cast<uint32_t>(w[kWordStageCounts0 + i] >> 32);
  }
  e.value_cache_hits = static_cast<uint32_t>(w[kWordValueCache]);
  e.value_cache_misses = static_cast<uint32_t>(w[kWordValueCache] >> 32);
  e.answer_cache_hits = static_cast<uint32_t>(w[kWordAnswerCache]);
  e.answer_cache_misses = static_cast<uint32_t>(w[kWordAnswerCache] >> 32);
  e.block_cache_hits = static_cast<uint32_t>(w[kWordBlockCache]);
  e.block_cache_misses = static_cast<uint32_t>(w[kWordBlockCache] >> 32);
  e.blocks_decoded = static_cast<uint32_t>(w[kWordBlocksDecoded]);
  e.kb_epoch = w[kWordKbEpoch];
  return e;
}

// ---- per-thread rings --------------------------------------------------

struct EventSlot {
  std::atomic<uint64_t> words[kSlotWords] = {};
};

/// Per-thread event ring. Only the owning thread writes slots and `count`;
/// drains read under the registry mutex.
struct EventRing {
  std::vector<EventSlot> slots{WideEvents::kRingCapacity};
  /// Monotone number of events ever pushed (slot = index % capacity),
  /// release-published after the slot payload.
  std::atomic<uint64_t> count{0};
  /// Consumer positions, guarded by SinkState::mu: `drained` advances on
  /// Drain(); `floor` rises on ResetForTest() so Recent() forgets older
  /// generations too.
  uint64_t drained = 0;
  uint64_t floor = 0;
};

struct SinkState {
  Mutex mu;
  std::vector<std::unique_ptr<EventRing>> rings GUARDED_BY(mu);
  std::atomic<uint64_t> total_recorded{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> next_trace_id{1};
  std::atomic<uint32_t> sample_period{1};
};

SinkState& Sink() {
  // Leaked: rings must outlive thread exit and static destruction order.
  static SinkState* const kSink = new SinkState();  // NOLINT(kbqa-naked-new)
  return *kSink;
}

EventRing* LocalRing() {
  thread_local EventRing* const ring = [] {
    auto owned = std::make_unique<EventRing>();
    EventRing* raw = owned.get();
    SinkState& sink = Sink();
    MutexLock lock(sink.mu);
    sink.rings.push_back(std::move(owned));
    return raw;
  }();
  return ring;
}

/// Copies one published row out of `ring`. Returns false when the writer
/// lapped the row before or during the copy: the sequence tag, read before
/// and again after the payload, must be index + 1 both times.
bool ReadRow(const EventRing& ring, uint64_t index, WideEvent* out) {
  const EventSlot& slot =
      ring.slots[static_cast<size_t>(index % WideEvents::kRingCapacity)];
  uint64_t words[kSlotWords];
  words[kWordSeq] = slot.words[kWordSeq].load(std::memory_order_acquire);
  if (words[kWordSeq] != index + 1) return false;
  for (size_t i = kWordSeq + 1; i < kSlotWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_acquire);
  }
  if (slot.words[kWordSeq].load(std::memory_order_relaxed) != index + 1) {
    return false;
  }
  *out = DecodeEvent(words);
  return true;
}

/// Oldest still-resident row index for a ring that has pushed `count`.
uint64_t RingBase(uint64_t count) {
  return count > WideEvents::kRingCapacity
             ? count - WideEvents::kRingCapacity
             : 0;
}

bool AdmitBefore(const WideEvent& a, const WideEvent& b) {
  if (a.admit_ns != b.admit_ns) return a.admit_ns < b.admit_ns;
  return a.trace_id < b.trace_id;
}

}  // namespace

const char* WideStageName(size_t stage) {
  return stage < kWideStageCount ? kStageNames[stage] : "unknown";
}

const char* WideOutcomeName(size_t outcome) {
  return outcome < kWideOutcomeCount ? kOutcomeNames[outcome] : "unknown";
}

void WideEvent::StampFrom(const RequestContext& ctx) {
  trace_id = ctx.trace_id;
  admit_ns = ctx.admit_ns;
  for (size_t i = 0; i < kWideStageCount; ++i) stages[i] = ctx.stages[i];
  value_cache_hits = ctx.value_cache_hits;
  value_cache_misses = ctx.value_cache_misses;
  answer_cache_hits = ctx.answer_cache_hits;
  answer_cache_misses = ctx.answer_cache_misses;
  block_cache_hits = ctx.block_cache_hits;
  block_cache_misses = ctx.block_cache_misses;
  blocks_decoded = ctx.blocks_decoded;
  kb_epoch = ctx.kb_epoch;
}

std::string WideEvent::ToJsonLine() const {
  std::string out;
  out.reserve(512);
  auto field = [&out](const char* key, uint64_t value, bool first = false) {
    if (!first) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
  };
  out += "{\"trace_id\":";
  out += std::to_string(trace_id);
  out += ",\"outcome\":\"";
  out += WideOutcomeName(static_cast<size_t>(outcome));
  out += '"';
  field("admit_ns", admit_ns);
  out += ",\"has_deadline\":";
  out += has_deadline ? "true" : "false";
  out += ",\"deadline_budget_ns\":";
  out += std::to_string(deadline_budget_ns);
  field("batch_size", batch_size);
  field("question_bytes", question_bytes);
  field("queue_wait_ns", queue_wait_ns);
  field("batch_wait_ns", batch_wait_ns);
  field("service_ns", service_ns);
  field("total_ns", total_ns);
  out += ",\"stages\":{";
  for (size_t i = 0; i < kWideStageCount; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kStageNames[i];
    out += "\":{\"ns\":";
    out += std::to_string(stages[i].ns);
    out += ",\"count\":";
    out += std::to_string(stages[i].count);
    out += '}';
  }
  out += "},\"value_cache\":{";
  field("hits", value_cache_hits, /*first=*/true);
  field("misses", value_cache_misses);
  out += "},\"answer_cache\":{";
  field("hits", answer_cache_hits, /*first=*/true);
  field("misses", answer_cache_misses);
  out += "},\"block_cache\":{";
  field("hits", block_cache_hits, /*first=*/true);
  field("misses", block_cache_misses);
  field("decoded", blocks_decoded);
  out += '}';
  field("kb_epoch", kb_epoch);
  out += '}';
  return out;
}

void WideEvents::Record(const WideEvent& event) {
  EventRing* ring = LocalRing();
  const uint64_t index = ring->count.load(std::memory_order_relaxed);
  EventSlot& slot = ring->slots[static_cast<size_t>(index % kRingCapacity)];
  uint64_t words[kSlotWords];
  EncodeEvent(event, words);
  // Sequence tag first; each release store of the payload orders the tag
  // before it, so a reader that sees any new payload word also sees the new
  // tag on its re-read and rejects the lapped row. The release publish of
  // count then makes the whole row visible to rows-below-count readers.
  slot.words[kWordSeq].store(index + 1, std::memory_order_relaxed);
  for (size_t i = kWordSeq + 1; i < kSlotWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_release);
  }
  ring->count.store(index + 1, std::memory_order_release);
  Sink().total_recorded.fetch_add(1, std::memory_order_relaxed);
}

std::vector<WideEvent> WideEvents::Drain() {
  SinkState& sink = Sink();
  std::vector<WideEvent> out;
  MutexLock lock(sink.mu);
  for (auto& ring_ptr : sink.rings) {
    EventRing& ring = *ring_ptr;
    const uint64_t count = ring.count.load(std::memory_order_acquire);
    const uint64_t from = std::max(ring.drained, RingBase(count));
    // Rows overwritten before this drain, plus rows lapped while it copied.
    uint64_t dropped = from - ring.drained;
    for (uint64_t i = from; i < count; ++i) {
      WideEvent event;
      if (ReadRow(ring, i, &event)) {
        out.push_back(event);
      } else {
        ++dropped;
      }
    }
    if (dropped != 0) {
      sink.dropped.fetch_add(dropped, std::memory_order_relaxed);
    }
    ring.drained = count;
  }
  std::sort(out.begin(), out.end(), AdmitBefore);
  return out;
}

std::vector<WideEvent> WideEvents::Recent(size_t max_events) {
  SinkState& sink = Sink();
  std::vector<WideEvent> out;
  MutexLock lock(sink.mu);
  for (auto& ring_ptr : sink.rings) {
    EventRing& ring = *ring_ptr;
    const uint64_t count = ring.count.load(std::memory_order_acquire);
    const uint64_t from = std::max(ring.floor, RingBase(count));
    for (uint64_t i = from; i < count; ++i) {
      WideEvent event;
      if (ReadRow(ring, i, &event)) out.push_back(event);
    }
  }
  std::sort(out.begin(), out.end(), AdmitBefore);
  if (out.size() > max_events) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(max_events));
  }
  return out;
}

uint64_t WideEvents::TotalRecorded() {
  return Sink().total_recorded.load(std::memory_order_relaxed);
}

uint64_t WideEvents::Dropped() {
  return Sink().dropped.load(std::memory_order_relaxed);
}

void WideEvents::SetSamplePeriod(uint32_t period) {
  Sink().sample_period.store(period, std::memory_order_relaxed);
}

uint32_t WideEvents::SamplePeriod() {
  return Sink().sample_period.load(std::memory_order_relaxed);
}

bool WideEvents::Sample() {
  if (!Enabled()) return false;
  const uint32_t period = SamplePeriod();
  if (period == 0) return false;
  if (period == 1) return true;
  thread_local uint32_t countdown = 0;
  if (countdown == 0) {
    countdown = period - 1;
    return true;
  }
  --countdown;
  return false;
}

uint64_t WideEvents::NextTraceId() {
  return Sink().next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void WideEvents::ResetForTest() {
  SinkState& sink = Sink();
  MutexLock lock(sink.mu);
  for (auto& ring_ptr : sink.rings) {
    const uint64_t count = ring_ptr->count.load(std::memory_order_acquire);
    ring_ptr->drained = count;
    ring_ptr->floor = count;
  }
  sink.total_recorded.store(0, std::memory_order_relaxed);
  sink.dropped.store(0, std::memory_order_relaxed);
  sink.sample_period.store(1, std::memory_order_relaxed);
}

namespace {
thread_local RequestContext* tl_current_request = nullptr;
}  // namespace

RequestContext* CurrentRequestContext() { return tl_current_request; }

ScopedRequestContext::ScopedRequestContext(RequestContext* ctx)
    : previous_(tl_current_request) {
  if (ctx != nullptr) tl_current_request = ctx;
}

ScopedRequestContext::~ScopedRequestContext() {
  tl_current_request = previous_;
}

}  // namespace kbqa::obs
