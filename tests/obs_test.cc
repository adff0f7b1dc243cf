// Tests for the observability substrate: sharded-metric determinism,
// histogram bucket math, snapshot JSON round-trips, span histograms, wide
// events, and the runtime kill switch.

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "util/thread_pool.h"

namespace kbqa {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b-1].
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(1023), 10);
  EXPECT_EQ(obs::Histogram::BucketOf(1024), 11);
  EXPECT_EQ(obs::Histogram::BucketOf(UINT64_MAX), 63);

  EXPECT_EQ(obs::Histogram::UpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::UpperBound(1), 1u);
  EXPECT_EQ(obs::Histogram::UpperBound(2), 3u);
  EXPECT_EQ(obs::Histogram::UpperBound(10), 1023u);
  EXPECT_EQ(obs::Histogram::UpperBound(63), UINT64_MAX);

  // Every representable value falls inside its bucket's range.
  for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 100ull, 4096ull, 1ull << 40}) {
    const int b = obs::Histogram::BucketOf(v);
    EXPECT_LE(v, obs::Histogram::UpperBound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, obs::Histogram::UpperBound(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, CountSumAndQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("h");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);
  EXPECT_EQ(h->Count(), 100u);
  EXPECT_EQ(h->Sum(), 5050u);

  obs::MetricsSnapshot snap = registry.Snapshot();
  const auto* entry = snap.histogram("h");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 100u);
  EXPECT_DOUBLE_EQ(entry->Mean(), 50.5);
  // The median of 1..100 lands in bucket [32, 63] (ranks 32..63) and
  // interpolates to 50; the max quantile reports the top bucket's ceiling.
  EXPECT_EQ(entry->ValueAtQuantile(0.5), 50u);
  EXPECT_EQ(entry->ValueAtQuantile(1.0), 127u);

  h->Reset();
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Sum(), 0u);
}

TEST(HistogramTest, ValueAtQuantileTracksExactReference) {
  // Exact reference: 1..1024 uniform, so the true nearest-rank quantile
  // is ceil(q * 1024). The interpolated estimate must land inside the
  // covering power-of-two bucket (error < bucket width), never above the
  // bucket ceiling.
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("h");
  for (uint64_t v = 1; v <= 1024; ++v) h->Record(v);
  obs::MetricsSnapshot snap = registry.Snapshot();
  const auto* entry = snap.histogram("h");
  ASSERT_NE(entry, nullptr);
  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const uint64_t exact = static_cast<uint64_t>(
        std::ceil(q * 1024.0));
    const uint64_t estimate = entry->ValueAtQuantile(q);
    const int bucket = obs::Histogram::BucketOf(exact);
    const uint64_t lower =
        bucket == 0 ? 0 : obs::Histogram::UpperBound(bucket - 1) + 1;
    const uint64_t upper = obs::Histogram::UpperBound(bucket);
    EXPECT_GE(estimate, lower) << "q=" << q;
    EXPECT_LE(estimate, upper) << "q=" << q;
    const uint64_t width = upper - lower + 1;
    const uint64_t error =
        estimate > exact ? estimate - exact : exact - estimate;
    EXPECT_LT(error, width) << "q=" << q;
  }
  // Within a bucket the uniform mass makes interpolation much tighter
  // than the ceiling: the exact median 512 opens bucket [512, 1023], and
  // interpolation lands within a few counts of 512, not near 1023.
  EXPECT_GE(entry->ValueAtQuantile(0.5), 512u);
  EXPECT_LE(entry->ValueAtQuantile(0.5), 530u);
}

TEST(HistogramTest, ValueAtQuantileEdgeCases) {
  obs::MetricsRegistry registry;
  obs::Histogram* zeros = registry.GetHistogram("zeros");
  for (int i = 0; i < 10; ++i) zeros->Record(0);
  obs::Histogram* point = registry.GetHistogram("point");
  for (int i = 0; i < 10; ++i) point->Record(1);  // bucket [1,1]
  obs::Histogram* huge = registry.GetHistogram("huge");
  huge->Record(UINT64_MAX);
  registry.GetHistogram("empty");  // registered, never recorded
  obs::MetricsSnapshot snap = registry.Snapshot();
  // The zero bucket is a point mass at 0.
  EXPECT_EQ(snap.histogram("zeros")->ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(snap.histogram("zeros")->ValueAtQuantile(1.0), 0u);
  // A single-value bucket of width 1 interpolates to that value exactly.
  EXPECT_EQ(snap.histogram("point")->ValueAtQuantile(0.5), 1u);
  // The overflow bucket has no finite width: report its floor.
  EXPECT_EQ(snap.histogram("huge")->ValueAtQuantile(0.99),
            obs::Histogram::UpperBound(62) + 1);
  EXPECT_EQ(snap.histogram("empty")->ValueAtQuantile(0.5), 0u);
}

TEST(HistogramTest, MaxQuantileNeverBelowRecordedMax) {
  // Regression: the max quantile used to interpolate to the covering
  // bucket's *lower* bound on sparse histograms, reporting a "max" below a
  // recorded value. q=1.0 must come back >= the largest recorded value.
  obs::MetricsRegistry registry;
  obs::Histogram* single = registry.GetHistogram("single");
  single->Record(1500);  // bucket [1024, 2047]
  obs::Histogram* huge = registry.GetHistogram("huge");
  huge->Record(UINT64_MAX);  // the unbounded overflow bucket
  obs::Histogram* pair = registry.GetHistogram("pair");
  pair->Record(3);
  pair->Record(40);  // bucket [32, 63]
  obs::MetricsSnapshot snap = registry.Snapshot();
  // Single sample: sum==max, so the clamp reports the value exactly.
  EXPECT_EQ(snap.histogram("single")->ValueAtQuantile(1.0), 1500u);
  // Values past 2^62 saturate the sum cap but must still not round down
  // below the bucket floor.
  EXPECT_GE(snap.histogram("huge")->ValueAtQuantile(1.0),
            obs::Histogram::UpperBound(62) + 1);
  // Multi-sample: sum (43) caps the top-bucket estimate, still >= 40.
  EXPECT_GE(snap.histogram("pair")->ValueAtQuantile(1.0), 40u);
  EXPECT_LE(snap.histogram("pair")->ValueAtQuantile(1.0), 43u);
  // Lower quantiles interpolate inside their own bucket.
  EXPECT_LE(snap.histogram("pair")->ValueAtQuantile(0.25), 3u);
}

TEST(HistogramTest, SingleSampleReadsBackExactlyAtEveryQuantile) {
  // One 9.05 s span sample sits in bucket [2^33, 2^34 - 1]; interpolation
  // alone would read 12.9 s at the median and 17.1 s at p99. The clamp to
  // `sum` makes every quantile of a one-sample histogram exact.
  obs::MetricsRegistry registry;
  registry.GetHistogram("span")->Record(9'050'000'000);
  obs::MetricsSnapshot snap = registry.Snapshot();
  const auto* entry = snap.histogram("span");
  ASSERT_NE(entry, nullptr);
  for (double q : {0.5, 0.99, 1.0}) {
    EXPECT_EQ(entry->ValueAtQuantile(q), 9'050'000'000u) << "q=" << q;
  }
}

// The tentpole determinism contract: a snapshot depends only on the set of
// updates applied, never on how many threads applied them or which shard
// cell each landed in.
TEST(MetricsDeterminism, SnapshotIndependentOfThreadCount) {
  std::vector<obs::MetricsSnapshot> snaps;
  for (int threads : {1, 2, 8}) {
    obs::MetricsRegistry registry;
    obs::Counter* counter = registry.GetCounter("det.counter");
    obs::Histogram* histogram = registry.GetHistogram("det.histogram");
    obs::Gauge* gauge = registry.GetGauge("det.gauge");
    ThreadPool pool(threads);
    pool.RunShards(64, [&](size_t shard) {
      counter->Add(shard + 1);
      histogram->Record(shard * 37);
      histogram->Record(1u << (shard % 20));
    });
    gauge->Set(2.5);
    snaps.push_back(registry.Snapshot());
  }
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0], snaps[1]);
  EXPECT_EQ(snaps[0], snaps[2]);
  const auto* c = snaps[0].counter("det.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 64u * 65u / 2u);
}

TEST(MetricsSnapshotTest, JsonRoundTrip) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(42);
  registry.GetCounter("name with \"quotes\" and \\slashes\\")->Add(7);
  registry.GetGauge("g.pi")->Set(3.14159265358979);
  registry.GetGauge("g.negative")->Set(-0.125);
  obs::Histogram* h = registry.GetHistogram("h.latency");
  h->Record(0);
  h->Record(17);
  h->Record(123456789);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const std::string json = snap.ToJson();
  obs::MetricsSnapshot parsed;
  ASSERT_TRUE(obs::MetricsSnapshot::FromJson(json, &parsed)) << json;
  EXPECT_EQ(snap, parsed);
  // Round-tripping the re-serialized form is a fixed point.
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(MetricsSnapshotTest, FromJsonRejectsMalformed) {
  obs::MetricsSnapshot out;
  EXPECT_FALSE(obs::MetricsSnapshot::FromJson("", &out));
  EXPECT_FALSE(obs::MetricsSnapshot::FromJson("{", &out));
  EXPECT_FALSE(obs::MetricsSnapshot::FromJson("[]", &out));
  EXPECT_FALSE(obs::MetricsSnapshot::FromJson(
      "{\"counters\": [{\"name\": \"x\"}]}", &out));
  // Trailing garbage after a valid document is an error too.
  const std::string valid = obs::MetricsSnapshot().ToJson();
  EXPECT_TRUE(obs::MetricsSnapshot::FromJson(valid, &out));
  EXPECT_FALSE(obs::MetricsSnapshot::FromJson(valid + "x", &out));
}

TEST(MetricsRegistryTest, RuntimeKillSwitchDropsUpdates) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("kill.counter");
  obs::Histogram* h = registry.GetHistogram("kill.histogram");
  const bool was_enabled = obs::MetricsRegistry::enabled();
  obs::MetricsRegistry::set_enabled(false);
  c->Add(5);
  h->Record(99);
  obs::MetricsRegistry::set_enabled(true);
  c->Add(3);
  h->Record(7);
  obs::MetricsRegistry::set_enabled(was_enabled);
  EXPECT_EQ(c->Value(), 3u);
  EXPECT_EQ(h->Count(), 1u);
}

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("same");
  obs::Counter* b = registry.GetCounter("same");
  EXPECT_EQ(a, b);
  a->Add(1);
  a->Add(1);
  EXPECT_EQ(b->Value(), 2u);
  registry.Reset();
  EXPECT_EQ(b->Value(), 0u);
}

TEST(ExpositionTest, RendersMetricsTable) {
  obs::MetricsRegistry registry;
  registry.GetCounter("render.counter")->Add(5);
  registry.GetGauge("render.gauge")->Set(1.5);
  registry.GetHistogram("render.histogram")->Record(1000);
  std::ostringstream os;
  obs::RenderMetricsTable(registry.Snapshot(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("render.counter"), std::string::npos);
  EXPECT_NE(out.find("render.gauge"), std::string::npos);
  EXPECT_NE(out.find("render.histogram"), std::string::npos);
}

void OneMillisecondSpan() {
  KBQA_TRACE_SPAN("test.one_millisecond");
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// A span records its steady-clock interval in nanoseconds, exactly one
// sample per entry, and nothing while the registry is disabled.
TEST(TracingTest, SpanRecordsOneSampleOnlyWhileEnabled) {
  obs::MetricsRegistry::set_enabled(true);
  const obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "span.test.one_millisecond");
  const uint64_t count = h->Count();
  const uint64_t sum = h->Sum();
  OneMillisecondSpan();
  EXPECT_EQ(h->Count(), count + 1);
  EXPECT_GE(h->Sum() - sum, 1'000'000u);

  obs::MetricsRegistry::set_enabled(false);
  OneMillisecondSpan();
  obs::MetricsRegistry::set_enabled(true);
  EXPECT_EQ(h->Count(), count + 1);
}

TEST(TracingTest, WriteSpanSummaryListsTopSpans) {
  obs::MetricsRegistry::set_enabled(true);
  { KBQA_TRACE_SPAN("summary.span"); }
  std::ostringstream os;
  obs::WriteSpanSummary(os, 100);
  EXPECT_NE(os.str().find("summary.span"), std::string::npos);
}

// ---- wide events (DESIGN.md §8) ----------------------------------------

TEST(WideEventTest, RecordDrainRoundTrip) {
  obs::MetricsRegistry::set_enabled(true);
  obs::WideEvents::ResetForTest();
  obs::WideEvent a;
  a.trace_id = 7;
  a.admit_ns = 100;
  a.outcome = obs::WideOutcome::kAnswered;
  a.has_deadline = true;
  a.batch_size = 3;
  a.question_bytes = 42;
  a.queue_wait_ns = 1000;
  a.batch_wait_ns = 200;
  a.service_ns = 5000;
  a.total_ns = 6200;
  a.deadline_budget_ns = -1500;  // negative budgets survive the bit-cast
  a.stages[static_cast<size_t>(obs::WideStage::kNer)] = {111, 1};
  a.stages[static_cast<size_t>(obs::WideStage::kRank)] = {222, 2};
  a.value_cache_hits = 9;
  a.block_cache_misses = 4;
  a.blocks_decoded = 4;
  obs::WideEvent b;
  b.trace_id = 8;
  b.admit_ns = 50;  // earlier admission sorts first
  b.outcome = obs::WideOutcome::kShedExpired;
  obs::WideEvents::Record(a);
  obs::WideEvents::Record(b);
  EXPECT_EQ(obs::WideEvents::TotalRecorded(), 2u);

  const std::vector<obs::WideEvent> drained = obs::WideEvents::Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].trace_id, 8u);
  EXPECT_EQ(drained[1].trace_id, 7u);
  const obs::WideEvent& got = drained[1];
  EXPECT_EQ(got.outcome, obs::WideOutcome::kAnswered);
  EXPECT_TRUE(got.has_deadline);
  EXPECT_EQ(got.batch_size, 3u);
  EXPECT_EQ(got.question_bytes, 42u);
  EXPECT_EQ(got.queue_wait_ns, 1000u);
  EXPECT_EQ(got.batch_wait_ns, 200u);
  EXPECT_EQ(got.service_ns, 5000u);
  EXPECT_EQ(got.total_ns, 6200u);
  EXPECT_EQ(got.deadline_budget_ns, -1500);
  EXPECT_EQ(got.stages[static_cast<size_t>(obs::WideStage::kNer)].ns, 111u);
  EXPECT_EQ(got.stages[static_cast<size_t>(obs::WideStage::kNer)].count, 1u);
  EXPECT_EQ(got.stages[static_cast<size_t>(obs::WideStage::kRank)].count, 2u);
  EXPECT_EQ(got.value_cache_hits, 9u);
  EXPECT_EQ(got.block_cache_misses, 4u);
  EXPECT_EQ(got.blocks_decoded, 4u);

  // A drain consumes: nothing left.
  EXPECT_TRUE(obs::WideEvents::Drain().empty());
}

TEST(WideEventTest, JsonLineCarriesSchema) {
  obs::WideEvent e;
  e.trace_id = 12;
  e.outcome = obs::WideOutcome::kDeadlineExceeded;
  e.deadline_budget_ns = -5;
  e.stages[static_cast<size_t>(obs::WideStage::kScore)] = {77, 3};
  const std::string json = e.ToJsonLine();
  for (const char* key :
       {"\"trace_id\":12", "\"outcome\":\"deadline_exceeded\"",
        "\"deadline_budget_ns\":-5", "\"queue_wait_ns\":", "\"batch_wait_ns\":",
        "\"service_ns\":", "\"total_ns\":", "\"stages\":{\"ner\":",
        "\"score\":{\"ns\":77,\"count\":3}", "\"value_cache\":{\"hits\":",
        "\"answer_cache\":", "\"block_cache\":", "\"decoded\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(WideEventTest, DropCountsEventsOverwrittenBeforeDrain) {
  obs::MetricsRegistry::set_enabled(true);
  obs::WideEvents::ResetForTest();
  obs::WideEvent e;
  const size_t extra = 100;
  for (size_t i = 0; i < obs::WideEvents::kRingCapacity + extra; ++i) {
    e.trace_id = i + 1;
    obs::WideEvents::Record(e);
  }
  const std::vector<obs::WideEvent> drained = obs::WideEvents::Drain();
  EXPECT_EQ(drained.size(), obs::WideEvents::kRingCapacity);
  EXPECT_EQ(obs::WideEvents::Dropped(), extra);
  // The survivors are the newest capacity-many events.
  EXPECT_EQ(drained.front().trace_id, extra + 1);
}

TEST(WideEventTest, SamplePeriodIsExactPerThread) {
  obs::MetricsRegistry::set_enabled(true);
  obs::WideEvents::ResetForTest();
  obs::WideEvents::SetSamplePeriod(4);
  int sampled = 0;
  // One-in-four with a per-thread countdown: exactly 100 of 400 regardless
  // of the countdown's starting phase.
  for (int i = 0; i < 400; ++i) sampled += obs::WideEvents::Sample() ? 1 : 0;
  EXPECT_EQ(sampled, 100);
  obs::WideEvents::SetSamplePeriod(0);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(obs::WideEvents::Sample());
  obs::WideEvents::SetSamplePeriod(1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(obs::WideEvents::Sample());
  obs::WideEvents::ResetForTest();
}

TEST(WideEventTest, RecentIsNonConsumingAndBounded) {
  obs::MetricsRegistry::set_enabled(true);
  obs::WideEvents::ResetForTest();
  obs::WideEvent e;
  for (uint64_t i = 0; i < 10; ++i) {
    e.trace_id = i + 1;
    e.admit_ns = i + 1;
    obs::WideEvents::Record(e);
  }
  EXPECT_EQ(obs::WideEvents::Recent(100).size(), 10u);
  const std::vector<obs::WideEvent> last3 = obs::WideEvents::Recent(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3.back().trace_id, 10u);  // newest last
  // Recent did not consume: a drain still sees everything.
  EXPECT_EQ(obs::WideEvents::Drain().size(), 10u);
}

TEST(RequestContextTest, ChainedMarksAreDisjointAndBounded) {
  obs::RequestContext ctx;
  // An unanchored context charges nothing on its first mark.
  ctx.Mark(obs::WideStage::kNer);
  EXPECT_EQ(ctx.stages[static_cast<size_t>(obs::WideStage::kNer)].ns, 0u);
  EXPECT_EQ(ctx.stages[static_cast<size_t>(obs::WideStage::kNer)].count, 1u);

  obs::RequestContext timed;
  const uint64_t start = obs::NowSteadyNs();
  timed.StartClockAt(start);
  for (int i = 0; i < 100; ++i) timed.Mark(obs::WideStage::kTemplateMatch);
  const uint64_t mid = obs::NowSteadyNs();
  timed.AddTimedSince(obs::WideStage::kValueLookup, mid);
  timed.Mark(obs::WideStage::kScore);
  const uint64_t elapsed = obs::NowSteadyNs() - start;
  // Chained intervals are disjoint, so their sum is bounded by wall time
  // measured on the same clock — the invariant the server relies on.
  EXPECT_LE(timed.StageNsSum(), elapsed);
}

TEST(ScopedRequestContextTest, NullBindingDoesNotMaskOuter) {
  obs::RequestContext outer;
  EXPECT_EQ(obs::CurrentRequestContext(), nullptr);
  {
    obs::ScopedRequestContext bind_outer(&outer);
    EXPECT_EQ(obs::CurrentRequestContext(), &outer);
    {
      // A nested unsampled request (null ctx) must not hide the outer one.
      obs::ScopedRequestContext bind_null(nullptr);
      EXPECT_EQ(obs::CurrentRequestContext(), &outer);
    }
    EXPECT_EQ(obs::CurrentRequestContext(), &outer);
  }
  EXPECT_EQ(obs::CurrentRequestContext(), nullptr);
}

// ---- SLO burn-rate monitor ----------------------------------------------

constexpr uint64_t kNsPerS = 1'000'000'000ull;

obs::SloSpec TestSpec() {
  obs::SloSpec spec;
  spec.availability_target = 0.99;  // 1% error budget
  spec.latency_threshold_ns = 1'000'000;
  spec.short_window_s = 60;
  spec.long_window_s = 600;
  spec.burn_rate_threshold = 9.5;
  return spec;
}

TEST(SloMonitorTest, BurnRateAndMultiWindowFiring) {
  obs::SloMonitor slo(TestSpec());
  const uint64_t t0 = 10'000 * kNsPerS;
  // 90 good + 10 bad in the last minute: 10% bad / 1% budget = burn 10.
  for (int i = 0; i < 90; ++i) slo.Record(true, t0);
  for (int i = 0; i < 10; ++i) slo.Record(false, t0);
  obs::SloEvaluation eval = slo.Evaluate(t0);
  EXPECT_NEAR(eval.short_burn_rate, 10.0, 1e-9);
  EXPECT_NEAR(eval.long_burn_rate, 10.0, 1e-9);
  EXPECT_EQ(eval.short_good, 90u);
  EXPECT_EQ(eval.short_bad, 10u);
  EXPECT_TRUE(eval.firing);  // both windows above threshold

  // Ten minutes later the bad burst has left the short window but not the
  // long one: the multi-window rule stops firing (incident recovered).
  const uint64_t t1 = t0 + 300 * kNsPerS;
  for (int i = 0; i < 100; ++i) slo.Record(true, t1);
  eval = slo.Evaluate(t1);
  EXPECT_DOUBLE_EQ(eval.short_burn_rate, 0.0);
  EXPECT_GT(eval.long_burn_rate, 0.0);
  EXPECT_FALSE(eval.firing);

  // Past the long window everything expires.
  eval = slo.Evaluate(t1 + 601 * kNsPerS);
  EXPECT_DOUBLE_EQ(eval.long_burn_rate, 0.0);
  EXPECT_EQ(eval.long_good + eval.long_bad, 0u);

  // Lifetime totals never expire.
  EXPECT_EQ(slo.TotalGood(), 190u);
  EXPECT_EQ(slo.TotalBad(), 10u);
}

TEST(SloMonitorTest, RecordRequestAppliesLatencyCriterion) {
  obs::SloMonitor slo(TestSpec());
  const uint64_t t0 = 20'000 * kNsPerS;
  slo.RecordRequest(/*ok=*/true, /*total_latency_ns=*/500'000, t0);   // good
  slo.RecordRequest(/*ok=*/true, /*total_latency_ns=*/2'000'000, t0);  // slow
  slo.RecordRequest(/*ok=*/false, /*total_latency_ns=*/100, t0);       // error
  const obs::SloEvaluation eval = slo.Evaluate(t0);
  EXPECT_EQ(eval.short_good, 1u);
  EXPECT_EQ(eval.short_bad, 2u);
  EXPECT_EQ(slo.TotalGood(), 1u);
  EXPECT_EQ(slo.TotalBad(), 2u);
}

TEST(SloMonitorTest, PublishGaugesExportsSloSeries) {
  obs::MetricsRegistry::set_enabled(true);
  obs::SloMonitor slo(TestSpec());
  const uint64_t t0 = 30'000 * kNsPerS;
  for (int i = 0; i < 9; ++i) slo.Record(true, t0);
  slo.Record(false, t0);
  slo.PublishGauges(t0);
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto gauge = [&snap](const std::string& name) -> double {
    for (const auto& g : snap.gauges) {
      if (g.name == name) return g.value;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return -1;
  };
  EXPECT_NEAR(gauge("slo.burn_rate_short"), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(gauge("slo.window_short_good"), 9.0);
  EXPECT_DOUBLE_EQ(gauge("slo.window_short_bad"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("slo.firing"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("slo.good_total"), 9.0);
  EXPECT_DOUBLE_EQ(gauge("slo.bad_total"), 1.0);
}

}  // namespace
}  // namespace kbqa
