// The three workloads of the ladder. Each one sets up the Standard world,
// draws its inputs from the seed, warms the engine on a load set disjoint
// from the timed set, and then measures. A traced run measures twice, spans
// off and then spans on, each on its own disjoint timed set of the same
// shape: the difference is the tracing overhead, and the per-layer figures
// come from the second half and from the layer replay that follows.

#include "workloads.h"

#include <cstdio>
#include <thread>

#include "obs/wide_event.h"
#include "rdf/mutable_kb.h"
#include "serve/server.h"
#include "serve_loops.h"
#include "trace.h"
#include "util/rng.h"

namespace perfladder {

namespace kc = kbqa::core;
namespace rdf = kbqa::rdf;
namespace serve = kbqa::serve;

namespace {

// ---- Constants of every workload. ----
constexpr int kSetupRepeats = 3;
// Rates are medians over 0.5 s windows (kRateWindowNs). Latency quantiles
// are medians over 50 ms windows: on a shared host, vCPU pauses of a few ms
// land in about half of all 0.5 s windows and decide their p99, while a
// 50 ms window at the open loop's rate still keeps 10 samples above its p99.
constexpr uint64_t kLatencyWindowNs = 50'000'000;
constexpr size_t kPoolSize = 20000;          // questions per Zipfian pool
constexpr double kBfqRatio = 1.0;            // every question a factoid
constexpr size_t kReplayQuestions = 2000;    // p99 keeps 20 samples above it
constexpr size_t kProbeRequests = 20000;
constexpr size_t kProbeWindow = 64;
constexpr size_t kProbeChunk = 256;
constexpr int kProbeRounds = 20;
constexpr int kProbeLiveBatches = 40;
constexpr int kProbeLiveMerges = 2;

// ---- serve_zipf ----
constexpr int kServeWorkers = 2;
constexpr double kOpenLoopQps = 20000;
constexpr size_t kClosedWindow = 64;
constexpr size_t kClosedDraws = 1'000'000;  // cycled when used up
constexpr size_t kServeWarmRequests = 40000;
constexpr size_t kRampRequests = 200000;

// ---- batch_uniform ----
constexpr size_t kChunk = 256;
constexpr size_t kRefill = 16 * kChunk;
constexpr int kWarmChunks = 16;

// ---- live_mixed ----
constexpr int kLiveReaders = 2;
constexpr double kWritesPerSecond = 100;  // Apply batches
// Batches between ForceMerge calls: 64 batches of 4 ops are 256 ops, the
// MutableKb's own default merge trigger.
constexpr int kMergeEvery = 64;
constexpr size_t kLiveWarmReads = 20000;  // per reader
constexpr size_t kReaderDraws = 1'000'000;

// Input streams of one seed.
constexpr uint64_t kStreamLoad = 1;
constexpr uint64_t kStreamRun = 2;  // + half index in a traced run
constexpr uint64_t kStreamProbe = 9;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ (salt * 0xd6e8feb86659fd93ULL);
  return kbqa::SplitMix64(state);
}

uint64_t ChunkStream(uint64_t stream, uint64_t chunk) {
  return (stream << 32) | chunk;
}

/// Median over calm full windows of the number of samples per second.
double MedianWindowRate(const std::vector<std::pair<uint64_t, double>>& samples,
                        uint64_t begin_ns, const CalmWindows& calm) {
  std::vector<double> counts;
  for (const auto& [at_ns, value] : samples) {
    if (at_ns < begin_ns) continue;
    const size_t w = static_cast<size_t>((at_ns - begin_ns) / kRateWindowNs);
    if (w >= counts.size()) counts.resize(w + 1, 0);
    counts[w] += 1;
  }
  std::vector<double> rates;
  for (size_t w = 0; w < counts.size(); ++w) {
    if (!calm.Contains(begin_ns + w * kRateWindowNs)) continue;
    rates.push_back(counts[w] * 1e9 / static_cast<double>(kRateWindowNs));
  }
  return Median(rates);
}

void NoteHost(const char* phase, const CalmWindows& calm,
              PhaseFigures* figures) {
  const std::string prefix = phase;
  figures->host.push_back({prefix + "_steal_share", calm.steal_share()});
  figures->host.push_back(
      {prefix + "_calm_windows", static_cast<double>(calm.calm())});
  figures->host.push_back(
      {prefix + "_windows", static_cast<double>(calm.total())});
}

double AllSamplesQuantile(
    const std::vector<std::pair<uint64_t, double>>& samples, double q) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& sample : samples) values.push_back(sample.second);
  return Quantile(&values, q);
}

Trained SetUpAndReport(const RunConfig& config, RunOutput* out) {
  std::vector<SetupTimes> times;
  Trained trained = SetUp(config.nproc, kSetupRepeats, &times);
  std::vector<double> total, world, corpus, train;
  for (const SetupTimes& t : times) {
    total.push_back(t.total_s());
    world.push_back(t.world_s);
    corpus.push_back(t.corpus_s);
    train.push_back(t.train_s);
  }
  out->end_to_end.Set("setup_s", Median(total), "s");
  out->layers.Set("setup.world_s", Median(world), "s");
  out->layers.Set("setup.corpus_s", Median(corpus), "s");
  out->layers.Set("setup.train_s", Median(train), "s");
  std::printf("[perfladder] setup x%d: median %.3f s (world %.3f, corpus %.3f, "
              "train %.3f), %zu triples\n",
              kSetupRepeats, Median(total), Median(world), Median(corpus),
              Median(train), trained.world->kb.num_triples());
  out->threads.push_back({"train_threads", config.nproc});
  return trained;
}

struct WideCounts {
  uint64_t recorded = 0;
  uint64_t dropped = 0;

  /// Drains the rings (drops are counted at drain time) and reads totals.
  static WideCounts Drain() {
    (void)kbqa::obs::WideEvents::Drain();
    return {kbqa::obs::WideEvents::TotalRecorded(),
            kbqa::obs::WideEvents::Dropped()};
  }
};

void SetServeLayers(const LoopResult& latency_loop,
                    const LoopResult& capacity_loop,
                    const serve::ServingStats& before,
                    const serve::ServingStats& after, const WideCounts& w0,
                    const WideCounts& w1, MetricSet* layers) {
  std::vector<double> queue = latency_loop.queue_us;
  std::vector<double> service = latency_loop.service_us;
  layers->Set("serve.queue_wait_us.p50", Quantile(&queue, 0.5), "us");
  layers->Set("serve.queue_wait_us.p99", Quantile(&queue, 0.99), "us");
  layers->Set("serve.service_us.p50", Quantile(&service, 0.5), "us");
  layers->Set("serve.service_us.p99", Quantile(&service, 0.99), "us");
  layers->Set("serve.batch_size.mean", Mean(capacity_loop.batch_size),
              "count");
  layers->Set("serve.rejected",
              static_cast<double>(after.rejected - before.rejected), "count");
  layers->Set("serve.shed_expired",
              static_cast<double>(after.shed_expired - before.shed_expired),
              "count");
  layers->Set("obs.wide_events.recorded",
              static_cast<double>(w1.recorded - w0.recorded), "count");
  layers->Set("obs.wide_events.dropped",
              static_cast<double>(w1.dropped - w0.dropped), "count");
}

/// A closed-loop burst through a front door the workload itself does not
/// use, so every workload reports the serve layer.
void ProbeServer(serve::Server& server,
                 const std::vector<std::string>& questions,
                 const std::vector<RefAnswer>& refs, uint64_t seed,
                 RunOutput* out) {
  const serve::ServingStats before = server.stats();
  const WideCounts w0 = WideCounts::Drain();
  const LoopResult loop =
      RunClosedLoop(server, questions, refs,
                    ZipfDraws(questions.size(), kProbeRequests, seed),
                    kProbeWindow, 60.0, kProbeRequests);
  const WideCounts w1 = WideCounts::Drain();
  AddToTally(loop, &out->tally);
  SetServeLayers(loop, loop, before, server.stats(), w0, w1, &out->layers);
}

void SetOverhead(const PhaseFigures& untraced, const PhaseFigures& traced,
                 RunOutput* out) {
  out->layers.Set("trace.overhead.qps", traced.qps - untraced.qps, "1/s");
  out->layers.Set("trace.overhead.p50_us", traced.p50_us - untraced.p50_us,
                  "us");
  out->layers.Set("trace.overhead.p99_us", traced.p99_us - untraced.p99_us,
                  "us");
  std::printf("[perfladder] tracing overhead: qps %+.1f, p50 %+.2f us, "
              "p99 %+.2f us (spans on minus spans off)\n",
              traced.qps - untraced.qps, traced.p50_us - untraced.p50_us,
              traced.p99_us - untraced.p99_us);
}

void SetEndToEnd(const PhaseFigures& figures, RunOutput* out) {
  out->host = figures.host;
  out->end_to_end.Set("qps", figures.qps, "1/s");
  out->end_to_end.Set("p50_us", figures.p50_us, "us");
  // The p99 is a per-layer figure: under host steal it moves by more than
  // any bound the benchmark may set (see README.md).
  out->layers.Set("workload.p99_us", figures.p99_us, "us");
}

/// The workload's timed questions and their references.
struct QuestionSet {
  std::vector<std::string> questions;
  std::vector<RefAnswer> refs;
};

QuestionSet MakeQuestionSet(const Trained& trained,
                            const kc::OnlineInference& reference,
                            const RunConfig& config, uint64_t stream,
                            size_t count,
                            std::unordered_set<uint64_t>* seen) {
  QuestionSet set;
  set.questions = GenerateQuestions(*trained.world, config.seed, stream, count,
                                    kBfqRatio, config.nproc, seen);
  set.refs = ReferenceAnswers(reference, set.questions, config.nproc);
  return set;
}

/// The first `n` questions of `set` (pools are in generation order, which
/// is already random).
QuestionSet Head(const QuestionSet& set, size_t n) {
  QuestionSet head;
  n = std::min(n, set.questions.size());
  head.questions.assign(set.questions.begin(), set.questions.begin() + n);
  head.refs.assign(set.refs.begin(), set.refs.begin() + n);
  return head;
}

}  // namespace

// ======================= serve_zipf =======================

void RunServeZipf(const RunConfig& config, RunOutput* out) {
  const Trained trained = SetUpAndReport(config, out);
  const kc::KbqaSystem& system = *trained.system;
  const auto reference = MakeReferenceEngine(trained);
  std::unordered_set<uint64_t> seen;
  const QuestionSet load = MakeQuestionSet(trained, *reference, config,
                                           kStreamLoad, kPoolSize, &seen);
  const int halves = config.traced ? 2 : 1;
  std::vector<QuestionSet> runs;
  for (int h = 0; h < halves; ++h) {
    runs.push_back(MakeQuestionSet(trained, *reference, config,
                                   kStreamRun + h, kPoolSize, &seen));
  }

  const kc::OnlineInference engine(
      &trained.world->kb, &trained.world->taxonomy, &system.ner(),
      &system.template_store(), &system.expanded_kb().paths(),
      ServingPosture(system), system.compressed_expanded_kb());
  serve::ServingOptions serving;
  serving.num_workers = kServeWorkers;
  auto server = serve::Server::ForEngine(&engine, serving);
  out->threads.push_back({"submitter", 1});
  out->threads.push_back({"server_workers", kServeWorkers});
  out->threads.push_back({"batcher", 1});

  AddToTally(RunClosedLoop(*server, load.questions, load.refs,
                           ZipfDraws(kPoolSize, kServeWarmRequests,
                                     Mix(config.seed, 11)),
                           kClosedWindow, 60.0, kServeWarmRequests),
             &out->tally);

  LoopResult open, closed;
  const auto measure = [&](const QuestionSet& run, double seconds,
                           uint64_t salt) {
    // Ramp-up, untimed: the timed draws then meet caches already in their
    // steady state for this pool, drawn independently of the timed draws.
    AddToTally(RunClosedLoop(*server, run.questions, run.refs,
                             ZipfDraws(kPoolSize, kRampRequests,
                                       Mix(config.seed, salt + 3)),
                             kClosedWindow, 60.0, kRampRequests),
               &out->tally);
    const size_t arrivals = static_cast<size_t>(kOpenLoopQps * seconds / 2);
    StealSampler sampler;
    open = RunOpenLoop(*server, run.questions, run.refs,
                       ZipfDraws(kPoolSize, arrivals, Mix(config.seed, salt)),
                       kOpenLoopQps, seconds / 2, Mix(config.seed, salt + 1));
    closed = RunClosedLoop(
        *server, run.questions, run.refs,
        ZipfDraws(kPoolSize, kClosedDraws, Mix(config.seed, salt + 2)),
        kClosedWindow, seconds / 2, UINT64_MAX);
    sampler.Stop();
    AddToTally(open, &out->tally);
    AddToTally(closed, &out->tally);
    const CalmWindows open_calm(sampler, open.begin_ns, open.end_ns,
                                kRateWindowNs);
    const CalmWindows closed_calm(sampler, closed.begin_ns, closed.end_ns,
                                  kRateWindowNs);
    PhaseFigures figures;
    figures.p50_us = MedianOfWindowQuantiles(open.latency_us, open.begin_ns,
                                             kLatencyWindowNs, 0.5, open_calm);
    figures.p99_us = MedianOfWindowQuantiles(
        open.latency_us, open.begin_ns, kLatencyWindowNs, 0.99, open_calm);
    figures.p99_all_us = AllSamplesQuantile(open.latency_us, 0.99);
    std::vector<double> rates;
    for (size_t w = 0; w < closed.window_rates.size(); ++w) {
      if (closed_calm.Contains(closed.begin_ns + w * kRateWindowNs)) {
        rates.push_back(closed.window_rates[w]);
      }
    }
    figures.qps = Median(rates);
    NoteHost("open_loop", open_calm, &figures);
    NoteHost("closed_loop", closed_calm, &figures);
    return figures;
  };

  const double half_seconds = config.seconds / halves;
  const PhaseFigures figures = measure(runs[0], half_seconds, 20);
  SetEndToEnd(figures, out);
  out->named.Set("serve_p50_us", figures.p50_us, "us");
  out->named.Set("serve_p99_us", figures.p99_us, "us");
  out->named.Set("serve_p99_us_all_samples", figures.p99_all_us, "us");
  out->named.Set("serve_max_qps", figures.qps, "1/s");
  std::vector<double> lateness = open.lateness_us;
  out->generator.push_back({"open_loop_rate_qps", kOpenLoopQps});
  out->generator.push_back({"lateness_p99_us", Quantile(&lateness, 0.99)});
  out->generator.push_back(
      {"lateness_max_us", lateness.empty() ? 0 : lateness.back()});
  if (!config.traced) return;

  const serve::ServingStats before = server->stats();
  const WideCounts w0 = WideCounts::Drain();
  const CacheCounters c0 = CacheCounters::Read();
  trace::SetEnabled(true);
  SetOverhead(figures, measure(runs[1], half_seconds, 30), out);
  const CacheCounters c1 = CacheCounters::Read();
  const WideCounts w1 = WideCounts::Drain();
  SetServeLayers(open, closed, before, server->stats(), w0, w1, &out->layers);
  SetCacheMetrics(c0, c1, &out->layers);

  const auto live = ProbeLiveKb(trained, config.nproc, kProbeLiveBatches,
                                kProbeLiveMerges, &out->layers);
  LayerTargets targets;
  targets.trained = &trained;
  targets.reference = reference.get();
  targets.answer = [&](const std::string& q) { return engine.Answer(q); };
  targets.answer_all = [&](const std::vector<std::string>& qs, int n) {
    return engine.AnswerAll(qs, n);
  };
  targets.live = live.get();
  targets.nproc = config.nproc;
  const QuestionSet sample = Head(runs[1], kReplayQuestions);
  const ReplayStats replay = ReplayLayers(targets, sample.questions,
                                          sample.refs, &out->layers,
                                          &out->tally);
  ProbeAnswerAll(targets, sample.questions, kProbeChunk, kProbeRounds,
                 replay.answer_mean_ns, &out->layers);
  ProbeFixedCosts(trained, config.nproc, &out->layers);
  SetMemoryMetrics(trained, &engine, &out->layers);
}

// ======================= batch_uniform =======================

namespace {

struct BatchCall {
  uint64_t end_ns = 0;
  double call_ns = 0;
  size_t questions = 0;
};

/// The batch workload's stream of distinct questions and their references,
/// generated and answered by the reference engine a block at a time,
/// outside the timed calls.
class BatchStream {
 public:
  BatchStream(const Trained& trained, const kc::OnlineInference& reference,
              const RunConfig& config, uint64_t stream,
              std::unordered_set<uint64_t>* seen)
      : trained_(trained), reference_(reference), config_(config),
        stream_(stream), seen_(seen) {}

  /// The next kChunk questions.
  QuestionSet Next() {
    if (pos_ == block_.questions.size()) {
      const uint64_t begin = NowNs();
      block_ = MakeQuestionSet(trained_, reference_, config_,
                               ChunkStream(stream_, blocks_++), kRefill,
                               seen_);
      trace::Record("batch.generate", nullptr, trace::NewRequestIds(1), begin,
                    NowNs());
      pos_ = 0;
    }
    QuestionSet chunk;
    const size_t end = std::min(pos_ + kChunk, block_.questions.size());
    chunk.questions.assign(block_.questions.begin() + pos_,
                           block_.questions.begin() + end);
    chunk.refs.assign(block_.refs.begin() + pos_, block_.refs.begin() + end);
    pos_ = end;
    return chunk;
  }

 private:
  const Trained& trained_;
  const kc::OnlineInference& reference_;
  const RunConfig& config_;
  const uint64_t stream_;
  std::unordered_set<uint64_t>* seen_;
  QuestionSet block_;
  size_t pos_ = 0;
  uint64_t blocks_ = 0;
};

/// One timed AnswerAll call over the stream's next chunk, checked against
/// the references.
BatchCall RunChunk(const Trained& trained, const RunConfig& config,
                   BatchStream* stream, RunOutput* out, QuestionSet* sample) {
  const QuestionSet chunk = stream->Next();
  const uint64_t id = trace::NewRequestIds(1);
  uint64_t begin = NowNs();
  const std::vector<kc::AnswerResult> results =
      trained.system->AnswerAll(chunk.questions, config.nproc);
  const uint64_t end = NowNs();
  trace::Record("batch.call", nullptr, id, begin, end);
  const BatchCall call{end, static_cast<double>(end - begin),
                       chunk.questions.size()};
  begin = NowNs();
  uint64_t wrong = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!chunk.refs[i].Matches(results[i])) ++wrong;
  }
  trace::Record("batch.check", nullptr, id, begin, NowNs());
  out->tally.attempted += results.size();
  out->tally.failed += wrong;
  out->tally.wrong += wrong;
  if (sample != nullptr && sample->questions.size() < kReplayQuestions) {
    // A few questions of every chunk, so the replay spans the whole run.
    for (size_t i = 0; i < 8 && i < results.size(); ++i) {
      sample->questions.push_back(chunk.questions[i]);
      sample->refs.push_back(chunk.refs[i]);
    }
  }
  return call;
}

}  // namespace

void RunBatchUniform(const RunConfig& config, RunOutput* out) {
  const Trained trained = SetUpAndReport(config, out);
  const auto reference = MakeReferenceEngine(trained);
  out->threads.push_back({"answer_all_threads", config.nproc});
  std::unordered_set<uint64_t> seen;
  BatchStream load(trained, *reference, config, kStreamLoad, &seen);
  for (int k = 0; k < kWarmChunks; ++k) {
    RunChunk(trained, config, &load, out, nullptr);
  }

  std::vector<BatchCall> calls;
  QuestionSet sample;
  const auto measure = [&](uint64_t stream, double seconds) {
    calls.clear();
    BatchStream run(trained, *reference, config, stream, &seen);
    StealSampler sampler;
    const uint64_t begin = NowNs();
    const uint64_t end = begin + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end) {
      calls.push_back(RunChunk(trained, config, &run, out, &sample));
    }
    sampler.Stop();
    const CalmWindows calm(sampler, begin, NowNs(), kRateWindowNs);
    // Per window: questions answered over the wall time spent inside
    // AnswerAll calls that ended in the window.
    std::vector<double> window_q, window_ns;
    std::vector<double> call_us, all_call_us;
    for (const BatchCall& call : calls) {
      all_call_us.push_back(call.call_ns * 1e-3);
      if (!calm.Contains(call.end_ns)) continue;
      const size_t w =
          static_cast<size_t>((call.end_ns - begin) / kRateWindowNs);
      if (w >= window_q.size()) {
        window_q.resize(w + 1, 0);
        window_ns.resize(w + 1, 0);
      }
      window_q[w] += static_cast<double>(call.questions);
      window_ns[w] += call.call_ns;
      call_us.push_back(call.call_ns * 1e-3);
    }
    std::vector<double> rates;
    for (size_t w = 0; w < window_q.size(); ++w) {
      if (window_ns[w] > 0) rates.push_back(window_q[w] * 1e9 / window_ns[w]);
    }
    PhaseFigures figures;
    figures.qps = Median(rates);
    figures.p50_us = Quantile(&call_us, 0.5);
    figures.p99_us = Quantile(&call_us, 0.99);
    figures.p99_all_us = Quantile(&all_call_us, 0.99);
    NoteHost("batch", calm, &figures);
    return figures;
  };

  const int halves = config.traced ? 2 : 1;
  const double half_seconds = config.seconds / halves;
  const PhaseFigures figures = measure(kStreamRun, half_seconds);
  SetEndToEnd(figures, out);
  out->named.Set("batch_qps", figures.qps, "1/s");
  out->named.Set("batch_call_p50_us", figures.p50_us, "us");
  out->named.Set("batch_call_p99_us", figures.p99_us, "us");
  out->named.Set("batch_call_p99_us_all_samples", figures.p99_all_us, "us");
  out->named.Set("batch_calls", static_cast<double>(calls.size()), "count");
  if (!config.traced) return;

  sample = QuestionSet();
  const CacheCounters c0 = CacheCounters::Read();
  trace::SetEnabled(true);
  SetOverhead(figures, measure(kStreamRun + 1, half_seconds), out);
  SetCacheMetrics(c0, CacheCounters::Read(), &out->layers);
  std::vector<double> call_ns;
  for (const BatchCall& call : calls) call_ns.push_back(call.call_ns);

  const auto live = ProbeLiveKb(trained, config.nproc, kProbeLiveBatches,
                                kProbeLiveMerges, &out->layers);
  LayerTargets targets;
  targets.trained = &trained;
  targets.reference = reference.get();
  targets.answer = [&](const std::string& q) {
    return trained.system->Answer(q);
  };
  targets.live = live.get();
  targets.nproc = config.nproc;
  const ReplayStats replay = ReplayLayers(targets, sample.questions,
                                          sample.refs, &out->layers,
                                          &out->tally);
  SetAnswerAllMetrics(call_ns, kChunk, replay.answer_mean_ns, config.nproc,
                      &out->layers);
  serve::ServingOptions serving;
  serving.num_workers = kServeWorkers;
  ProbeServer(*serve::Server::ForEngine(&trained.system->online(), serving),
              sample.questions, sample.refs, Mix(config.seed, kStreamProbe),
              out);
  ProbeFixedCosts(trained, config.nproc, &out->layers);
  SetMemoryMetrics(trained, nullptr, &out->layers);
}

// ======================= live_mixed =======================

namespace {

/// What the writer did during one timed phase.
struct WriterStats {
  std::vector<double> apply_us;
  std::vector<double> merge_s;
  std::vector<double> lateness_us;
};

}  // namespace

void RunLiveMixed(const RunConfig& config, RunOutput* out) {
  const Trained trained = SetUpAndReport(config, out);
  const kc::KbqaSystem& system = *trained.system;
  const auto reference = MakeReferenceEngine(trained);
  std::unordered_set<uint64_t> seen;
  const QuestionSet load = MakeQuestionSet(trained, *reference, config,
                                           kStreamLoad, kPoolSize, &seen);
  const int halves = config.traced ? 2 : 1;
  std::vector<QuestionSet> runs;
  for (int h = 0; h < halves; ++h) {
    runs.push_back(MakeQuestionSet(trained, *reference, config,
                                   kStreamRun + h, kPoolSize, &seen));
  }

  rdf::MutableKb::Options live_options;
  live_options.auto_merge = false;  // the writer merges on its own schedule
  live_options.merge_threads = 1;
  rdf::MutableKb live(
      rdf::RebuildKb(trained.world->kb, rdf::DeltaOverlay{}, config.nproc),
      live_options);
  kc::LiveKbqaEngine::Options engine_options;
  engine_options.alias_predicates = trained.world->alias_predicates;
  engine_options.online = ServingPosture(system);
  const kc::LiveKbqaEngine engine(&live, &trained.world->taxonomy,
                                  &system.template_store(),
                                  &system.expanded_kb().paths(),
                                  engine_options);
  out->threads.push_back({"readers", kLiveReaders});
  out->threads.push_back({"writer", 1});
  out->threads.push_back({"merge", 1});

  // Closed-loop readers over `set`, each with its own Zipfian draws;
  // stops after `seconds` or `max_reads` reads per reader.
  const auto read = [&](const QuestionSet& set, double seconds,
                        size_t max_reads, uint64_t salt,
                        std::vector<std::pair<uint64_t, double>>* samples) {
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::vector<std::pair<uint64_t, double>>> per_reader(
        kLiveReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kLiveReaders; ++r) {
      readers.emplace_back([&, r] {
        const std::vector<uint32_t> draws = ZipfDraws(
            set.questions.size(), std::min(max_reads, kReaderDraws),
            Mix(config.seed, salt + static_cast<uint64_t>(r)));
        const uint64_t id_base = trace::NewRequestIds(draws.size());
        std::vector<std::pair<uint64_t, double>>& mine = per_reader[r];
        mine.reserve(draws.size());
        uint64_t wrong = 0;
        size_t i = 0;
        for (; i < draws.size(); ++i) {
          const uint64_t begin = NowNs();
          if (begin >= end) break;
          const uint32_t q = draws[i];
          const kc::AnswerResult result =
              engine.AnswerCached(set.questions[q], kc::AnswerOptions{});
          const uint64_t answered = NowNs();
          if (!set.refs[q].Matches(result)) ++wrong;
          const uint64_t checked = NowNs();
          trace::Record("live.check", "live.read", id_base + i, answered,
                        checked);
          trace::Record("live.read", nullptr, id_base + i, begin, checked);
          mine.emplace_back(answered,
                            static_cast<double>(answered - begin) * 1e-3);
        }
        out->tally.attempted += i;
        out->tally.failed += wrong;
        out->tally.wrong += wrong;
      });
    }
    for (std::thread& t : readers) t.join();
    if (samples != nullptr) {
      for (const auto& mine : per_reader) {
        samples->insert(samples->end(), mine.begin(), mine.end());
      }
    }
  };
  read(load, 60.0, kLiveWarmReads, 40, nullptr);

  uint64_t next_batch = 0;  // LiveBatch index, continued across phases
  WriterStats writer_stats;
  const auto measure = [&](const QuestionSet& run, double seconds,
                           uint64_t salt) {
    writer_stats = WriterStats();
    StealSampler sampler;
    const uint64_t begin = NowNs();
    const uint64_t end = begin + static_cast<uint64_t>(seconds * 1e9);
    std::thread writer([&] {
      for (uint64_t b = 0;; ++b) {
        const uint64_t due =
            begin + static_cast<uint64_t>(static_cast<double>(b) * 1e9 /
                                          kWritesPerSecond);
        if (due >= end) break;
        WaitUntil(due);
        uint64_t t0 = NowNs();
        writer_stats.lateness_us.push_back(static_cast<double>(t0 - due) *
                                           1e-3);
        const uint64_t id = trace::NewRequestIds(1);
        live.Apply(LiveBatch(config.seed, next_batch++));
        uint64_t t1 = NowNs();
        trace::Record("live.apply", nullptr, id, t0, t1);
        writer_stats.apply_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        // Merges fall half a period off the phase boundaries, so each one
        // runs while the readers are reading.
        if ((b + 1 + kMergeEvery / 2) % kMergeEvery == 0) {
          t0 = NowNs();
          live.ForceMerge();
          t1 = NowNs();
          trace::Record("live.merge", nullptr, id, t0, t1);
          writer_stats.merge_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        }
      }
    });
    std::vector<std::pair<uint64_t, double>> samples;
    read(run, seconds, kReaderDraws, salt, &samples);
    writer.join();
    if (writer_stats.merge_s.empty()) {
      // Every phase merges at least once, even when it is too short for the
      // writer's schedule to reach a merge.
      const uint64_t t0 = NowNs();
      live.ForceMerge();
      writer_stats.merge_s.push_back(static_cast<double>(NowNs() - t0) *
                                     1e-9);
    }
    std::printf("[perfladder] ForceMerge wall times (s):");
    for (double m : writer_stats.merge_s) std::printf(" %.3f", m);
    std::printf("\n");
    sampler.Stop();
    const CalmWindows calm(sampler, begin, end, kRateWindowNs);
    PhaseFigures figures;
    figures.qps = MedianWindowRate(samples, begin, calm);
    figures.p50_us =
        MedianOfWindowQuantiles(samples, begin, kLatencyWindowNs, 0.5, calm);
    figures.p99_us =
        MedianOfWindowQuantiles(samples, begin, kLatencyWindowNs, 0.99, calm);
    NoteHost("reads", calm, &figures);
    figures.p99_all_us = AllSamplesQuantile(samples, 0.99);
    return figures;
  };

  const double half_seconds = config.seconds / halves;
  const uint64_t merges_before = live.merges_completed();
  const PhaseFigures figures = measure(runs[0], half_seconds, 50);
  SetEndToEnd(figures, out);
  out->named.Set("live_read_qps", figures.qps, "1/s");
  out->named.Set("live_read_p50_us", figures.p50_us, "us");
  out->named.Set("live_read_p99_us", figures.p99_us, "us");
  out->named.Set("live_read_p99_us_all_samples", figures.p99_all_us, "us");
  out->named.Set("live_merge_s", Median(writer_stats.merge_s), "s");
  out->named.Set("live_merges",
                 static_cast<double>(live.merges_completed() - merges_before),
                 "count");
  std::vector<double> lateness = writer_stats.lateness_us;
  out->generator.push_back({"writer_batches_per_s", kWritesPerSecond});
  out->generator.push_back({"lateness_p99_us", Quantile(&lateness, 0.99)});
  out->generator.push_back(
      {"lateness_max_us", lateness.empty() ? 0 : lateness.back()});
  if (live.merges_completed() == merges_before) out->checks_passed = false;
  if (!config.traced) return;

  const uint64_t merges_mid = live.merges_completed();
  const CacheCounters c0 = CacheCounters::Read();
  trace::SetEnabled(true);
  SetOverhead(figures, measure(runs[1], half_seconds, 60), out);
  SetCacheMetrics(c0, CacheCounters::Read(), &out->layers);
  out->layers.Set("rdf.live.apply_us", Median(writer_stats.apply_us), "us");
  out->layers.Set("rdf.live.merges",
                  static_cast<double>(live.merges_completed() - merges_mid),
                  "count");
  out->layers.Set("rdf.live.merge_s", Median(writer_stats.merge_s), "s");

  LayerTargets targets;
  targets.trained = &trained;
  targets.reference = reference.get();
  targets.answer = [&](const std::string& q) { return engine.Answer(q); };
  targets.answer_all = [&](const std::vector<std::string>& qs, int n) {
    return engine.AnswerAll(qs, n);
  };
  targets.live = &live;
  targets.nproc = config.nproc;
  const QuestionSet sample = Head(runs[1], kReplayQuestions);
  const ReplayStats replay = ReplayLayers(targets, sample.questions,
                                          sample.refs, &out->layers,
                                          &out->tally);
  ProbeAnswerAll(targets, sample.questions, kProbeChunk, kProbeRounds,
                 replay.answer_mean_ns, &out->layers);
  serve::ServingOptions serving;
  serving.num_workers = kServeWorkers;
  ProbeServer(*serve::Server::ForLiveEngine(&engine, serving),
              sample.questions, sample.refs, Mix(config.seed, kStreamProbe),
              out);
  ProbeFixedCosts(trained, config.nproc, &out->layers);
  SetMemoryMetrics(trained, nullptr, &out->layers);
}

}  // namespace perfladder
