#ifndef PERFLADDER_LADDER_H_
#define PERFLADDER_LADDER_H_

// Shared declarations of the KBQA performance ladder. The ladder drives the
// engine only through its public API and times every layer from outside,
// around calls to that layer's public functions.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/kbqa_system.h"
#include "core/live_engine.h"
#include "core/online.h"
#include "corpus/world.h"
#include "rdf/mutable_kb.h"

namespace perfladder {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// All CPUs' total and steal time so far, in /proc/stat ticks (steal: time
/// the hypervisor ran other guests while this one's vCPUs wanted to run).
struct CpuTicks {
  double total = 0;
  double steal = 0;

  static CpuTicks Read();
};

/// Samples CpuTicks every 50 ms on its own, mostly sleeping thread.
class StealSampler {
 public:
  StealSampler();
  ~StealSampler() { Stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  void Stop();
  /// Steal share of all CPU time in [begin_ns, end_ns); call after Stop.
  double ShareBetween(uint64_t begin_ns, uint64_t end_ns) const;

 private:
  struct Sample {
    uint64_t at_ns = 0;
    CpuTicks ticks;
  };
  static Sample Read() { return {NowNs(), CpuTicks::Read()}; }

  std::vector<Sample> samples_;  // the sampling thread's until Stop
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The windows of a timed phase in which the host left the program its
/// CPUs: those whose steal share is at most max(2%, the phase's first
/// quartile of window shares). On a calm host that is every window; on a
/// contended one, the calmest quarter. Only full windows count.
class CalmWindows {
 public:
  CalmWindows(const StealSampler& sampler, uint64_t begin_ns, uint64_t end_ns,
              uint64_t window_ns);
  /// True when `at_ns` falls in a calm full window.
  bool Contains(uint64_t at_ns) const;
  size_t calm() const;
  size_t total() const { return calm_.size(); }
  double steal_share() const { return steal_share_; }

 private:
  uint64_t begin_ns_;
  uint64_t window_ns_;
  std::vector<bool> calm_;
  double steal_share_ = 0;
};

/// Quantile `q` of each full window's samples, then the median of those
/// per-window figures over the windows that start in a calm window: one
/// stall moves one window, not the run's figure.
double MedianOfWindowQuantiles(const std::vector<std::pair<uint64_t, double>>&
                                   timed_samples,
                               uint64_t begin_ns, uint64_t window_ns,
                               double q, const CalmWindows& calm);

/// Sleeps, then yields, until the steady clock reaches `due_ns`.
void WaitUntil(uint64_t due_ns);

/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Named metrics in insertion order, printed as the result's "metrics".
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Operation tallies of one run. `wrong` counts answers that differ from
/// the reference or carry a non-OK status, and replayed fan-out counts that
/// differ from the engine's; `failed` also counts rejected and shed
/// requests.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> wrong{0};
};

/// The fields of an answer the ladder holds the engine to, bit for bit.
struct RefAnswer {
  bool answered = false;
  std::string value;
  std::string predicate;
  double score = 0;
  std::vector<std::string> values;
  size_t num_entities = 0;
  size_t num_templates = 0;
  size_t num_predicates = 0;
  size_t num_values = 0;

  static RefAnswer From(const kbqa::core::AnswerResult& result);
  /// True when `result` is OK and equals this reference exactly.
  bool Matches(const kbqa::core::AnswerResult& result) const;
};

/// A trained KBQA instance over the Standard world.
struct Trained {
  std::unique_ptr<kbqa::corpus::World> world;
  std::unique_ptr<kbqa::core::KbqaSystem> system;
};

struct SetupTimes {
  double world_s = 0;
  double corpus_s = 0;
  double train_s = 0;
  double total_s() const { return world_s + corpus_s + train_s; }
};

/// World generation, corpus generation and Train, `repeats` times; keeps
/// the last instance and reports every repeat's times.
Trained SetUp(int nproc, int repeats, std::vector<SetupTimes>* times);

/// OnlineInference options of the serving posture: value and answer
/// caches on, 64 MiB each.
kbqa::core::OnlineInference::Options ServingPosture(
    const kbqa::core::KbqaSystem& system);

/// The plain engine reference answers come from: value cache, answer cache
/// and compressed expanded KB all off.
std::unique_ptr<kbqa::core::OnlineInference> MakeReferenceEngine(
    const Trained& trained);

/// Reference answers for `questions`, computed over `nproc` threads.
std::vector<RefAnswer> ReferenceAnswers(
    const kbqa::core::OnlineInference& reference,
    const std::vector<std::string>& questions, int nproc);

// ---- Inputs, all pure functions of the workload seed. ----

/// `count` distinct generated questions about the world, none of whose
/// hashes is in `seen` (each drawn question's hash is added), generated on
/// `threads` threads. Stream `stream` of `seed` is independent of every
/// other stream.
std::vector<std::string> GenerateQuestions(const kbqa::corpus::World& world,
                                           uint64_t seed, uint64_t stream,
                                           size_t count, double bfq_ratio,
                                           int threads,
                                           std::unordered_set<uint64_t>* seen);

/// `count` Zipfian (s = 0.99) draws over [0, n), rank 0 hottest, with the
/// ranks mapped through a seeded permutation of the pool.
std::vector<uint32_t> ZipfDraws(size_t n, size_t count, uint64_t seed);

// ---- Layer replay and probes (traced runs). ----

/// Engine handles a workload hands to the traced-run layer measurements.
struct LayerTargets {
  const Trained* trained = nullptr;
  const kbqa::core::OnlineInference* reference = nullptr;
  /// The workload's own engine, for single-thread Answer timing.
  std::function<kbqa::core::AnswerResult(const std::string&)> answer;
  /// The workload's batched entry point.
  std::function<std::vector<kbqa::core::AnswerResult>(
      const std::vector<std::string>&, int)>
      answer_all;
  /// Live KB the replay pins snapshots of (the workload's own, or a probe
  /// copy of the world's KB).
  kbqa::rdf::MutableKb* live = nullptr;
  int nproc = 1;
};

struct ReplayStats {
  double answer_mean_ns = 0;  // single-thread Answer on the workload engine
};

/// Replays `questions` through the layer functions in the order Answer
/// calls them, times each layer, checks the replayed fan-out against the
/// reference AnswerResult counts, and sets the nlp/taxonomy/core/rdf layer
/// metrics plus the RequestContext stage clock cross-check.
ReplayStats ReplayLayers(const LayerTargets& targets,
                         const std::vector<std::string>& questions,
                         const std::vector<RefAnswer>& refs, MetricSet* metrics,
                         Tally* tally);

/// Layer timings no workload's traffic isolates: ThreadPool create/destroy,
/// WideEvents::Record, ExpandedKb::Build and compression.
void ProbeFixedCosts(const Trained& trained, int nproc, MetricSet* metrics);

/// `rounds` AnswerAll calls of `chunk` questions on the workload's engine,
/// then SetAnswerAllMetrics.
void ProbeAnswerAll(const LayerTargets& targets,
                    const std::vector<std::string>& questions, size_t chunk,
                    int rounds, double answer_mean_ns, MetricSet* metrics);

/// core.answer_all_call_ms.p50 and util.pool.parallel_efficiency: chunk x
/// mean single-thread Answer time / (nproc x mean AnswerAll call time).
void SetAnswerAllMetrics(std::vector<double> call_ns, size_t chunk,
                         double answer_mean_ns, int nproc, MetricSet* metrics);

/// A live KB over a copy of the world's KB, with `batches` small Apply
/// batches and `merges` ForceMerge calls timed; sets rdf.live.apply_us,
/// rdf.live.merges and rdf.live.merge_s.
std::unique_ptr<kbqa::rdf::MutableKb> ProbeLiveKb(const Trained& trained,
                                                  int nproc, int batches,
                                                  int merges,
                                                  MetricSet* metrics);

/// Cache hit ratios and evictions from the process-wide registry counters,
/// as deltas since `before`; the mem.*_mb gauges.
struct CacheCounters {
  uint64_t value_hits = 0;
  uint64_t value_misses = 0;
  uint64_t value_evictions = 0;
  uint64_t answer_hits = 0;
  uint64_t answer_misses = 0;
  static CacheCounters Read();
};
void SetCacheMetrics(const CacheCounters& before, const CacheCounters& after,
                     MetricSet* metrics);
void SetMemoryMetrics(const Trained& trained,
                      const kbqa::core::OnlineInference* serving,
                      MetricSet* metrics);

// ---- Live writes. ----

/// Batch `index` of the live writer: adds two triples whose subjects are
/// fresh entities and whose objects are fresh literals, and deletes the
/// two added by batch index - 1. No question mentions these names, so
/// answers stay equal to the frozen reference.
std::vector<kbqa::rdf::MutationOp> LiveBatch(uint64_t seed, uint64_t index);

}  // namespace perfladder

#endif  // PERFLADDER_LADDER_H_
