#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "ladder.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/memory_budget.h"
#include "util/rng.h"

namespace perfladder {

namespace kc = kbqa::core;

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  if (rank > 0) --rank;
  return (*v)[std::min(rank, v->size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

StealSampler::StealSampler() {
  samples_.push_back(Read());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      samples_.push_back(Read());
    }
  });
}

void StealSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  samples_.push_back(Read());
}

CpuTicks CpuTicks::Read() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += static_cast<double>(x);
    ticks.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return ticks;
}

double StealSampler::ShareBetween(uint64_t begin_ns, uint64_t end_ns) const {
  // The last sample at or before begin, the first at or after end.
  const Sample* first = &samples_.front();
  const Sample* last = &samples_.back();
  for (const Sample& sample : samples_) {
    if (sample.at_ns <= begin_ns) first = &sample;
    if (sample.at_ns >= end_ns) {
      last = &sample;
      break;
    }
  }
  const double total = last->ticks.total - first->ticks.total;
  return total > 0 ? (last->ticks.steal - first->ticks.steal) / total : 0;
}

CalmWindows::CalmWindows(const StealSampler& sampler, uint64_t begin_ns,
                         uint64_t end_ns, uint64_t window_ns)
    : begin_ns_(begin_ns), window_ns_(window_ns) {
  const size_t n =
      end_ns > begin_ns ? static_cast<size_t>((end_ns - begin_ns) / window_ns)
                        : 0;
  std::vector<double> shares;
  for (size_t w = 0; w < n; ++w) {
    const uint64_t a = begin_ns + w * window_ns;
    shares.push_back(sampler.ShareBetween(a, a + window_ns));
  }
  std::vector<double> sorted = shares;
  const double limit = std::max(0.02, Quantile(&sorted, 0.25));
  for (double share : shares) calm_.push_back(share <= limit);
  steal_share_ = sampler.ShareBetween(begin_ns, end_ns);
}

bool CalmWindows::Contains(uint64_t at_ns) const {
  if (at_ns < begin_ns_) return false;
  const size_t w = static_cast<size_t>((at_ns - begin_ns_) / window_ns_);
  return w < calm_.size() && calm_[w];
}

size_t CalmWindows::calm() const {
  size_t n = 0;
  for (bool c : calm_) n += c ? 1 : 0;
  return n;
}

double MedianOfWindowQuantiles(
    const std::vector<std::pair<uint64_t, double>>& timed_samples,
    uint64_t begin_ns, uint64_t window_ns, double q,
    const CalmWindows& calm) {
  std::vector<std::vector<double>> windows;
  for (const auto& [at_ns, value] : timed_samples) {
    if (at_ns < begin_ns) continue;
    const size_t w = static_cast<size_t>((at_ns - begin_ns) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(value);
  }
  // The last window is partial; drop it unless it is the only one.
  if (windows.size() > 1) windows.pop_back();
  std::vector<double> per_window;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].empty() || !calm.Contains(begin_ns + w * window_ns)) {
      continue;
    }
    per_window.push_back(Quantile(&windows[w], q));
  }
  return Median(std::move(per_window));
}

void WaitUntil(uint64_t due_ns) {
  uint64_t now = NowNs();
  while (now < due_ns) {
    if (due_ns - now > 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 100'000));
    } else {
      std::this_thread::yield();
    }
    now = NowNs();
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

RefAnswer RefAnswer::From(const kc::AnswerResult& result) {
  RefAnswer ref;
  ref.answered = result.answered;
  ref.value = result.value;
  ref.predicate = result.predicate;
  ref.score = result.score;
  ref.values = result.values;
  ref.num_entities = result.num_entities;
  ref.num_templates = result.num_templates;
  ref.num_predicates = result.num_predicates;
  ref.num_values = result.num_values;
  return ref;
}

bool RefAnswer::Matches(const kc::AnswerResult& result) const {
  // Scores compare bit for bit: the engine promises identical answers
  // with or without its caches and substrate, not merely close ones.
  return result.status.ok() && result.answered == answered &&
         std::memcmp(&result.score, &score, sizeof(double)) == 0 &&
         result.value == value && result.predicate == predicate &&
         result.values == values;
}

Trained SetUp(int nproc, int repeats, std::vector<SetupTimes>* times) {
  Trained trained;
  for (int r = 0; r < repeats; ++r) {
    // Free the previous instance first so every repeat starts from the
    // same heap state.
    trained.system.reset();
    trained.world.reset();
    SetupTimes t;
    const uint64_t t0 = NowNs();
    kbqa::corpus::WorldConfig world_config;  // The Standard world.
    world_config.seed = 42;
    trained.world = std::make_unique<kbqa::corpus::World>(
        kbqa::corpus::GenerateWorld(world_config));
    const uint64_t t1 = NowNs();
    trace::Record("setup.world", nullptr, r, t0, t1);
    kbqa::corpus::QaGenConfig corpus_config;
    corpus_config.seed = 7;
    corpus_config.num_pairs = 60000;
    const kbqa::corpus::QaCorpus corpus =
        kbqa::corpus::GenerateTrainingCorpus(*trained.world, corpus_config);
    const uint64_t t2 = NowNs();
    trace::Record("setup.corpus", nullptr, r, t1, t2);
    kc::KbqaOptions options;
    options.em.num_threads = nproc;
    trained.system =
        std::make_unique<kc::KbqaSystem>(trained.world.get(), options);
    const kbqa::Status status = trained.system->Train(corpus);
    const uint64_t t3 = NowNs();
    trace::Record("setup.train", nullptr, r, t2, t3);
    if (!status.ok()) {
      std::fprintf(stderr, "Train failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    t.world_s = static_cast<double>(t1 - t0) * 1e-9;
    t.corpus_s = static_cast<double>(t2 - t1) * 1e-9;
    t.train_s = static_cast<double>(t3 - t2) * 1e-9;
    times->push_back(t);
  }
  return trained;
}

kc::OnlineInference::Options ServingPosture(const kc::KbqaSystem& system) {
  kc::OnlineInference::Options options = system.options().online;
  options.enable_value_cache = true;
  options.value_cache_budget_bytes = 64ull << 20;
  options.enable_answer_cache = true;
  options.answer_cache_budget_bytes = 64ull << 20;
  return options;
}

std::unique_ptr<kc::OnlineInference> MakeReferenceEngine(
    const Trained& trained) {
  const kc::KbqaSystem& system = *trained.system;
  kc::OnlineInference::Options options = system.options().online;
  options.enable_value_cache = false;
  options.enable_answer_cache = false;
  return std::make_unique<kc::OnlineInference>(
      &trained.world->kb, &trained.world->taxonomy, &system.ner(),
      &system.template_store(), &system.expanded_kb().paths(), options,
      /*cekb=*/nullptr);
}

std::vector<RefAnswer> ReferenceAnswers(
    const kc::OnlineInference& reference,
    const std::vector<std::string>& questions, int nproc) {
  std::vector<RefAnswer> refs;
  refs.reserve(questions.size());
  for (const kc::AnswerResult& result : reference.AnswerAll(questions, nproc)) {
    refs.push_back(RefAnswer::From(result));
  }
  return refs;
}

namespace {

uint64_t HashQuestion(const std::string& question) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : question) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::vector<std::string> GenerateQuestions(
    const kbqa::corpus::World& world, uint64_t seed, uint64_t stream,
    size_t count, double bfq_ratio, int threads,
    std::unordered_set<uint64_t>* seen) {
  std::vector<std::string> out;
  out.reserve(count);
  for (uint64_t round = 0; out.size() < count; ++round) {
    // Each thread generates its own seeded share; shares are merged in
    // thread order, so the output depends on the seed and thread count only.
    const size_t share = std::max<size_t>(
        64, (count - out.size()) * 5 / 4 / static_cast<size_t>(threads));
    std::vector<std::vector<kbqa::corpus::QaPair>> shares(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        kbqa::corpus::BenchmarkConfig config;
        config.name = "perfladder";
        uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
        state = kbqa::SplitMix64(state) + round * 1024 +
                static_cast<uint64_t>(t);
        config.seed = kbqa::SplitMix64(state);
        config.num_questions = share;
        config.bfq_ratio = bfq_ratio;
        shares[t] =
            std::move(kbqa::corpus::GenerateBenchmark(world, config)
                          .questions.pairs);
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (auto& pairs : shares) {
      for (kbqa::corpus::QaPair& pair : pairs) {
        if (out.size() == count) break;
        if (!seen->insert(HashQuestion(pair.question)).second) continue;
        out.push_back(std::move(pair.question));
      }
    }
  }
  return out;
}

std::vector<uint32_t> ZipfDraws(size_t n, size_t count, uint64_t seed) {
  kbqa::Rng rng(seed);
  std::vector<uint32_t> permutation(n);
  for (size_t i = 0; i < n; ++i) permutation[i] = static_cast<uint32_t>(i);
  rng.Shuffle(permutation);
  const kbqa::ZipfianGenerator zipf(n, 0.99);
  std::vector<uint32_t> draws(count);
  for (uint32_t& draw : draws) draw = permutation[zipf.Sample(rng)];
  return draws;
}

CacheCounters CacheCounters::Read() {
  const kbqa::obs::MetricsSnapshot snap =
      kbqa::obs::MetricsRegistry::Global().Snapshot();
  const auto get = [&](const char* name) -> uint64_t {
    const auto* counter = snap.counter(name);
    return counter != nullptr ? counter->value : 0;
  };
  CacheCounters c;
  c.value_hits = get("online.value_cache.hits");
  c.value_misses = get("online.value_cache.misses");
  c.value_evictions = get("online.value_cache.evictions");
  c.answer_hits = get("online.answer_cache.hits");
  c.answer_misses = get("online.answer_cache.misses");
  return c;
}

void SetCacheMetrics(const CacheCounters& before, const CacheCounters& after,
                     MetricSet* metrics) {
  const auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(hits + misses);
  };
  metrics->Set("core.answer_cache.hit_ratio",
               ratio(after.answer_hits - before.answer_hits,
                     after.answer_misses - before.answer_misses),
               "ratio");
  metrics->Set("core.value_cache.hit_ratio",
               ratio(after.value_hits - before.value_hits,
                     after.value_misses - before.value_misses),
               "ratio");
  metrics->Set("core.value_cache.evictions",
               static_cast<double>(after.value_evictions -
                                   before.value_evictions),
               "count");
}

void SetMemoryMetrics(const Trained& trained,
                      const kc::OnlineInference* serving, MetricSet* metrics) {
  trained.system->PublishMemoryGauges();
  if (serving != nullptr) {
    // The serving engine is not the system's own, so its caches are
    // published under the same gauges in place of the system engine's.
    kbqa::util::MemoryBudget::Publish("value_cache",
                                      serving->value_cache_stats().bytes);
    kbqa::util::MemoryBudget::Publish("answer_cache",
                                      serving->answer_cache_stats().bytes);
  }
  const kbqa::obs::MetricsSnapshot snap =
      kbqa::obs::MetricsRegistry::Global().Snapshot();
  for (const char* component :
       {"value_cache", "answer_cache", "ekb_blocks", "ekb_compressed"}) {
    const std::string gauge = std::string("mem.") + component + ".bytes";
    const auto* entry = snap.gauge(gauge);
    metrics->Set(std::string("mem.") + component + "_mb",
                 entry != nullptr ? entry->value / (1024.0 * 1024.0) : 0,
                 "MiB");
  }
}

std::vector<kbqa::rdf::MutationOp> LiveBatch(uint64_t seed, uint64_t index) {
  // One token per name, prefixed so no generated question can mention it.
  const auto subject = [&](uint64_t batch, int k) {
    return "perfladderlive" + std::to_string(seed) + "x" +
           std::to_string(batch) + "x" + std::to_string(k);
  };
  const auto object = [&](uint64_t batch, int k) {
    return "perfladdervalue" + std::to_string(batch) + "x" + std::to_string(k);
  };
  std::vector<kbqa::rdf::MutationOp> ops;
  for (int k = 0; k < 2; ++k) {
    ops.push_back({false, subject(index, k), "perfladder_fact",
                   object(index, k), true});
  }
  if (index > 0) {
    for (int k = 0; k < 2; ++k) {
      ops.push_back({true, subject(index - 1, k), "perfladder_fact",
                     object(index - 1, k), true});
    }
  }
  return ops;
}

}  // namespace perfladder
