// Concurrency stress for every shared-state subsystem, written to run
// under ThreadSanitizer (cmake -DTSAN=ON; scripts/check.sh --tsan). The
// assertions matter in every configuration, but the real gate is TSan
// proving the synchronization: each test drives genuinely concurrent
// access — pool scheduling, sharded LRU mutation, metric shards, wide-event
// rings, one engine answering from many threads, parallel Freeze/Build —
// so a missing happens-before edge anywhere in those paths becomes a CI
// failure instead of a corrupted answer in production.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/kbqa_system.h"
#include "core/online.h"
#include "corpus/qa_generator.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"
#include "core/live_engine.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "rdf/mutable_kb.h"
#include "serve/server.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace kbqa {
namespace {

// ---------- ThreadPool ----------

TEST(RaceStressTest, ThreadPoolHammerSharedCounter) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.RunShards(32, [&](size_t shard) {
      sum.fetch_add(static_cast<long>(shard), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200L * (31 * 32 / 2));
}

TEST(RaceStressTest, ThreadPoolDrivenFromAnotherThread) {
  // The pool's owner and the thread calling RunShards differ; the pool is
  // destroyed by its owner after the driver joins.
  for (int i = 0; i < 20; ++i) {
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> ran{0};
    std::thread driver([&] {
      pool->RunShards(16, [&](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    });
    driver.join();
    EXPECT_EQ(ran.load(), 16);
    pool.reset();
  }
}

TEST(RaceStressTest, ThreadPoolRunShardsFromFourThreadsAtOnce) {
  // Calls share the pool object but nothing else: each one's helpers and
  // shard cursor are its own, so every call sees exactly its shards.
  const ThreadPool pool(4);
  constexpr size_t kShards = 48;
  std::vector<std::vector<int>> hits(4, std::vector<int>(kShards, 0));
  std::vector<std::thread> callers;
  for (size_t c = 0; c < hits.size(); ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 25; ++round) {
        pool.RunShards(kShards, [&](size_t shard) { ++hits[c][shard]; });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const std::vector<int>& caller_hits : hits) {
    for (int h : caller_hits) EXPECT_EQ(h, 25);
  }
}

TEST(RaceStressTest, ThreadPoolRunShardsFromInsideAShard) {
  // A shard may fork-join again, on the same pool: the inner call joins
  // its own helpers before the outer shard returns.
  const ThreadPool pool(3);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::vector<size_t>> sums(kOuter, std::vector<size_t>(kInner));
  for (int round = 0; round < 10; ++round) {
    pool.RunShards(kOuter, [&](size_t outer) {
      pool.RunShards(kInner,
                     [&](size_t inner) { sums[outer][inner] += outer + inner; });
    });
  }
  for (size_t outer = 0; outer < kOuter; ++outer) {
    for (size_t inner = 0; inner < kInner; ++inner) {
      EXPECT_EQ(sums[outer][inner], 10 * (outer + inner));
    }
  }
}

// ---------- ShardedLruCache ----------

TEST(RaceStressTest, LruCacheConcurrentMixedOperations) {
  constexpr uint64_t kBudget = 1 << 14;
  ShardedLruCache<uint64_t, std::vector<int>> cache(kBudget, 8);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> hits{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      std::vector<int> out;
      for (int i = 0; i < 2000; ++i) {
        const uint64_t key = static_cast<uint64_t>((i * 7 + t * 13) % 257);
        if (cache.Get(key, &out)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          // Copied-out value must be intact even if the entry is being
          // evicted concurrently.
          ASSERT_EQ(out.size(), key % 17 + 1);
        } else {
          cache.Insert(key, std::vector<int>(key % 17 + 1, t),
                       (key % 17 + 1) * sizeof(int));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = cache.GetStats();
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_GT(hits.load(), 0u);
}

// ---------- MetricsRegistry ----------

TEST(RaceStressTest, MetricsConcurrentUpdatesAndSnapshots) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("race.counter");
  obs::Histogram* histogram = registry.GetHistogram("race.histogram");
  std::atomic<bool> done{false};
  // Reader thread snapshots (and interns new names) while writers bump.
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot snap = registry.Snapshot();
      const auto* c = snap.counter("race.counter");
      ASSERT_NE(c, nullptr);
      ASSERT_LE(c->value, 4u * 10000u);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 10000; ++i) {
        counter->Add(1);
        histogram->Record(static_cast<uint64_t>(i));
        if (i % 1000 == 0) {
          registry.GetGauge("race.gauge." + std::to_string(t))->Set(i);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(counter->Value(), 4u * 10000u);
  EXPECT_EQ(histogram->Count(), 4u * 10000u);
}

// ---------- Wide-event ring ----------

// An event whose every field is derived from k alone, so a row that mixes
// two events shows up as a field that disagrees with trace_id.
obs::WideEvent UniformEvent(uint64_t k) {
  obs::WideEvent e;
  const auto k32 = static_cast<uint32_t>(k);
  e.trace_id = k;
  e.admit_ns = k;
  e.outcome = static_cast<obs::WideOutcome>(k % obs::kWideOutcomeCount);
  e.has_deadline = (k & 1) != 0;
  e.batch_size = k32;
  e.question_bytes = k32;
  e.queue_wait_ns = k;
  e.batch_wait_ns = k;
  e.service_ns = k;
  e.total_ns = k;
  e.deadline_budget_ns = static_cast<int64_t>(k);
  for (obs::StageRecord& r : e.stages) r = {k, k32};
  e.value_cache_hits = e.value_cache_misses = k32;
  e.answer_cache_hits = e.answer_cache_misses = k32;
  e.block_cache_hits = e.block_cache_misses = e.blocks_decoded = k32;
  e.kb_epoch = k;
  return e;
}

bool IsUniform(const obs::WideEvent& e) {
  const obs::WideEvent want = UniformEvent(e.trace_id);
  return e.admit_ns == want.admit_ns && e.outcome == want.outcome &&
         e.has_deadline == want.has_deadline &&
         e.batch_size == want.batch_size &&
         e.question_bytes == want.question_bytes &&
         e.queue_wait_ns == want.queue_wait_ns &&
         e.batch_wait_ns == want.batch_wait_ns &&
         e.service_ns == want.service_ns && e.total_ns == want.total_ns &&
         e.deadline_budget_ns == want.deadline_budget_ns &&
         std::equal(std::begin(e.stages), std::end(e.stages),
                    std::begin(want.stages),
                    [](const obs::StageRecord& a, const obs::StageRecord& b) {
                      return a.ns == b.ns && a.count == b.count;
                    }) &&
         e.value_cache_hits == want.value_cache_hits &&
         e.value_cache_misses == want.value_cache_misses &&
         e.answer_cache_hits == want.answer_cache_hits &&
         e.answer_cache_misses == want.answer_cache_misses &&
         e.block_cache_hits == want.block_cache_hits &&
         e.block_cache_misses == want.block_cache_misses &&
         e.blocks_decoded == want.blocks_decoded &&
         e.kb_epoch == want.kb_epoch;
}

TEST(RaceStressTest, WideEventRingReadersNeverSeeTornRows) {
  // Writers lap their rings continuously while one reader polls Recent()
  // and another drains: no returned row may mix two events, and every
  // recorded event ends up either drained or counted in Dropped().
  obs::MetricsRegistry::set_enabled(true);
  obs::WideEvents::ResetForTest();
  constexpr int kWriters = 2;
  const auto stop_at =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  uint64_t drained = 0;

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      uint64_t k = static_cast<uint64_t>(t) << 40;
      while (std::chrono::steady_clock::now() < stop_at) {
        for (int i = 0; i < 256; ++i) {
          obs::WideEvents::Record(UniformEvent(++k));
        }
      }
    });
  }
  std::thread recent_reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::WideEvent& e :
           obs::WideEvents::Recent(obs::WideEvents::kRingCapacity)) {
        if (!IsUniform(e)) torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread drain_reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::WideEvent& e : obs::WideEvents::Drain()) {
        if (!IsUniform(e)) torn.fetch_add(1, std::memory_order_relaxed);
        ++drained;
      }
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  recent_reader.join();
  drain_reader.join();
  drained += obs::WideEvents::Drain().size();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(obs::WideEvents::Dropped(), 0u);  // the writers did lap
  EXPECT_EQ(obs::WideEvents::TotalRecorded(),
            drained + obs::WideEvents::Dropped());
}

// ---------- Parallel RDF substrate ----------

TEST(RaceStressTest, ParallelFreezeAndExpandedKbBuild) {
  rdf::KnowledgeBase kb;
  const rdf::PredId name = kb.AddPredicate("name");
  const rdf::PredId knows = kb.AddPredicate("knows");
  kb.SetNamePredicate(name);
  constexpr int kPeople = 400;
  std::vector<rdf::TermId> people;
  for (int i = 0; i < kPeople; ++i) {
    const rdf::TermId person = kb.AddEntity("person/" + std::to_string(i));
    people.push_back(person);
    kb.AddTriple(person, name,
                 kb.AddLiteral("person " + std::to_string(i)));
  }
  for (int i = 0; i < kPeople; ++i) {
    kb.AddTriple(people[static_cast<size_t>(i)], knows,
                 people[static_cast<size_t>((i + 1) % kPeople)]);
    kb.AddTriple(people[static_cast<size_t>(i)], knows,
                 people[static_cast<size_t>((i * 7 + 3) % kPeople)]);
  }
  kb.Freeze(4);  // parallel counting-sort under TSan

  rdf::ExpansionOptions options;
  options.max_length = 3;
  options.num_threads = 4;  // parallel frontier scan under TSan
  std::vector<rdf::TermId> seeds(people.begin(), people.begin() + 32);
  auto built = rdf::ExpandedKb::Build(kb, seeds, {name}, options);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_GT(built.value().num_triples(), 0u);
}

// ---------- One engine, many answering threads ----------

class RaceStressSystemTest : public ::testing::Test {
 protected:
  static const eval::Experiment& experiment() {
    static const eval::Experiment* const kExperiment = [] {
      auto built = eval::Experiment::Build(eval::ExperimentConfig::Small());
      if (!built.ok()) {
        ADD_FAILURE() << built.status();
        return static_cast<eval::Experiment*>(nullptr);
      }
      return const_cast<eval::Experiment*>(
          std::move(built).value().release());
    }();
    return *kExperiment;
  }

  static std::vector<std::string> BenchmarkQuestions(size_t n,
                                                     uint64_t seed) {
    corpus::BenchmarkConfig config;
    config.num_questions = n;
    config.seed = seed;
    std::vector<std::string> questions;
    for (const corpus::QaPair& pair :
         corpus::GenerateBenchmark(experiment().world(), config)
             .questions.pairs) {
      questions.push_back(pair.question);
    }
    return questions;
  }

  /// A fresh engine over the shared trained model, so per-test cache
  /// options don't disturb the shared experiment's engine.
  static std::unique_ptr<core::OnlineInference> MakeEngine(
      const core::OnlineInference::Options& options) {
    const core::KbqaSystem& kbqa = experiment().kbqa();
    return std::make_unique<core::OnlineInference>(
        &experiment().world().kb, &experiment().world().taxonomy,
        &kbqa.ner(), &kbqa.template_store(), &kbqa.expanded_kb().paths(),
        options);
  }
};

TEST_F(RaceStressSystemTest, ConcurrentAnswerOnOneEngineMatchesSerial) {
  const std::vector<std::string> questions = BenchmarkQuestions(20, 4242);
  const core::KbqaSystem& kbqa = experiment().kbqa();

  std::vector<core::AnswerResult> reference;
  reference.reserve(questions.size());
  for (const std::string& q : questions) reference.push_back(kbqa.Answer(q));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < questions.size(); ++i) {
          const core::AnswerResult result = kbqa.Answer(questions[i]);
          ASSERT_EQ(result.answered, reference[i].answered) << questions[i];
          ASSERT_EQ(result.value, reference[i].value) << questions[i];
          ASSERT_EQ(result.score, reference[i].score) << questions[i];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST_F(RaceStressSystemTest, ConcurrentAnswerAllWithSharedAnswerCache) {
  core::OnlineInference::Options options =
      experiment().kbqa().options().online;
  options.enable_answer_cache = true;
  options.answer_cache_budget_bytes = 1 << 16;  // small: force evictions
  const auto engine = MakeEngine(options);

  const std::vector<std::string> questions = BenchmarkQuestions(30, 977);
  const std::vector<core::AnswerResult> reference =
      engine->AnswerAll(questions, 1);

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      const std::vector<core::AnswerResult> batched =
          engine->AnswerAll(questions, 2);
      ASSERT_EQ(batched.size(), reference.size());
      for (size_t i = 0; i < batched.size(); ++i) {
        ASSERT_EQ(batched[i].answered, reference[i].answered);
        ASSERT_EQ(batched[i].value, reference[i].value);
        ASSERT_EQ(batched[i].score, reference[i].score);
      }
    });
  }
  for (auto& th : threads) th.join();
  const core::ValueCacheStats stats = engine->answer_cache_stats();
  EXPECT_LE(stats.bytes, options.answer_cache_budget_bytes);
  EXPECT_EQ(stats.hits + stats.misses, 4u * questions.size());
}

TEST_F(RaceStressSystemTest, EngineShutdownImmediatelyAfterInFlightWork) {
  // Deterministic-shutdown satellite: the engine (and the pool AnswerAll
  // creates inside) is destroyed the instant its last batch completes,
  // while worker threads are in their final teardown section. TSan checks
  // the destructor's join edge against every answer the workers wrote.
  const std::vector<std::string> questions = BenchmarkQuestions(10, 31337);
  core::OnlineInference::Options options =
      experiment().kbqa().options().online;
  for (int round = 0; round < 10; ++round) {
    auto engine = MakeEngine(options);
    std::thread a([&] { (void)engine->AnswerAll(questions, 2); });
    std::thread b([&] { (void)engine->AnswerAll(questions, 2); });
    a.join();
    b.join();
    engine.reset();
  }
}

// ---------- Serving front door ----------

TEST(RaceStressTest, ServeHammerSubmittersAgainstBatcherAndTeardown) {
  // Many submitter threads race the serving workers, the deadline reaper,
  // and an immediate teardown; the small queue forces the admission-control
  // path concurrently with accepts, and half the submitters attach
  // deadlines short enough that both the reaper and the workers shed some
  // requests. The invariant under all interleavings: every *accepted*
  // request's callback runs exactly once (completed, shed on its deadline
  // or shed at shutdown), every rejected one's never runs — and every
  // submitted request (accepted or not) leaves exactly one wide event,
  // even when teardown resolves it.
  obs::WideEvents::ResetForTest();
  for (int round = 0; round < 20; ++round) {
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> callbacks{0};
    {
      serve::ServingOptions options;
      options.num_workers = 3;
      options.max_queue_depth = 64;
      options.max_batch_size = 4;
      serve::Server server(
          [](const std::string& question, const core::AnswerOptions&) {
            core::AnswerResult result;
            result.answered = true;
            result.value = question;
            return result;
          },
          options);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&, t] {
          for (int i = 0; i < 200; ++i) {
            core::AnswerOptions answer_options;
            if (t % 2 == 1) {
              answer_options.deadline = std::chrono::steady_clock::now() +
                                        std::chrono::microseconds(50);
            }
            const Status admitted = server.Submit(
                "q", answer_options,
                [&](serve::ServeResponse) { callbacks.fetch_add(1); });
            if (admitted.ok()) accepted.fetch_add(1);
          }
        });
      }
      for (auto& th : submitters) th.join();
      // ~Server tears down with batches still in flight and (likely)
      // requests still queued.
    }
    ASSERT_EQ(callbacks.load(), accepted.load());
    // Exactly-once emission through teardown: 800 submissions -> 800 wide
    // events, with accepted requests split between answered and shed
    // exactly as their callbacks resolved, and every rejection accounted
    // for. (Ring capacity 2048/thread: no drops.)
    const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
    ASSERT_EQ(events.size(), 4u * 200u);
    uint64_t answered = 0, shed = 0, rejected = 0, other = 0;
    for (const obs::WideEvent& e : events) {
      switch (e.outcome) {
        case obs::WideOutcome::kAnswered: ++answered; break;
        case obs::WideOutcome::kShedShutdown: ++shed; break;
        case obs::WideOutcome::kShedExpired: ++shed; break;
        case obs::WideOutcome::kRejected: ++rejected; break;
        default: ++other; break;
      }
    }
    ASSERT_EQ(other, 0u);
    ASSERT_EQ(answered + shed, accepted.load());
    ASSERT_EQ(rejected, 4u * 200u - accepted.load());
  }
}

TEST_F(RaceStressSystemTest, ServeEngineAnswersUnderConcurrentLoadCycles) {
  // Engine-backed serve loop: concurrent blocking callers through the
  // serving workers into a shared engine (answer cache on), with the server
  // torn down and rebuilt every round so TSan sees the full construct/serve/
  // destruct edge set against live engine state.
  core::OnlineInference::Options options =
      experiment().kbqa().options().online;
  options.enable_answer_cache = true;
  const auto engine = MakeEngine(options);
  const std::vector<std::string> questions = BenchmarkQuestions(12, 555);
  const std::vector<core::AnswerResult> reference =
      engine->AnswerAll(questions, 1);
  for (int round = 0; round < 5; ++round) {
    serve::ServingOptions serving;
    serving.num_workers = 3;
    serving.max_batch_size = 4;
    const auto server = serve::Server::ForEngine(engine.get(), serving);
    std::vector<std::thread> callers;
    for (int t = 0; t < 3; ++t) {
      callers.emplace_back([&] {
        for (size_t i = 0; i < questions.size(); ++i) {
          serve::ServeResponse response = server->Answer(questions[i]);
          ASSERT_TRUE(response.result.status.ok());
          ASSERT_EQ(response.result.answered, reference[i].answered);
          ASSERT_EQ(response.result.value, reference[i].value);
        }
      });
    }
    for (auto& th : callers) th.join();
  }
}

// ---------- Live KB mutation (DESIGN.md §10) ----------

TEST_F(RaceStressSystemTest, LiveEngineAnswerAllAcrossMutationsAndSwaps) {
  // Reader threads batch-answer through a LiveKbqaEngine while a mutator
  // thread applies overlay batches and forces merges, so every RCU edge is
  // exercised concurrently: Pin() against Apply's snapshot publish, the
  // merge thread's base rebuild + swap, and the publish hook rebuilding
  // the per-epoch engine state that readers acquire mid-batch.
  const std::string path = ::testing::TempDir() + "/race_live_kb.bin";
  ASSERT_TRUE(experiment().world().kb.Save(path).ok());
  auto loaded = rdf::KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok());
  rdf::MutableKb::Options live_options;
  live_options.merge_trigger_ops = 8;
  rdf::MutableKb live(std::move(loaded).value(), live_options);
  const auto engine = experiment().kbqa().MakeLiveEngine(&live);
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> questions = BenchmarkQuestions(12, 7777);
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    for (int round = 0; round < 15; ++round) {
      for (int i = 0; i < 4; ++i) {
        const std::string tag =
            std::to_string(round) + "_" + std::to_string(i);
        live.AddTriple("race/entity" + tag, "likes", "value" + tag,
                       /*object_is_literal=*/true);
      }
      live.DeleteTriple("race/entity" + std::to_string(round) + "_0",
                        "likes",
                        "value" + std::to_string(round) + "_0");
      live.ForceMerge();
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      do {
        const std::vector<core::AnswerResult> results =
            engine->AnswerAll(questions, 2);
        ASSERT_EQ(results.size(), questions.size());
        for (const core::AnswerResult& r : results) {
          ASSERT_TRUE(r.status.ok());
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  mutator.join();
  for (auto& th : readers) th.join();
  live.WaitForMergeIdle();
  EXPECT_GE(live.merges_completed(), 1u);
  EXPECT_EQ(live.pending_ops(), 0u);
}

TEST_F(RaceStressSystemTest, ServeLiveEngineWideEventsExactlyOnceAcrossSwaps) {
  // The wide-event exactly-once invariant must survive snapshot swaps:
  // submitters race the serving workers and a mutator forcing merges
  // underneath the serving engine, and every submission still resolves to
  // exactly one wide event, each stamped with a kb_epoch the KB actually
  // reached.
  const std::string path = ::testing::TempDir() + "/race_serve_kb.bin";
  ASSERT_TRUE(experiment().world().kb.Save(path).ok());
  auto loaded = rdf::KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok());
  rdf::MutableKb::Options live_options;
  live_options.auto_merge = false;
  rdf::MutableKb live(std::move(loaded).value(), live_options);
  const auto engine = experiment().kbqa().MakeLiveEngine(&live);
  ASSERT_NE(engine, nullptr);
  const std::vector<std::string> questions = BenchmarkQuestions(8, 3131);

  obs::WideEvents::ResetForTest();
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> callbacks{0};
  {
    serve::ServingOptions serving;
    serving.num_workers = 3;
    serving.max_batch_size = 4;
    const auto server = serve::Server::ForLiveEngine(engine.get(), serving);
    std::atomic<bool> stop{false};
    std::thread mutator([&] {
      for (int round = 0; !stop.load(std::memory_order_acquire); ++round) {
        live.AddTriple("serve/entity" + std::to_string(round), "likes",
                       "value" + std::to_string(round),
                       /*object_is_literal=*/true);
        live.ForceMerge();
      }
    });
    // Submit only once the first merge has landed, so serving overlaps
    // snapshot swaps however the threads happen to be scheduled.
    for (int spin = 0; spin < 10000 && live.epoch() == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 60; ++i) {
          const Status admitted = server->Submit(
              questions[static_cast<size_t>(i) % questions.size()],
              [&](serve::ServeResponse) { callbacks.fetch_add(1); });
          if (admitted.ok()) accepted.fetch_add(1);
        }
      });
    }
    for (auto& th : submitters) th.join();
    stop.store(true, std::memory_order_release);
    mutator.join();
    // ~Server drains or sheds everything still queued.
  }
  ASSERT_EQ(callbacks.load(), accepted.load());
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  ASSERT_EQ(events.size(), 3u * 60u);
  const uint64_t final_epoch = live.epoch();
  EXPECT_GE(final_epoch, 1u);
  for (const obs::WideEvent& e : events) {
    EXPECT_LE(e.kb_epoch, final_epoch);
  }
}

TEST_F(RaceStressSystemTest, ParallelTrainingUnderTsan) {
  // Parallel EM (sharded BuildObservations + dense E-step merge) under the
  // race detector; the bit-identity itself is parallel_test's job.
  core::KbqaOptions options = experiment().kbqa().options();
  options.em.num_threads = 4;
  core::KbqaSystem system(&experiment().world(), options);
  ASSERT_TRUE(system.Train(experiment().train_corpus()).ok());
  EXPECT_GT(system.template_store().num_templates(), 0u);
}

}  // namespace
}  // namespace kbqa
