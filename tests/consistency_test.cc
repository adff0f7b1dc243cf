// Cross-cutting consistency properties: repeated calls are deterministic
// and side-effect free for every QA system; variant predicate resolution
// behaves as specified; emitted SPARQL agrees with the posterior for a
// sample of benchmark questions.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/variants.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "nlp/tokenizer.h"
#include "rdf/query.h"

namespace kbqa {
namespace {

class ConsistencyTest : public ::testing::Test {
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
};

TEST_F(ConsistencyTest, EverySystemIsIdempotentAcrossCalls) {
  corpus::BenchmarkConfig config;
  config.num_questions = 25;
  config.seed = 20202;
  corpus::BenchmarkSet set =
      corpus::GenerateBenchmark(experiment().world(), config);

  std::vector<const core::QaSystemInterface*> systems =
      experiment().Baselines();
  systems.push_back(&experiment().kbqa());
  for (const core::QaSystemInterface* system : systems) {
    for (const corpus::QaPair& pair : set.questions.pairs) {
      core::AnswerResult first = system->Answer(pair.question);
      core::AnswerResult second = system->Answer(pair.question);
      EXPECT_EQ(first.answered, second.answered)
          << system->name() << ": " << pair.question;
      EXPECT_EQ(first.value, second.value)
          << system->name() << ": " << pair.question;
    }
  }
}

TEST_F(ConsistencyTest, BenchmarkRunsAreReproducible) {
  corpus::BenchmarkSet set = experiment().MakeQald1();
  eval::RunResult a = eval::RunBenchmark(experiment().kbqa(), set);
  eval::RunResult b = eval::RunBenchmark(experiment().kbqa(), set);
  EXPECT_EQ(a.counts.ri, b.counts.ri);
  EXPECT_EQ(a.counts.pro, b.counts.pro);
  EXPECT_EQ(a.counts.par, b.counts.par);
}

TEST_F(ConsistencyTest, EmittedSparqlAgreesWithAnswers) {
  // For every answered BFQ in a sample, executing the emitted structured
  // query must yield the answered value (the §1 contract: the question is
  // "mapped precisely to a structured query").
  corpus::BenchmarkConfig config;
  config.num_questions = 60;
  config.bfq_ratio = 1.0;
  config.seed = 30303;
  corpus::BenchmarkSet set =
      corpus::GenerateBenchmark(experiment().world(), config);
  size_t checked = 0;
  for (const corpus::QaPair& pair : set.questions.pairs) {
    core::AnswerResult answer = experiment().kbqa().Answer(pair.question);
    if (!answer.answered || answer.sparql.empty()) continue;
    auto query = rdf::ParseQuery(answer.sparql);
    ASSERT_TRUE(query.ok()) << answer.sparql;
    auto rows = rdf::ExecuteQuery(experiment().world().kb, query.value());
    ASSERT_TRUE(rows.ok());
    bool found = false;
    for (const auto& row : rows.value()) {
      const rdf::KnowledgeBase& kb = experiment().world().kb;
      std::string surface = kb.IsLiteral(row[0]) ? kb.NodeString(row[0])
                                                 : kb.EntityName(row[0]);
      found = found || surface == answer.value;
    }
    EXPECT_TRUE(found) << pair.question << " -> " << answer.sparql;
    ++checked;
  }
  EXPECT_GT(checked, 15u);
}

TEST_F(ConsistencyTest, VariantPredicateResolution) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  core::VariantSolver solver(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(),
      core::VariantSolver::Options());

  // "people" resolves to population for $city through learned templates
  // even though no predicate is named "people".
  auto population = solver.ResolvePredicate("$city", {"population"});
  ASSERT_TRUE(population.has_value());
  auto people = solver.ResolvePredicate("$city", {"people"});
  ASSERT_TRUE(people.has_value());
  EXPECT_EQ(*population, *people);
  EXPECT_EQ(kbqa.expanded_kb().paths().ToString(*people,
                                                experiment().world().kb),
            "population");

  // Unknown phrases and stopword-only phrases resolve to nothing.
  EXPECT_FALSE(solver.ResolvePredicate("$city", {"flibbertigibbet"})
                   .has_value());
  EXPECT_FALSE(solver.ResolvePredicate("$city", {"the", "of"}).has_value());
  // A phrase from another category's vocabulary doesn't leak across.
  EXPECT_FALSE(solver.ResolvePredicate("$fruit", {"population"}).has_value());
}

TEST_F(ConsistencyTest, AnswerValuesListMatchesSparqlRowCount) {
  core::AnswerResult result =
      experiment().kbqa().Answer("who are the members of coldplay");
  ASSERT_TRUE(result.answered);
  ASSERT_FALSE(result.sparql.empty());
  auto query = rdf::ParseQuery(result.sparql);
  ASSERT_TRUE(query.ok());
  auto rows = rdf::ExecuteQuery(experiment().world().kb, query.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), result.values.size());
}

// The compressed expanded-KB substrate and the process memory budget are
// pure representation/residency changes: every swept configuration must
// answer bit-identically to the uncompressed, unbudgeted engine.
TEST_F(ConsistencyTest, CompressedSubstrateAndBudgetsDontChangeAnswers) {
  corpus::BenchmarkConfig config;
  config.num_questions = 30;
  config.seed = 90909;
  corpus::BenchmarkSet set =
      corpus::GenerateBenchmark(experiment().world(), config);

  core::KbqaOptions base = experiment().kbqa().options();
  base.use_compressed_expansion = false;
  base.process_memory_budget_bytes = 0;
  core::KbqaSystem reference(&experiment().world(), base);
  ASSERT_TRUE(reference.Train(experiment().train_corpus()).ok());
  ASSERT_EQ(reference.compressed_expanded_kb(), nullptr);

  std::vector<std::string> questions;
  for (const corpus::QaPair& pair : set.questions.pairs) {
    questions.push_back(pair.question);
  }
  const auto expect_same = [](const core::AnswerResult& got,
                              const core::AnswerResult& want,
                              uint64_t budget, const std::string& question) {
    EXPECT_EQ(got.answered, want.answered) << budget << " " << question;
    EXPECT_EQ(got.value, want.value) << budget << " " << question;
    EXPECT_EQ(got.score, want.score) << budget << " " << question;
    EXPECT_EQ(got.predicate, want.predicate) << budget << " " << question;
    EXPECT_EQ(got.sparql, want.sparql) << budget << " " << question;
    EXPECT_EQ(got.values, want.values) << budget << " " << question;
    ASSERT_EQ(got.ranked.size(), want.ranked.size()) << question;
    for (size_t i = 0; i < got.ranked.size(); ++i) {
      EXPECT_EQ(got.ranked[i].value, want.ranked[i].value);
      EXPECT_EQ(got.ranked[i].score, want.ranked[i].score) << "bit-exact";
    }
  };

  // Unbounded compressed, a roomy budget, and a starvation budget (the
  // decoded-block and memo caches get a few KB each and churn constantly).
  // The answer cache is on so every component of the split is exercised:
  // AnswerAll routes through it, Answer does not.
  const uint64_t budgets[] = {0, 4u << 20, 32u << 10};
  for (uint64_t budget : budgets) {
    core::KbqaOptions options = base;
    options.use_compressed_expansion = true;
    options.compressed_block_edges = 512;  // several blocks even at test scale
    options.process_memory_budget_bytes = budget;
    options.online.enable_answer_cache = true;
    core::KbqaSystem system(&experiment().world(), options);
    ASSERT_TRUE(system.Train(experiment().train_corpus()).ok());
    ASSERT_NE(system.compressed_expanded_kb(), nullptr);

    const std::vector<core::AnswerResult> batched =
        system.AnswerAll(questions, 2);
    ASSERT_EQ(batched.size(), questions.size());
    for (size_t i = 0; i < questions.size(); ++i) {
      const core::AnswerResult want = reference.Answer(questions[i]);
      expect_same(system.Answer(questions[i]), want, budget, questions[i]);
      expect_same(batched[i], want, budget, questions[i]);
    }

    const rdf::CompressedExpandedKb::MemoryStats stats =
        system.compressed_expanded_kb()->memory_stats();
    const core::ValueCacheStats value_cache =
        system.online().value_cache_stats();
    const core::ValueCacheStats answer_cache =
        system.online().answer_cache_stats();
    EXPECT_EQ(stats.corrupt_blocks, 0u);
    EXPECT_LT(stats.ResidentBytes(), stats.raw_equivalent_bytes) << budget;
    system.PublishMemoryGauges();
    obs::MetricsSnapshot snapshot = core::KbqaSystem::MetricsSnapshot();
    ASSERT_NE(snapshot.gauge("mem.ekb_compressed.bytes"), nullptr);
    EXPECT_EQ(snapshot.gauge("mem.ekb_compressed.bytes")->value,
              static_cast<double>(stats.compressed_bytes));
    if (budget == 0) {
      // No split: each component keeps its own option (unbounded here).
      EXPECT_EQ(value_cache.budget_bytes, base.online.value_cache_budget_bytes);
      EXPECT_EQ(answer_cache.budget_bytes,
                base.online.answer_cache_budget_bytes);
      EXPECT_EQ(stats.decoded_cache_budget_bytes, 0u);
      continue;
    }
    // The fixed split: a quarter to each memo cache, half to the decoded
    // blocks, and the gauges publish exactly that split.
    EXPECT_EQ(value_cache.budget_bytes, budget / 4);
    EXPECT_EQ(answer_cache.budget_bytes, budget / 4);
    EXPECT_EQ(stats.decoded_cache_budget_bytes, budget / 2);
    EXPECT_LE(value_cache.bytes, value_cache.budget_bytes);
    EXPECT_LE(answer_cache.bytes, answer_cache.budget_bytes);
    EXPECT_LE(stats.decoded_cache_bytes, stats.decoded_cache_budget_bytes);
    const std::pair<const char*, uint64_t> gauges[] = {
        {"mem.budget.bytes", budget},
        {"mem.value_cache.budget_bytes", budget / 4},
        {"mem.answer_cache.budget_bytes", budget / 4},
        {"mem.ekb_blocks.budget_bytes", budget / 2}};
    for (const auto& [name, want] : gauges) {
      ASSERT_NE(snapshot.gauge(name), nullptr) << name;
      EXPECT_EQ(snapshot.gauge(name)->value, static_cast<double>(want))
          << name;
    }
  }
}

TEST_F(ConsistencyTest, HybridNeverAnswersLessThanPrimary) {
  corpus::BenchmarkSet set = experiment().MakeQald3();
  for (const core::QaSystemInterface* baseline : experiment().Baselines()) {
    core::HybridSystem hybrid(&experiment().kbqa(), baseline);
    eval::RunResult primary = eval::RunBenchmark(experiment().kbqa(), set);
    eval::RunResult combined = eval::RunBenchmark(hybrid, set);
    EXPECT_GE(combined.counts.pro, primary.counts.pro) << baseline->name();
    EXPECT_GE(combined.counts.ri, primary.counts.ri) << baseline->name();
  }
}

}  // namespace
}  // namespace kbqa
