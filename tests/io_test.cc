#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "corpus/corpus_io.h"
#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "rdf/ntriples.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace kbqa {
namespace {

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool TempFileLeftBehind(const std::string& path) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  return std::ifstream(tmp).good();
}

// ---------- N-Triples ----------

TEST(NTriplesTest, ParseLineForms) {
  auto literal = rdf::ParseNTripleLine(
      "<person/a> <name> \"barack obama\" .");
  ASSERT_TRUE(literal.ok()) << literal.status();
  EXPECT_EQ(literal.value().subject, "person/a");
  EXPECT_EQ(literal.value().predicate, "name");
  EXPECT_EQ(literal.value().object, "barack obama");
  EXPECT_TRUE(literal.value().object_is_literal);

  auto entity = rdf::ParseNTripleLine("<person/a> <pob> <city/d> .");
  ASSERT_TRUE(entity.ok());
  EXPECT_FALSE(entity.value().object_is_literal);
  EXPECT_EQ(entity.value().object, "city/d");
}

TEST(NTriplesTest, ParseEscapes) {
  auto parsed = rdf::ParseNTripleLine(
      "<a> <says> \"line\\none \\\"two\\\" tab\\t back\\\\slash\" .");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().object, "line\none \"two\" tab\t back\\slash");
}

TEST(NTriplesTest, ParseErrors) {
  EXPECT_FALSE(rdf::ParseNTripleLine("garbage").ok());
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b>").ok());
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> <c>").ok());       // no dot
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> \"x .").ok());     // unterminated
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> <c> . extra").ok());
  EXPECT_FALSE(rdf::ParseNTripleLine("<> <b> <c> .").ok());      // empty IRI
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> \"x\\q\" .").ok());  // bad esc
}

TEST(NTriplesTest, FormatParseRoundTrip) {
  rdf::NTriple triple{"person/a", "quote", "he said \"hi\"\tthen left\n",
                      true};
  auto parsed = rdf::ParseNTripleLine(rdf::FormatNTripleLine(triple));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().subject, triple.subject);
  EXPECT_EQ(parsed.value().object, triple.object);
  EXPECT_TRUE(parsed.value().object_is_literal);
}

TEST(NTriplesTest, ParseCarriageReturnAndNumericEscapes) {
  auto parsed = rdf::ParseNTripleLine(
      "<a> <says> \"cr\\rlf\\n u\\u0041 wide\\u00e9 astral\\U0001F600\" .");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().object,
            "cr\rlf\n uA wide\xc3\xa9 astral\xf0\x9f\x98\x80");
}

TEST(NTriplesTest, NumericEscapeErrors) {
  // Short hex runs, non-hex digits, surrogates, and out-of-range code
  // points are all rejected, not silently mangled.
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> \"\\u12\" .").ok());
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> \"\\uZZZZ\" .").ok());
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> \"\\U0001F60\" .").ok());
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> \"\\uD800\" .").ok());
  EXPECT_FALSE(rdf::ParseNTripleLine("<a> <b> \"\\U00110000\" .").ok());
}

TEST(NTriplesTest, CarriageReturnLiteralRoundTrips) {
  // A CR inside a literal must be emitted as \r on export — a raw CR would
  // split the line (or leak into a CRLF terminator) and break re-import.
  rdf::NTriple triple{"a", "says", "line one\r\nline two\r", true};
  const std::string line = rdf::FormatNTripleLine(triple);
  EXPECT_EQ(line.find('\r'), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = rdf::ParseNTripleLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().object, triple.object);
}

TEST(NTriplesTest, EscapeRoundTripProperty) {
  // Random literals over a hostile alphabet — quotes, CR/LF/tab,
  // backslashes, pre-encoded multi-byte UTF-8 — must survive format →
  // parse bit-exactly.
  const std::vector<std::string> alphabet = {
      "a",    "Z",    " ",          "\"",         "\\",         "\n",
      "\r",   "\t",   "\xc3\xa9",   "\xe6\xbc\xa2", "\xf0\x9f\x98\x80",
      "\\n",  ".",    "<",          ">"};
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    std::string object;
    const size_t len = rng.Uniform(24);
    for (size_t i = 0; i < len; ++i) {
      object += alphabet[rng.Uniform(alphabet.size())];
    }
    rdf::NTriple triple{"s", "p", object, true};
    auto parsed = rdf::ParseNTripleLine(rdf::FormatNTripleLine(triple));
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " object: " << object;
    EXPECT_EQ(parsed.value().object, object);
    EXPECT_TRUE(parsed.value().object_is_literal);
  }
}

TEST(NTriplesTest, CrlfTerminatedInputParsesWithoutLeakingCr) {
  // Parse a single CRLF-terminated line (getline leaves the \r in place).
  auto parsed = rdf::ParseNTripleLine("<s> <name> \"honolulu\" .\r");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().object, "honolulu");

  // And a whole CRLF file: no \r may leak into IRIs or literals.
  std::string path = ::testing::TempDir() + "/crlf.nt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("# CRLF export\r\n", f);
  std::fputs("<person/a> <name> \"barack obama\" .\r\n", f);
  std::fputs("<person/a> <pob> <city/d> .\r\n", f);
  std::fputs("<city/d> <name> \"honolulu\" .\r\n", f);
  std::fclose(f);
  auto imported = rdf::ImportNTriples(path, "name");
  ASSERT_TRUE(imported.ok()) << imported.status();
  const rdf::KnowledgeBase& kb = imported.value();
  EXPECT_EQ(kb.num_triples(), 3u);
  ASSERT_EQ(kb.EntitiesByName("honolulu").size(), 1u);
  for (rdf::TermId id = 0; id < kb.num_nodes(); ++id) {
    EXPECT_EQ(kb.NodeString(id).find('\r'), std::string::npos)
        << "CR leaked into node " << id;
  }
  std::remove(path.c_str());
}

TEST(NTriplesTest, ExportImportRoundTripsAWorld) {
  corpus::WorldConfig config;
  config.schema.scale = 0.02;
  corpus::World world = corpus::GenerateWorld(config);
  std::string path = ::testing::TempDir() + "/world.nt";
  ASSERT_TRUE(rdf::ExportNTriples(world.kb, path).ok());

  auto imported = rdf::ImportNTriples(path);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(imported.value().num_triples(), world.kb.num_triples());
  EXPECT_EQ(imported.value().num_predicates(), world.kb.num_predicates());
  // Name index survives (name predicate rebound on import).
  auto honolulu = imported.value().EntitiesByName("honolulu");
  EXPECT_EQ(honolulu.size(), world.kb.EntitiesByName("honolulu").size());
  std::remove(path.c_str());
}

TEST(NTriplesTest, InjectedShortWriteNeverClobbersGoodExport) {
  auto build = [](int people) {
    rdf::KnowledgeBase kb;
    kb.SetNamePredicate(kb.AddPredicate("name"));
    for (int i = 0; i < people; ++i) {
      kb.AddTriple("person/" + std::to_string(i), "name",
                   "person " + std::to_string(i), true);
    }
    kb.Freeze();
    return kb;
  };
  const rdf::KnowledgeBase small = build(2);
  const std::string path = ::testing::TempDir() + "/crash_safe.nt";
  ASSERT_TRUE(rdf::ExportNTriples(small, path).ok());
  const std::string good = FileBytes(path);

  // A re-export of a bigger KB dies after 64 bytes (simulated crash or
  // full disk). It must fail, and leave the previous export whole.
  util::SetWriteFailureAfterBytesForTest(64);
  const Status crashed = rdf::ExportNTriples(build(50), path);
  util::SetWriteFailureAfterBytesForTest(-1);
  EXPECT_FALSE(crashed.ok());
  EXPECT_EQ(FileBytes(path), good);
  auto imported = rdf::ImportNTriples(path);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(imported.value().num_triples(), small.num_triples());
  EXPECT_EQ(imported.value().EntitiesByName("person 1").size(), 1u);
  EXPECT_FALSE(TempFileLeftBehind(path));
  std::remove(path.c_str());
}

TEST(NTriplesTest, ImportRejectsMalformedFile) {
  std::string path = ::testing::TempDir() + "/bad.nt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("# comment ok\n<a> <b> garbage\n", f);
  std::fclose(f);
  auto imported = rdf::ImportNTriples(path);
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(NTriplesTest, ImportMissingFileIsIoError) {
  EXPECT_EQ(rdf::ImportNTriples("/no/such/file.nt").status().code(),
            StatusCode::kIoError);
}

// ---------- QA corpus TSV ----------

TEST(CorpusIoTest, EscapingRoundTrips) {
  std::string nasty = "a\tb\nc\\d";
  EXPECT_EQ(corpus::UnescapeTsvField(corpus::EscapeTsvField(nasty)), nasty);
  EXPECT_EQ(corpus::EscapeTsvField("plain"), "plain");
}

TEST(CorpusIoTest, ExportImportRoundTrip) {
  corpus::QaCorpus original;
  original.pairs.push_back({"when was barack obama born",
                            "it 's 1961 .\nreally\tit is ."});
  original.pairs.push_back({"what is the capital of japan", "tokyo ."});
  original.gold.resize(2);

  std::string path = ::testing::TempDir() + "/corpus.tsv";
  ASSERT_TRUE(corpus::ExportQaTsv(original, path).ok());
  auto imported = corpus::ImportQaTsv(path);
  ASSERT_TRUE(imported.ok()) << imported.status();
  ASSERT_EQ(imported.value().size(), 2u);
  EXPECT_EQ(imported.value().pairs[0].question, original.pairs[0].question);
  EXPECT_EQ(imported.value().pairs[0].answer, original.pairs[0].answer);
  EXPECT_FALSE(imported.value().gold[0].is_bfq);  // no gold on import
  std::remove(path.c_str());
}

TEST(CorpusIoTest, InjectedShortWriteNeverClobbersGoodExport) {
  corpus::QaCorpus original;
  original.pairs.push_back({"when was barack obama born", "1961 ."});
  original.gold.resize(1);
  const std::string path = ::testing::TempDir() + "/crash_safe.tsv";
  ASSERT_TRUE(corpus::ExportQaTsv(original, path).ok());
  const std::string good = FileBytes(path);

  // A re-export of a bigger corpus dies after 64 bytes (simulated crash or
  // full disk). It must fail, and leave the previous export whole.
  corpus::QaCorpus bigger;
  for (int i = 0; i < 50; ++i) {
    bigger.pairs.push_back({"question " + std::to_string(i), "answer ."});
  }
  bigger.gold.resize(bigger.pairs.size());
  util::SetWriteFailureAfterBytesForTest(64);
  const Status crashed = corpus::ExportQaTsv(bigger, path);
  util::SetWriteFailureAfterBytesForTest(-1);
  EXPECT_FALSE(crashed.ok());
  EXPECT_EQ(FileBytes(path), good);
  auto imported = corpus::ImportQaTsv(path);
  ASSERT_TRUE(imported.ok()) << imported.status();
  ASSERT_EQ(imported.value().size(), 1u);
  EXPECT_EQ(imported.value().pairs[0].question, original.pairs[0].question);
  EXPECT_EQ(imported.value().pairs[0].answer, original.pairs[0].answer);
  EXPECT_FALSE(TempFileLeftBehind(path));
  std::remove(path.c_str());
}

TEST(CorpusIoTest, ImportedCorpusTrainsTheSystem) {
  // Full circle: generate -> export -> import (losing gold) -> train.
  corpus::WorldConfig wc;
  wc.schema.scale = 0.03;
  wc.schema.generic_attributes_per_type = 1;
  wc.schema.generic_relations_per_type = 1;
  corpus::World world = corpus::GenerateWorld(wc);
  corpus::QaGenConfig qc;
  qc.num_pairs = 1500;
  corpus::QaCorpus generated = corpus::GenerateTrainingCorpus(world, qc);

  std::string path = ::testing::TempDir() + "/train.tsv";
  ASSERT_TRUE(corpus::ExportQaTsv(generated, path).ok());
  auto imported = corpus::ImportQaTsv(path);
  ASSERT_TRUE(imported.ok());

  core::KbqaSystem kbqa(&world);
  ASSERT_TRUE(kbqa.Train(imported.value()).ok());
  EXPECT_TRUE(kbqa.Answer("when was barack obama born").answered);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, ImportRejectsMalformedLines) {
  std::string path = ::testing::TempDir() + "/bad.tsv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("question without answer\n", f);
  std::fclose(f);
  EXPECT_FALSE(corpus::ImportQaTsv(path).ok());
  std::remove(path.c_str());
}

// ---------- Evaluation report ----------

TEST(ReportTest, BreaksDownByKindAndParaphrase) {
  auto built = eval::Experiment::Build(eval::ExperimentConfig::Small());
  ASSERT_TRUE(built.ok());
  corpus::BenchmarkConfig config;
  config.num_questions = 120;
  config.bfq_ratio = 0.6;
  config.unseen_paraphrase_rate = 0.4;
  corpus::BenchmarkSet set =
      corpus::GenerateBenchmark(built.value()->world(), config);
  eval::RunResult run = eval::RunBenchmark(built.value()->kbqa(), set);
  eval::EvaluationReport report = eval::EvaluationReport::Build(run);

  // Kinds partition the questions.
  size_t total = 0;
  for (const auto& [kind, counts] : report.by_kind()) {
    (void)kind;
    total += counts.total;
  }
  EXPECT_EQ(total, 120u);
  EXPECT_GT(report.by_kind().count("bfq"), 0u);

  // Seen phrasings recall at least as well as held-out ones.
  EXPECT_GT(report.num_seen_bfq() + report.num_unseen_bfq(), 0u);
  EXPECT_GE(report.seen_recall(), report.unseen_recall());

  // Latency percentiles are ordered.
  EXPECT_LE(report.latency_p50_ms(), report.latency_p95_ms());
  EXPECT_LE(report.latency_p95_ms(), report.latency_max_ms());

  // Printing produces the expected sections.
  std::ostringstream os;
  report.Print(os);
  EXPECT_NE(os.str().find("Per-kind breakdown"), std::string::npos);
  EXPECT_NE(os.str().find("paraphrase-coverage"), std::string::npos);
}

// ---------- Alignment (SEMPRE-family) baseline ----------

class AlignmentTest : public ::testing::Test {
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

TEST_F(AlignmentTest, LearnsAlignments) {
  EXPECT_GT(experiment().alignment_qa().num_alignments(), 100u);
}

TEST_F(AlignmentTest, AnswersPhraseBackedQuestion) {
  core::AnswerResult result = experiment().alignment_qa().Answer(
      "what is the population of honolulu");
  ASSERT_TRUE(result.answered);
  EXPECT_EQ(result.value, "390000");
}

TEST_F(AlignmentTest, ReachesCvtIntentsUnlikeBoaBootstrapping) {
  // SEMPRE-style alignment learns from QA pairs, so it can reach the
  // marriage CVT — the phrase "the wife of" aligns with the 3-edge path.
  core::AnswerResult result = experiment().alignment_qa().Answer(
      "who is the wife of barack obama");
  ASSERT_TRUE(result.answered);
  EXPECT_EQ(result.value, "michelle obama");
  // The BOA bootstrapping lexicon cannot (direct predicates only).
  EXPECT_FALSE(experiment()
                   .synonym_qa()
                   .Answer("who is the wife of barack obama")
                   .answered);
}

TEST_F(AlignmentTest, StillLosesToTemplatesOnContextDependence) {
  // "how many people are there in X" is context-dependent: for a city it
  // means population; our alignment baseline picks one winner phrase-wide,
  // KBQA conceptualizes. At minimum KBQA must match it on the city case and
  // the baseline must not beat KBQA on a BFQ benchmark.
  corpus::BenchmarkConfig config;
  config.num_questions = 60;
  config.bfq_ratio = 1.0;
  config.unseen_paraphrase_rate = 0.1;
  config.seed = 321;
  corpus::BenchmarkSet set =
      corpus::GenerateBenchmark(experiment().world(), config);
  eval::RunResult kbqa = eval::RunBenchmark(experiment().kbqa(), set);
  eval::RunResult alignment =
      eval::RunBenchmark(experiment().alignment_qa(), set);
  EXPECT_GE(kbqa.counts.R(), alignment.counts.R());
}

}  // namespace
}  // namespace kbqa
