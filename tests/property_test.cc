// Property-style tests: invariants checked over randomized or exhaustively
// enumerated inputs (seed-parameterized where applicable), plus failure
// injection on the serialization paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/decomposer.h"
#include "core/em_learner.h"
#include "core/model_io.h"
#include "corpus/name_generator.h"
#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "eval/experiment.h"
#include "nlp/pattern.h"
#include "nlp/tokenizer.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "rdf/ntriples.h"
#include "rdf/query.h"
#include "util/coding.h"
#include "util/rng.h"

namespace kbqa {
namespace {

// ---------- Decomposer: DP result == exhaustive-search optimum ----------

/// Brute-force best decomposition probability by recursive enumeration of
/// every (inner-span, outer-pattern) split — exponential, usable only for
/// short inputs; the DP must match it exactly (Theorem 2's optimality).
double BruteForceBest(const std::vector<std::string>& tokens,
                      const nlp::PatternIndex& index,
                      const std::function<bool(const std::vector<std::string>&)>&
                          primitive,
                      size_t min_inner) {
  if (tokens.size() >= min_inner && primitive(tokens)) return 1.0;
  double best = 0;
  for (size_t b = 0; b < tokens.size(); ++b) {
    for (size_t e = b + min_inner; e <= tokens.size(); ++e) {
      if (b == 0 && e == tokens.size()) continue;
      std::vector<std::string> inner(tokens.begin() + b, tokens.begin() + e);
      double inner_p = BruteForceBest(inner, index, primitive, min_inner);
      if (inner_p <= 0) continue;
      double outer_p =
          index.ValidProbability(nlp::MakePattern(tokens, b, e));
      best = std::max(best, inner_p * outer_p);
    }
  }
  return best;
}

class DecomposerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecomposerPropertyTest, DpMatchesBruteForce) {
  Rng rng(GetParam());
  // Random mini-language: words w0..w5; random corpus questions with random
  // mention spans; random primitive set.
  const std::vector<std::string> vocab = {"w0", "w1", "w2", "w3", "w4", "w5"};
  std::vector<nlp::PatternQuestion> corpus;
  for (int i = 0; i < 12; ++i) {
    nlp::PatternQuestion pq;
    size_t len = 2 + rng.Uniform(4);
    for (size_t j = 0; j < len; ++j) {
      pq.tokens.push_back(vocab[rng.Uniform(vocab.size())]);
    }
    if (rng.Bernoulli(0.8)) {
      size_t b = rng.Uniform(len);
      size_t e = b + 1 + rng.Uniform(len - b);
      pq.mention_spans.push_back({b, e});
    }
    corpus.push_back(std::move(pq));
  }
  nlp::PatternIndex index = nlp::PatternIndex::Build(corpus);

  std::set<std::string> primitives;
  for (int i = 0; i < 4; ++i) {
    size_t len = 2 + rng.Uniform(2);
    std::vector<std::string> p;
    for (size_t j = 0; j < len; ++j) {
      p.push_back(vocab[rng.Uniform(vocab.size())]);
    }
    primitives.insert(nlp::JoinTokens(p));
  }
  auto is_primitive = [&](const std::vector<std::string>& tokens) {
    return primitives.count(nlp::JoinTokens(tokens)) > 0;
  };

  core::ComplexDecomposer::Options options;
  core::ComplexDecomposer decomposer(&index, is_primitive, options);

  for (int trial = 0; trial < 20; ++trial) {
    size_t len = 2 + rng.Uniform(5);  // up to 6 tokens: brute force is fine
    std::vector<std::string> question;
    for (size_t j = 0; j < len; ++j) {
      question.push_back(vocab[rng.Uniform(vocab.size())]);
    }
    double expected = BruteForceBest(question, index, is_primitive,
                                     options.min_inner_tokens);
    core::Decomposition got = decomposer.Decompose(question);
    EXPECT_NEAR(got.probability, expected, 1e-12)
        << nlp::JoinTokens(question);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposerPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- Expansion invariants over a generated world ----------

class ExpansionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExpansionPropertyTest, MaterializedTriplesReplayThroughBaseKb) {
  corpus::WorldConfig config;
  config.seed = GetParam();
  config.schema.scale = 0.03;
  config.schema.generic_attributes_per_type = 2;
  config.schema.generic_relations_per_type = 2;
  corpus::World world = corpus::GenerateWorld(config);

  rdf::ExpansionOptions options;
  options.max_length = 3;
  std::vector<rdf::TermId> seeds = world.kb.AllEntities();
  seeds.resize(std::min<size_t>(seeds.size(), 200));
  auto ekb =
      rdf::ExpandedKb::Build(world.kb, seeds, world.name_like, options);
  ASSERT_TRUE(ekb.ok());

  size_t checked = 0;
  ekb.value().ForEachTriple([&](const rdf::ExpandedTriple& triple) {
    const rdf::PredPath& path = ekb.value().paths().GetPath(triple.path);
    // Invariant 1: length bound.
    ASSERT_LE(path.size(), 3u);
    // Invariant 2: name-tail rule for length >= 2.
    if (path.size() >= 2) {
      ASSERT_TRUE(world.name_like.count(path.back()) > 0)
          << ekb.value().paths().ToString(triple.path, world.kb);
    }
    // Invariant 3 (sampled): the triple replays by walking the base KB.
    if (checked % 37 == 0) {
      auto walked = rdf::ObjectsViaPath(world.kb, triple.s, path);
      ASSERT_TRUE(std::find(walked.begin(), walked.end(), triple.o) !=
                  walked.end());
    }
    ++checked;
  });
  ASSERT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionPropertyTest,
                         ::testing::Values(11, 22, 33));

TEST(DiskExpansionTest, DiskScanMatchesInMemoryExactly) {
  // The paper's disk-based index+scan+join BFS must produce exactly the
  // same expanded triples as the in-memory walk.
  corpus::WorldConfig config;
  config.schema.scale = 0.03;
  config.schema.generic_attributes_per_type = 2;
  config.schema.generic_relations_per_type = 2;
  corpus::World world = corpus::GenerateWorld(config);
  std::string path = ::testing::TempDir() + "/disk_kb.nt";
  ASSERT_TRUE(rdf::ExportNTriples(world.kb, path).ok());

  std::vector<rdf::TermId> seeds = world.kb.AllEntities();
  seeds.resize(std::min<size_t>(seeds.size(), 150));
  rdf::ExpansionOptions options;
  options.max_length = 3;

  auto memory =
      rdf::ExpandedKb::Build(world.kb, seeds, world.name_like, options);
  auto disk = rdf::ExpandedKb::BuildFromDisk(world.kb, path, seeds,
                                             world.name_like, options);
  ASSERT_TRUE(memory.ok());
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ(memory.value().num_triples(), disk.value().num_triples());

  // Triple-for-triple equality, comparing by resolved predicate paths
  // (path ids may be interned in different orders).
  auto materialize = [&](const rdf::ExpandedKb& ekb) {
    std::set<std::string> out;
    ekb.ForEachTriple([&](const rdf::ExpandedTriple& triple) {
      out.insert(std::to_string(triple.s) + "|" +
                 ekb.paths().ToString(triple.path, world.kb) + "|" +
                 std::to_string(triple.o));
    });
    return out;
  };
  EXPECT_EQ(materialize(memory.value()), materialize(disk.value()));
  std::remove(path.c_str());
}

TEST(DiskExpansionTest, ExpansionIsBitIdenticalAcrossThreadCounts) {
  // The sharded BFS commits discoveries serially in shard order, so the
  // triple set AND the PathId numbering must be byte-identical for any
  // thread count — for both the in-memory and the disk-scan variant.
  corpus::WorldConfig config;
  config.schema.scale = 0.03;
  config.schema.generic_attributes_per_type = 2;
  config.schema.generic_relations_per_type = 2;
  corpus::World world = corpus::GenerateWorld(config);
  std::string path = ::testing::TempDir() + "/threaded_kb.nt";
  ASSERT_TRUE(rdf::ExportNTriples(world.kb, path).ok());

  std::vector<rdf::TermId> seeds = world.kb.AllEntities();
  seeds.resize(std::min<size_t>(seeds.size(), 150));

  // Raw-id materialization: any PathId renumbering would show up here.
  auto raw_triples = [](const rdf::ExpandedKb& ekb) {
    std::vector<std::tuple<rdf::TermId, rdf::PathId, rdf::TermId>> out;
    ekb.ForEachTriple([&](const rdf::ExpandedTriple& triple) {
      out.emplace_back(triple.s, triple.path, triple.o);
    });
    std::sort(out.begin(), out.end());
    return out;
  };

  for (bool from_disk : {false, true}) {
    auto run = [&](int threads) {
      rdf::ExpansionOptions options;
      options.max_length = 3;
      options.num_threads = threads;
      return from_disk
                 ? rdf::ExpandedKb::BuildFromDisk(world.kb, path, seeds,
                                                  world.name_like, options)
                 : rdf::ExpandedKb::Build(world.kb, seeds, world.name_like,
                                          options);
    };
    auto base = run(1);
    ASSERT_TRUE(base.ok()) << base.status();
    auto base_triples = raw_triples(base.value());
    ASSERT_GT(base_triples.size(), 100u);
    for (int threads : {2, 4}) {
      auto other = run(threads);
      ASSERT_TRUE(other.ok()) << other.status();
      // Same dictionary: same size and the same PredPath behind every id.
      ASSERT_EQ(other.value().paths().size(), base.value().paths().size())
          << "from_disk=" << from_disk << " threads=" << threads;
      for (rdf::PathId id = 0; id < base.value().paths().size(); ++id) {
        ASSERT_EQ(other.value().paths().GetPath(id),
                  base.value().paths().GetPath(id))
            << "from_disk=" << from_disk << " threads=" << threads;
      }
      EXPECT_EQ(raw_triples(other.value()), base_triples)
          << "from_disk=" << from_disk << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(DiskExpansionTest, MissingFileFailsCleanly) {
  corpus::WorldConfig config;
  config.schema.scale = 0.01;
  corpus::World world = corpus::GenerateWorld(config);
  rdf::ExpansionOptions options;
  auto disk = rdf::ExpandedKb::BuildFromDisk(
      world.kb, "/no/such/kb.nt", world.kb.AllEntities(), world.name_like,
      options);
  ASSERT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kIoError);
}

// ---------- EM invariants across seeds ----------

class EmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmPropertyTest, LikelihoodMonotoneAndThetaNormalized) {
  eval::ExperimentConfig config = eval::ExperimentConfig::Small();
  config.world.seed = GetParam();
  config.corpus.seed = GetParam() * 31;
  config.corpus.num_pairs = 1500;
  config.kbqa.em.tolerance = 0;  // run all iterations
  config.kbqa.em.max_iterations = 8;
  auto experiment = eval::Experiment::Build(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();

  const core::EmStats& stats = experiment.value()->kbqa().em_stats();
  ASSERT_GE(stats.log_likelihood.size(), 2u);
  for (size_t i = 1; i < stats.log_likelihood.size(); ++i) {
    EXPECT_GE(stats.log_likelihood[i], stats.log_likelihood[i - 1] - 1e-6);
  }
  const core::TemplateStore& store =
      experiment.value()->kbqa().template_store();
  for (core::TemplateId t = 0; t < store.num_templates(); ++t) {
    auto dist = store.Distribution(t);
    if (dist.empty()) continue;
    double sum = 0;
    for (const auto& entry : dist) {
      EXPECT_GE(entry.probability, 0.0);
      EXPECT_LE(entry.probability, 1.0 + 1e-9);
      sum += entry.probability;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << store.TemplateText(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmPropertyTest, ::testing::Values(7, 8, 9));

// ---------- Tokenizer idempotence ----------

TEST(TokenizerPropertyTest, NormalizeTextIsIdempotent) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    std::string name = corpus::NameGenerator::Generate(
        rng, static_cast<corpus::NameStyle>(rng.Uniform(9)));
    std::string wrapped = "  Who KNOWS about '" + name + "'s thing?!  ";
    std::string once = nlp::NormalizeText(wrapped);
    EXPECT_EQ(nlp::NormalizeText(once), once) << wrapped;
  }
}

// ---------- Pattern index: fv <= fo always ----------

TEST(PatternPropertyTest, ValidNeverExceedsOccurrences) {
  Rng rng(123);
  const std::vector<std::string> vocab = {"a", "b", "c", "d"};
  std::vector<nlp::PatternQuestion> corpus;
  for (int i = 0; i < 60; ++i) {
    nlp::PatternQuestion pq;
    size_t len = 2 + rng.Uniform(5);
    for (size_t j = 0; j < len; ++j) {
      pq.tokens.push_back(vocab[rng.Uniform(vocab.size())]);
    }
    size_t b = rng.Uniform(len);
    size_t e = b + 1 + rng.Uniform(len - b);
    pq.mention_spans.push_back({b, e});
    corpus.push_back(std::move(pq));
  }
  nlp::PatternIndex index = nlp::PatternIndex::Build(corpus);
  for (const nlp::PatternQuestion& pq : corpus) {
    for (const auto& [b, e] : pq.mention_spans) {
      auto stats = index.Stats(nlp::MakePattern(pq.tokens, b, e));
      EXPECT_LE(stats.fv, stats.fo);
      EXPECT_GE(stats.fv, 1u);
      double p = index.ValidProbability(nlp::MakePattern(pq.tokens, b, e));
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

// ---------- Failure injection: truncated files ----------

TEST(FailureInjectionTest, TruncatedKbFilesNeverCrash) {
  rdf::KnowledgeBase kb;
  rdf::PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  rdf::PredId pop = kb.AddPredicate("population");
  rdf::TermId e = kb.AddEntity("city/x");
  kb.AddTriple(e, name, kb.AddLiteral("xville"));
  kb.AddTriple(e, pop, kb.AddLiteral("1234"));
  kb.Freeze();

  std::string path = ::testing::TempDir() + "/trunc_kb.bin";
  ASSERT_TRUE(kb.Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long full = std::ftell(f);
  std::vector<char> bytes(static_cast<size_t>(full));
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  // Truncate at a sweep of offsets; every load must fail cleanly.
  for (long cut = 0; cut < full; cut += std::max<long>(1, full / 40)) {
    std::string cut_path = ::testing::TempDir() + "/trunc_kb_cut.bin";
    std::FILE* out = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    if (cut > 0) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, static_cast<size_t>(cut), out),
                static_cast<size_t>(cut));
    }
    std::fclose(out);
    auto loaded = rdf::KnowledgeBase::Load(cut_path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut << " of " << full;
    std::remove(cut_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, TruncatedModelFilesNeverCrash) {
  // Build a tiny trained model via the micro pipeline.
  corpus::WorldConfig wc;
  wc.schema.scale = 0.02;
  wc.schema.generic_attributes_per_type = 1;
  wc.schema.generic_relations_per_type = 1;
  corpus::World world = corpus::GenerateWorld(wc);
  corpus::QaGenConfig qc;
  qc.num_pairs = 400;
  corpus::QaCorpus corpus = corpus::GenerateTrainingCorpus(world, qc);
  core::KbqaSystem kbqa(&world);
  ASSERT_TRUE(kbqa.Train(corpus).ok());

  std::string path = ::testing::TempDir() + "/trunc_model.bin";
  ASSERT_TRUE(kbqa.SaveModel(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long full = std::ftell(f);
  std::vector<char> bytes(static_cast<size_t>(full));
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  for (long cut = 0; cut < full; cut += std::max<long>(1, full / 40)) {
    std::string cut_path = ::testing::TempDir() + "/trunc_model_cut.bin";
    std::FILE* out = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    if (cut > 0) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, static_cast<size_t>(cut), out),
                static_cast<size_t>(cut));
    }
    std::fclose(out);
    auto loaded = core::LoadModel(world.kb, cut_path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut << " of " << full;
    std::remove(cut_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, BitFlippedModelIsCorruption) {
  // Any single corrupted byte of a saved model — magic, section length,
  // template text, predicate name, probability or checksum — must come
  // back as a clean Corruption, never a silently different model.
  rdf::KnowledgeBase kb;
  const rdf::PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  const rdf::PredId marriage = kb.AddPredicate("marriage");
  const rdf::PredId person = kb.AddPredicate("person");
  kb.AddTriple("barack", "marriage", "m1", false);
  kb.AddTriple("m1", "person", "michelle", false);
  kb.AddTriple("michelle", "name", "Michelle Obama", true);
  kb.Freeze();
  core::TemplateStore store;
  rdf::PathDictionary paths;
  const core::TemplateId t = store.Intern("who is the wife of $person");
  store.AddFrequency(t, 3);
  store.SetDistribution(t, {{paths.Intern({marriage, person, name}), 0.7},
                            {paths.Intern({marriage}), 0.3}});
  store.AddFrequency(store.Intern("what is $person"), 1);

  const std::string path = ::testing::TempDir() + "/flip_model.bin";
  ASSERT_TRUE(core::SaveModel(store, paths, kb, path).ok());
  ASSERT_TRUE(core::LoadModel(kb, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes(4096, '\0');
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  ASSERT_GT(bytes.size(), 32u);
  ASSERT_LT(bytes.size(), 4096u);

  const std::string flip_path = ::testing::TempDir() + "/flip_model_cut.bin";
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    std::FILE* out = std::fopen(flip_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(mutated.data(), 1, mutated.size(), out),
              mutated.size());
    std::fclose(out);
    auto loaded = core::LoadModel(kb, flip_path);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << pos;
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST(FailureInjectionTest, ForgedModelHeadersAreCorruptionNotOomOrNan) {
  // Hand-built model files with internally consistent structure but lying
  // headers: LoadModel must reject each with a clean Corruption — never
  // size a buffer from a length the file cannot hold, and never let a
  // non-finite probability reach the distribution sort (NaN breaks its
  // strict weak ordering).
  rdf::KnowledgeBase kb;
  rdf::PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  rdf::TermId e = kb.AddEntity("person/a");
  kb.AddTriple(e, name, kb.AddLiteral("alice"));
  kb.Freeze();

  const std::string path = ::testing::TempDir() + "/forged_model.bin";
  auto put_u64 = [](std::string* s, uint64_t v) {
    s->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_str = [](std::string* s, const std::string& v) {
    util::PutVarint64(s, v.size());
    *s += v;
  };
  auto load_bytes = [&](const std::string& bytes) {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    EXPECT_NE(out, nullptr);
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    std::fclose(out);
    return core::LoadModel(kb, path);
  };
  constexpr uint64_t kModelMagic = 0x4b42514d4f444c32ULL;  // "KBQMODL2"
  // Frames `section` as a model file with a correct length and FNV-1a
  // checksum, so only the decoder's own checks can reject it.
  auto model_file = [&put_u64](const std::string& section) {
    std::string bytes;
    put_u64(&bytes, kModelMagic);
    put_u64(&bytes, section.size());
    bytes += section;
    put_u64(&bytes, util::Fnv1a64(section.data(), section.size()));
    return bytes;
  };
  // One template "who is $person" whose single entry has `probability`.
  auto one_entry_model = [&](double probability) {
    std::string section;
    util::PutVarint64(&section, 1);  // num_templates
    put_str(&section, "who is $person");
    util::PutVarint64(&section, 3);  // frequency
    util::PutVarint64(&section, 1);  // dist_size
    util::PutVarint64(&section, 1);  // path_len
    put_str(&section, "name");
    util::PutFixed64(&section, std::bit_cast<uint64_t>(probability));
    return model_file(section);
  };
  // The framing's gates all name a "section"; a decode rejection does not.
  auto expect_decode_rejection = [](const Result<core::LoadedModel>& loaded,
                                    const std::string& field) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(field), std::string::npos)
        << loaded.status();
    EXPECT_EQ(loaded.status().message().find("section"), std::string::npos)
        << loaded.status();
  };

  // Control: the same framing with a valid probability loads.
  ASSERT_TRUE(load_bytes(one_entry_model(0.5)).ok());

  // A string length header claiming 1 GiB in a 5-byte section.
  {
    std::string section;
    util::PutVarint64(&section, 1);                  // num_templates
    util::PutVarint64(&section, uint64_t{1} << 30);  // template text "length"
    auto loaded = load_bytes(model_file(section));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    expect_decode_rejection(loaded, "template text");
  }

  // A structurally valid model whose single entry carries a non-finite or
  // negative probability.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), -0.25}) {
    auto loaded = load_bytes(one_entry_model(bad));
    ASSERT_FALSE(loaded.ok()) << "probability " << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << bad;
    expect_decode_rejection(loaded, "probability");
  }
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, AllNoiseCorpusTrainsOrFailsGracefully) {
  // A corpus of pure chit-chat yields no observations; training must fail
  // with FailedPrecondition, not crash or loop.
  corpus::WorldConfig wc;
  wc.schema.scale = 0.02;
  corpus::World world = corpus::GenerateWorld(wc);
  corpus::QaGenConfig qc;
  qc.num_pairs = 200;
  qc.chitchat_rate = 1.0;
  corpus::QaCorpus corpus = corpus::GenerateTrainingCorpus(world, qc);
  core::KbqaSystem kbqa(&world);
  Status status = kbqa.Train(corpus);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(kbqa.trained());
  EXPECT_FALSE(kbqa.Answer("anything").answered);
}

// ---------- Query engine: deterministic, duplicate-free output ----------

TEST(QueryPropertyTest, RowsAreSortedAndUnique) {
  corpus::WorldConfig wc;
  wc.schema.scale = 0.03;
  corpus::World world = corpus::GenerateWorld(wc);
  auto query =
      rdf::ParseQuery("SELECT ?c ?n WHERE { ?c country ?x . ?x name ?n }");
  ASSERT_TRUE(query.ok());
  auto rows = rdf::ExecuteQuery(world.kb, query.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_GT(rows.value().size(), 10u);
  for (size_t i = 1; i < rows.value().size(); ++i) {
    EXPECT_LT(rows.value()[i - 1], rows.value()[i]);  // strictly increasing
  }
}

// ---------- Query engine vs brute-force evaluation ----------

/// Brute force: enumerate every assignment of entities/literals to the
/// query variables and test all patterns — exponential, ground truth for
/// tiny KBs.
std::set<std::vector<rdf::TermId>> BruteForceQuery(
    const rdf::KnowledgeBase& kb, const rdf::Query& query) {
  std::vector<std::string> vars;
  for (const rdf::TriplePattern& p : query.where) {
    for (const rdf::PatternTerm* term : {&p.subject, &p.object}) {
      if (term->is_variable &&
          std::find(vars.begin(), vars.end(), term->text) == vars.end()) {
        vars.push_back(term->text);
      }
    }
  }
  std::set<std::vector<rdf::TermId>> rows;
  std::vector<rdf::TermId> assignment(vars.size());
  std::function<void(size_t)> enumerate = [&](size_t i) {
    if (i == vars.size()) {
      for (const rdf::TriplePattern& p : query.where) {
        auto resolve = [&](const rdf::PatternTerm& term,
                           rdf::TermId* out) -> bool {
          if (term.is_variable) {
            size_t index = std::find(vars.begin(), vars.end(), term.text) -
                           vars.begin();
            *out = assignment[index];
            return true;
          }
          auto id = kb.LookupNode(term.text);
          if (!id) return false;
          *out = *id;
          return true;
        };
        rdf::TermId s, o;
        auto pred = kb.LookupPredicate(p.predicate);
        if (!pred || !resolve(p.subject, &s) || !resolve(p.object, &o)) {
          return;
        }
        if (!kb.HasTriple(s, *pred, o)) return;
      }
      std::vector<rdf::TermId> row;
      for (const std::string& sel : query.select) {
        size_t index =
            std::find(vars.begin(), vars.end(), sel) - vars.begin();
        row.push_back(index < vars.size() ? assignment[index]
                                          : rdf::kInvalidTerm);
      }
      rows.insert(row);
      return;
    }
    for (rdf::TermId node = 0; node < kb.num_nodes(); ++node) {
      assignment[i] = node;
      enumerate(i + 1);
    }
  };
  enumerate(0);
  return rows;
}

class QueryEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryEquivalenceTest, PlannerMatchesBruteForce) {
  // Tiny random KB: 8 entities, 4 predicates, random edges + literals.
  Rng rng(GetParam());
  // "<prefix><n>": the KB's term names.
  const auto name = [](const char* prefix, uint64_t n) {
    std::string text = prefix;
    text += std::to_string(n);
    return text;
  };
  rdf::KnowledgeBase kb;
  std::vector<rdf::PredId> preds;
  for (int p = 0; p < 4; ++p) preds.push_back(kb.AddPredicate(name("p", p)));
  std::vector<rdf::TermId> entities;
  for (int e = 0; e < 8; ++e) entities.push_back(kb.AddEntity(name("e", e)));
  std::vector<rdf::TermId> literals;
  for (int l = 0; l < 4; ++l) literals.push_back(kb.AddLiteral(name("v", l)));
  for (int t = 0; t < 24; ++t) {
    rdf::TermId s = entities[rng.Uniform(entities.size())];
    rdf::PredId p = preds[rng.Uniform(preds.size())];
    rdf::TermId o = rng.Bernoulli(0.5)
                        ? entities[rng.Uniform(entities.size())]
                        : literals[rng.Uniform(literals.size())];
    kb.AddTriple(s, p, o);
  }
  kb.Freeze();

  // Random conjunctive queries over ?x ?y with mixed constants.
  for (int trial = 0; trial < 10; ++trial) {
    rdf::Query query;
    query.select = {"x", "y"};
    size_t num_patterns = 1 + rng.Uniform(3);
    for (size_t i = 0; i < num_patterns; ++i) {
      rdf::TriplePattern pattern;
      const char* subject_vars[] = {"x", "y"};
      pattern.subject =
          rng.Bernoulli(0.7)
              ? rdf::PatternTerm{true, subject_vars[rng.Uniform(2)]}
              : rdf::PatternTerm{false, name("e", rng.Uniform(8))};
      pattern.predicate = name("p", rng.Uniform(4));
      pattern.object =
          rng.Bernoulli(0.7)
              ? rdf::PatternTerm{true, subject_vars[rng.Uniform(2)]}
              : (rng.Bernoulli(0.5)
                     ? rdf::PatternTerm{false, name("e", rng.Uniform(8))}
                     : rdf::PatternTerm{false, name("v", rng.Uniform(4))});
      query.where.push_back(std::move(pattern));
    }
    auto rows = rdf::ExecuteQuery(kb, query);
    ASSERT_TRUE(rows.ok()) << rdf::QueryToString(query);
    std::set<std::vector<rdf::TermId>> got(rows.value().begin(),
                                           rows.value().end());
    // Note: ExecuteQuery leaves a SELECT variable unbound (kInvalidTerm)
    // when no pattern mentions it; brute force enumerates it. Skip those
    // degenerate queries.
    bool mentions_x = false, mentions_y = false;
    for (const auto& p : query.where) {
      for (const rdf::PatternTerm* term : {&p.subject, &p.object}) {
        if (term->is_variable && term->text == "x") mentions_x = true;
        if (term->is_variable && term->text == "y") mentions_y = true;
      }
    }
    if (!mentions_x || !mentions_y) continue;
    EXPECT_EQ(got, BruteForceQuery(kb, query))
        << rdf::QueryToString(query);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryEquivalenceTest,
                         ::testing::Values(41, 42, 43, 44));

// ---------- KB persistence over generated worlds ----------

class KbRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KbRoundTripTest, GeneratedWorldSurvivesSaveLoad) {
  corpus::WorldConfig config;
  config.seed = GetParam();
  config.schema.scale = 0.02;
  corpus::World world = corpus::GenerateWorld(config);
  std::string path = ::testing::TempDir() + "/world_kb_" +
                     std::to_string(GetParam()) + ".bin";
  ASSERT_TRUE(world.kb.Save(path).ok());
  auto loaded = rdf::KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_triples(), world.kb.num_triples());
  EXPECT_EQ(loaded.value().num_entities(), world.kb.num_entities());
  EXPECT_EQ(loaded.value().num_predicates(), world.kb.num_predicates());
  // Spot-check: famous entity lookups behave identically.
  for (const auto& [name, entity] : world.famous) {
    auto here = world.kb.EntitiesByName(name);
    auto there = loaded.value().EntitiesByName(name);
    ASSERT_EQ(here.size(), there.size()) << name;
    (void)entity;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KbRoundTripTest,
                         ::testing::Values(100, 200, 300));

}  // namespace
}  // namespace kbqa
