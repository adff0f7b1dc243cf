#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "util/atomic_file.h"

namespace kbqa::rdf {
namespace {

// ---------- Dictionary ----------

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern("barack obama");
  TermId b = dict.Intern("barack obama");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.GetString(a), "barack obama");
}

TEST(DictionaryTest, IdsAreDense) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("c"), 2u);
}

TEST(DictionaryTest, LookupNeverInterns) {
  Dictionary dict;
  EXPECT_FALSE(dict.Lookup("ghost").has_value());
  EXPECT_EQ(dict.size(), 0u);
  dict.Intern("real");
  EXPECT_EQ(dict.Lookup("real"), std::optional<TermId>(0));
}

// ---------- Toy KB (Figure 1 of the paper) ----------

/// Builds the paper's Figure 1: Barack Obama (a) -- marriage --> b --
/// person --> Michelle Obama (c); dob/pob/population facts; Honolulu (d).
class ToyKbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    name_ = kb_.AddPredicate("name");
    kb_.SetNamePredicate(name_);
    dob_ = kb_.AddPredicate("dob");
    pob_ = kb_.AddPredicate("pob");
    marriage_ = kb_.AddPredicate("marriage");
    person_ = kb_.AddPredicate("person");
    population_ = kb_.AddPredicate("population");
    date_ = kb_.AddPredicate("date");

    a_ = kb_.AddEntity("person/a");
    b_ = kb_.AddEntity("marriage/b");
    c_ = kb_.AddEntity("person/c");
    d_ = kb_.AddEntity("city/d");

    obama_lit_ = kb_.AddLiteral("barack obama");
    michelle_lit_ = kb_.AddLiteral("michelle obama");
    honolulu_lit_ = kb_.AddLiteral("honolulu");
    y1961_ = kb_.AddLiteral("1961");
    y1964_ = kb_.AddLiteral("1964");
    y1992_ = kb_.AddLiteral("1992");
    pop_ = kb_.AddLiteral("390000");

    kb_.AddTriple(a_, name_, obama_lit_);
    kb_.AddTriple(a_, dob_, y1961_);
    kb_.AddTriple(a_, pob_, d_);
    kb_.AddTriple(a_, marriage_, b_);
    kb_.AddTriple(b_, person_, c_);
    kb_.AddTriple(b_, date_, y1992_);
    kb_.AddTriple(c_, name_, michelle_lit_);
    kb_.AddTriple(c_, dob_, y1964_);
    kb_.AddTriple(d_, name_, honolulu_lit_);
    kb_.AddTriple(d_, population_, pop_);
    kb_.Freeze();
  }

  KnowledgeBase kb_;
  PredId name_, dob_, pob_, marriage_, person_, population_, date_;
  TermId a_, b_, c_, d_;
  TermId obama_lit_, michelle_lit_, honolulu_lit_, y1961_, y1964_, y1992_,
      pop_;
};

TEST_F(ToyKbTest, BasicCounts) {
  EXPECT_EQ(kb_.num_triples(), 10u);
  EXPECT_EQ(kb_.num_predicates(), 7u);
  EXPECT_EQ(kb_.num_entities(), 4u);
  EXPECT_TRUE(kb_.IsEntity(a_));
  EXPECT_TRUE(kb_.IsLiteral(y1961_));
}

TEST_F(ToyKbTest, ObjectsLookup) {
  EXPECT_EQ(kb_.Objects(a_, dob_), (std::vector<TermId>{y1961_}));
  EXPECT_EQ(kb_.Objects(a_, marriage_), (std::vector<TermId>{b_}));
  EXPECT_TRUE(kb_.Objects(a_, population_).empty());
  EXPECT_TRUE(kb_.Objects(y1961_, dob_).empty());  // literal subject
}

TEST_F(ToyKbTest, HasTripleAndConnectingPredicates) {
  EXPECT_TRUE(kb_.HasTriple(d_, population_, pop_));
  EXPECT_FALSE(kb_.HasTriple(d_, population_, y1961_));
  EXPECT_EQ(kb_.ConnectingPredicates(a_, y1961_),
            (std::vector<PredId>{dob_}));
  EXPECT_TRUE(kb_.ConnectingPredicates(a_, y1964_).empty());
}

TEST_F(ToyKbTest, InverseAdjacency) {
  auto in = kb_.In(c_);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].p, person_);
  EXPECT_EQ(in[0].o, b_);  // In() stores (predicate, subject).
}

TEST_F(ToyKbTest, NameIndex) {
  auto entities = kb_.EntitiesByName("barack obama");
  ASSERT_EQ(entities.size(), 1u);
  EXPECT_EQ(entities[0], a_);
  EXPECT_TRUE(kb_.EntitiesByName("nobody").empty());
  EXPECT_EQ(kb_.EntityName(a_), "barack obama");
  EXPECT_EQ(kb_.EntityName(b_), "marriage/b");  // unnamed CVT falls back
}

TEST_F(ToyKbTest, DuplicateTriplesDeduplicatedAtFreeze) {
  KnowledgeBase kb;
  PredId p = kb.AddPredicate("p");
  TermId s = kb.AddEntity("s");
  TermId o = kb.AddLiteral("o");
  kb.AddTriple(s, p, o);
  kb.AddTriple(s, p, o);
  kb.Freeze();
  EXPECT_EQ(kb.num_triples(), 1u);
}

TEST_F(ToyKbTest, SaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/toy_kb.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  auto loaded = KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const KnowledgeBase& kb2 = loaded.value();
  EXPECT_EQ(kb2.num_triples(), kb_.num_triples());
  EXPECT_EQ(kb2.num_predicates(), kb_.num_predicates());
  EXPECT_EQ(kb2.num_entities(), kb_.num_entities());
  auto entities = kb2.EntitiesByName("honolulu");
  ASSERT_EQ(entities.size(), 1u);
  EXPECT_EQ(kb2.Objects(entities[0], *kb2.LookupPredicate("population")),
            (std::vector<TermId>{*kb2.LookupNode("390000")}));
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, InjectedShortWriteNeverClobbersGoodSnapshot) {
  std::string path = ::testing::TempDir() + "/crash_safe_kb.bin";
  ASSERT_TRUE(kb_.Save(path).ok());

  // A re-Save over the same path dies mid-write (simulated crash / full
  // disk after 64 bytes). It must fail cleanly...
  util::SetWriteFailureAfterBytesForTest(64);
  Status crashed = kb_.Save(path);
  util::SetWriteFailureAfterBytesForTest(-1);
  EXPECT_FALSE(crashed.ok());

  // ...leave the original snapshot loadable...
  auto loaded = KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().num_triples(), kb_.num_triples());
  EXPECT_EQ(loaded.value().num_entities(), kb_.num_entities());

  // ...and clean up its temp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  EXPECT_FALSE(std::ifstream(tmp).good());

  // With injection off, the same Save succeeds again (atomic replace).
  ASSERT_TRUE(kb_.Save(path).ok());
  EXPECT_TRUE(KnowledgeBase::Load(path).ok());
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a kb", f);
  std::fclose(f);
  auto loaded = KnowledgeBase::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadMissingFileIsIoError) {
  auto loaded = KnowledgeBase::Load("/nonexistent/path/kb.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(ToyKbTest, SaveLoadPreservesAdjacencyExactly) {
  std::string path = ::testing::TempDir() + "/toy_kb_csr.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  auto loaded = KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const KnowledgeBase& kb2 = loaded.value();

  // The CSR blocks are slurped verbatim, so every Out()/In() range must be
  // element-for-element identical, not just equal as a set.
  ASSERT_EQ(kb2.num_nodes(), kb_.num_nodes());
  for (TermId id = 0; id < kb_.num_nodes(); ++id) {
    auto out1 = kb_.Out(id), out2 = kb2.Out(id);
    ASSERT_EQ(out1.size(), out2.size()) << "node " << id;
    EXPECT_TRUE(std::equal(out1.begin(), out1.end(), out2.begin()));
    auto in1 = kb_.In(id), in2 = kb2.In(id);
    ASSERT_EQ(in1.size(), in2.size()) << "node " << id;
    EXPECT_TRUE(std::equal(in1.begin(), in1.end(), in2.begin()));
    EXPECT_EQ(kb_.IsLiteral(id), kb2.IsLiteral(id));
    EXPECT_EQ(kb_.NodeString(id), kb2.NodeString(id));
  }
  for (const char* name : {"barack obama", "michelle obama", "honolulu"}) {
    auto e1 = kb_.EntitiesByName(name);
    auto e2 = kb2.EntitiesByName(name);
    ASSERT_EQ(e1.size(), e2.size()) << name;
    EXPECT_TRUE(std::equal(e1.begin(), e1.end(), e2.begin()));
  }
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsVersion1SnapshotCleanly) {
  // A version-1 (pre-CSR) snapshot begins with the old magic. Loading one
  // must yield a clean Corruption status naming the version, not a crash
  // or a silently wrong store.
  constexpr uint64_t kMagicV1 = 0x4b42514152444631ULL;  // "KBQARDF1"
  std::string path = ::testing::TempDir() + "/v1_kb.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&kMagicV1, sizeof(kMagicV1), 1, f), 1u);
  // Plausible-looking v1 payload bytes after the magic.
  uint64_t counts[4] = {3, 1, 0, 2};
  ASSERT_EQ(std::fwrite(counts, sizeof(counts), 1, f), 1u);
  std::fclose(f);

  auto loaded = KnowledgeBase::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsTruncatedSnapshot) {
  std::string path = ::testing::TempDir() + "/trunc_src.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);

  // A snapshot cut anywhere must come back as a clean Corruption — never a
  // crash, hang, or garbage-sized allocation.
  std::string cut_path = ::testing::TempDir() + "/trunc_cut.bin";
  for (size_t keep : {bytes.size() / 4, bytes.size() / 2,
                      bytes.size() * 9 / 10, bytes.size() - 1}) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    auto loaded = KnowledgeBase::Load(cut_path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " of " << bytes.size();
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsCorruptCsrOffsets) {
  std::string path = ::testing::TempDir() + "/corrupt_offsets.bin";
  // This test hand-computes byte positions of the v2 layout, so pin the
  // legacy format explicitly now that Save defaults to v3.
  ASSERT_TRUE(kb_.Save(path, /*format_version=*/2).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Locate the out-CSR block from the (known) v2 layout: magic, node
  // dictionary (count + offsets + blob), is_literal bytes, predicate
  // dictionary, name-predicate id, then edge_count + offsets + edges.
  size_t node_blob = 0, pred_blob = 0;
  for (TermId id = 0; id < kb_.num_nodes(); ++id) {
    node_blob += kb_.NodeString(id).size();
  }
  for (PredId p = 0; p < kb_.num_predicates(); ++p) {
    pred_blob += kb_.PredicateString(p).size();
  }
  const size_t out_csr = 8 + (8 + (kb_.num_nodes() + 1) * 8 + node_blob) +
                         kb_.num_nodes() +
                         (8 + (kb_.num_predicates() + 1) * 8 + pred_blob) + 4;
  const size_t offsets_begin = out_csr + 8;  // past edge_count
  ASSERT_LT(offsets_begin + (kb_.num_nodes() + 1) * 8, bytes.size());

  auto corrupt_u64_at = [&](size_t pos, uint64_t value) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + pos, &value, sizeof(value));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    return KnowledgeBase::Load(path);
  };

  // offsets[1] jumps past everything: non-monotone and inconsistent with
  // the edge-count header. Must fail *before* any edge-buffer allocation.
  auto non_monotone = corrupt_u64_at(offsets_begin + 8, ~uint64_t{0} / 2);
  ASSERT_FALSE(non_monotone.ok());
  EXPECT_EQ(non_monotone.status().code(), StatusCode::kCorruption);

  // offsets[num_nodes] disagrees with edge_count while staying monotone.
  auto tail_mismatch = corrupt_u64_at(
      offsets_begin + kb_.num_nodes() * 8, kb_.num_triples() + 100);
  ASSERT_FALSE(tail_mismatch.ok());
  EXPECT_EQ(tail_mismatch.status().code(), StatusCode::kCorruption);

  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsOversizedV2CountsBeforeAllocating) {
  // The legacy v2 layout carries raw u64 counts with no checksum. A count
  // that stays under the 2^32 structural cap but exceeds what the file
  // could possibly hold must fail as a clean Corruption *before* any
  // buffer is sized from it — otherwise a 16-byte file can demand a
  // 34 GB offsets array.
  std::string path = ::testing::TempDir() + "/oversized_v2.bin";
  ASSERT_TRUE(kb_.Save(path, /*format_version=*/2).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  auto corrupt_u64_at = [&](std::string mutated, size_t pos, uint64_t value) {
    std::memcpy(mutated.data() + pos, &value, sizeof(value));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    return KnowledgeBase::Load(path);
  };

  // Node-dictionary count claims ~4 billion entries right after the magic.
  auto huge_dict = corrupt_u64_at(bytes, 8, 0xFFFFFFFFull);
  ASSERT_FALSE(huge_dict.ok());
  EXPECT_EQ(huge_dict.status().code(), StatusCode::kCorruption);

  // Out-CSR edge count claims 2^30 edges (an 8 GB buffer), with the
  // offsets tail patched to agree so the count/offsets cross-check alone
  // would not catch the lie.
  size_t node_blob = 0, pred_blob = 0;
  for (TermId id = 0; id < kb_.num_nodes(); ++id) {
    node_blob += kb_.NodeString(id).size();
  }
  for (PredId p = 0; p < kb_.num_predicates(); ++p) {
    pred_blob += kb_.PredicateString(p).size();
  }
  const size_t out_csr = 8 + (8 + (kb_.num_nodes() + 1) * 8 + node_blob) +
                         kb_.num_nodes() +
                         (8 + (kb_.num_predicates() + 1) * 8 + pred_blob) + 4;
  const size_t offsets_tail = out_csr + 8 + kb_.num_nodes() * 8;
  ASSERT_LT(offsets_tail + 8, bytes.size());
  std::string mutated = bytes;
  const uint64_t huge_edges = uint64_t{1} << 30;
  std::memcpy(mutated.data() + out_csr, &huge_edges, sizeof(huge_edges));
  auto huge_csr = corrupt_u64_at(std::move(mutated), offsets_tail, huge_edges);
  ASSERT_FALSE(huge_csr.ok());
  EXPECT_EQ(huge_csr.status().code(), StatusCode::kCorruption);

  std::remove(path.c_str());
}

TEST_F(ToyKbTest, V2SnapshotLoadsIdenticallyThroughV3Reader) {
  // Backward compat: the same frozen store written as v2 and as v3 must
  // load into element-for-element identical in-memory form.
  std::string v2_path = ::testing::TempDir() + "/compat_v2.bin";
  std::string v3_path = ::testing::TempDir() + "/compat_v3.bin";
  ASSERT_TRUE(kb_.Save(v2_path, /*format_version=*/2).ok());
  ASSERT_TRUE(kb_.Save(v3_path, /*format_version=*/3).ok());

  auto from_v2 = KnowledgeBase::Load(v2_path);
  auto from_v3 = KnowledgeBase::Load(v3_path);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status();
  ASSERT_TRUE(from_v3.ok()) << from_v3.status();
  const KnowledgeBase& a = from_v2.value();
  const KnowledgeBase& b = from_v3.value();

  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_predicates(), b.num_predicates());
  EXPECT_EQ(a.num_triples(), b.num_triples());
  EXPECT_EQ(a.name_predicate(), b.name_predicate());
  for (TermId id = 0; id < a.num_nodes(); ++id) {
    EXPECT_EQ(a.NodeString(id), b.NodeString(id));
    EXPECT_EQ(a.IsLiteral(id), b.IsLiteral(id));
    auto out1 = a.Out(id), out2 = b.Out(id);
    ASSERT_EQ(out1.size(), out2.size()) << "node " << id;
    EXPECT_TRUE(std::equal(out1.begin(), out1.end(), out2.begin()));
    auto in1 = a.In(id), in2 = b.In(id);
    ASSERT_EQ(in1.size(), in2.size()) << "node " << id;
    EXPECT_TRUE(std::equal(in1.begin(), in1.end(), in2.begin()));
  }
  for (PredId p = 0; p < a.num_predicates(); ++p) {
    EXPECT_EQ(a.PredicateString(p), b.PredicateString(p));
  }

  // The compressed format must actually compress, even at toy scale.
  std::ifstream f2(v2_path, std::ios::binary | std::ios::ate);
  std::ifstream f3(v3_path, std::ios::binary | std::ios::ate);
  EXPECT_LT(f3.tellg(), f2.tellg());
  f2.close();
  f3.close();
  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsBitFlippedV3Snapshot) {
  // Any single corrupted byte of a v3 snapshot — magic, section length,
  // payload, or checksum — must come back as a clean Corruption, never a
  // crash, bad_alloc, or a silently different store.
  std::string path = ::testing::TempDir() + "/flip_src.bin";
  ASSERT_TRUE(kb_.Save(path, /*format_version=*/3).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 32u);

  std::string flip_path = ::testing::TempDir() + "/flip_cut.bin";
  for (size_t pos = 0; pos < bytes.size(); pos += 3) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    std::ofstream out(flip_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    auto loaded = KnowledgeBase::Load(flip_path);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << pos;
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST_F(ToyKbTest, FreezeIsBitIdenticalAcrossThreadCounts) {
  auto build = [](int num_threads) {
    KnowledgeBase kb;
    PredId name = kb.AddPredicate("name");
    kb.SetNamePredicate(name);
    PredId p = kb.AddPredicate("p");
    PredId q = kb.AddPredicate("q");
    std::vector<TermId> ents;
    for (int i = 0; i < 64; ++i) {
      ents.push_back(kb.AddEntity("e" + std::to_string(i)));
    }
    TermId lit = kb.AddLiteral("shared name");
    // Deliberately unsorted insertion order with duplicates.
    for (int i = 63; i >= 0; --i) {
      kb.AddTriple(ents[i], q, ents[(i * 7 + 3) % 64]);
      kb.AddTriple(ents[i], p, ents[(i * 13 + 1) % 64]);
      kb.AddTriple(ents[i], p, ents[(i * 13 + 1) % 64]);  // duplicate
      if (i % 3 == 0) kb.AddTriple(ents[i], name, lit);
    }
    kb.Freeze(num_threads);
    return kb;
  };
  KnowledgeBase kb1 = build(1);
  for (int threads : {2, 4}) {
    KnowledgeBase kbn = build(threads);
    ASSERT_EQ(kbn.num_triples(), kb1.num_triples());
    for (TermId id = 0; id < kb1.num_nodes(); ++id) {
      auto a = kb1.Out(id), b = kbn.Out(id);
      ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
      auto ia = kb1.In(id), ib = kbn.In(id);
      ASSERT_EQ(ia.size(), ib.size()) << "threads=" << threads;
      EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()));
    }
  }
}

// ---------- Expanded predicates (§6) ----------

class ExpansionTest : public ToyKbTest {
 protected:
  Result<ExpandedKb> Expand(int k, bool name_tail = true) {
    ExpansionOptions options;
    options.max_length = k;
    options.require_name_tail = name_tail;
    return ExpandedKb::Build(kb_, {a_, d_}, {name_}, options);
  }
};

TEST_F(ExpansionTest, FindsSpouseOfPath) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok()) << ekb.status();
  PredPath spouse_of = {marriage_, person_, name_};
  auto path_id = ekb.value().paths().Lookup(spouse_of);
  ASSERT_TRUE(path_id.has_value());
  EXPECT_EQ(ekb.value().Objects(a_, *path_id),
            (std::vector<TermId>{michelle_lit_}));
  EXPECT_EQ(ekb.value().paths().ToString(*path_id, kb_),
            "marriage -> person -> name");
}

TEST_F(ExpansionTest, NameTailRuleExcludesWeakPaths) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  // marriage -> date (the 1992 wedding) does not end with name: excluded.
  EXPECT_FALSE(ekb.value().paths().Lookup({marriage_, date_}).has_value());
  // marriage -> person -> dob ("Obama's 1964") likewise.
  EXPECT_FALSE(
      ekb.value().paths().Lookup({marriage_, person_, dob_}).has_value());
  // But with the rule off, both appear.
  auto loose = Expand(3, /*name_tail=*/false);
  ASSERT_TRUE(loose.ok());
  EXPECT_TRUE(loose.value().paths().Lookup({marriage_, date_}).has_value());
  EXPECT_TRUE(
      loose.value().paths().Lookup({marriage_, person_, dob_}).has_value());
}

TEST_F(ExpansionTest, RespectsLengthLimit) {
  auto ekb = Expand(1);
  ASSERT_TRUE(ekb.ok());
  EXPECT_EQ(ekb.value().NumTriplesOfLength(2), 0u);
  EXPECT_EQ(ekb.value().NumTriplesOfLength(3), 0u);
  // Direct predicates are present: dob, pob, marriage, name, population.
  EXPECT_GT(ekb.value().NumTriplesOfLength(1), 0u);
}

TEST_F(ExpansionTest, LengthOnePathsAreUnrestricted) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  EXPECT_TRUE(ekb.value().paths().Lookup({dob_}).has_value());
  EXPECT_TRUE(ekb.value().paths().Lookup({marriage_}).has_value());
}

TEST_F(ExpansionTest, SeedsOnly) {
  ExpansionOptions options;
  options.max_length = 3;
  auto ekb = ExpandedKb::Build(kb_, {d_}, {name_}, options);
  ASSERT_TRUE(ekb.ok());
  // Only Honolulu was seeded; Obama has no materialized triples.
  EXPECT_TRUE(ekb.value().Out(a_).empty());
  EXPECT_FALSE(ekb.value().Out(d_).empty());
}

TEST_F(ExpansionTest, DuplicateSeedsDontDoubleTriples) {
  ExpansionOptions options;
  options.max_length = 1;
  auto once = ExpandedKb::Build(kb_, {d_}, {name_}, options);
  auto twice = ExpandedKb::Build(kb_, {d_, d_}, {name_}, options);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once.value().num_triples(), twice.value().num_triples());
}

TEST_F(ExpansionTest, TripleBudgetIsEnforced) {
  ExpansionOptions options;
  options.max_length = 3;
  options.max_triples = 2;
  auto ekb = ExpandedKb::Build(kb_, {a_, d_}, {name_}, options);
  ASSERT_FALSE(ekb.ok());
  EXPECT_EQ(ekb.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ExpansionTest, ConnectingPaths) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  auto paths = ekb.value().ConnectingPaths(a_, michelle_lit_);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(ekb.value().paths().GetPath(paths[0]),
            (PredPath{marriage_, person_, name_}));
}

TEST_F(ExpansionTest, ObjectsViaPathWalksBaseKb) {
  // Works for entities that were never seeded (online lookups).
  EXPECT_EQ(ObjectsViaPath(kb_, a_, {marriage_, person_, name_}),
            (std::vector<TermId>{michelle_lit_}));
  EXPECT_EQ(ObjectsViaPath(kb_, a_, {pob_, name_}),
            (std::vector<TermId>{honolulu_lit_}));
  EXPECT_TRUE(ObjectsViaPath(kb_, a_, {population_}).empty());
  // Paths through literals are dead ends.
  EXPECT_TRUE(ObjectsViaPath(kb_, a_, {dob_, dob_}).empty());
}

TEST_F(ExpansionTest, PathDictionaryDistinguishesPrefixes) {
  PathDictionary paths;
  PathId p1 = paths.Intern({1, 2});
  PathId p2 = paths.Intern({1});
  PathId p3 = paths.Intern({1, 2});
  EXPECT_NE(p1, p2);
  EXPECT_EQ(p1, p3);
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(ExpansionTest, RequiresFrozenKb) {
  KnowledgeBase kb;
  kb.AddPredicate("p");
  ExpansionOptions options;
  auto ekb = ExpandedKb::Build(kb, {}, {}, options);
  EXPECT_FALSE(ekb.ok());
  EXPECT_EQ(ekb.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExpansionTest, NumPathsOfLengthCountsBackedPathsOnly) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  // Length-3: exactly marriage -> person -> name (from a).
  EXPECT_EQ(ekb.value().NumPathsOfLength(3), 1u);
  // Length-2: pob -> name (a -> honolulu).
  EXPECT_EQ(ekb.value().NumPathsOfLength(2), 1u);
}

}  // namespace
}  // namespace kbqa::rdf
