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
#include "util/coding.h"

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

// Splits a v3 snapshot into its four section payloads. Layout: u64 magic,
// then per section [u64 byte_len][payload][u64 FNV-1a checksum].
std::vector<std::string> SnapshotSections(const std::string& bytes) {
  std::vector<std::string> sections;
  size_t pos = 8;
  while (pos + 8 <= bytes.size()) {
    uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    sections.push_back(bytes.substr(pos + 8, len));
    pos += 8 + len + 8;
  }
  return sections;
}

// Reassembles a v3 snapshot from section payloads, recomputing every
// length and checksum, so only the decoder's own checks can reject it.
std::string AssembleSnapshot(const std::string& magic,
                             const std::vector<std::string>& sections) {
  std::string bytes = magic;
  for (const std::string& section : sections) {
    const uint64_t len = section.size();
    const uint64_t checksum = util::Fnv1a64(section.data(), section.size());
    bytes.append(reinterpret_cast<const char*>(&len), sizeof(len));
    bytes += section;
    bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  }
  return bytes;
}

TEST_F(ToyKbTest, LoadRejectsCorruptCsrOffsets) {
  std::string path = ::testing::TempDir() + "/corrupt_offsets.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::vector<std::string> sections = SnapshotSections(bytes);
  ASSERT_EQ(sections.size(), 4u);  // nodes, predicates, out CSR, in CSR
  ASSERT_EQ(AssembleSnapshot(bytes.substr(0, 8), sections), bytes);

  // The out-CSR section is the delta-run offset array followed by the
  // per-node edge runs.
  const std::string& out_csr = sections[2];
  const auto* begin = reinterpret_cast<const uint8_t*>(out_csr.data());
  const uint8_t* p = begin;
  std::vector<uint64_t> offsets;
  ASSERT_TRUE(
      util::DecodeDeltaRun64(&p, begin + out_csr.size(), &offsets));
  ASSERT_EQ(offsets.size(), kb_.num_nodes() + 1);
  ASSERT_EQ(offsets.back(), kb_.num_triples());
  const std::string edge_runs = out_csr.substr(static_cast<size_t>(p - begin));

  // Re-encodes the out-CSR section with `mutated` offsets, checksums
  // recomputed, and loads the result.
  auto load_with_offsets = [&](const std::vector<uint64_t>& mutated) {
    std::string section;
    util::AppendDeltaRun64(&section, mutated.data(), mutated.size());
    section += edge_runs;
    std::vector<std::string> patched = sections;
    patched[2] = section;
    const std::string file = AssembleSnapshot(bytes.substr(0, 8), patched);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.close();
    return KnowledgeBase::Load(path);
  };
  auto expect_csr_rejected = [](const Result<KnowledgeBase>& loaded) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    // Rejected by decoding or validation, not by a section checksum.
    EXPECT_NE(loaded.status().message().find("out CSR"), std::string::npos)
        << loaded.status();
    EXPECT_EQ(loaded.status().message().find("section"), std::string::npos)
        << loaded.status();
  };

  // offsets[1] jumps past everything: non-monotone, and the wrapped delta
  // must fail before any edge-buffer allocation.
  std::vector<uint64_t> non_monotone = offsets;
  non_monotone[1] = ~uint64_t{0} / 2;
  expect_csr_rejected(load_with_offsets(non_monotone));

  // The tail offset disagrees with the edges the section holds while the
  // array stays monotone.
  std::vector<uint64_t> tail_mismatch = offsets;
  tail_mismatch.back() = kb_.num_triples() + 100;
  expect_csr_rejected(load_with_offsets(tail_mismatch));

  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsForgedDictionaryCountBeforeAllocating) {
  // A 29-byte v3 file whose node section is intact (correct length and
  // FNV-1a checksum) but whose dictionary count claims 2^31 entries. The
  // count is under the 2^32 structural cap, yet the 5-byte section cannot
  // hold that many front-coded strings (each takes at least 2 bytes), so
  // Load must fail as a clean Corruption *before* reserving for them —
  // never bad_alloc.
  constexpr uint64_t kMagicV3 = 0x4b42514152444633ULL;  // "KBQARDF3"
  std::string node_section;
  util::PutVarint64(&node_section, uint64_t{1} << 31);
  ASSERT_EQ(node_section.size(), 5u);
  const std::string file = AssembleSnapshot(
      std::string(reinterpret_cast<const char*>(&kMagicV3), 8),
      {node_section});
  ASSERT_EQ(file.size(), 29u);

  std::string path = ::testing::TempDir() + "/forged_dict_count.bin";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  out.close();
  auto loaded = KnowledgeBase::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("node dictionary"),
            std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsBitFlippedV3Snapshot) {
  // Any single corrupted byte of a v3 snapshot — magic, section length,
  // payload, or checksum — must come back as a clean Corruption, never a
  // crash, bad_alloc, or a silently different store.
  std::string path = ::testing::TempDir() + "/flip_src.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
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

TEST_F(ToyKbTest, SnapshotBytesAreGolden) {
  // Pins the v3 snapshot format byte for byte: the FNV-1a of the toy KB's
  // saved file. A change here breaks every snapshot already on disk, so it
  // must come with a new magic, never silently.
  std::string path = ::testing::TempDir() + "/golden_kb.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  EXPECT_EQ(bytes.size(), 295u);
  EXPECT_EQ(util::Fnv1a64(bytes.data(), bytes.size()), 0xee175abf22f8bffaULL);
  std::remove(path.c_str());
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
      ents.push_back(kb.AddEntity(std::string("e").append(std::to_string(i))));
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
