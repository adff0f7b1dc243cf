// CompressedExpandedKb: bit-identical reads vs the uncompressed substrate,
// compression ratio, snapshot round-trip (resident + paged under a tiny
// decoded-block budget), and corruption negative tests.

#include "rdf/compressed_expanded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "corpus/world_generator.h"
#include "obs/wide_event.h"
#include "rdf/expanded_predicate.h"
#include "util/coding.h"
#include "util/status.h"

namespace kbqa {
namespace {

using rdf::CompressedExpandedKb;
using rdf::ExpandedKb;
using rdf::ExpandedTriple;
using rdf::PathId;
using rdf::TermId;

struct Built {
  corpus::World world;
  ExpandedKb ekb;
};

/// Small generated world expanded from a few hundred seeds — enough to
/// produce multiple blocks at a small target block size.
Built BuildWorldAndExpansion(uint64_t seed = 7) {
  corpus::WorldConfig config;
  config.seed = seed;
  config.schema.scale = 0.05;
  config.schema.generic_attributes_per_type = 2;
  config.schema.generic_relations_per_type = 2;
  corpus::World world = corpus::GenerateWorld(config);

  rdf::ExpansionOptions options;
  options.max_length = 3;
  std::vector<TermId> seeds = world.kb.AllEntities();
  seeds.resize(std::min<size_t>(seeds.size(), 400));
  auto ekb = ExpandedKb::Build(world.kb, seeds, world.name_like, options);
  EXPECT_TRUE(ekb.ok()) << ekb.status();
  return Built{std::move(world), std::move(ekb.value())};
}

std::vector<ExpandedTriple> SortedTriples(
    const std::function<void(
        const std::function<void(const ExpandedTriple&)>&)>& for_each) {
  std::vector<ExpandedTriple> triples;
  for_each([&](const ExpandedTriple& t) { triples.push_back(t); });
  std::sort(triples.begin(), triples.end(),
            [](const ExpandedTriple& a, const ExpandedTriple& b) {
              return std::tie(a.s, a.path, a.o) < std::tie(b.s, b.path, b.o);
            });
  return triples;
}

/// Every read API must return exactly what the uncompressed substrate
/// holds, for every materialized subject and path.
void ExpectBitIdentical(const ExpandedKb& ekb, const CompressedExpandedKb& c) {
  ASSERT_EQ(c.num_triples(), ekb.num_triples());
  ASSERT_EQ(c.paths().size(), ekb.paths().size());
  for (size_t i = 0; i < ekb.paths().size(); ++i) {
    EXPECT_EQ(c.paths().GetPath(static_cast<PathId>(i)),
              ekb.paths().GetPath(static_cast<PathId>(i)));
  }
  std::vector<std::pair<PathId, TermId>> run;
  std::vector<TermId> objects;
  for (TermId s : ekb.Subjects()) {
    EXPECT_TRUE(c.Contains(s));
    ASSERT_TRUE(c.CopyOut(s, &run)) << "subject " << s;
    const auto expected = ekb.Out(s);
    ASSERT_EQ(run.size(), expected.size()) << "subject " << s;
    EXPECT_TRUE(std::equal(run.begin(), run.end(), expected.begin()));
    // Per-path point lookups, including the binary-search path boundaries.
    PathId prev_path = rdf::kInvalidPath;
    for (const auto& [path, o] : expected) {
      (void)o;
      if (path == prev_path) continue;
      prev_path = path;
      ASSERT_TRUE(c.TryObjects(s, path, &objects));
      EXPECT_EQ(objects, ekb.Objects(s, path)) << s << " path " << path;
    }
  }
}

TEST(CompressedExpandedKbTest, ReadsAreBitIdenticalToUncompressed) {
  Built b = BuildWorldAndExpansion();
  CompressedExpandedKb::Options options;
  options.target_block_edges = 256;  // force multiple blocks
  auto c = CompressedExpandedKb::FromExpanded(b.ekb, options);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_GT(c.value().num_blocks(), 4u);
  ExpectBitIdentical(b.ekb, c.value());

  // Non-materialized subjects are reported absent, not empty-materialized.
  const std::vector<TermId> subjects = b.ekb.Subjects();
  std::vector<TermId> objects;
  for (TermId s = 0; s < 100; ++s) {
    if (!std::binary_search(subjects.begin(), subjects.end(), s)) {
      EXPECT_FALSE(c.value().Contains(s));
      EXPECT_FALSE(c.value().TryObjects(s, 0, &objects));
    }
  }
}

TEST(CompressedExpandedKbTest, BlockTrafficStampsCurrentRequestContext) {
  // The pager is too deep for a context parameter: a sampled request's
  // block-cache traffic reaches its wide event via the thread-local
  // binding (obs::ScopedRequestContext, DESIGN.md §8).
  Built b = BuildWorldAndExpansion();
  CompressedExpandedKb::Options options;
  options.target_block_edges = 256;
  auto first = CompressedExpandedKb::FromExpanded(b.ekb, options);
  ASSERT_TRUE(first.ok()) << first.status();
  std::vector<std::pair<PathId, TermId>> run;
  const TermId subject = b.ekb.Subjects().front();

  // Unbound read: decodes the block, stamps nothing, crashes nothing.
  ASSERT_TRUE(first.value().CopyOut(subject, &run));
  obs::RequestContext hit_ctx;
  {
    obs::ScopedRequestContext scope(&hit_ctx);
    ASSERT_TRUE(first.value().CopyOut(subject, &run));
  }
  EXPECT_EQ(hit_ctx.block_cache_hits, 1u);  // decoded above, now resident
  EXPECT_EQ(hit_ctx.block_cache_misses, 0u);
  EXPECT_EQ(hit_ctx.blocks_decoded, 0u);

  // A fresh instance under the binding: the first read is a miss+decode.
  auto second = CompressedExpandedKb::FromExpanded(b.ekb, options);
  ASSERT_TRUE(second.ok()) << second.status();
  obs::RequestContext miss_ctx;
  {
    obs::ScopedRequestContext scope(&miss_ctx);
    ASSERT_TRUE(second.value().CopyOut(subject, &run));
  }
  EXPECT_EQ(miss_ctx.block_cache_hits, 0u);
  EXPECT_EQ(miss_ctx.block_cache_misses, 1u);
  EXPECT_EQ(miss_ctx.blocks_decoded, 1u);

  // Once the scope ends the binding is gone: counters stay put.
  ASSERT_TRUE(second.value().CopyOut(subject, &run));
  EXPECT_EQ(miss_ctx.block_cache_hits, 0u);
}

TEST(CompressedExpandedKbTest, CompressesBelowRawResidency) {
  Built b = BuildWorldAndExpansion();
  auto c = CompressedExpandedKb::FromExpanded(b.ekb, {});
  ASSERT_TRUE(c.ok()) << c.status();
  const auto stats = c.value().memory_stats();
  EXPECT_EQ(stats.raw_equivalent_bytes, b.ekb.ApproxResidentBytes());
  EXPECT_GT(stats.compressed_bytes, 0u);
  // The 50% acceptance bar is asserted at bench scale; at toy scale the
  // index and dictionary amortize worse, so require strictly-below-raw.
  EXPECT_LT(stats.ResidentBytes(), stats.raw_equivalent_bytes);
}

TEST(CompressedExpandedKbTest, SaveOpenRoundTripResident) {
  Built b = BuildWorldAndExpansion();
  CompressedExpandedKb::Options options;
  options.target_block_edges = 256;
  auto c = CompressedExpandedKb::FromExpanded(b.ekb, options);
  ASSERT_TRUE(c.ok()) << c.status();

  const std::string path = ::testing::TempDir() + "/cekb_resident.bin";
  ASSERT_TRUE(c.value().Save(path).ok());
  auto reopened = CompressedExpandedKb::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectBitIdentical(b.ekb, reopened.value());
  EXPECT_EQ(SortedTriples([&](const auto& fn) {
              reopened.value().ForEachTriple(fn);
            }),
            SortedTriples([&](const auto& fn) { b.ekb.ForEachTriple(fn); }));
  std::remove(path.c_str());
}

TEST(CompressedExpandedKbTest, PagedModeWithTinyBudgetStaysBitIdentical) {
  Built b = BuildWorldAndExpansion();
  CompressedExpandedKb::Options options;
  options.target_block_edges = 128;
  auto c = CompressedExpandedKb::FromExpanded(b.ekb, options);
  ASSERT_TRUE(c.ok()) << c.status();
  const uint64_t compressed = c.value().memory_stats().compressed_bytes;

  const std::string path = ::testing::TempDir() + "/cekb_paged.bin";
  ASSERT_TRUE(c.value().Save(path).ok());

  // Cap decoded residency at ~10% of the compressed size: most lookups
  // must page + decode, and answers must not change.
  CompressedExpandedKb::Options paged = options;
  paged.blocks_resident = false;
  paged.decoded_cache_budget_bytes = compressed / 10 + 1;
  auto reopened = CompressedExpandedKb::Open(path, paged);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectBitIdentical(b.ekb, reopened.value());

  const auto stats = reopened.value().memory_stats();
  EXPECT_FALSE(stats.blocks_resident);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.corrupt_blocks, 0u);
  EXPECT_LE(stats.decoded_cache_bytes, paged.decoded_cache_budget_bytes);
  // Paged residency excludes the compressed payload entirely.
  EXPECT_LT(stats.ResidentBytes(), compressed + stats.index_bytes +
                                       stats.paths_bytes +
                                       paged.decoded_cache_budget_bytes);
  std::remove(path.c_str());
}

TEST(CompressedExpandedKbTest, TruncatedSnapshotIsCorruption) {
  Built b = BuildWorldAndExpansion();
  auto c = CompressedExpandedKb::FromExpanded(b.ekb, {});
  ASSERT_TRUE(c.ok()) << c.status();
  const std::string path = ::testing::TempDir() + "/cekb_trunc_src.bin";
  ASSERT_TRUE(c.value().Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  const std::string cut_path = ::testing::TempDir() + "/cekb_trunc_cut.bin";
  for (size_t keep : {size_t{0}, size_t{7}, bytes.size() / 4,
                      bytes.size() / 2, bytes.size() * 9 / 10,
                      bytes.size() - 1}) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    for (bool resident : {true, false}) {
      CompressedExpandedKb::Options options;
      options.blocks_resident = resident;
      auto loaded = CompressedExpandedKb::Open(cut_path, options);
      ASSERT_FALSE(loaded.ok()) << "kept " << keep << " resident=" << resident;
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << keep;
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(CompressedExpandedKbTest, BitFlippedSnapshotIsCorruption) {
  Built b = BuildWorldAndExpansion();
  auto c = CompressedExpandedKb::FromExpanded(b.ekb, {});
  ASSERT_TRUE(c.ok()) << c.status();
  const std::string path = ::testing::TempDir() + "/cekb_flip_src.bin";
  ASSERT_TRUE(c.value().Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Flip a byte at a stride across the whole file — header, metadata,
  // block index, and payload regions all get hit. Open must always fail
  // with a clean Corruption (checksums cover every region), in both
  // resident and paged modes.
  const std::string flip_path = ::testing::TempDir() + "/cekb_flip.bin";
  const size_t stride = std::max<size_t>(1, bytes.size() / 200);
  for (size_t pos = 0; pos < bytes.size(); pos += stride) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x20);
    std::ofstream out(flip_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    for (bool resident : {true, false}) {
      CompressedExpandedKb::Options options;
      options.blocks_resident = resident;
      auto loaded = CompressedExpandedKb::Open(flip_path, options);
      ASSERT_FALSE(loaded.ok())
          << "flip at " << pos << " resident=" << resident;
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << pos;
    }
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

// Decoded form of the checksummed metadata section, so tests can lie about
// individual counts and re-seal the section with a matching checksum: the
// FNV-1a sum catches accidental corruption, not files produced by a buggy
// or hostile writer, so count fields must be validated on their own.
struct MetaFields {
  struct Block {
    uint32_t num_subjects = 0;
    uint32_t num_edges = 0;
    uint32_t encoded_bytes = 0;
    uint64_t checksum = 0;
  };
  uint64_t num_triples = 0;
  uint64_t raw_bytes = 0;
  std::vector<std::vector<uint32_t>> paths;
  std::vector<uint32_t> subjects;
  std::vector<Block> blocks;
  // When nonzero, the encoded block-count header lies relative to the
  // actual number of index entries that follow it.
  uint64_t block_count_override = 0;
};

void ParseMeta(const std::string& meta, MetaFields* m) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(meta.data());
  const uint8_t* limit = p + meta.size();
  uint64_t num_paths = 0;
  p = util::GetVarint64(p, limit, &m->num_triples);
  ASSERT_NE(p, nullptr);
  p = util::GetVarint64(p, limit, &m->raw_bytes);
  ASSERT_NE(p, nullptr);
  p = util::GetVarint64(p, limit, &num_paths);
  ASSERT_NE(p, nullptr);
  for (uint64_t i = 0; i < num_paths; ++i) {
    uint64_t len = 0;
    p = util::GetVarint64(p, limit, &len);
    ASSERT_NE(p, nullptr);
    std::vector<uint32_t> path(len, 0);
    for (uint64_t j = 0; j < len; ++j) {
      p = util::GetVarint32(p, limit, &path[j]);
      ASSERT_NE(p, nullptr);
    }
    m->paths.push_back(std::move(path));
  }
  ASSERT_TRUE(util::DecodeDeltaRun32(&p, limit, &m->subjects));
  uint64_t num_blocks = 0;
  p = util::GetVarint64(p, limit, &num_blocks);
  ASSERT_NE(p, nullptr);
  for (uint64_t i = 0; i < num_blocks; ++i) {
    MetaFields::Block b;
    p = util::GetVarint32(p, limit, &b.num_subjects);
    ASSERT_NE(p, nullptr);
    p = util::GetVarint32(p, limit, &b.num_edges);
    ASSERT_NE(p, nullptr);
    p = util::GetVarint32(p, limit, &b.encoded_bytes);
    ASSERT_NE(p, nullptr);
    p = util::GetFixed64(p, limit, &b.checksum);
    ASSERT_NE(p, nullptr);
    m->blocks.push_back(b);
  }
  EXPECT_EQ(p, limit);
}

std::string EncodeMeta(const MetaFields& m) {
  std::string meta;
  util::PutVarint64(&meta, m.num_triples);
  util::PutVarint64(&meta, m.raw_bytes);
  util::PutVarint64(&meta, m.paths.size());
  for (const auto& path : m.paths) {
    util::PutVarint64(&meta, path.size());
    for (uint32_t pred : path) util::PutVarint32(&meta, pred);
  }
  util::AppendDeltaRun32(&meta, m.subjects.data(), m.subjects.size());
  util::PutVarint64(&meta, m.block_count_override != 0
                               ? m.block_count_override
                               : m.blocks.size());
  for (const auto& b : m.blocks) {
    util::PutVarint32(&meta, b.num_subjects);
    util::PutVarint32(&meta, b.num_edges);
    util::PutVarint32(&meta, b.encoded_bytes);
    util::PutFixed64(&meta, b.checksum);
  }
  return meta;
}

/// Rebuilds a snapshot file around mutated metadata, re-sealing the
/// section with a correct length header and FNV-1a checksum.
std::string ResealFile(const std::string& original, const MetaFields& m) {
  uint64_t old_len = 0;
  std::memcpy(&old_len, original.data() + 8, sizeof(old_len));
  const std::string payload = original.substr(16 + old_len + 8);
  const std::string meta = EncodeMeta(m);
  std::string out = original.substr(0, 8);
  const uint64_t len = meta.size();
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out += meta;
  const uint64_t sum = util::Fnv1a64(meta.data(), meta.size());
  out.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  out += payload;
  return out;
}

TEST(CompressedExpandedKbTest, ForgedMetadataCountsAreCorruptionNotOom) {
  Built b = BuildWorldAndExpansion();
  auto c = CompressedExpandedKb::FromExpanded(b.ekb, {});
  ASSERT_TRUE(c.ok()) << c.status();
  const std::string path = ::testing::TempDir() + "/cekb_forged_src.bin";
  ASSERT_TRUE(c.value().Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  uint64_t meta_len = 0;
  std::memcpy(&meta_len, bytes.data() + 8, sizeof(meta_len));
  MetaFields original;
  ASSERT_NO_FATAL_FAILURE(ParseMeta(bytes.substr(16, meta_len), &original));
  ASSERT_FALSE(original.blocks.empty());

  const std::string forged_path = ::testing::TempDir() + "/cekb_forged.bin";
  auto open_forged = [&](const MetaFields& m) {
    const std::string forged = ResealFile(bytes, m);
    std::ofstream out(forged_path, std::ios::binary | std::ios::trunc);
    out.write(forged.data(), static_cast<std::streamsize>(forged.size()));
    out.close();
    CompressedExpandedKb::Options options;
    options.blocks_resident = true;
    return CompressedExpandedKb::Open(forged_path, options);
  };

  // Case 1: the block-count header claims 2^31 blocks — under the 2^32
  // structural cap, but 32 bytes of BlockInfo each would reserve 64 GB
  // before the per-entry decode loop could notice the bytes run out.
  // The checksum is valid, so only a byte-budget gate can stop it.
  {
    MetaFields m = original;
    m.block_count_override = uint64_t{1} << 31;
    auto loaded = open_forged(m);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }

  // Case 2: one block claims 2^30 edges (with num_triples adjusted so the
  // cross-block edge sum still balances). DecodePayload sizes its decoded
  // edge buffer from that count — an 8 GB reserve for a block whose
  // encoded form is a few KB. A valid block can never hold more edges
  // than encoded bytes, so Open must reject the index entry up front.
  {
    MetaFields m = original;
    const uint64_t lie = uint64_t{1} << 30;
    m.num_triples += lie - m.blocks[0].num_edges;
    m.blocks[0].num_edges = static_cast<uint32_t>(lie);
    auto loaded = open_forged(m);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }

  std::remove(path.c_str());
  std::remove(forged_path.c_str());
}

TEST(CompressedExpandedKbTest, SnapshotBytesAreGolden) {
  // Pins the KBQAEXP3 format byte for byte: the FNV-1a of a fixed toy
  // expansion's saved file (several blocks, so the raw payload tail is
  // covered too). A change here breaks every snapshot already on disk, so
  // it must come with a new magic, never silently.
  rdf::KnowledgeBase kb;
  const rdf::PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  const rdf::PredId marriage = kb.AddPredicate("marriage");
  const rdf::PredId person = kb.AddPredicate("person");
  const rdf::PredId dob = kb.AddPredicate("dob");
  const TermId a = kb.AddEntity("person/a");
  const TermId m = kb.AddEntity("marriage/m");
  const TermId c = kb.AddEntity("person/c");
  kb.AddTriple(a, name, kb.AddLiteral("barack obama"));
  kb.AddTriple(a, dob, kb.AddLiteral("1961"));
  kb.AddTriple(a, marriage, m);
  kb.AddTriple(m, person, c);
  kb.AddTriple(c, name, kb.AddLiteral("michelle obama"));
  kb.AddTriple(c, dob, kb.AddLiteral("1964"));
  kb.Freeze();
  auto ekb = ExpandedKb::Build(kb, {a, m, c}, {name}, rdf::ExpansionOptions{});
  ASSERT_TRUE(ekb.ok()) << ekb.status();
  CompressedExpandedKb::Options options;
  options.target_block_edges = 2;
  auto compressed = CompressedExpandedKb::FromExpanded(ekb.value(), options);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  ASSERT_GT(compressed.value().num_blocks(), 1u);

  const std::string path = ::testing::TempDir() + "/cekb_golden.bin";
  ASSERT_TRUE(compressed.value().Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  EXPECT_EQ(bytes.size(), 103u);
  EXPECT_EQ(util::Fnv1a64(bytes.data(), bytes.size()), 0xda6a27a16f4e7024ULL);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kbqa
