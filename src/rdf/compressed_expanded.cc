#include "rdf/compressed_expanded.h"

#include <algorithm>
#include <span>

#include "obs/wide_event.h"
#include "util/atomic_file.h"
#include "util/coding.h"

namespace kbqa::rdf {

namespace {

constexpr uint64_t kMagicExp3 = 0x4b42514145585033ULL;  // "KBQAEXP3"

// Sanity cap mirroring the KB snapshot reader: reject counts no plausible
// snapshot reaches before sizing any buffer from them.
constexpr uint64_t kMaxCount = 1ULL << 32;

/// Encodes one subject's sorted-unique (path, object) run: varint length,
/// first pair as (varint path, varint object), then per pair varint Δpath
/// and — when Δpath is 0 — varint Δobject (strictly increasing), otherwise
/// the absolute varint object. The KB snapshot v3 CSR uses the same shape.
void AppendRun(std::string* enc,
               std::span<const std::pair<PathId, TermId>> run) {
  util::PutVarint64(enc, run.size());
  for (size_t i = 0; i < run.size(); ++i) {
    const auto [path, o] = run[i];
    if (i == 0) {
      util::PutVarint32(enc, path);
      util::PutVarint32(enc, o);
      continue;
    }
    const auto [prev_path, prev_o] = run[i - 1];
    util::PutVarint32(enc, path - prev_path);
    util::PutVarint32(enc, path == prev_path ? o - prev_o : o);
  }
}

}  // namespace

Result<CompressedExpandedKb> CompressedExpandedKb::FromExpanded(
    const ExpandedKb& ekb, const Options& options) {
  CompressedExpandedKb c;
  c.options_ = options;
  c.options_.blocks_resident = true;  // nothing on disk to page from
  c.subjects_ = ekb.Subjects();
  c.num_triples_ = ekb.num_triples();
  c.raw_equivalent_bytes_ = ekb.ApproxResidentBytes();

  // Rebuild the path dictionary id-for-id. InternExtension assigns parent
  // prefixes smaller ids than their extensions, so re-interning in id
  // order reproduces the numbering exactly (checked as we go).
  for (size_t i = 0; i < ekb.paths().size(); ++i) {
    if (c.paths_.Intern(ekb.paths().GetPath(static_cast<PathId>(i))) !=
        static_cast<PathId>(i)) {
      return Status::Internal("path dictionary ids are not prefix-closed");
    }
  }

  const size_t target =
      options.target_block_edges == 0 ? 4096 : options.target_block_edges;
  BlockInfo block;
  std::string block_enc;
  auto close_block = [&c, &block, &block_enc] {
    if (block.num_subjects == 0) return;
    block.offset = c.payload_.size();
    block.encoded_bytes = static_cast<uint32_t>(block_enc.size());
    block.checksum = util::Fnv1a64(block_enc.data(), block_enc.size());
    c.payload_ += block_enc;
    c.index_.push_back(block);
    const uint32_t next_slot = block.first_slot + block.num_subjects;
    block = BlockInfo{};
    block.first_slot = next_slot;
    block_enc.clear();
  };
  for (uint32_t slot = 0; slot < c.subjects_.size(); ++slot) {
    const auto run = ekb.Out(c.subjects_[slot]);
    AppendRun(&block_enc, run);
    ++block.num_subjects;
    block.num_edges += static_cast<uint32_t>(run.size());
    if (block.num_edges >= target) close_block();
  }
  close_block();

  c.payload_.shrink_to_fit();
  c.cache_ = std::make_unique<BlockCache>(options.decoded_cache_budget_bytes);
  c.counters_ = std::make_unique<Counters>();
  return c;
}

// ---- Snapshot I/O ----
//
// Layout (util/atomic_file.h framing): u64 magic "KBQAEXP3"; one
// metadata section holding varint num_triples,
// raw_equivalent_bytes, path dictionary (count, then per path: length +
// predicate ids), the delta-coded subject array, and the block index
// (per block: varint num_subjects, num_edges, encoded_bytes, then the
// fixed-width checksum); then the raw tail: the concatenated block
// payloads, each independently checksummed via the index.

Status CompressedExpandedKb::Save(const std::string& path) const {
  if (!options_.blocks_resident) {
    return Status::FailedPrecondition(
        "Save requires a blocks-resident instance");
  }
  std::string meta;
  util::PutVarint64(&meta, num_triples_);
  util::PutVarint64(&meta, raw_equivalent_bytes_);
  util::PutVarint64(&meta, paths_.size());
  for (size_t i = 0; i < paths_.size(); ++i) {
    const PredPath& p = paths_.GetPath(static_cast<PathId>(i));
    util::PutVarint64(&meta, p.size());
    for (PredId pred : p) util::PutVarint32(&meta, pred);
  }
  util::AppendDeltaRun32(&meta, subjects_.data(), subjects_.size());
  util::PutVarint64(&meta, index_.size());
  for (const BlockInfo& b : index_) {
    util::PutVarint32(&meta, b.num_subjects);
    util::PutVarint32(&meta, b.num_edges);
    util::PutVarint32(&meta, b.encoded_bytes);
    util::PutFixed64(&meta, b.checksum);
  }

  return util::WriteFileAtomically(path, [&](util::FileSink& w) {
    w.WriteU64(kMagicExp3);
    w.WriteSection(meta);
    w.Write(payload_);
  });
}

Result<CompressedExpandedKb> CompressedExpandedKb::Open(
    const std::string& path, const Options& options) {
  auto opened = util::FramedFileReader::Open(path);
  if (!opened.ok()) return opened.status();
  util::FramedFileReader& file = opened.value();
  auto fail = [&file](std::string_view what) -> Result<CompressedExpandedKb> {
    return file.Corruption(what);
  };
  if (file.magic() != kMagicExp3) return fail("bad magic");
  std::string meta;
  if (Status st = file.ReadSection("metadata", &meta); !st.ok()) return st;
  CompressedExpandedKb c;
  c.options_ = options;
  c.payload_offset_ = file.offset();

  const uint8_t* p = reinterpret_cast<const uint8_t*>(meta.data());
  const uint8_t* limit = p + meta.size();
  uint64_t num_triples = 0, raw_bytes = 0, num_paths = 0;
  if ((p = util::GetVarint64(p, limit, &num_triples)) == nullptr ||
      (p = util::GetVarint64(p, limit, &raw_bytes)) == nullptr ||
      (p = util::GetVarint64(p, limit, &num_paths)) == nullptr ||
      num_triples > kMaxCount || num_paths > kMaxCount) {
    return fail("bad metadata header");
  }
  c.num_triples_ = num_triples;
  c.raw_equivalent_bytes_ = raw_bytes;
  PredPath pred_path;
  for (uint64_t i = 0; i < num_paths; ++i) {
    uint64_t len = 0;
    if ((p = util::GetVarint64(p, limit, &len)) == nullptr ||
        len > static_cast<uint64_t>(limit - p)) {
      return fail("bad path entry");
    }
    pred_path.clear();
    pred_path.reserve(len);
    for (uint64_t j = 0; j < len; ++j) {
      uint32_t pred = 0;
      if ((p = util::GetVarint32(p, limit, &pred)) == nullptr) {
        return fail("bad path entry");
      }
      pred_path.push_back(pred);
    }
    if (c.paths_.Intern(pred_path) != static_cast<PathId>(i)) {
      return fail("path dictionary not prefix-closed");
    }
  }
  if (!util::DecodeDeltaRun32(&p, limit, &c.subjects_)) {
    return fail("bad subject array");
  }
  for (size_t i = 1; i < c.subjects_.size(); ++i) {
    if (c.subjects_[i] <= c.subjects_[i - 1]) {
      return fail("subject array not strictly increasing");
    }
  }
  uint64_t num_blocks = 0;
  if ((p = util::GetVarint64(p, limit, &num_blocks)) == nullptr ||
      num_blocks > kMaxCount) {
    return fail("bad block count");
  }
  // Each index entry takes at least 11 encoded bytes (three varints plus a
  // fixed64 checksum); gate the reserve against the bytes actually present
  // so a corrupt count fails as Corruption instead of allocating ~32 bytes
  // per phantom block.
  if (num_blocks > static_cast<uint64_t>(limit - p) / 11) {
    return fail("bad block count");
  }
  c.index_.reserve(num_blocks);
  uint64_t slot = 0, edges = 0, offset = 0;
  for (uint64_t i = 0; i < num_blocks; ++i) {
    BlockInfo b;
    if ((p = util::GetVarint32(p, limit, &b.num_subjects)) == nullptr ||
        (p = util::GetVarint32(p, limit, &b.num_edges)) == nullptr ||
        (p = util::GetVarint32(p, limit, &b.encoded_bytes)) == nullptr ||
        (p = util::GetFixed64(p, limit, &b.checksum)) == nullptr) {
      return fail("bad block index entry");
    }
    if (b.num_subjects == 0) return fail("empty block in index");
    // Every encoded edge takes at least two bytes (two varints), and each
    // subject run carries a varint length header, so a valid block can
    // never claim more logical items than encoded bytes. DecodePayload
    // sizes its buffers from these counts; reject the lie before it does.
    if (b.num_edges > b.encoded_bytes ||
        b.num_subjects > b.encoded_bytes) {
      return fail("block item count exceeds encoded bytes");
    }
    b.first_slot = static_cast<uint32_t>(slot);
    b.offset = offset;
    slot += b.num_subjects;
    edges += b.num_edges;
    offset += b.encoded_bytes;
    c.index_.push_back(b);
  }
  if (p != limit) return fail("trailing metadata bytes");
  if (slot != c.subjects_.size()) {
    return fail("block index subject count mismatch");
  }
  if (edges != c.num_triples_) return fail("block index edge count mismatch");
  if (offset != file.remaining()) return fail("payload size mismatch");

  // Verify every block checksum up front so corruption surfaces at Open,
  // not as a degraded answer later. Resident mode keeps the bytes.
  if (options.blocks_resident) {
    c.payload_.resize(offset);
    if (!file.ReadAt(c.payload_offset_, c.payload_.data(),
                     c.payload_.size())) {
      return fail("truncated payload");
    }
    for (const BlockInfo& b : c.index_) {
      if (util::Fnv1a64(c.payload_.data() + b.offset, b.encoded_bytes) !=
          b.checksum) {
        return fail("block checksum mismatch");
      }
    }
  } else {
    std::string buf;
    for (const BlockInfo& b : c.index_) {
      buf.resize(b.encoded_bytes);
      if (!file.ReadAt(c.payload_offset_ + b.offset, buf.data(),
                       buf.size())) {
        return fail("truncated payload");
      }
      if (util::Fnv1a64(buf.data(), buf.size()) != b.checksum) {
        return fail("block checksum mismatch");
      }
    }
  }
  // Paged mode keeps the file open to page blocks from; resident mode
  // closes it here.
  if (!options.blocks_resident) c.file_ = std::move(file);

  c.cache_ = std::make_unique<BlockCache>(options.decoded_cache_budget_bytes);
  c.counters_ = std::make_unique<Counters>();
  return c;
}

// ---- Reads ----

bool CompressedExpandedKb::Contains(TermId s) const {
  return std::binary_search(subjects_.begin(), subjects_.end(), s);
}

std::shared_ptr<const CompressedExpandedKb::DecodedBlock>
CompressedExpandedKb::DecodePayload(const BlockInfo& info, const uint8_t* data,
                                    size_t size) const {
  auto block = std::make_shared<DecodedBlock>();
  block->run_begin.reserve(info.num_subjects + 1);
  block->edges.reserve(info.num_edges);
  const uint8_t* p = data;
  const uint8_t* limit = data + size;
  for (uint32_t i = 0; i < info.num_subjects; ++i) {
    block->run_begin.push_back(static_cast<uint32_t>(block->edges.size()));
    uint64_t run_len = 0;
    if ((p = util::GetVarint64(p, limit, &run_len)) == nullptr ||
        run_len > info.num_edges) {
      return nullptr;
    }
    std::pair<PathId, TermId> prev{0, 0};
    for (uint64_t j = 0; j < run_len; ++j) {
      uint32_t first = 0, second = 0;
      if ((p = util::GetVarint32(p, limit, &first)) == nullptr ||
          (p = util::GetVarint32(p, limit, &second)) == nullptr) {
        return nullptr;
      }
      std::pair<PathId, TermId> e;
      if (j == 0) {
        e = {first, second};
      } else if (first == 0) {
        e = {prev.first, prev.second + second};
      } else {
        e = {prev.first + first, second};
      }
      block->edges.push_back(e);
      prev = e;
    }
  }
  block->run_begin.push_back(static_cast<uint32_t>(block->edges.size()));
  if (p != limit || block->edges.size() != info.num_edges) return nullptr;
  return block;
}

std::shared_ptr<const CompressedExpandedKb::DecodedBlock>
CompressedExpandedKb::FetchBlock(uint32_t block_id) const {
  // Too deep for a parameter to reach: the sampled request (if any) is
  // found via the thread-local binding the engine installed (DESIGN.md §8)
  // so its wide event carries this tier's hit/miss/decode traffic.
  obs::RequestContext* const ctx = obs::CurrentRequestContext();
  std::shared_ptr<const DecodedBlock> block;
  if (cache_->Get(block_id, &block)) {
    if (ctx != nullptr) ++ctx->block_cache_hits;
    return block;
  }
  if (ctx != nullptr) ++ctx->block_cache_misses;
  const BlockInfo& info = index_[block_id];
  if (options_.blocks_resident) {
    block = DecodePayload(
        info, reinterpret_cast<const uint8_t*>(payload_.data()) + info.offset,
        info.encoded_bytes);
  } else {
    std::string buf(info.encoded_bytes, '\0');
    if (file_->ReadAt(payload_offset_ + info.offset, buf.data(),
                      buf.size()) &&
        util::Fnv1a64(buf.data(), buf.size()) == info.checksum) {
      block = DecodePayload(info,
                            reinterpret_cast<const uint8_t*>(buf.data()),
                            buf.size());
    }
  }
  if (block == nullptr) {
    // Only reachable when the file changed underneath a paged instance
    // (Open verified every checksum). Degrade to "absent" and count it.
    counters_->corrupt_blocks.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (ctx != nullptr) ++ctx->blocks_decoded;
  cache_->Insert(block_id, block, block->ApproxBytes());
  return block;
}

bool CompressedExpandedKb::CopyOut(
    TermId s, std::vector<std::pair<PathId, TermId>>* out) const {
  out->clear();
  const auto it = std::lower_bound(subjects_.begin(), subjects_.end(), s);
  if (it == subjects_.end() || *it != s) return false;
  const uint32_t slot = static_cast<uint32_t>(it - subjects_.begin());
  // Last block whose first_slot <= slot.
  const auto bit = std::upper_bound(
      index_.begin(), index_.end(), slot,
      [](uint32_t value, const BlockInfo& b) { return value < b.first_slot; });
  const uint32_t block_id = static_cast<uint32_t>(bit - index_.begin()) - 1;
  const auto block = FetchBlock(block_id);
  if (block == nullptr) return false;
  const uint32_t local = slot - index_[block_id].first_slot;
  out->assign(block->edges.begin() + block->run_begin[local],
              block->edges.begin() + block->run_begin[local + 1]);
  return true;
}

bool CompressedExpandedKb::TryObjects(TermId s, PathId path,
                                      std::vector<TermId>* out) const {
  out->clear();
  const auto it = std::lower_bound(subjects_.begin(), subjects_.end(), s);
  if (it == subjects_.end() || *it != s) return false;
  const uint32_t slot = static_cast<uint32_t>(it - subjects_.begin());
  const auto bit = std::upper_bound(
      index_.begin(), index_.end(), slot,
      [](uint32_t value, const BlockInfo& b) { return value < b.first_slot; });
  const uint32_t block_id = static_cast<uint32_t>(bit - index_.begin()) - 1;
  const auto block = FetchBlock(block_id);
  if (block == nullptr) return false;
  const uint32_t local = slot - index_[block_id].first_slot;
  const auto begin = block->edges.begin() + block->run_begin[local];
  const auto end = block->edges.begin() + block->run_begin[local + 1];
  // The run is sorted by (path, object): binary search the path range.
  auto lo = std::lower_bound(
      begin, end, path,
      [](const std::pair<PathId, TermId>& e, PathId v) { return e.first < v; });
  for (; lo != end && lo->first == path; ++lo) out->push_back(lo->second);
  return true;
}

std::vector<TermId> CompressedExpandedKb::Objects(TermId s,
                                                  PathId path) const {
  std::vector<TermId> out;
  (void)TryObjects(s, path, &out);
  return out;
}

void CompressedExpandedKb::ForEachTriple(
    const std::function<void(const ExpandedTriple&)>& fn) const {
  for (uint32_t block_id = 0; block_id < index_.size(); ++block_id) {
    const auto block = FetchBlock(block_id);
    if (block == nullptr) continue;
    const BlockInfo& info = index_[block_id];
    for (uint32_t local = 0; local < info.num_subjects; ++local) {
      const TermId s = subjects_[info.first_slot + local];
      for (uint32_t i = block->run_begin[local];
           i < block->run_begin[local + 1]; ++i) {
        fn(ExpandedTriple{s, block->edges[i].first, block->edges[i].second});
      }
    }
  }
}

CompressedExpandedKb::MemoryStats CompressedExpandedKb::memory_stats() const {
  MemoryStats stats;
  stats.compressed_bytes = options_.blocks_resident
                               ? payload_.size()
                               : (index_.empty()
                                      ? 0
                                      : index_.back().offset +
                                            index_.back().encoded_bytes);
  stats.index_bytes = index_.capacity() * sizeof(BlockInfo) +
                      subjects_.capacity() * sizeof(TermId);
  uint64_t paths_bytes = 0;
  for (size_t i = 0; i < paths_.size(); ++i) {
    paths_bytes += sizeof(PredPath) +
                   paths_.GetPath(static_cast<PathId>(i)).capacity() *
                       sizeof(PredId);
  }
  stats.paths_bytes = paths_bytes;
  const CacheStats cache_stats = cache_->GetStats();
  stats.decoded_cache_bytes = cache_stats.bytes;
  stats.decoded_cache_budget_bytes = options_.decoded_cache_budget_bytes;
  stats.hits = cache_stats.hits;
  stats.misses = cache_stats.misses;
  stats.evictions = cache_stats.evictions;
  stats.raw_equivalent_bytes = raw_equivalent_bytes_;
  stats.corrupt_blocks =
      counters_->corrupt_blocks.load(std::memory_order_relaxed);
  stats.blocks_resident = options_.blocks_resident;
  return stats;
}

}  // namespace kbqa::rdf
