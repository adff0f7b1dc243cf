#ifndef KBQA_RDF_COMPRESSED_EXPANDED_H_
#define KBQA_RDF_COMPRESSED_EXPANDED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "util/atomic_file.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace kbqa::rdf {

/// Block-compressed, optionally disk-paged representation of an
/// ExpandedKb's edge arrays — the memory wall of the reproduction (§6.2's
/// materialization expands a 550K-triple world to 4.4M triples).
///
/// Layout: subjects ascending; each subject's sorted-unique (path, object)
/// run is delta-varint encoded (same scheme as the KB snapshot v3 CSR) and
/// whole-subject runs are packed into blocks of ~`target_block_edges`
/// edges. A per-block index {subject span, encoded bytes, edge count,
/// FNV-1a checksum} plus a global sorted subject array stay resident;
/// block payloads either stay resident too (`blocks_resident`, the
/// in-memory compressed mode) or page from the snapshot file on demand
/// via pread. Reads decode through a byte-budgeted ShardedLruCache of
/// decoded blocks, so cold-block residency is capped independently of the
/// compressed size.
///
/// Correctness contract: for every materialized subject, `TryObjects` /
/// `CopyOut` return exactly the bytes the uncompressed ExpandedKb holds —
/// the engine's answers are bit-identical at any cache budget (asserted by
/// tests and bench_memory_budget at every swept budget point).
///
/// Thread safety: all read APIs are safe to call concurrently; the decoded
/// -block cache is internally synchronized and pread carries its own file
/// offset. Open-time validation walks every block checksum, so truncation
/// or bit flips surface as a clean Corruption before any query runs; a
/// decode failure after Open (the file was modified underneath a paged
/// instance) is counted in `memory_stats().corrupt_blocks` and treated as
/// an absent subject rather than undefined behavior.
class CompressedExpandedKb {
 public:
  struct Options {
    /// Edge-count target per block; a block closes at the next subject
    /// boundary after reaching it.
    size_t target_block_edges = 4096;
    /// Byte budget for the decoded-block cache. 0 = unbounded (every block
    /// decoded at most once and kept).
    uint64_t decoded_cache_budget_bytes = 0;
    /// True: encoded blocks stay in memory (compressed-resident mode).
    /// False (Open only): blocks page from the snapshot file on demand.
    bool blocks_resident = true;
  };

  struct MemoryStats {
    uint64_t compressed_bytes = 0;  // encoded payloads (resident or on disk)
    uint64_t index_bytes = 0;       // block index + subject array
    uint64_t paths_bytes = 0;       // path dictionary estimate
    uint64_t decoded_cache_bytes = 0;
    uint64_t decoded_cache_budget_bytes = 0;
    uint64_t raw_equivalent_bytes = 0;  // ExpandedKb::ApproxResidentBytes()
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t corrupt_blocks = 0;
    bool blocks_resident = true;

    /// Bytes actually held in memory by this instance right now.
    uint64_t ResidentBytes() const {
      return (blocks_resident ? compressed_bytes : 0) + index_bytes +
             paths_bytes + decoded_cache_bytes;
    }
  };

  CompressedExpandedKb(const CompressedExpandedKb&) = delete;
  CompressedExpandedKb& operator=(const CompressedExpandedKb&) = delete;
  CompressedExpandedKb(CompressedExpandedKb&&) = default;
  CompressedExpandedKb& operator=(CompressedExpandedKb&&) = default;
  ~CompressedExpandedKb() = default;

  /// Compresses a materialized ExpandedKb. Always blocks_resident (there
  /// is no file to page from yet).
  [[nodiscard]] static Result<CompressedExpandedKb> FromExpanded(
      const ExpandedKb& ekb, const Options& options);

  /// Writes the snapshot: magic "KBQAEXP3", a checksummed metadata section
  /// (counts, path dictionary, subject array, block index), then the raw
  /// block payloads. Crash-safe (util::WriteFileAtomically).
  [[nodiscard]] Status Save(const std::string& path) const;

  /// Loads a snapshot written by Save. Honors `options.blocks_resident`:
  /// false keeps only index + dictionary resident and pages block payloads
  /// with pread. Every block checksum is verified up front either way.
  [[nodiscard]] static Result<CompressedExpandedKb> Open(
      const std::string& path, const Options& options);

  /// True when `s` has materialized edges. O(log n), never decodes.
  bool Contains(TermId s) const;

  /// Copies V(s, path) — sorted unique — into `*out` (cleared first).
  /// Returns false leaving `*out` empty when `s` is not materialized (the
  /// caller falls back to the online base-KB walk).
  bool TryObjects(TermId s, PathId path, std::vector<TermId>* out) const;

  std::vector<TermId> Objects(TermId s, PathId path) const;

  /// Copies the full (path, object) run of `s` (sorted by path, object)
  /// into `*out`. Returns false when `s` is not materialized.
  bool CopyOut(TermId s, std::vector<std::pair<PathId, TermId>>* out) const;

  /// Enumerates every triple in ascending (s, path, o) order.
  void ForEachTriple(
      const std::function<void(const ExpandedTriple&)>& fn) const;

  const PathDictionary& paths() const { return paths_; }
  size_t num_triples() const { return num_triples_; }
  size_t num_subjects() const { return subjects_.size(); }
  size_t num_blocks() const { return index_.size(); }

  MemoryStats memory_stats() const;

 private:
  struct BlockInfo {
    uint32_t first_slot = 0;     // index into subjects_ of first subject
    uint32_t num_subjects = 0;
    uint32_t num_edges = 0;
    uint64_t offset = 0;         // into the payload region
    uint32_t encoded_bytes = 0;
    uint64_t checksum = 0;       // FNV-1a of the encoded payload
  };

  /// A decoded block: the subject runs come from the global subject array
  /// (subjects_[first_slot + i]), so only run boundaries and edges are
  /// stored. Cached behind shared_ptr so Get copies a pointer, and a
  /// concurrent eviction cannot free a block mid-read.
  struct DecodedBlock {
    std::vector<uint32_t> run_begin;  // num_subjects + 1 edge offsets
    std::vector<std::pair<PathId, TermId>> edges;

    uint64_t ApproxBytes() const {
      return sizeof(DecodedBlock) + run_begin.capacity() * sizeof(uint32_t) +
             edges.capacity() * sizeof(std::pair<PathId, TermId>);
    }
  };
  using BlockCache =
      ShardedLruCache<uint32_t, std::shared_ptr<const DecodedBlock>>;

  /// Heap-boxed so the enclosing class stays movable (std::atomic is not).
  /// Hits and misses live in the block cache's own books.
  struct Counters {
    std::atomic<uint64_t> corrupt_blocks{0};
  };

  CompressedExpandedKb() = default;

  /// Fetches block `block_id` through the decoded-block cache, decoding
  /// from the resident payload blob or via pread. Null on decode failure
  /// (post-Open corruption).
  std::shared_ptr<const DecodedBlock> FetchBlock(uint32_t block_id) const;
  /// Decodes one encoded payload. Null on malformed input.
  std::shared_ptr<const DecodedBlock> DecodePayload(
      const BlockInfo& info, const uint8_t* data, size_t size) const;

  PathDictionary paths_;
  std::vector<TermId> subjects_;        // ascending, all materialized s
  std::vector<BlockInfo> index_;        // ascending first_slot
  std::string payload_;                 // all encoded blocks (resident mode)
  size_t num_triples_ = 0;
  uint64_t raw_equivalent_bytes_ = 0;
  Options options_;

  std::optional<util::FramedFileReader> file_;  // paged mode: the snapshot
  uint64_t payload_offset_ = 0;  // paged mode: file offset of block region

  std::unique_ptr<BlockCache> cache_;  // unique_ptr keeps the class movable
  std::unique_ptr<Counters> counters_;
};

}  // namespace kbqa::rdf

#endif  // KBQA_RDF_COMPRESSED_EXPANDED_H_
