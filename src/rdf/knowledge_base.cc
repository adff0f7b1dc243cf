#include "rdf/knowledge_base.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/obs.h"
#include "util/atomic_file.h"
#include "util/coding.h"
#include "util/thread_pool.h"

namespace kbqa::rdf {

namespace {

constexpr uint64_t kMagicV1 = 0x4b42514152444631ULL;  // "KBQARDF1"
constexpr uint64_t kMagicV3 = 0x4b42514152444633ULL;  // "KBQARDF3"

// Sanity cap for snapshot counts: reject sizes no plausible snapshot
// reaches before attempting a huge allocation on a corrupt file.
constexpr uint64_t kMaxCount = 1ULL << 32;

// Fixed shard count for the Freeze() counting-sort passes. A constant —
// never derived from the thread count — so the shard split, and with it
// every intermediate and final array, is bit-identical for any pool size
// (the determinism contract of DESIGN.md §5).
constexpr size_t kFreezeShards = 16;

inline bool EdgeLess(const PredicateObject& a, const PredicateObject& b) {
  return a.p != b.p ? a.p < b.p : a.o < b.o;
}

/// One CSR direction under construction.
struct Csr {
  std::vector<uint64_t> offsets;       // num_nodes + 1
  std::vector<PredicateObject> edges;  // sorted + unique per node range
};

/// Builds one CSR direction from the staged triples with a stable two-pass
/// counting sort followed by per-node sort + dedup + compaction. Every pass
/// runs over the fixed kFreezeShards split, so the output is independent of
/// the pool's thread count.
Csr BuildCsr(ThreadPool& pool, const std::vector<Triple>& triples,
             size_t num_nodes, bool by_subject) {
  const size_t n = triples.size();
  auto key = [by_subject](const Triple& t) { return by_subject ? t.s : t.o; };

  // Pass A: per-shard, per-node edge counts.
  std::vector<std::vector<uint64_t>> counts(kFreezeShards);
  pool.RunShards(kFreezeShards, [&](size_t shard) {
    ShardRange r = ShardOf(n, shard, kFreezeShards);
    counts[shard].assign(num_nodes, 0);
    for (size_t i = r.begin; i < r.end; ++i) ++counts[shard][key(triples[i])];
  });

  // Exclusive prefix sum over (node, shard) turns counts into raw write
  // cursors: shard s writes node v's edges at raw_offsets[v] + (edges of v
  // in shards < s), preserving staging order (stable scatter).
  std::vector<uint64_t> raw_offsets(num_nodes + 1, 0);
  uint64_t running = 0;
  for (size_t node = 0; node < num_nodes; ++node) {
    raw_offsets[node] = running;
    for (auto& shard_counts : counts) {
      uint64_t c = shard_counts[node];
      shard_counts[node] = running;
      running += c;
    }
  }
  raw_offsets[num_nodes] = running;

  // Pass B: scatter into the raw edge array; shards write disjoint slots.
  std::vector<PredicateObject> raw(n);
  pool.RunShards(kFreezeShards, [&](size_t shard) {
    ShardRange r = ShardOf(n, shard, kFreezeShards);
    std::vector<uint64_t>& cursor = counts[shard];
    for (size_t i = r.begin; i < r.end; ++i) {
      const Triple& t = triples[i];
      raw[cursor[key(t)]++] =
          by_subject ? PredicateObject{t.p, t.o} : PredicateObject{t.p, t.s};
    }
  });

  // Pass C: sort + dedup each node's range in place (disjoint ranges).
  std::vector<uint64_t> unique_counts(num_nodes, 0);
  pool.RunShards(kFreezeShards, [&](size_t shard) {
    ShardRange r = ShardOf(num_nodes, shard, kFreezeShards);
    for (size_t node = r.begin; node < r.end; ++node) {
      PredicateObject* b = raw.data() + raw_offsets[node];
      PredicateObject* e = raw.data() + raw_offsets[node + 1];
      std::sort(b, e, EdgeLess);
      unique_counts[node] = static_cast<uint64_t>(std::unique(b, e) - b);
    }
  });

  // Final offsets + compaction of the unique prefixes.
  Csr csr;
  csr.offsets.assign(num_nodes + 1, 0);
  uint64_t total = 0;
  for (size_t node = 0; node < num_nodes; ++node) {
    csr.offsets[node] = total;
    total += unique_counts[node];
  }
  csr.offsets[num_nodes] = total;
  csr.edges.resize(total);
  pool.RunShards(kFreezeShards, [&](size_t shard) {
    ShardRange r = ShardOf(num_nodes, shard, kFreezeShards);
    for (size_t node = r.begin; node < r.end; ++node) {
      std::copy_n(raw.data() + raw_offsets[node], unique_counts[node],
                  csr.edges.data() + csr.offsets[node]);
    }
  });
  return csr;
}

}  // namespace

KnowledgeBase::KnowledgeBase() = default;

TermId KnowledgeBase::AddNode(std::string_view term, bool literal) {
  assert(!frozen_);
  size_t before = nodes_.size();
  TermId id = nodes_.Intern(term);
  if (nodes_.size() > before) {
    is_literal_.push_back(literal);
    if (!literal) ++num_entities_;
  } else {
    // Re-interning with a different kind is a modeling error.
    assert(is_literal_[id] == literal && "node kind mismatch on re-intern");
  }
  return id;
}

TermId KnowledgeBase::AddEntity(std::string_view iri) {
  return AddNode(iri, /*literal=*/false);
}

TermId KnowledgeBase::AddLiteral(std::string_view value) {
  return AddNode(value, /*literal=*/true);
}

PredId KnowledgeBase::AddPredicate(std::string_view pred) {
  assert(!frozen_);
  return predicates_.Intern(pred);
}

void KnowledgeBase::AddTriple(TermId s, PredId p, TermId o) {
  assert(!frozen_);
  assert(s < nodes_.size() && o < nodes_.size() && p < predicates_.size());
  assert(!is_literal_[s] && "subjects must be entities");
  staging_.push_back({s, p, o});
}

void KnowledgeBase::AddTriple(std::string_view s, std::string_view p,
                              std::string_view o, bool object_is_literal) {
  TermId sid = AddEntity(s);
  PredId pid = AddPredicate(p);
  TermId oid = AddNode(o, object_is_literal);
  AddTriple(sid, pid, oid);
}

void KnowledgeBase::Freeze(int num_threads) {
  if (frozen_) return;
  KBQA_TRACE_SPAN("rdf.freeze");
  KBQA_HISTOGRAM_RECORD("rdf.freeze.staged_triples", staging_.size());
  ThreadPool pool(num_threads);
  Csr out = BuildCsr(pool, staging_, nodes_.size(), /*by_subject=*/true);
  Csr in = BuildCsr(pool, staging_, nodes_.size(), /*by_subject=*/false);
  out_offsets_ = std::move(out.offsets);
  out_edges_ = std::move(out.edges);
  in_offsets_ = std::move(in.offsets);
  in_edges_ = std::move(in.edges);
  staging_.clear();
  staging_.shrink_to_fit();
  num_triples_ = out_edges_.size();
  frozen_ = true;
  BuildNameIndex();
}

void KnowledgeBase::BuildNameIndex() {
  if (name_predicate_ == kInvalidPred) return;
  KBQA_TRACE_SPAN("rdf.build_name_index");
  for (TermId s = 0; s < nodes_.size(); ++s) {
    for (const auto& [p, o] : ObjectsRange(s, name_predicate_)) {
      (void)p;
      name_index_[o].push_back(s);
    }
  }
}

std::span<const PredicateObject> KnowledgeBase::Out(TermId s) const {
  assert(frozen_);
  if (s >= nodes_.size()) return {};
  return {out_edges_.data() + out_offsets_[s],
          static_cast<size_t>(out_offsets_[s + 1] - out_offsets_[s])};
}

std::span<const PredicateObject> KnowledgeBase::In(TermId o) const {
  assert(frozen_);
  if (o >= nodes_.size()) return {};
  return {in_edges_.data() + in_offsets_[o],
          static_cast<size_t>(in_offsets_[o + 1] - in_offsets_[o])};
}

namespace {

/// Predicate sub-range of one sorted CSR node range.
std::span<const PredicateObject> PredRange(
    std::span<const PredicateObject> adj, PredId p) {
  const auto* lo = std::lower_bound(
      adj.data(), adj.data() + adj.size(), p,
      [](const PredicateObject& e, PredId pred) { return e.p < pred; });
  const auto* end = adj.data() + adj.size();
  if (lo == end || lo->p != p) return {};
  const auto* hi = lo;
  while (hi != end && hi->p == p) ++hi;
  return {lo, static_cast<size_t>(hi - lo)};
}

}  // namespace

std::span<const PredicateObject> KnowledgeBase::ObjectsRange(TermId s,
                                                             PredId p) const {
  if (!frozen_ || s >= nodes_.size()) return {};
  return PredRange(Out(s), p);
}

std::span<const PredicateObject> KnowledgeBase::SubjectsRange(TermId o,
                                                              PredId p) const {
  if (!frozen_ || o >= nodes_.size()) return {};
  return PredRange(In(o), p);
}

std::vector<TermId> KnowledgeBase::Objects(TermId s, PredId p) const {
  std::vector<TermId> out;
  for (const auto& e : ObjectsRange(s, p)) out.push_back(e.o);
  return out;
}

bool KnowledgeBase::HasTriple(TermId s, PredId p, TermId o) const {
  std::span<const PredicateObject> adj = Out(s);
  return std::binary_search(adj.begin(), adj.end(), PredicateObject{p, o},
                            EdgeLess);
}

std::vector<PredId> KnowledgeBase::ConnectingPredicates(TermId s,
                                                        TermId o) const {
  std::vector<PredId> preds;
  for (const auto& e : Out(s)) {
    if (e.o == o) preds.push_back(e.p);
  }
  return preds;
}

std::span<const TermId> KnowledgeBase::EntitiesByName(
    std::string_view name) const {
  assert(frozen_);
  auto id = nodes_.Lookup(name);
  if (!id) return {};
  auto it = name_index_.find(*id);
  if (it == name_index_.end()) return {};
  return it->second;
}

const std::string& KnowledgeBase::EntityName(TermId e) const {
  if (name_predicate_ != kInvalidPred) {
    auto range = ObjectsRange(e, name_predicate_);
    if (!range.empty()) return nodes_.GetString(range.front().o);
  }
  return nodes_.GetString(e);
}

std::vector<TermId> KnowledgeBase::AllEntities() const {
  std::vector<TermId> out;
  out.reserve(num_entities_);
  for (TermId id = 0; id < nodes_.size(); ++id) {
    if (!is_literal_[id]) out.push_back(id);
  }
  return out;
}

namespace {

/// Validates one loaded CSR direction: monotone offsets covering the edge
/// array, ids in range, per-node ranges strictly sorted by (p, o), and —
/// since only entities may anchor edges in this direction — empty ranges
/// for literal nodes (`anchor_must_be_entity` selects out-CSR subjects /
/// in-CSR checks the edge's far end instead).
bool ValidCsr(const std::vector<uint64_t>& offsets,
              const std::vector<PredicateObject>& edges,
              const std::vector<bool>& is_literal, size_t num_preds,
              bool anchor_is_subject) {
  const size_t num_nodes = is_literal.size();
  if (offsets.size() != num_nodes + 1 || offsets[0] != 0 ||
      offsets[num_nodes] != edges.size()) {
    return false;
  }
  for (size_t node = 0; node < num_nodes; ++node) {
    if (offsets[node] > offsets[node + 1]) return false;
    if (anchor_is_subject && is_literal[node] &&
        offsets[node] != offsets[node + 1]) {
      return false;  // literal subject
    }
    for (uint64_t i = offsets[node]; i < offsets[node + 1]; ++i) {
      const PredicateObject& e = edges[i];
      if (e.p >= num_preds || e.o >= num_nodes) return false;
      // Out-CSR stores objects (any node kind); in-CSR stores subjects,
      // which must be entities.
      if (!anchor_is_subject && is_literal[e.o]) return false;
      if (i > offsets[node] && !EdgeLess(edges[i - 1], e)) return false;
    }
  }
  return true;
}

// ---- Snapshot v3: compressed sections (util/coding.h codecs) ----
//
// Layout: u64 magic "KBQARDF3", then four framed sections
// (util/atomic_file.h):
//   1. node dictionary   — varint count + front-coded strings + bit-packed
//                          is_literal flags (1 bit per node)
//   2. pred dictionary   — varint count + front-coded strings + varint
//                          name-predicate id
//   3. out CSR           — delta-varint offsets + per-node edge runs
//   4. in CSR            — same encoding
// Per-node edge runs exploit the (p, o)-sorted order: the first edge is
// (varint p, varint o); each following edge stores varint Δp, then — when
// Δp is 0 — varint Δo (objects strictly increase within a predicate),
// otherwise the absolute varint o.

void AppendDictionary(std::string* enc, const Dictionary& dict) {
  util::PutVarint64(enc, dict.size());
  std::string_view prev;
  for (size_t i = 0; i < dict.size(); ++i) {
    const std::string& s = dict.GetString(static_cast<TermId>(i));
    util::AppendFrontCoded(enc, prev, s);
    prev = s;
  }
}

bool DecodeDictionary(const uint8_t** p, const uint8_t* limit,
                      Dictionary* dict) {
  uint64_t n = 0;
  const uint8_t* q = util::GetVarint64(*p, limit, &n);
  if (q == nullptr || n > kMaxCount) return false;
  // Every front-coded entry is at least two varint bytes (shared length,
  // suffix length): a count the section cannot hold is corrupt, and must
  // fail before it sizes an allocation.
  if (n > static_cast<uint64_t>(limit - q) / 2) return false;
  dict->Reserve(n);
  std::string prev;
  std::string cur;
  for (uint64_t i = 0; i < n; ++i) {
    if (!util::DecodeFrontCoded(&q, limit, prev, &cur)) return false;
    if (dict->Intern(cur) != static_cast<TermId>(i)) return false;
    std::swap(prev, cur);
  }
  *p = q;
  return true;
}

std::string EncodeCsr(const std::vector<uint64_t>& offsets,
                      const std::vector<PredicateObject>& edges) {
  std::string enc;
  util::AppendDeltaRun64(&enc, offsets.data(), offsets.size());
  const size_t num_nodes = offsets.empty() ? 0 : offsets.size() - 1;
  for (size_t node = 0; node < num_nodes; ++node) {
    for (uint64_t i = offsets[node]; i < offsets[node + 1]; ++i) {
      const PredicateObject& e = edges[i];
      if (i == offsets[node]) {
        util::PutVarint32(&enc, e.p);
        util::PutVarint32(&enc, e.o);
        continue;
      }
      const PredicateObject& prev = edges[i - 1];
      util::PutVarint32(&enc, e.p - prev.p);
      util::PutVarint32(&enc, e.p == prev.p ? e.o - prev.o : e.o);
    }
  }
  return enc;
}

/// Decodes an EncodeCsr section into the in-memory CSR arrays. Structural
/// validation (sortedness, id ranges) is left to ValidCsr.
bool DecodeCsr(const uint8_t* p, const uint8_t* limit, size_t num_nodes,
               std::vector<uint64_t>* offsets,
               std::vector<PredicateObject>* edges) {
  offsets->clear();
  if (!util::DecodeDeltaRun64(&p, limit, offsets)) return false;
  if (offsets->size() != num_nodes + 1 || (*offsets)[0] != 0) return false;
  const uint64_t num_edges = offsets->back();
  // Every edge is at least two varint bytes; gate before reserving.
  if (num_edges > kMaxCount ||
      num_edges * 2 > static_cast<uint64_t>(limit - p)) {
    return false;
  }
  edges->clear();
  edges->reserve(num_edges);
  for (size_t node = 0; node < num_nodes; ++node) {
    const uint64_t count = (*offsets)[node + 1] - (*offsets)[node];
    PredicateObject prev{0, 0};
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t first = 0, second = 0;
      p = util::GetVarint32(p, limit, &first);
      if (p == nullptr) return false;
      p = util::GetVarint32(p, limit, &second);
      if (p == nullptr) return false;
      PredicateObject e{0, 0};
      if (i == 0) {
        e = PredicateObject{first, second};
      } else if (first == 0) {
        e = PredicateObject{prev.p, prev.o + second};
      } else {
        e = PredicateObject{prev.p + first, second};
      }
      edges->push_back(e);
      prev = e;
    }
  }
  return p == limit;  // trailing garbage is corruption too
}

}  // namespace

Status KnowledgeBase::Save(const std::string& path) const {
  if (!frozen_) return Status::FailedPrecondition("Save requires Freeze()");
  // Crash safety (DESIGN.md §10): a writer that dies mid-write — a
  // background re-freeze crashing, a full disk, the injected test failure —
  // leaves any existing good snapshot at `path` untouched.
  return util::WriteFileAtomically(path, [&](util::FileSink& w) {
    w.WriteU64(kMagicV3);

    std::string nodes_enc;
    AppendDictionary(&nodes_enc, nodes_);
    std::vector<uint32_t> kind_bits(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) kind_bits[i] = is_literal_[i];
    util::AppendBitPacked(&nodes_enc, kind_bits.data(), kind_bits.size(),
                          /*bits=*/1);
    w.WriteSection(nodes_enc);

    std::string preds_enc;
    AppendDictionary(&preds_enc, predicates_);
    util::PutVarint64(&preds_enc, name_predicate_);
    w.WriteSection(preds_enc);

    w.WriteSection(EncodeCsr(out_offsets_, out_edges_));
    w.WriteSection(EncodeCsr(in_offsets_, in_edges_));
  });
}

Result<KnowledgeBase> KnowledgeBase::Load(const std::string& path) {
  auto opened = util::FramedFileReader::Open(path);
  if (!opened.ok()) return opened.status();
  util::FramedFileReader& file = opened.value();
  if (file.magic() == kMagicV1) {
    return file.Corruption(
        "unsupported snapshot format version 1 (pre-CSR); re-export the KB "
        "and Save() it with this build");
  }
  if (file.magic() != kMagicV3) return file.Corruption("bad magic");

  KnowledgeBase kb;
  std::string enc;
  const uint8_t* p = nullptr;
  const uint8_t* limit = nullptr;
  // Reads the next section into `enc` and points [p, limit) at it.
  auto next_section = [&](std::string_view name) {
    const Status st = file.ReadSection(name, &enc);
    p = reinterpret_cast<const uint8_t*>(enc.data());
    limit = p + enc.size();
    return st;
  };

  if (Status st = next_section("node"); !st.ok()) return st;
  if (!DecodeDictionary(&p, limit, &kb.nodes_)) {
    return file.Corruption("bad node dictionary");
  }
  const size_t num_nodes = kb.nodes_.size();
  std::vector<uint32_t> kind_bits;
  if (!util::DecodeBitPacked(&p, limit, num_nodes, /*bits=*/1, &kind_bits) ||
      p != limit) {
    return file.Corruption("bad node kind flags");
  }
  kb.is_literal_.resize(num_nodes);
  kb.num_entities_ = 0;
  for (size_t i = 0; i < num_nodes; ++i) {
    kb.is_literal_[i] = kind_bits[i] != 0;
    if (kind_bits[i] == 0) ++kb.num_entities_;
  }

  if (Status st = next_section("predicate"); !st.ok()) return st;
  if (!DecodeDictionary(&p, limit, &kb.predicates_)) {
    return file.Corruption("bad predicate dictionary");
  }
  uint64_t name_pred = 0;
  p = util::GetVarint64(p, limit, &name_pred);
  if (p == nullptr || p != limit) return file.Corruption("bad name predicate");
  if (name_pred != kInvalidPred && name_pred >= kb.predicates_.size()) {
    return file.Corruption("name predicate out of range");
  }

  if (Status st = next_section("out CSR"); !st.ok()) return st;
  if (!DecodeCsr(p, limit, num_nodes, &kb.out_offsets_, &kb.out_edges_)) {
    return file.Corruption("bad out CSR block");
  }
  if (!ValidCsr(kb.out_offsets_, kb.out_edges_, kb.is_literal_,
                kb.predicates_.size(), /*anchor_is_subject=*/true)) {
    return file.Corruption("invalid out CSR");
  }

  if (Status st = next_section("in CSR"); !st.ok()) return st;
  if (!DecodeCsr(p, limit, num_nodes, &kb.in_offsets_, &kb.in_edges_)) {
    return file.Corruption("bad in CSR block");
  }
  if (!ValidCsr(kb.in_offsets_, kb.in_edges_, kb.is_literal_,
                kb.predicates_.size(), /*anchor_is_subject=*/false)) {
    return file.Corruption("invalid in CSR");
  }
  if (kb.in_edges_.size() != kb.out_edges_.size()) {
    return file.Corruption("CSR direction size mismatch");
  }
  if (file.remaining() != 0) return file.Corruption("trailing bytes");

  kb.name_predicate_ = static_cast<PredId>(name_pred);
  kb.num_triples_ = kb.out_edges_.size();
  kb.frozen_ = true;
  kb.BuildNameIndex();
  return kb;
}

}  // namespace kbqa::rdf
