#ifndef KBQA_RDF_KNOWLEDGE_BASE_H_
#define KBQA_RDF_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "util/status.h"

namespace kbqa::rdf {

/// Predicate identifier. Predicates get their own dense id space (distinct
/// from node TermIds) because the online procedure enumerates predicates —
/// its complexity is O(|P|) — and benchmarks index arrays by PredId.
using PredId = uint32_t;
inline constexpr PredId kInvalidPred = std::numeric_limits<PredId>::max();

/// One outgoing edge: predicate + object.
struct PredicateObject {
  PredId p;
  TermId o;

  friend bool operator==(const PredicateObject&, const PredicateObject&) =
      default;
};

/// A fully dictionary-encoded triple.
struct Triple {
  TermId s;
  PredId p;
  TermId o;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// In-memory RDF triple store — the substrate standing in for Trinity.RDF.
///
/// Design: dictionary-encoded nodes and predicates; adjacency in CSR
/// (compressed sparse row) form — one contiguous `PredicateObject` edge
/// array plus a `TermId -> offset` index per direction, each per-node range
/// sorted by (predicate, object) giving O(log d) predicate lookup within a
/// node of degree d; an inverse CSR for object→subject navigation; and a
/// name index (literal string → entities carrying it under the designated
/// `name` predicate) used for entity linking. The flat layout removes the
/// per-node heap allocation and pointer chase of the former
/// vector-of-vectors adjacency: `Out()` is two loads from contiguous
/// arrays.
///
/// Usage: create, declare the name predicate, add triples, then `Freeze()`.
/// Added triples are staged in insertion order; `Freeze()` builds both CSR
/// directions with a counting-sort/prefix-sum pass that is parallelized
/// over a fixed shard count, so the frozen layout is bit-identical for any
/// `num_threads`. All read APIs require the store to be frozen; mutation
/// after Freeze is a precondition violation.
class KnowledgeBase {
 public:
  KnowledgeBase();

  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;
  KnowledgeBase(KnowledgeBase&&) = default;
  KnowledgeBase& operator=(KnowledgeBase&&) = default;

  // ---- Construction ----

  /// Interns an entity (resource) node.
  TermId AddEntity(std::string_view iri);
  /// Interns a literal (value) node.
  TermId AddLiteral(std::string_view value);
  /// Interns a predicate.
  PredId AddPredicate(std::string_view pred);

  /// Adds a triple by id. Duplicate triples are deduplicated at Freeze().
  void AddTriple(TermId s, PredId p, TermId o);
  /// Convenience: adds (subject entity, predicate, object) by strings;
  /// `object_is_literal` selects the object node kind.
  void AddTriple(std::string_view s, std::string_view p, std::string_view o,
                 bool object_is_literal);

  /// Declares the predicate whose objects are entity display names. Must be
  /// set before Freeze() for the name index to be built.
  void SetNamePredicate(PredId p) { name_predicate_ = p; }

  /// Builds both CSR adjacency directions (sorted, deduplicated) and the
  /// name index. `num_threads` sizes the worker pool for the counting-sort
  /// passes; the result is bit-identical for any value. Idempotent.
  void Freeze(int num_threads = 1);
  bool frozen() const { return frozen_; }

  // ---- Reads (require frozen()) ----

  /// Outgoing edges of `s`, sorted by (predicate, object).
  std::span<const PredicateObject> Out(TermId s) const;
  /// Incoming edges of `o` as (predicate, subject), sorted.
  std::span<const PredicateObject> In(TermId o) const;

  /// V(e, p) — all objects v with (e, p, v) in K.
  std::span<const PredicateObject> ObjectsRange(TermId s, PredId p) const;
  std::vector<TermId> Objects(TermId s, PredId p) const;

  /// Inverse of ObjectsRange: all subjects s with (s, p, o) in K, as
  /// (predicate, subject) entries of the in-CSR.
  std::span<const PredicateObject> SubjectsRange(TermId o, PredId p) const;

  /// True when (s, p, o) ∈ K.
  bool HasTriple(TermId s, PredId p, TermId o) const;

  /// All direct predicates p with (s, p, o) ∈ K.
  std::vector<PredId> ConnectingPredicates(TermId s, TermId o) const;

  /// Entities whose `name` literal equals `name` exactly (case-sensitive;
  /// callers normalize). Empty when unknown.
  std::span<const TermId> EntitiesByName(std::string_view name) const;

  /// Display name of entity `e`: first object under the name predicate, or
  /// the node's IRI string when it has no name.
  const std::string& EntityName(TermId e) const;

  // ---- Dictionaries & catalogs ----

  std::optional<TermId> LookupNode(std::string_view term) const {
    return nodes_.Lookup(term);
  }
  std::optional<PredId> LookupPredicate(std::string_view pred) const {
    return predicates_.Lookup(pred);
  }
  const std::string& NodeString(TermId id) const { return nodes_.GetString(id); }
  const std::string& PredicateString(PredId id) const {
    return predicates_.GetString(id);
  }

  bool IsLiteral(TermId id) const { return is_literal_[id]; }
  bool IsEntity(TermId id) const { return !is_literal_[id]; }
  PredId name_predicate() const { return name_predicate_; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_predicates() const { return predicates_.size(); }
  size_t num_triples() const { return num_triples_; }
  size_t num_entities() const { return num_entities_; }

  /// Out-degree of `s` — the paper ranks entities by #(s, p, o) with e = s
  /// when sampling for valid(k).
  size_t OutDegree(TermId s) const { return Out(s).size(); }

  /// All entity ids (dense scan helper for benchmarks).
  std::vector<TermId> AllEntities() const;

  // ---- Serialization ----

  /// Writes the frozen store to a binary snapshot (format version 3):
  /// front-coded dictionaries, bit-packed node kinds, delta-varint CSR
  /// offsets and per-node delta-coded edge runs, each section framed with
  /// a byte length and FNV-1a checksum so truncation or bit flips surface
  /// as a clean Corruption at load.
  /// Crash-safe (util::WriteFileAtomically): a Save that dies mid-write
  /// can never clobber an existing good snapshot.
  [[nodiscard]] Status Save(const std::string& path) const;
  /// Reads a snapshot previously written by Save. Only the dictionary hash
  /// index and the name index are rebuilt. Any other format version, bad
  /// checksum, or structural mismatch yields a clean Corruption status.
  [[nodiscard]] static Result<KnowledgeBase> Load(const std::string& path);

 private:
  TermId AddNode(std::string_view term, bool literal);
  /// Builds name_index_ from the frozen out-CSR.
  void BuildNameIndex();

  Dictionary nodes_;
  Dictionary predicates_;
  std::vector<bool> is_literal_;
  size_t num_entities_ = 0;
  size_t num_triples_ = 0;

  // Pre-freeze staging area, in AddTriple order. Cleared by Freeze().
  std::vector<Triple> staging_;

  // CSR adjacency (valid once frozen): node id -> [offsets_[id],
  // offsets_[id+1]) into the edge array. Sorted + deduplicated per node.
  std::vector<uint64_t> out_offsets_;
  std::vector<PredicateObject> out_edges_;
  std::vector<uint64_t> in_offsets_;
  std::vector<PredicateObject> in_edges_;

  PredId name_predicate_ = kInvalidPred;
  // Literal name TermId -> entities carrying that name.
  std::unordered_map<TermId, std::vector<TermId>> name_index_;

  bool frozen_ = false;
};

}  // namespace kbqa::rdf

#endif  // KBQA_RDF_KNOWLEDGE_BASE_H_
