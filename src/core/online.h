#ifndef KBQA_CORE_ONLINE_H_
#define KBQA_CORE_ONLINE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/template_store.h"
#include "nlp/ner.h"
#include "obs/wide_event.h"
#include "rdf/compressed_expanded.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "rdf/mutable_kb.h"
#include "taxonomy/taxonomy.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace kbqa::core {

/// Accounting for the per-instance V(e, p+) memo cache: the cache's own
/// books (see kbqa::CacheStats). With the cache disabled every field stays
/// zero.
using ValueCacheStats = CacheStats;

/// Per-request controls for one Answer call. Default-constructed options
/// reproduce the unconstrained behavior exactly.
struct AnswerOptions {
  /// When set, the answer pipeline checks the deadline at stage boundaries
  /// (after NER, per template candidate, per predicate lookup) and stops
  /// enumerating once it has passed: the question degrades to a partial or
  /// empty answer whose `status` is kDeadlineExceeded instead of stalling
  /// a serving thread. Unset means no latency bound (no clock reads).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Request-scoped telemetry context (DESIGN.md §8), owned by the serving
  /// layer and stamped by the pipeline: disjoint per-stage durations via
  /// the chained stage clock, plus per-tier cache hit/miss counts. The
  /// pointed-to context must outlive the call; null (the default) means
  /// "not sampled" and costs one branch per stage boundary.
  obs::RequestContext* request_context = nullptr;
};

/// Value-cache key: the (entity, path) pair tagged with the KB version it
/// was computed against. A frozen KB is always version 0; in live mode
/// every Apply/merge bumps the version, so entries computed against an
/// older world can never be returned for a newer one (the stale-answer
/// hazard of DESIGN.md §10). Stale-version entries age out by LRU.
struct ValueCacheKey {
  uint64_t version = 0;
  uint64_t entity_path = 0;  // entity in the high 32 bits, path in the low

  friend bool operator==(const ValueCacheKey&, const ValueCacheKey&) =
      default;
};

}  // namespace kbqa::core

template <>
struct std::hash<kbqa::core::ValueCacheKey> {
  size_t operator()(const kbqa::core::ValueCacheKey& key) const noexcept {
    uint64_t h = key.version * 0x9e3779b97f4a7c15ULL ^ key.entity_path;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

namespace kbqa::core {

/// One scored value in the online posterior.
struct AnswerCandidate {
  rdf::TermId value = rdf::kInvalidTerm;
  double score = 0;
  /// Strongest (entity, template, predicate) support for this value.
  TemplateId best_template = kInvalidTemplate;
  rdf::PathId best_path = rdf::kInvalidPath;
  rdf::TermId best_entity = rdf::kInvalidTerm;
};

/// The outcome of answering one question.
struct AnswerResult {
  /// True when a predicate was found — the paper's #pro counts these.
  bool answered = false;
  /// Ok, or kDeadlineExceeded when AnswerOptions::deadline cut candidate
  /// enumeration short (the ranked posterior then covers only the
  /// candidates scored before the deadline — possibly none).
  Status status;
  /// Surface string of the winning value.
  std::string value;
  double score = 0;
  /// Human-readable winning predicate path (e.g. "marriage -> person ->
  /// name").
  std::string predicate;
  /// The structured query the question was mapped to (the paper's core
  /// framing: natural language -> structured query over the KB). Empty
  /// when unanswered. Executable via rdf::ParseQuery + rdf::ExecuteQuery.
  std::string sparql;
  /// Full ranked posterior (for P@1-style metrics and debugging).
  std::vector<AnswerCandidate> ranked;
  /// The complete answer set of the winning (entity, predicate) pair —
  /// multi-valued facts ("who is in coldplay?") return every member here
  /// while `value` carries the posterior argmax.
  std::vector<std::string> values;

  // Per-stage candidate counts (Table 6: the uncertainty at each random
  // variable of the probabilistic pipeline).
  size_t num_entities = 0;      // P(e|q) support
  size_t num_templates = 0;     // P(t|e,q) support, summed over entities
  size_t num_predicates = 0;    // P(p|t) support, summed over templates
  size_t num_values = 0;        // P(v|e,p) support, summed over predicates
  /// Predicates (among num_predicates) that produced at least one value on
  /// the entity — the denominator for the Table 6 "values per
  /// entity-predicate pair" average.
  size_t num_grounded_predicates = 0;
};

/// The online procedure (§3.3): computes
///   P(v|q) = Σ_{e,t,p} P(e|q) P(t|e,q) P(p|t) P(v|e,p)
/// and returns argmax_v. Complexity O(|P|) — entity/category/value
/// fan-outs are bounded constants; only the predicate enumeration scales.
///
/// Thread safety: all answering methods are const and safe to call
/// concurrently. The only mutable state is the V(e, p+) value cache, a
/// per-instance memory-budgeted sharded LRU (see util/lru_cache.h) —
/// lookups copy values out under a per-shard mutex, so evictions never
/// invalidate anything a caller holds.
class OnlineInference {
 public:
  struct Options {
    size_t max_categories_per_entity = 3;
    double min_category_prob = 0.02;
    /// Predicates with P(p|t) below this are skipped (noise floor).
    double min_predicate_prob = 1e-3;
    /// Minimum posterior score to consider the question answered.
    double min_answer_score = 1e-6;
    /// Memoize (entity, path) -> values lookups across questions. Results
    /// are identical either way (the KB is immutable); disabling exists
    /// for regression tests and cache-benefit measurements.
    bool enable_value_cache = true;
    /// Upper bound on the value cache's byte accounting (key + payload per
    /// entry). 0 = unbounded (the pre-budget behavior, for benchmarks and
    /// short-lived processes); any other value keeps a long-running
    /// serving process's cache footprint bounded via LRU eviction.
    uint64_t value_cache_budget_bytes = 0;
    /// Memoize whole-question AnswerResults across AnswerAll batches:
    /// repeat questions (head-heavy serving traffic) skip the pipeline
    /// entirely. Off by default — single-shot Answer callers and benchmarks
    /// measuring the pipeline want every question computed.
    bool enable_answer_cache = false;
    /// Byte budget for the answer memo cache (question + result payload per
    /// entry), same semantics as value_cache_budget_bytes: 0 = unbounded,
    /// anything else bounds the footprint via per-shard LRU eviction.
    uint64_t answer_cache_budget_bytes = 0;
  };

  /// All references must outlive the inference engine. `cekb` (optional)
  /// is the block-compressed expanded-KB substrate: when non-null and it
  /// materializes the queried (entity, path), value-cache misses decode
  /// from it instead of re-walking the base KB. Lookups on entities outside
  /// the materialized seed set fall back to the online walk, so answers are
  /// bit-identical with or without it — the substrate only changes where
  /// the bytes live. Its PathIds must come from the same dictionary as
  /// `paths` (KbqaSystem wires it only on the Train path, where both are
  /// the expansion's dictionary).
  ///
  /// `live` (optional) switches the engine to live-mutation mode: every
  /// Answer pins one KbSnapshot for its whole duration (RCU read-side),
  /// value lookups and winner materialization route through the pinned
  /// merged view, and all cache keys carry the snapshot version so a
  /// post-mutation query can never see a pre-mutation cache entry. `kb`
  /// must then be the live KB's current base (or an id-stable ancestor —
  /// see rdf::RebuildKb); `cekb` must be null.
  OnlineInference(const rdf::KnowledgeBase* kb,
                  const taxonomy::Taxonomy* taxonomy,
                  const nlp::GazetteerNer* ner, const TemplateStore* store,
                  const rdf::PathDictionary* paths, const Options& options,
                  const rdf::CompressedExpandedKb* cekb = nullptr,
                  const rdf::MutableKb* live = nullptr);

  /// Answers a binary factoid question.
  AnswerResult Answer(const std::string& question) const;
  AnswerResult Answer(const std::string& question,
                      const AnswerOptions& answer_options) const;

  /// Token-level variant (reused by the decomposer on question spans).
  AnswerResult AnswerTokens(const std::vector<std::string>& tokens) const;
  AnswerResult AnswerTokens(const std::vector<std::string>& tokens,
                            const AnswerOptions& answer_options) const;

  /// Batched throughput entry point: answers every question, sharded over
  /// `num_threads` workers. results[i] corresponds to questions[i] and is
  /// identical to Answer(questions[i]) for any thread count (questions are
  /// independent and the engine is immutable during answering).
  std::vector<AnswerResult> AnswerAll(const std::vector<std::string>& questions,
                                      int num_threads) const;

  /// One question through the whole-question memo cache (when enabled) —
  /// the per-request unit AnswerAll shards and the serving workers both
  /// route through. The cache key is NormalizeText(question), so casing /
  /// whitespace / punctuation paraphrases of one canonical question share
  /// an entry (they tokenize identically, hence answer identically). Only
  /// complete results are memoized: a deadline-clipped partial answer
  /// (status kDeadlineExceeded) is returned but never cached.
  AnswerResult AnswerCached(const std::string& question,
                            const AnswerOptions& answer_options) const;

  /// Cheap answerability probe: true when some entity+template resolves to
  /// a learned predicate with at least one value — the δ(q) primitive-BFQ
  /// indicator of the decomposition DP (§5.3).
  bool IsPrimitiveBfq(const std::vector<std::string>& tokens) const;

  /// Hit/miss/size accounting for the value memo cache, read from the
  /// cache's own shard books (not the global registry), so two engines —
  /// e.g. a cached and an uncached one in a regression test — never
  /// contaminate each other's numbers.
  ValueCacheStats value_cache_stats() const;

  /// Same accounting for the whole-question answer memo cache used by
  /// AnswerAll (all-zero unless Options::enable_answer_cache).
  ValueCacheStats answer_cache_stats() const;

 private:
  /// Per-request value-cache accounting, accumulated on the stack during
  /// one Answer/probe and flushed once at the end into the registry and
  /// the request context — the per-lookup cost is a plain increment.
  struct CacheTally {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// The KB world one Answer reads from start to finish. Frozen mode:
  /// `kb` is the engine's kb_ and `snap` is null. Live mode: `snap` pins
  /// one RCU snapshot (kept alive for the whole request) and `kb` is its
  /// base — id-stable across merges, so ids from the engine's trained
  /// structures remain valid.
  struct PinnedKb {
    const rdf::KnowledgeBase* kb = nullptr;
    std::shared_ptr<const rdf::KbSnapshot> snap;

    uint64_t version() const { return snap != nullptr ? snap->version : 0; }
  };

  /// Pins the current world: one atomic load in live mode, free in frozen
  /// mode.
  PinnedKb PinKb() const;

  /// V(e, p+) through the memo cache. The result always lands in
  /// `*scratch` — copied out of the cache on a hit, computed by the path
  /// walk on a miss (then inserted, evicting LRU entries if over budget) —
  /// and the returned reference points there, valid until the next call
  /// with the same `scratch`. Copy-out is what makes eviction safe: no
  /// caller ever holds a reference into the cache. The cache key carries
  /// `view.version()`, so entries never cross mutation boundaries.
  const std::vector<rdf::TermId>& CachedObjects(
      const PinnedKb& view, rdf::TermId entity, rdf::PathId path,
      std::vector<rdf::TermId>* scratch, CacheTally* tally) const;

  /// AnswerTokens against an already-pinned world — the body behind every
  /// public answering entry point (AnswerCached pins once and reuses the
  /// view for its cache key and the computation, so the key's version
  /// always matches the world that computed the entry).
  AnswerResult AnswerTokensPinned(const std::vector<std::string>& tokens,
                                  const AnswerOptions& answer_options,
                                  const PinnedKb& view) const;

  AnswerResult AnswerTokensImpl(const std::vector<std::string>& tokens,
                                const AnswerOptions& answer_options,
                                CacheTally* tally, const PinnedKb& view) const;

  /// When instrumentation is on, adds one request's tally plus the
  /// per-answer stage counts to the global registry. `result` is null for
  /// IsPrimitiveBfq probes.
  void FlushAnswerStats(const AnswerResult* result,
                        const CacheTally& tally) const;

  /// V(e, p+) without the memo cache: walk the pinned merged view in live
  /// mode; otherwise decode from the compressed substrate when it
  /// materializes the pair, else walk the base KB. Result lands in
  /// `*scratch`.
  void LookupValues(const PinnedKb& view, rdf::TermId entity,
                    rdf::PathId path,
                    std::vector<rdf::TermId>* scratch) const;

  const rdf::KnowledgeBase* kb_;
  const taxonomy::Taxonomy* taxonomy_;
  const nlp::GazetteerNer* ner_;
  const TemplateStore* store_;
  const rdf::PathDictionary* paths_;
  const rdf::CompressedExpandedKb* cekb_;
  const rdf::MutableKb* live_;
  Options options_;

  /// Keyed by (KB version, entity « 32 | path) — see ValueCacheKey.
  mutable ShardedLruCache<ValueCacheKey, std::vector<rdf::TermId>>
      value_cache_;

  /// Whole-question memo for AnswerAll/AnswerCached: normalized question
  /// text (NormalizeText) → full AnswerResult, so surface paraphrases that
  /// tokenize identically hit one entry. Internally synchronized (sharded
  /// LRU) like the value cache; results are copied out, so eviction never
  /// invalidates callers.
  mutable ShardedLruCache<std::string, AnswerResult> answer_cache_;
};

}  // namespace kbqa::core

#endif  // KBQA_CORE_ONLINE_H_
