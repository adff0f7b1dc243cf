#include "core/online.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "core/em_learner.h"
#include "nlp/tokenizer.h"
#include "obs/obs.h"
#include "rdf/query.h"
#include "util/thread_pool.h"

namespace kbqa::core {

namespace {

uint64_t EntityPathKey(rdf::TermId entity, rdf::PathId path) {
  return (static_cast<uint64_t>(entity) << 32) | path;
}

/// Stateful deadline check for one answer: at most one clock read per
/// probe, none at all when no deadline was requested, and sticky once
/// exceeded (the pipeline never un-exceeds mid-request).
struct DeadlineGate {
  const std::optional<std::chrono::steady_clock::time_point>& deadline;
  bool exceeded = false;

  bool Hit() {
    if (exceeded) return true;
    if (!deadline) return false;
    if (std::chrono::steady_clock::now() >= *deadline) exceeded = true;
    return exceeded;
  }
};

/// Stamps a deadline overrun on the result (idempotent).
void MarkDeadlineExceeded(AnswerResult* result) {
  if (!result->status.ok()) return;
  result->status = Status::DeadlineExceeded("answer deadline exceeded");
}

/// The shared mention → entity → category → template walk of §3.3's
/// candidate enumeration. AnswerTokens and IsPrimitiveBfq both iterate
/// through here so the two cannot drift. `visit(mention, entity, p_t,
/// template_id)` returns false to stop the walk early. `ctx` (nullable)
/// receives the conceptualize/template_match stage attribution.
template <typename Visitor>
void VisitTemplateCandidates(const taxonomy::Taxonomy& taxonomy,
                             const TemplateStore& store,
                             const OnlineInference::Options& options,
                             const std::vector<std::string>& tokens,
                             const std::vector<nlp::Mention>& mentions,
                             obs::RequestContext* ctx, Visitor&& visit) {
  for (const nlp::Mention& mention : mentions) {
    std::vector<std::string> context;
    context.reserve(tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (i < mention.begin || i >= mention.end) context.push_back(tokens[i]);
    }
    for (rdf::TermId entity : mention.entities) {
      // Chained marks: the walk fragment since the previous mark goes to
      // template_match, the Conceptualize call itself to its own stage.
      if (ctx != nullptr) ctx->Mark(obs::WideStage::kTemplateMatch);
      std::vector<taxonomy::ScoredCategory> categories =
          taxonomy.Conceptualize(entity, context);
      if (ctx != nullptr) ctx->Mark(obs::WideStage::kConceptualize);
      if (categories.size() > options.max_categories_per_entity) {
        categories.resize(options.max_categories_per_entity);
      }
      double cat_mass = 0;
      for (const auto& sc : categories) {
        if (sc.probability >= options.min_category_prob) {
          cat_mass += sc.probability;
        }
      }
      if (cat_mass <= 0) continue;

      for (const auto& sc : categories) {
        if (sc.probability < options.min_category_prob) continue;
        auto t = store.Lookup(
            MakeTemplateText(tokens, mention.begin, mention.end,
                             taxonomy.CategoryName(sc.category)));
        if (!t) continue;
        const double p_t = sc.probability / cat_mass;
        if (!visit(mention, entity, p_t, *t)) return;
      }
    }
  }
}

/// All per-answer registry counters behind one cached lookup: a single
/// init-guard check on the answer epilogue instead of one per macro site.
struct OnlineCounters {
  obs::Counter* answers;
  obs::Counter* answered;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_evictions;
  obs::Counter* deadline_exceeded;

  static const OnlineCounters& Get() {
    static const OnlineCounters counters = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return OnlineCounters{r.GetCounter("online.answers"),
                            r.GetCounter("online.answered"),
                            r.GetCounter("online.value_cache.hits"),
                            r.GetCounter("online.value_cache.misses"),
                            r.GetCounter("online.value_cache.evictions"),
                            r.GetCounter("online.deadline_exceeded")};
    }();
    return counters;
  }
};

/// Byte charge of one answer-cache entry beyond the key struct itself:
/// the question text plus every heap block the memoized AnswerResult owns.
/// An estimate (allocator slack and map overhead aren't modeled), but a
/// faithful enough one for LRU budget accounting — the same contract as
/// the value cache's `values.size() * sizeof(TermId)` charge.
uint64_t AnswerResultPayloadBytes(const std::string& question,
                                  const AnswerResult& result) {
  uint64_t bytes = question.size() + sizeof(AnswerResult);
  bytes += result.status.message().size();
  bytes += result.value.size() + result.predicate.size() +
           result.sparql.size();
  bytes += result.ranked.size() * sizeof(AnswerCandidate);
  for (const std::string& v : result.values) bytes += v.size();
  return bytes;
}

}  // namespace

OnlineInference::OnlineInference(const rdf::KnowledgeBase* kb,
                                 const taxonomy::Taxonomy* taxonomy,
                                 const nlp::GazetteerNer* ner,
                                 const TemplateStore* store,
                                 const rdf::PathDictionary* paths,
                                 const Options& options,
                                 const rdf::CompressedExpandedKb* cekb,
                                 const rdf::MutableKb* live)
    : kb_(kb),
      taxonomy_(taxonomy),
      ner_(ner),
      store_(store),
      paths_(paths),
      cekb_(cekb),
      live_(live),
      options_(options),
      value_cache_(options.value_cache_budget_bytes),
      answer_cache_(options.answer_cache_budget_bytes) {}

OnlineInference::PinnedKb OnlineInference::PinKb() const {
  if (live_ == nullptr) return PinnedKb{kb_, nullptr};
  PinnedKb view;
  view.snap = live_->Pin();
  view.kb = view.snap->base.get();
  return view;
}

void OnlineInference::LookupValues(const PinnedKb& view, rdf::TermId entity,
                                   rdf::PathId path,
                                   std::vector<rdf::TermId>* scratch) const {
  // Live mode reads the pinned merged view (base minus tombstones plus
  // overlay adds, identical ordering to a frozen walk — an empty overlay
  // degenerates to the plain base walk bit-for-bit).
  if (view.snap != nullptr) {
    *scratch = view.snap->ObjectsViaPath(entity, paths_->GetPath(path));
    return;
  }
  // Both frozen sources produce the same sorted-unique value set: the
  // substrate materializes exactly the BFS closure ObjectsViaPath walks,
  // so the only difference is decode-a-block vs re-walk-the-KB.
  // TryObjects returns false (entity outside the materialized seed set,
  // or a paged block that went bad underneath us) -> online walk.
  if (cekb_ != nullptr && cekb_->TryObjects(entity, path, scratch)) return;
  *scratch = rdf::ObjectsViaPath(*view.kb, entity, paths_->GetPath(path));
}

const std::vector<rdf::TermId>& OnlineInference::CachedObjects(
    const PinnedKb& view, rdf::TermId entity, rdf::PathId path,
    std::vector<rdf::TermId>* scratch, CacheTally* tally) const {
  if (!options_.enable_value_cache) {
    LookupValues(view, entity, path, scratch);
    return *scratch;
  }
  const ValueCacheKey key{view.version(), EntityPathKey(entity, path)};
  if (value_cache_.Get(key, scratch)) {
    ++tally->hits;
    return *scratch;
  }
  ++tally->misses;
  // Misses are the slow path (block decode or KB re-walk), so per-request
  // attribution times them individually; hits are counted but not timed —
  // their cost stays inside the surrounding stage. The TLS binding is how
  // the request context reaches this depth (see ScopedRequestContext).
  obs::RequestContext* const ctx = obs::CurrentRequestContext();
  const uint64_t miss_begin = ctx != nullptr ? obs::NowSteadyNs() : 0;
  LookupValues(view, entity, path, scratch);
  // Insert copies the value set; concurrent misses on the same key both
  // computed identical vectors from the immutable KB, and the later insert
  // replaces the earlier one. At a full budget the second insert reserves
  // its charge before releasing the first, so it may evict an unrelated
  // entry.
  tally->evictions += value_cache_.Insert(
      key, *scratch, scratch->size() * sizeof(rdf::TermId));
  if (ctx != nullptr) {
    ctx->AddTimedSince(obs::WideStage::kValueLookup, miss_begin);
  }
  return *scratch;
}

void OnlineInference::FlushAnswerStats(const AnswerResult* result,
                                       const CacheTally& tally) const {
  if (!obs::Enabled()) return;
  const OnlineCounters& c = OnlineCounters::Get();
  if (tally.hits != 0) c.cache_hits->Add(tally.hits);
  if (tally.misses != 0) c.cache_misses->Add(tally.misses);
  if (tally.evictions != 0) c.cache_evictions->Add(tally.evictions);
  if (result == nullptr) return;  // IsPrimitiveBfq probe
  c.answers->Add(1);
  if (result->answered) c.answered->Add(1);
  if (result->status.code() == StatusCode::kDeadlineExceeded) {
    c.deadline_exceeded->Add(1);
  }
}

ValueCacheStats OnlineInference::value_cache_stats() const {
  if (!options_.enable_value_cache) return ValueCacheStats{};
  return value_cache_.GetStats();
}

ValueCacheStats OnlineInference::answer_cache_stats() const {
  if (!options_.enable_answer_cache) return ValueCacheStats{};
  return answer_cache_.GetStats();
}

AnswerResult OnlineInference::Answer(const std::string& question) const {
  return AnswerTokens(nlp::TokenizeQuestion(question));
}

AnswerResult OnlineInference::Answer(
    const std::string& question, const AnswerOptions& answer_options) const {
  return AnswerTokens(nlp::TokenizeQuestion(question), answer_options);
}

std::vector<AnswerResult> OnlineInference::AnswerAll(
    const std::vector<std::string>& questions, int num_threads) const {
  std::vector<AnswerResult> results(questions.size());
  ThreadPool pool(num_threads);
  // Over-shard relative to the pool for load balancing; each question is
  // answered independently into its own slot, so the sharding is
  // unobservable in the output.
  const size_t num_shards =
      std::max<size_t>(1, static_cast<size_t>(pool.num_threads()) * 4);
  ParallelFor(pool, questions.size(), num_shards,
              [&](size_t shard, size_t begin, size_t end) {
                (void)shard;
                for (size_t i = begin; i < end; ++i) {
                  results[i] = AnswerCached(questions[i], AnswerOptions{});
                }
              });
  return results;
}

AnswerResult OnlineInference::AnswerCached(
    const std::string& question, const AnswerOptions& answer_options) const {
  // One pin for key and computation: the memoized entry's version tag can
  // never disagree with the world that computed it, even if an Apply or a
  // merge lands between the two.
  const PinnedKb view = PinKb();
  if (!options_.enable_answer_cache) {
    return AnswerTokensPinned(nlp::TokenizeQuestion(question), answer_options,
                              view);
  }
  // Normalized key: whitespace/case/punctuation paraphrases tokenize to
  // the same sequence, so they are the same question to the pipeline and
  // must be the same entry to the memo. Live mode prefixes the pinned
  // version ("v<version>\n" cannot collide with normalized text, which
  // never contains a newline) so mutations invalidate by key.
  std::string key = nlp::NormalizeText(question);
  if (view.snap != nullptr) {
    std::string versioned = "v";
    versioned += std::to_string(view.snap->version);
    versioned += '\n';
    versioned += key;
    key = std::move(versioned);
  }
  AnswerResult result;
  if (answer_cache_.Get(key, &result)) {
    KBQA_COUNTER_ADD("online.answer_cache.hits", 1);
    if (answer_options.request_context != nullptr) {
      ++answer_options.request_context->answer_cache_hits;
    }
    return result;
  }
  result = AnswerTokensPinned(nlp::TokenizeQuestion(question),
                              answer_options, view);
  KBQA_COUNTER_ADD("online.answer_cache.misses", 1);
  if (answer_options.request_context != nullptr) {
    ++answer_options.request_context->answer_cache_misses;
  }
  // Only complete answers are memoized: a deadline-clipped partial
  // (kDeadlineExceeded) would otherwise serve its truncation to every
  // later request that has budget to compute the real thing.
  if (result.status.ok()) {
    const uint64_t evictions = answer_cache_.Insert(
        key, result, AnswerResultPayloadBytes(key, result));
    if (evictions != 0) {
      KBQA_COUNTER_ADD("online.answer_cache.evictions", evictions);
    }
  }
  return result;
}

AnswerResult OnlineInference::AnswerTokens(
    const std::vector<std::string>& tokens) const {
  return AnswerTokens(tokens, AnswerOptions{});
}

AnswerResult OnlineInference::AnswerTokens(
    const std::vector<std::string>& tokens,
    const AnswerOptions& answer_options) const {
  return AnswerTokensPinned(tokens, answer_options, PinKb());
}

AnswerResult OnlineInference::AnswerTokensPinned(
    const std::vector<std::string>& tokens,
    const AnswerOptions& answer_options, const PinnedKb& view) const {
  obs::RequestContext* const ctx = answer_options.request_context;
  // Bind the request context for layers reached without an options plumb
  // (the compressed-KB pager stamps block traffic through the TLS). No-op
  // when ctx is null.
  obs::ScopedRequestContext request_scope(ctx);
  if (ctx != nullptr && view.snap != nullptr) {
    ctx->kb_epoch = view.snap->epoch;
  }
  CacheTally tally;
  AnswerResult result = AnswerTokensImpl(tokens, answer_options, &tally, view);
  FlushAnswerStats(&result, tally);
  if (ctx != nullptr) {
    ctx->value_cache_hits += static_cast<uint32_t>(tally.hits);
    ctx->value_cache_misses += static_cast<uint32_t>(tally.misses);
  }
  return result;
}

AnswerResult OnlineInference::AnswerTokensImpl(
    const std::vector<std::string>& tokens,
    const AnswerOptions& answer_options, CacheTally* tally,
    const PinnedKb& view) const {
  AnswerResult result;
  obs::RequestContext* const ctx = answer_options.request_context;
  if (ctx != nullptr && ctx->last_mark_ns == 0) {
    // Bare-engine callers (benches, tests) never anchored the stage
    // clock; the serving layer anchors at handler start for free.
    ctx->StartClockAt(obs::NowSteadyNs());
  }
  DeadlineGate gate{answer_options.deadline};
  if (gate.Hit()) {  // Already past due on entry: answer nothing.
    MarkDeadlineExceeded(&result);
    return result;
  }
  const std::vector<nlp::Mention> mentions = ner_->FindMentions(tokens);
  // Everything from the anchor through mention lookup — tokenization
  // happened upstream of AnswerTokens but after the anchor — is the NER
  // stage.
  if (ctx != nullptr) ctx->Mark(obs::WideStage::kNer);
  if (mentions.empty()) return result;

  size_t total_entities = 0;
  for (const nlp::Mention& m : mentions) total_entities += m.entities.size();
  if (total_entities == 0) return result;
  result.num_entities = total_entities;
  const double p_e = 1.0 / static_cast<double>(total_entities);

  struct ValueSupport {
    double score = 0;
    double best_term = 0;  // strongest single (e,t,p) contribution
    TemplateId best_template = kInvalidTemplate;
    rdf::PathId best_path = rdf::kInvalidPath;
    rdf::TermId best_entity = rdf::kInvalidTerm;
  };
  std::unordered_map<rdf::TermId, ValueSupport> posterior;
  std::vector<rdf::TermId> scratch;

  VisitTemplateCandidates(
      *taxonomy_, *store_, options_, tokens, mentions, ctx,
      [&](const nlp::Mention&, rdf::TermId entity, double p_t, TemplateId t) {
        if (gate.Hit()) return false;
        ++result.num_templates;
        // Walk fragment since the last mark (store lookup, category
        // iteration) belongs to template_match; the predicate loop
        // below closes as the score stage.
        if (ctx != nullptr) ctx->Mark(obs::WideStage::kTemplateMatch);
        for (const PredicateProb& pp : store_->Distribution(t)) {
          if (pp.probability < options_.min_predicate_prob) continue;
          if (gate.Hit()) return false;
          ++result.num_predicates;
          const std::vector<rdf::TermId>& values =
              CachedObjects(view, entity, pp.path, &scratch, tally);
          if (values.empty()) continue;
          const double p_v = 1.0 / static_cast<double>(values.size());
          ++result.num_grounded_predicates;
          result.num_values += values.size();
          const double term = p_e * p_t * pp.probability * p_v;
          for (rdf::TermId v : values) {
            ValueSupport& support = posterior[v];
            support.score += term;
            if (term > support.best_term) {
              support.best_term = term;
              support.best_template = t;
              support.best_path = pp.path;
              support.best_entity = entity;
            }
          }
        }
        if (ctx != nullptr) ctx->Mark(obs::WideStage::kScore);
        return true;
      });
  // Close the candidate walk: whatever ran since the last inner mark
  // (or a deadline-aborted score fragment) is template_match time.
  if (ctx != nullptr) ctx->Mark(obs::WideStage::kTemplateMatch);
  // A deadline hit stops candidate enumeration but still ranks whatever
  // the posterior accumulated: the caller gets the best partial answer
  // (or an empty one), flagged by `status`, instead of a stalled thread.
  if (gate.exceeded) MarkDeadlineExceeded(&result);

  if (posterior.empty()) return result;

  result.ranked.reserve(posterior.size());
  for (const auto& [v, support] : posterior) {
    result.ranked.push_back(AnswerCandidate{v, support.score,
                                            support.best_template,
                                            support.best_path,
                                            support.best_entity});
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const AnswerCandidate& a, const AnswerCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.value < b.value;  // Deterministic tie-break.
            });

  const AnswerCandidate& best = result.ranked.front();
  if (best.score < options_.min_answer_score) {
    if (ctx != nullptr) ctx->Mark(obs::WideStage::kRank);
    return result;
  }
  result.answered = true;
  result.score = best.score;
  // Materialization routes through the pinned view in live mode: values
  // may be overlay nodes the base has never interned, and an entity's
  // display name may have mutated.
  const auto materialize = [&](rdf::TermId v) -> std::string {
    if (view.snap != nullptr) {
      return view.snap->IsLiteral(v) ? view.snap->NodeString(v)
                                     : view.snap->EntityName(v);
    }
    return view.kb->IsLiteral(v) ? view.kb->NodeString(v)
                                 : view.kb->EntityName(v);
  };
  result.value = materialize(best.value);
  result.predicate = paths_->ToString(best.best_path, *view.kb);
  // Emit the equivalent structured query. The winning entity was tracked
  // with best_term during scoring, so no re-query over the candidate
  // entities is needed; its value set comes straight from the cache.
  result.sparql = rdf::QueryToString(rdf::BuildPathQuery(
      *view.kb, best.best_entity, paths_->GetPath(best.best_path)));
  for (rdf::TermId v : CachedObjects(view, best.best_entity, best.best_path,
                                     &scratch, tally)) {
    result.values.push_back(materialize(v));
  }
  // Rank covers sort + winner materialization (minus any timed value
  // lookups the materialization hit, which went to value_lookup above).
  if (ctx != nullptr) ctx->Mark(obs::WideStage::kRank);
  return result;
}

bool OnlineInference::IsPrimitiveBfq(
    const std::vector<std::string>& tokens) const {
  KBQA_COUNTER_ADD("online.bfq_probes", 1);
  const PinnedKb view = PinKb();
  std::vector<nlp::Mention> mentions = ner_->FindMentions(tokens);
  bool found = false;
  std::vector<rdf::TermId> scratch;
  CacheTally tally;
  VisitTemplateCandidates(
      *taxonomy_, *store_, options_, tokens, mentions, /*ctx=*/nullptr,
      [&](const nlp::Mention&, rdf::TermId entity, double, TemplateId t) {
        for (const PredicateProb& pp : store_->Distribution(t)) {
          if (pp.probability < options_.min_predicate_prob) continue;
          if (!CachedObjects(view, entity, pp.path, &scratch, &tally)
                   .empty()) {
            found = true;
            return false;
          }
        }
        return true;
      });
  FlushAnswerStats(nullptr, tally);
  return found;
}

}  // namespace kbqa::core
