// Traced-run layer measurements: the per-question replay through the layer
// functions Answer calls, and probes of layers no workload's traffic
// isolates.

#include <cstdio>

#include "core/em_learner.h"
#include "ladder.h"
#include "nlp/tokenizer.h"
#include "obs/wide_event.h"
#include "rdf/compressed_expanded.h"
#include "rdf/expanded_predicate.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfladder {

namespace kc = kbqa::core;
namespace rdf = kbqa::rdf;

namespace {

/// Sum and call count of one layer's timed calls.
struct LayerTime {
  double ns = 0;
  uint64_t calls = 0;

  void Add(uint64_t begin, uint64_t end) {
    ns += static_cast<double>(end - begin);
    ++calls;
  }
  double PerCall() const {
    return calls == 0 ? 0 : ns / static_cast<double>(calls);
  }
};

/// Times one call as a replay span and adds it to `layer`; returns the end.
uint64_t Charge(const char* name, uint64_t request, uint64_t begin,
                LayerTime* layer) {
  const uint64_t end = NowNs();
  trace::Record(name, "replay.question", request, begin, end);
  layer->Add(begin, end);
  return end;
}

}  // namespace

ReplayStats ReplayLayers(const LayerTargets& targets,
                         const std::vector<std::string>& questions,
                         const std::vector<RefAnswer>& refs, MetricSet* metrics,
                         Tally* tally) {
  const Trained& trained = *targets.trained;
  const kc::KbqaSystem& system = *trained.system;
  const rdf::KnowledgeBase& kb = trained.world->kb;
  const kbqa::taxonomy::Taxonomy& taxonomy = trained.world->taxonomy;
  const kc::OnlineInference::Options& options = system.options().online;
  const kc::TemplateStore& store = system.template_store();
  const rdf::PathDictionary& paths = system.expanded_kb().paths();
  const rdf::CompressedExpandedKb* cekb = system.compressed_expanded_kb();

  LayerTime tokenize, ner, conceptualize, template_lookup, distribution;
  LayerTime try_objects, csr_walk, live_walk;
  uint64_t cekb_hits = 0;
  std::vector<double> pin_ns, answer_ns, reference_ns;
  double stage_ns[kbqa::obs::kWideStageCount] = {};
  uint64_t entities = 0, templates = 0, predicates = 0, values = 0,
           lookups = 0;
  uint64_t fidelity_mismatches = 0;

  const uint64_t request_base = trace::NewRequestIds(questions.size());
  std::vector<rdf::TermId> cekb_values;
  for (size_t i = 0; i < questions.size(); ++i) {
    const std::string& question = questions[i];
    const RefAnswer& ref = refs[i];
    const uint64_t id = request_base + i;
    tally->attempted += 1;

    // The workload's own engine, single-threaded.
    uint64_t begin = NowNs();
    const kc::AnswerResult answer = targets.answer(question);
    uint64_t end = NowNs();
    trace::Record("core.answer", nullptr, id, begin, end);
    answer_ns.push_back(static_cast<double>(end - begin));
    bool wrong = !ref.Matches(answer);

    // The plain engine, with the program's own stage clock attached.
    kbqa::obs::RequestContext context;
    kc::AnswerOptions answer_options;
    answer_options.request_context = &context;
    begin = NowNs();
    const kc::AnswerResult plain =
        targets.reference->Answer(question, answer_options);
    end = NowNs();
    trace::Record("core.reference_answer", nullptr, id, begin, end);
    reference_ns.push_back(static_cast<double>(end - begin));
    for (size_t s = 0; s < kbqa::obs::kWideStageCount; ++s) {
      stage_ns[s] += static_cast<double>(context.stages[s].ns);
    }
    wrong = wrong || !ref.Matches(plain);

    // The replay, in the order Answer calls the layers.
    const uint64_t question_begin = NowNs();
    const std::vector<std::string> tokens =
        kbqa::nlp::TokenizeQuestion(question);
    begin = Charge("nlp.tokenize", id, question_begin, &tokenize);
    const std::vector<kbqa::nlp::Mention> mentions =
        system.ner().FindMentions(tokens);
    Charge("nlp.ner", id, begin, &ner);
    size_t q_entities = 0;
    for (const kbqa::nlp::Mention& m : mentions) {
      q_entities += m.entities.size();
    }
    size_t q_templates = 0;
    std::vector<std::pair<rdf::TermId, rdf::PathId>> pairs;
    if (q_entities > 0) {
      for (const kbqa::nlp::Mention& mention : mentions) {
        std::vector<std::string> context_tokens;
        for (size_t k = 0; k < tokens.size(); ++k) {
          if (k < mention.begin || k >= mention.end) {
            context_tokens.push_back(tokens[k]);
          }
        }
        for (rdf::TermId entity : mention.entities) {
          begin = NowNs();
          std::vector<kbqa::taxonomy::ScoredCategory> categories =
              taxonomy.Conceptualize(entity, context_tokens);
          Charge("taxonomy.conceptualize", id, begin, &conceptualize);
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
            begin = NowNs();
            const std::optional<kc::TemplateId> t =
                store.Lookup(kc::MakeTemplateText(
                    tokens, mention.begin, mention.end,
                    taxonomy.CategoryName(sc.category)));
            Charge("core.template_lookup", id, begin, &template_lookup);
            if (!t) continue;
            ++q_templates;
            begin = NowNs();
            for (const kc::PredicateProb& pp : store.Distribution(*t)) {
              if (pp.probability < options.min_predicate_prob) continue;
              pairs.emplace_back(entity, pp.path);
            }
            Charge("core.distribution", id, begin, &distribution);
          }
        }
      }
    }
    begin = NowNs();
    const std::shared_ptr<const rdf::KbSnapshot> snapshot =
        targets.live->Pin();
    end = NowNs();
    trace::Record("rdf.live.pin", "replay.question", id, begin, end);
    pin_ns.push_back(static_cast<double>(end - begin));
    size_t q_values = 0;
    for (const auto& [entity, path] : pairs) {
      // The same (entity, path) pair through every tier, so the tiers
      // compare directly; each must return the same value set.
      begin = NowNs();
      const bool hit =
          cekb != nullptr && cekb->TryObjects(entity, path, &cekb_values);
      begin = Charge("rdf.cekb.try_objects", id, begin, &try_objects);
      cekb_hits += hit ? 1 : 0;
      const std::vector<rdf::TermId> walked =
          rdf::ObjectsViaPath(kb, entity, paths.GetPath(path));
      begin = Charge("rdf.csr.objects_via_path", id, begin, &csr_walk);
      const std::vector<rdf::TermId> live_values =
          snapshot->ObjectsViaPath(entity, paths.GetPath(path));
      Charge("rdf.live.objects_via_path", id, begin, &live_walk);
      if ((hit && cekb_values != walked) || live_values != walked) {
        wrong = true;
      }
      q_values += walked.size();
    }
    trace::Record("replay.question", nullptr, id, question_begin, NowNs());

    // Replay fidelity: the replayed fan-out must be the engine's.
    if (q_entities != ref.num_entities || q_templates != ref.num_templates ||
        pairs.size() != ref.num_predicates || q_values != ref.num_values) {
      if (fidelity_mismatches++ < 3) {
        std::fprintf(stderr,
                     "replay fan-out differs for \"%s\": entities %zu/%zu "
                     "templates %zu/%zu predicates %zu/%zu values %zu/%zu\n",
                     question.c_str(), q_entities, ref.num_entities,
                     q_templates, ref.num_templates, pairs.size(),
                     ref.num_predicates, q_values, ref.num_values);
      }
      wrong = true;
    }
    if (wrong) {
      tally->wrong += 1;
      tally->failed += 1;
    }
    entities += q_entities;
    templates += q_templates;
    predicates += pairs.size();
    values += q_values;
    // Answer also reads the winning pair's values once more.
    lookups += pairs.size() + (ref.answered ? 1 : 0);
  }

  const double n = static_cast<double>(questions.size());
  metrics->Set("nlp.tokenize_ns", tokenize.ns / n, "ns");
  metrics->Set("nlp.ner_ns", ner.ns / n, "ns");
  metrics->Set("nlp.entities_per_q", static_cast<double>(entities) / n,
               "count");
  metrics->Set("taxonomy.conceptualize_ns", conceptualize.PerCall(), "ns");
  metrics->Set("taxonomy.calls_per_q",
               static_cast<double>(conceptualize.calls) / n, "count");
  metrics->Set("core.template_lookup_ns", template_lookup.PerCall(), "ns");
  metrics->Set("core.distribution_ns", distribution.PerCall(), "ns");
  metrics->Set("core.templates_per_q", static_cast<double>(templates) / n,
               "count");
  metrics->Set("core.predicates_per_q", static_cast<double>(predicates) / n,
               "count");
  metrics->Set("core.values_per_q", static_cast<double>(values) / n, "count");
  metrics->Set("rdf.lookups_per_q", static_cast<double>(lookups) / n, "count");
  metrics->Set("rdf.cekb.try_objects_ns", try_objects.PerCall(), "ns");
  metrics->Set("rdf.cekb.hit_ratio",
               try_objects.calls == 0
                   ? 0
                   : static_cast<double>(cekb_hits) /
                         static_cast<double>(try_objects.calls),
               "ratio");
  metrics->Set("rdf.csr.objects_via_path_ns", csr_walk.PerCall(), "ns");
  metrics->Set("rdf.live.pin_ns", Median(pin_ns), "ns");
  metrics->Set("rdf.live.objects_via_path_ns", live_walk.PerCall(), "ns");

  ReplayStats stats;
  stats.answer_mean_ns = Mean(answer_ns);
  metrics->Set("core.answer_ns.p50", Quantile(&answer_ns, 0.5), "ns");
  metrics->Set("core.answer_ns.p99", Quantile(&answer_ns, 0.99), "ns");
  // What the plain engine spends outside the replayed layers: ranking,
  // posterior accumulation, winner materialization and call overhead.
  const double replayed = (tokenize.ns + ner.ns + conceptualize.ns +
                           template_lookup.ns + distribution.ns + csr_walk.ns) /
                          n;
  metrics->Set("core.unattributed_ns", Mean(reference_ns) - replayed, "ns");
  // The program's own stage clock beside the replay's split. The plain
  // engine has no value cache, and the stage clock times value lookups only
  // on value-cache misses, so its lookups land in the score stage.
  std::printf("[perfladder] stage clock, plain engine (ns/question):");
  for (size_t s = 0; s < kbqa::obs::kWideStageCount; ++s) {
    const std::string name = kbqa::obs::WideStageName(s);
    std::printf(" %s %.1f", name.c_str(), stage_ns[s] / n);
    if (name != "value_lookup") {
      metrics->Set("obs.stage." + name + "_ns", stage_ns[s] / n, "ns");
    }
  }
  std::printf("\n[perfladder] replay split (ns/question): tokenize %.1f ner "
              "%.1f conceptualize %.1f template_lookup %.1f distribution "
              "%.1f csr_lookups %.1f; plain Answer %.1f\n",
              tokenize.ns / n, ner.ns / n, conceptualize.ns / n,
              template_lookup.ns / n, distribution.ns / n, csr_walk.ns / n,
              Mean(reference_ns));
  if (fidelity_mismatches > 0) {
    std::fprintf(stderr, "replay fan-out differed on %llu of %zu questions\n",
                 static_cast<unsigned long long>(fidelity_mismatches),
                 questions.size());
  }
  return stats;
}

void ProbeFixedCosts(const Trained& trained, int nproc, MetricSet* metrics) {
  std::vector<double> create_us;
  for (int i = 0; i < 100; ++i) {
    const uint64_t begin = NowNs();
    { kbqa::ThreadPool pool(nproc); }
    create_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
  }
  metrics->Set("util.pool.create_us", Median(create_us), "us");

  kbqa::obs::WideEvent event;
  event.trace_id = 1;
  std::vector<double> record_ns;
  for (int block = 0; block < 20; ++block) {
    const uint64_t begin = NowNs();
    for (int i = 0; i < 1000; ++i) kbqa::obs::WideEvents::Record(event);
    record_ns.push_back(static_cast<double>(NowNs() - begin) / 1000.0);
  }
  metrics->Set("obs.record_ns", Median(record_ns), "ns");

  const kc::KbqaSystem& system = *trained.system;
  rdf::ExpansionOptions expansion = system.options().expansion;
  expansion.num_threads = nproc;
  uint64_t begin = NowNs();
  auto ekb = rdf::ExpandedKb::Build(trained.world->kb,
                                    system.expansion_seeds(),
                                    trained.world->name_like, expansion);
  uint64_t end = NowNs();
  trace::Record("setup.expand", nullptr, 0, begin, end);
  metrics->Set("setup.expand_s", static_cast<double>(end - begin) * 1e-9, "s");
  if (!ekb.ok()) {
    std::fprintf(stderr, "ExpandedKb::Build failed\n");
    std::exit(1);
  }
  rdf::CompressedExpandedKb::Options compress;
  compress.target_block_edges = system.options().compressed_block_edges;
  begin = NowNs();
  auto cekb = rdf::CompressedExpandedKb::FromExpanded(ekb.value(), compress);
  end = NowNs();
  trace::Record("setup.compress", nullptr, 0, begin, end);
  metrics->Set("setup.compress_s", static_cast<double>(end - begin) * 1e-9,
               "s");
  if (!cekb.ok()) {
    std::fprintf(stderr, "CompressedExpandedKb::FromExpanded failed\n");
    std::exit(1);
  }
}

void ProbeAnswerAll(const LayerTargets& targets,
                    const std::vector<std::string>& questions, size_t chunk,
                    int rounds, double answer_mean_ns, MetricSet* metrics) {
  std::vector<double> call_ns;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::string> slice;
    for (size_t k = 0; k < chunk; ++k) {
      slice.push_back(questions[(static_cast<size_t>(r) * chunk + k) %
                                questions.size()]);
    }
    const uint64_t begin = NowNs();
    (void)targets.answer_all(slice, targets.nproc);
    call_ns.push_back(static_cast<double>(NowNs() - begin));
  }
  SetAnswerAllMetrics(call_ns, chunk, answer_mean_ns, targets.nproc, metrics);
}

void SetAnswerAllMetrics(std::vector<double> call_ns, size_t chunk,
                         double answer_mean_ns, int nproc,
                         MetricSet* metrics) {
  const double mean_call_ns = Mean(call_ns);
  metrics->Set("core.answer_all_call_ms.p50", Median(call_ns) * 1e-6, "ms");
  metrics->Set("util.pool.parallel_efficiency",
               mean_call_ns <= 0
                   ? 0
                   : static_cast<double>(chunk) * answer_mean_ns /
                         (static_cast<double>(nproc) * mean_call_ns),
               "ratio");
}

std::unique_ptr<rdf::MutableKb> ProbeLiveKb(const Trained& trained, int nproc,
                                            int batches, int merges,
                                            MetricSet* metrics) {
  rdf::MutableKb::Options options;
  options.auto_merge = false;
  auto live = std::make_unique<rdf::MutableKb>(
      rdf::RebuildKb(trained.world->kb, rdf::DeltaOverlay{}, nproc), options);
  std::vector<double> apply_us, merge_s;
  const int merge_every = std::max(1, batches / std::max(1, merges));
  for (int b = 0; b < batches; ++b) {
    const std::vector<rdf::MutationOp> ops = LiveBatch(0, b);
    uint64_t begin = NowNs();
    live->Apply(ops);
    apply_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
    if ((b + 1) % merge_every == 0) {
      begin = NowNs();
      live->ForceMerge();
      merge_s.push_back(static_cast<double>(NowNs() - begin) * 1e-9);
    }
  }
  metrics->Set("rdf.live.apply_us", Median(apply_us), "us");
  metrics->Set("rdf.live.merges",
               static_cast<double>(live->merges_completed()), "count");
  metrics->Set("rdf.live.merge_s", Median(merge_s), "s");
  return live;
}

}  // namespace perfladder
