// RDF substrate benchmark: CSR freeze scaling, parallel expanded-predicate
// BFS scaling, snapshot save/load bandwidth vs N-Triples re-import, and
// Out()/ObjectsRange() per-op latency. Emits BENCH_rdf.json.
//
// Also asserts (via a global allocation counter) that the hot-path lookups
// — PathDictionary::Lookup and Dictionary::Lookup — perform zero heap
// allocations, and that Freeze() and Build() are bit-identical across
// thread counts.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "corpus/world_generator.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "rdf/ntriples.h"
#include "util/rng.h"
#include "util/timer.h"

// ---- Global allocation counter (for the zero-allocation assertions) ----

static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Kept out of line: once inlined, gcc at -O3 pairs the std::free with the
// matching operator new call and reports a false -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace kbqa;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

/// Raw (source-order) copy of a frozen KB, for re-freezing under different
/// thread counts.
struct RawKb {
  std::vector<std::pair<std::string, bool>> nodes;  // (string, is_literal)
  std::vector<std::string> predicates;
  std::vector<rdf::Triple> triples;
  rdf::PredId name_predicate = rdf::kInvalidPred;

  static RawKb From(const rdf::KnowledgeBase& kb) {
    RawKb raw;
    raw.nodes.reserve(kb.num_nodes());
    for (rdf::TermId id = 0; id < kb.num_nodes(); ++id) {
      raw.nodes.emplace_back(kb.NodeString(id), kb.IsLiteral(id));
    }
    for (rdf::PredId p = 0; p < kb.num_predicates(); ++p) {
      raw.predicates.push_back(kb.PredicateString(p));
    }
    raw.name_predicate = kb.name_predicate();
    for (rdf::TermId s = 0; s < kb.num_nodes(); ++s) {
      for (const auto& [p, o] : kb.Out(s)) raw.triples.push_back({s, p, o});
    }
    return raw;
  }

  /// Rebuilds an unfrozen KB (interning + staging, no Freeze).
  rdf::KnowledgeBase Rebuild() const {
    rdf::KnowledgeBase kb;
    for (const auto& [term, literal] : nodes) {
      if (literal) {
        kb.AddLiteral(term);
      } else {
        kb.AddEntity(term);
      }
    }
    for (const std::string& p : predicates) kb.AddPredicate(p);
    kb.SetNamePredicate(name_predicate);
    for (const rdf::Triple& t : triples) kb.AddTriple(t.s, t.p, t.o);
    return kb;
  }
};

bool SameAdjacency(const rdf::KnowledgeBase& a, const rdf::KnowledgeBase& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_triples() != b.num_triples()) {
    return false;
  }
  for (rdf::TermId id = 0; id < a.num_nodes(); ++id) {
    auto ao = a.Out(id), bo = b.Out(id);
    if (ao.size() != bo.size() ||
        !std::equal(ao.begin(), ao.end(), bo.begin())) {
      return false;
    }
    auto ai = a.In(id), bi = b.In(id);
    if (ai.size() != bi.size() ||
        !std::equal(ai.begin(), ai.end(), bi.begin())) {
      return false;
    }
  }
  return true;
}

std::vector<std::tuple<rdf::TermId, rdf::PathId, rdf::TermId>> RawTriples(
    const rdf::ExpandedKb& ekb) {
  std::vector<std::tuple<rdf::TermId, rdf::PathId, rdf::TermId>> out;
  out.reserve(ekb.num_triples());
  ekb.ForEachTriple([&](const rdf::ExpandedTriple& t) {
    out.emplace_back(t.s, t.path, t.o);
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts that path-dictionary and term-dictionary lookups never allocate.
void AssertZeroAllocationLookups(const rdf::KnowledgeBase& kb,
                                 const rdf::ExpandedKb& ekb) {
  // Pick a real materialized path and a real node string to probe with.
  Check(ekb.paths().size() > 0, "expansion produced paths");
  rdf::PredPath probe_path = ekb.paths().GetPath(
      static_cast<rdf::PathId>(ekb.paths().size() - 1));
  const std::string& probe_term = kb.NodeString(kb.num_nodes() / 2);
  std::string_view term_view = probe_term;

  uint64_t hits = 0;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    hits += ekb.paths().Lookup(probe_path).has_value();
    hits += kb.LookupNode(term_view).has_value();
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  std::printf("[alloc] 200000 lookups -> %llu allocations (hits %llu)\n",
              static_cast<unsigned long long>(after - before),
              static_cast<unsigned long long>(hits));
  Check(after - before == 0, "PathDictionary/Dictionary Lookup allocates");
  Check(hits == 200000, "lookup probes should all hit");
}

long FileSizeBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

}  // namespace

int main() {
  const std::vector<int> kThreads = {1, 2, 4};

  corpus::WorldConfig config;
  config.schema.scale = 2.0;
  std::printf("[setup] generating scale-%.1f world...\n", config.schema.scale);
  Timer gen_timer;
  corpus::World world = corpus::GenerateWorld(config);
  const rdf::KnowledgeBase& kb = world.kb;
  std::printf("[setup] %zu nodes, %zu triples, %zu predicates (%.1fs)\n",
              kb.num_nodes(), kb.num_triples(), kb.num_predicates(),
              gen_timer.ElapsedSeconds());

  // ---- Freeze scaling ----
  RawKb raw = RawKb::From(kb);
  std::vector<double> freeze_seconds;
  rdf::KnowledgeBase freeze_reference;
  for (int threads : kThreads) {
    rdf::KnowledgeBase rebuilt = raw.Rebuild();
    Timer t;
    rebuilt.Freeze(threads);
    freeze_seconds.push_back(t.ElapsedSeconds());
    std::printf("[freeze] threads=%d: %.3fs\n", threads,
                freeze_seconds.back());
    if (threads == 1) {
      freeze_reference = std::move(rebuilt);
      Check(SameAdjacency(freeze_reference, kb),
            "re-frozen KB matches the original");
    } else {
      Check(SameAdjacency(freeze_reference, rebuilt),
            "Freeze() bit-identical across thread counts");
    }
  }

  // ---- Expanded-predicate BFS scaling ----
  std::vector<rdf::TermId> seeds = kb.AllEntities();
  std::vector<double> expand_seconds;
  std::vector<std::tuple<rdf::TermId, rdf::PathId, rdf::TermId>> expand_ref;
  size_t expand_triples = 0, expand_paths = 0;
  for (int threads : kThreads) {
    rdf::ExpansionOptions options;
    options.max_length = 3;
    options.num_threads = threads;
    Timer t;
    auto ekb = rdf::ExpandedKb::Build(kb, seeds, world.name_like, options);
    expand_seconds.push_back(t.ElapsedSeconds());
    Check(ekb.ok(), "expansion succeeds");
    std::printf("[expand] threads=%d: %.3fs (%zu triples, %zu paths)\n",
                threads, expand_seconds.back(), ekb.value().num_triples(),
                ekb.value().paths().size());
    auto triples = RawTriples(ekb.value());
    if (threads == 1) {
      expand_ref = std::move(triples);
      expand_triples = ekb.value().num_triples();
      expand_paths = ekb.value().paths().size();
      AssertZeroAllocationLookups(kb, ekb.value());
    } else {
      Check(ekb.value().paths().size() == expand_paths &&
                triples == expand_ref,
            "Build() bit-identical across thread counts");
    }
  }

  // ---- Snapshot save/load vs N-Triples re-import ----
  const std::string bin_path = "/tmp/bench_rdf_kb.bin";
  const std::string nt_path = "/tmp/bench_rdf_kb.nt";
  Timer save_timer;
  Check(kb.Save(bin_path).ok(), "snapshot save");
  const double save_seconds = save_timer.ElapsedSeconds();
  const double snapshot_mb =
      static_cast<double>(FileSizeBytes(bin_path)) / (1024.0 * 1024.0);

  Timer load_timer;
  auto loaded = rdf::KnowledgeBase::Load(bin_path);
  const double load_seconds = load_timer.ElapsedSeconds();
  Check(loaded.ok(), "snapshot load");
  Check(SameAdjacency(loaded.value(), kb), "snapshot round-trips the CSR");

  Check(rdf::ExportNTriples(kb, nt_path).ok(), "ntriples export");
  Timer import_timer;
  auto imported = rdf::ImportNTriples(nt_path, "name");
  const double import_seconds = import_timer.ElapsedSeconds();
  Check(imported.ok(), "ntriples import");
  std::printf(
      "[snapshot] save %.3fs (%.1f MB, %.0f MB/s), load %.3fs (%.0f MB/s), "
      "ntriples import %.3fs -> load speedup %.1fx\n",
      save_seconds, snapshot_mb, snapshot_mb / save_seconds, load_seconds,
      snapshot_mb / load_seconds, import_seconds,
      import_seconds / load_seconds);

  // ---- Point-lookup latency on the loaded (bulk-slurped) store ----
  const rdf::KnowledgeBase& probe_kb = loaded.value();
  std::vector<rdf::TermId> entities = probe_kb.AllEntities();
  std::vector<rdf::PredId> preds;
  for (rdf::PredId p = 0; p < probe_kb.num_predicates(); ++p) {
    preds.push_back(p);
  }
  Rng rng(1234);
  constexpr size_t kProbes = 2'000'000;
  std::vector<rdf::TermId> probe_e;
  std::vector<rdf::PredId> probe_p;
  probe_e.reserve(kProbes);
  probe_p.reserve(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    probe_e.push_back(entities[rng.Uniform(entities.size())]);
    probe_p.push_back(preds[rng.Uniform(preds.size())]);
  }
  double out_ns, range_ns;
  {
    uint64_t sum = 0;
    Timer t;
    for (size_t i = 0; i < kProbes; ++i) {
      for (const auto& po : probe_kb.Out(probe_e[i])) sum += po.o;
    }
    out_ns = t.ElapsedSeconds() * 1e9 / kProbes;
    std::printf("[lookup] Out(): %.1f ns/op (sum %llu)\n", out_ns,
                static_cast<unsigned long long>(sum));
  }
  {
    uint64_t sum = 0;
    Timer t;
    for (size_t i = 0; i < kProbes; ++i) {
      for (const auto& po : probe_kb.ObjectsRange(probe_e[i], probe_p[i])) {
        sum += po.o;
      }
    }
    range_ns = t.ElapsedSeconds() * 1e9 / kProbes;
    std::printf("[lookup] ObjectsRange(): %.1f ns/op (sum %llu)\n", range_ns,
                static_cast<unsigned long long>(sum));
  }
  std::remove(bin_path.c_str());
  std::remove(nt_path.c_str());

  // ---- JSON ----
  std::FILE* out = std::fopen("BENCH_rdf.json", "w");
  Check(out != nullptr, "open BENCH_rdf.json");
  std::fprintf(out, "{\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"world\": {\"nodes\": %zu, \"triples\": %zu, "
               "\"predicates\": %zu},\n",
               kb.num_nodes(), kb.num_triples(), kb.num_predicates());
  std::fprintf(out, "  \"freeze\": {\"runs\": [");
  for (size_t i = 0; i < kThreads.size(); ++i) {
    std::fprintf(out,
                 "%s\n    {\"threads\": %d, \"seconds\": %.3f, "
                 "\"speedup\": %.2f}",
                 i ? "," : "", kThreads[i], freeze_seconds[i],
                 freeze_seconds[0] / freeze_seconds[i]);
  }
  std::fprintf(out,
               "\n  ]},\n  \"expansion\": {\"triples\": %zu, \"paths\": %zu, "
               "\"runs\": [",
               expand_triples, expand_paths);
  for (size_t i = 0; i < kThreads.size(); ++i) {
    std::fprintf(out,
                 "%s\n    {\"threads\": %d, \"seconds\": %.3f, "
                 "\"speedup\": %.2f}",
                 i ? "," : "", kThreads[i], expand_seconds[i],
                 expand_seconds[0] / expand_seconds[i]);
  }
  std::fprintf(out,
               "\n  ]},\n  \"snapshot\": {\"size_mb\": %.1f, "
               "\"save_seconds\": %.3f, \"save_mb_per_sec\": %.1f, "
               "\"load_seconds\": %.3f, \"load_mb_per_sec\": %.1f, "
               "\"ntriples_import_seconds\": %.3f, "
               "\"load_vs_import_speedup\": %.1f},\n",
               snapshot_mb, save_seconds, snapshot_mb / save_seconds,
               load_seconds, snapshot_mb / load_seconds, import_seconds,
               import_seconds / load_seconds);
  std::fprintf(out,
               "  \"point_lookup\": {\"out_ns_per_op\": %.1f, "
               "\"objects_range_ns_per_op\": %.1f,\n"
               "    \"nested_vector_baseline\": {\"out_ns_per_op\": 23.0, "
               "\"objects_range_ns_per_op\": 22.7}},\n",
               out_ns, range_ns);
  std::fprintf(out,
               "  \"zero_allocation_lookups\": true,\n"
               "  \"deterministic_across_threads\": true\n}\n");
  std::fclose(out);
  std::printf("[done] wrote BENCH_rdf.json\n");
  return 0;
}
