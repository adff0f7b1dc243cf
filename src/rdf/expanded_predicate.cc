#include "rdf/expanded_predicate.h"

#include <algorithm>
#include <cassert>
#include <fstream>

#include "obs/obs.h"
#include "rdf/ntriples.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace kbqa::rdf {

namespace {

// Fixed shard count for the per-round frontier scans — a constant, never
// the thread count, so the shard split (and with it the discovery order
// after the shard-ordered merge) is identical for any pool size.
constexpr size_t kBfsShards = 32;

// Lines per parallel parse block in BuildFromDisk. Large enough to amortize
// the per-block fork/join, small enough to keep raw line memory bounded.
constexpr size_t kScanBlockLines = 4096;

/// Packs a trie extension edge (parent path, predicate) into one key;
/// parent + 1 so the empty path (kInvalidPath) encodes as 0.
inline uint64_t ExtKey(PathId parent, PredId p) {
  const uint64_t parent_code =
      parent == kInvalidPath ? 0 : static_cast<uint64_t>(parent) + 1;
  return (parent_code << 32) | p;
}

/// Membership mask over PredId, replacing hash-set probes in the scan loop.
std::vector<uint8_t> NameMask(const KnowledgeBase& kb,
                              const std::unordered_set<PredId>& name_like) {
  std::vector<uint8_t> mask(kb.num_predicates(), 0);
  for (PredId p : name_like) {
    if (p < mask.size()) mask[p] = 1;
  }
  return mask;
}

/// Sorts + deduplicates every origin bucket (buckets are independent, so
/// this shards cleanly) and totals the surviving triples.
void SortDedupBuckets(
    ThreadPool& pool,
    std::unordered_map<TermId, std::vector<std::pair<PathId, TermId>>>& by_s,
    size_t* num_triples) {
  std::vector<std::vector<std::pair<PathId, TermId>>*> buckets;
  buckets.reserve(by_s.size());
  for (auto& [s, vec] : by_s) {
    (void)s;
    buckets.push_back(&vec);
  }
  ParallelFor(pool, buckets.size(), kBfsShards,
              [&](size_t /*shard*/, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  auto& vec = *buckets[i];
                  std::sort(vec.begin(), vec.end());
                  vec.erase(std::unique(vec.begin(), vec.end()), vec.end());
                }
              });
  *num_triples = 0;
  for (auto* vec : buckets) *num_triples += vec->size();
}

}  // namespace

PathId PathDictionary::InternExtension(PathId parent, PredId p) {
  const uint64_t key = ExtKey(parent, p);
  auto it = ext_index_.find(key);
  if (it != ext_index_.end()) return it->second;
  PathId id = static_cast<PathId>(paths_.size());
  PredPath child;
  if (parent != kInvalidPath) {
    const PredPath& base = paths_[parent];
    child.reserve(base.size() + 1);
    child = base;
  }
  child.push_back(p);
  paths_.push_back(std::move(child));
  ext_index_.emplace(key, id);
  return id;
}

PathId PathDictionary::Intern(const PredPath& path) {
  assert(!path.empty());
  PathId cur = kInvalidPath;
  for (PredId p : path) cur = InternExtension(cur, p);
  return cur;
}

std::optional<PathId> PathDictionary::Lookup(const PredPath& path) const {
  if (path.empty()) return std::nullopt;
  PathId cur = kInvalidPath;
  for (PredId p : path) {
    auto it = ext_index_.find(ExtKey(cur, p));
    if (it == ext_index_.end()) return std::nullopt;
    cur = it->second;
  }
  return cur;
}

std::string PathDictionary::ToString(PathId id, const KnowledgeBase& kb) const {
  const PredPath& path = GetPath(id);
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " -> ";
    out += kb.PredicateString(path[i]);
  }
  return out;
}

/// One frontier edge found by a scan shard. Shards record the *parent*
/// path id plus the extending predicate instead of interning, so the
/// dictionary is only touched by the serial commit — that is what makes
/// PathId numbering independent of the thread count.
struct ExpandedKb::Discovery {
  TermId origin;
  PathId parent;  // path walked before this edge; kInvalidPath at round 1
  PredId p;
  TermId o;
  uint8_t admissible;  // record (origin, parent+p, o) as an expanded triple
  uint8_t cont;        // o joins the next round's frontier
};

/// One walk in flight: origin seed, current node, interned path so far.
struct ExpandedKb::WalkEntry {
  TermId origin;
  TermId cur;
  PathId path;  // kInvalidPath for the empty path at round 0
};

Status ExpandedKb::CommitDiscoveries(const std::vector<Discovery>& discoveries,
                                     size_t* triples, size_t max_triples,
                                     std::vector<WalkEntry>* next) {
  for (const Discovery& d : discoveries) {
    PathId pid = paths_.InternExtension(d.parent, d.p);
    if (d.admissible) {
      if (*triples >= max_triples) {
        return Status::OutOfRange(
            "expanded-triple budget exhausted; raise "
            "ExpansionOptions::max_triples or lower max_length");
      }
      by_s_[d.origin].push_back({pid, d.o});
      ++*triples;
    }
    if (d.cont) next->push_back({d.origin, d.o, pid});
  }
  return Status::Ok();
}

Result<ExpandedKb> ExpandedKb::Build(
    const KnowledgeBase& kb, const std::vector<TermId>& seeds,
    const std::unordered_set<PredId>& name_like,
    const ExpansionOptions& options) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("ExpandedKb requires a frozen KB");
  }
  if (options.max_length < 1) {
    return Status::InvalidArgument("max_length must be >= 1");
  }

  ExpandedKb ekb;
  ThreadPool pool(options.num_threads);  // < 1 clamps to 1
  const std::vector<uint8_t> name_mask = NameMask(kb, name_like);

  std::vector<WalkEntry> frontier;
  frontier.reserve(seeds.size());
  {
    // Deduplicate seeds; a seed occurring twice must not double triples.
    std::unordered_set<TermId> seen;
    for (TermId s : seeds) {
      if (!kb.IsEntity(s)) continue;  // Literals cannot start a path.
      if (seen.insert(s).second) {
        frontier.push_back({s, s, kInvalidPath});
      }
    }
  }

  size_t triples = 0;
  for (int round = 1; round <= options.max_length && !frontier.empty();
       ++round) {
    KBQA_TRACE_SPAN("rdf.expand.round");
    KBQA_HISTOGRAM_RECORD("rdf.expand.frontier_size", frontier.size());
    const bool last_round = round == options.max_length;
    // Scan pass: shards read the (immutable) frontier and KB adjacency and
    // emit shard-local discovery buffers, merged in shard order.
    auto discoveries = ParallelReduce(
        pool, frontier.size(), kBfsShards, std::vector<Discovery>{},
        [&](size_t /*shard*/, size_t begin, size_t end) {
          std::vector<Discovery> local;
          for (size_t i = begin; i < end; ++i) {
            const WalkEntry& fe = frontier[i];
            for (const auto& [p, o] : kb.Out(fe.cur)) {
              const bool name_p = name_mask[p] != 0;
              // The tail rule (§6.3): length-1 paths always count; longer
              // ones only with a name-like tail unless disabled.
              const bool admissible =
                  round == 1 || !options.require_name_tail || name_p;
              // Walks continue through entity nodes only; literal objects
              // are leaves and a name-like edge is terminal by construction.
              const bool cont = !last_round && kb.IsEntity(o) && !name_p;
              if (admissible || cont) {
                local.push_back({fe.origin, fe.path, p, o,
                                 static_cast<uint8_t>(admissible),
                                 static_cast<uint8_t>(cont)});
              }
            }
          }
          return local;
        },
        [](std::vector<Discovery>& acc, std::vector<Discovery>&& part) {
          if (acc.empty()) {
            acc = std::move(part);
          } else {
            acc.insert(acc.end(), part.begin(), part.end());
          }
        });

    std::vector<WalkEntry> next;
    Status st = ekb.CommitDiscoveries(discoveries, &triples,
                                      options.max_triples, &next);
    if (!st.ok()) return st;
    frontier = std::move(next);
  }

  SortDedupBuckets(pool, ekb.by_s_, &ekb.num_triples_);
  return ekb;
}

Result<ExpandedKb> ExpandedKb::BuildFromDisk(
    const KnowledgeBase& kb, const std::string& ntriples_path,
    const std::vector<TermId>& seeds,
    const std::unordered_set<PredId>& name_like,
    const ExpansionOptions& options) {
  if (options.max_length < 1) {
    return Status::InvalidArgument("max_length must be >= 1");
  }

  ExpandedKb ekb;
  ThreadPool pool(options.num_threads);
  const std::vector<uint8_t> name_mask = NameMask(kb, name_like);

  // Frontier hash index: node -> walks that currently end at it. This is
  // the in-memory side of the paper's index+scan+join rounds; S0 is the
  // seed set. Strictly read-only while a round's blocks are in flight.
  struct Walk {
    TermId origin;
    PathId path;  // kInvalidPath for the empty walk
  };
  std::unordered_map<TermId, std::vector<Walk>> frontier;
  {
    std::unordered_set<TermId> seen;
    for (TermId s : seeds) {
      if (!kb.IsEntity(s)) continue;
      if (seen.insert(s).second) {
        frontier[s].push_back(Walk{s, kInvalidPath});
      }
    }
  }

  // Per-shard scan result for one line block: discoveries plus the first
  // parse error (merged in shard order = line order, so the reported error
  // is the same one the serial scan would hit first).
  struct Partial {
    std::vector<ExpandedKb::Discovery> discoveries;
    Status error = Status::Ok();
  };

  size_t triples = 0;
  for (int round = 1; round <= options.max_length && !frontier.empty();
       ++round) {
    KBQA_TRACE_SPAN("rdf.expand.round");
    KBQA_HISTOGRAM_RECORD("rdf.expand.frontier_size", frontier.size());
    const bool last_round = round == options.max_length;
    // Scan pass: stream the disk-resident KB once in line blocks; each
    // block is parsed and joined against the frontier in parallel.
    std::ifstream in(ntriples_path);
    if (!in) {
      return Status::IoError("cannot open KB file: " + ntriples_path);
    }
    std::vector<WalkEntry> next;
    std::vector<std::string> block;
    block.reserve(kScanBlockLines);
    std::string line;
    for (;;) {
      block.clear();
      while (block.size() < kScanBlockLines && std::getline(in, line)) {
        block.push_back(std::move(line));
      }
      if (block.empty()) break;

      Partial merged = ParallelReduce(
          pool, block.size(), kBfsShards, Partial{},
          [&](size_t /*shard*/, size_t begin, size_t end) {
            Partial local;
            for (size_t i = begin; i < end; ++i) {
              std::string_view trimmed = Trim(block[i]);
              if (trimmed.empty() || trimmed[0] == '#') continue;
              auto parsed = ParseNTripleLine(block[i]);
              if (!parsed.ok()) {
                local.error = Status::InvalidArgument(
                    "bad triple in " + ntriples_path + ": " +
                    parsed.status().message());
                break;
              }
              auto s = kb.LookupNode(parsed.value().subject);
              auto p = kb.LookupPredicate(parsed.value().predicate);
              auto o = kb.LookupNode(parsed.value().object);
              if (!s || !p || !o) continue;  // term unknown to the dictionary
              auto hit = frontier.find(*s);
              if (hit == frontier.end()) continue;
              for (const Walk& walk : hit->second) {
                const bool name_p = name_mask[*p] != 0;
                const bool admissible =
                    round == 1 || !options.require_name_tail || name_p;
                const bool cont = !last_round && kb.IsEntity(*o) && !name_p;
                if (admissible || cont) {
                  local.discoveries.push_back(
                      {walk.origin, walk.path, *p, *o,
                       static_cast<uint8_t>(admissible),
                       static_cast<uint8_t>(cont)});
                }
              }
            }
            return local;
          },
          [](Partial& acc, Partial&& part) {
            if (!acc.error.ok()) return;  // keep the earliest error
            if (acc.discoveries.empty()) {
              acc.discoveries = std::move(part.discoveries);
            } else {
              acc.discoveries.insert(acc.discoveries.end(),
                                     part.discoveries.begin(),
                                     part.discoveries.end());
            }
            if (!part.error.ok()) acc.error = std::move(part.error);
          });
      if (!merged.error.ok()) return merged.error;

      Status st = ekb.CommitDiscoveries(merged.discoveries, &triples,
                                        options.max_triples, &next);
      if (!st.ok()) return st;
    }

    // Reindex the next frontier by node, in deterministic discovery order.
    frontier.clear();
    for (const WalkEntry& w : next) {
      frontier[w.cur].push_back(Walk{w.origin, w.path});
    }
  }

  SortDedupBuckets(pool, ekb.by_s_, &ekb.num_triples_);
  return ekb;
}

std::span<const std::pair<PathId, TermId>> ExpandedKb::Out(TermId s) const {
  auto it = by_s_.find(s);
  if (it == by_s_.end()) return {};
  return it->second;
}

std::vector<TermId> ExpandedKb::Objects(TermId s, PathId path) const {
  std::vector<TermId> out;
  for (const auto& [pid, o] : Out(s)) {
    if (pid == path) out.push_back(o);
  }
  return out;
}

std::vector<PathId> ExpandedKb::ConnectingPaths(TermId s, TermId o) const {
  std::vector<PathId> out;
  for (const auto& [pid, obj] : Out(s)) {
    if (obj == o) out.push_back(pid);
  }
  return out;
}

size_t ExpandedKb::NumPathsOfLength(int length) const {
  // Count only paths that actually back at least one triple.
  std::vector<bool> used(paths_.size(), false);
  for (const auto& [s, vec] : by_s_) {
    (void)s;
    for (const auto& [pid, o] : vec) {
      (void)o;
      used[pid] = true;
    }
  }
  size_t count = 0;
  for (PathId id = 0; id < paths_.size(); ++id) {
    if (used[id] && paths_.GetPath(id).size() == static_cast<size_t>(length)) {
      ++count;
    }
  }
  return count;
}

size_t ExpandedKb::NumTriplesOfLength(int length) const {
  size_t count = 0;
  for (const auto& [s, vec] : by_s_) {
    (void)s;
    for (const auto& [pid, o] : vec) {
      (void)o;
      if (paths_.GetPath(pid).size() == static_cast<size_t>(length)) ++count;
    }
  }
  return count;
}

void ExpandedKb::ForEachTriple(
    const std::function<void(const ExpandedTriple&)>& fn) const {
  for (const auto& [s, vec] : by_s_) {
    for (const auto& [pid, o] : vec) {
      fn(ExpandedTriple{s, pid, o});
    }
  }
}

std::vector<TermId> ExpandedKb::Subjects() const {
  std::vector<TermId> subjects;
  subjects.reserve(by_s_.size());
  for (const auto& [s, vec] : by_s_) {
    (void)vec;
    subjects.push_back(s);
  }
  std::sort(subjects.begin(), subjects.end());
  return subjects;
}

uint64_t ExpandedKb::ApproxResidentBytes() const {
  // Hash-map node: key + vector header + bucket/next-pointer overhead
  // (~libstdc++ _Hash_node bookkeeping, counted conservatively at two
  // pointers per node plus one bucket slot).
  constexpr uint64_t kNodeOverhead =
      sizeof(TermId) + sizeof(std::vector<std::pair<PathId, TermId>>) +
      3 * sizeof(void*);
  uint64_t bytes = by_s_.size() * kNodeOverhead;
  for (const auto& [s, vec] : by_s_) {
    (void)s;
    bytes += vec.capacity() * sizeof(std::pair<PathId, TermId>);
  }
  for (size_t i = 0; i < paths_.size(); ++i) {
    bytes += sizeof(PredPath) +
             paths_.GetPath(static_cast<PathId>(i)).capacity() *
                 sizeof(PredId);
  }
  return bytes;
}

std::vector<TermId> ObjectsViaPath(const KnowledgeBase& kb, TermId e,
                                   const PredPath& path) {
  const auto append = [&kb](TermId node, PredId p,
                            std::vector<TermId>* next) {
    if (kb.IsLiteral(node)) return;
    for (const auto& po : kb.ObjectsRange(node, p)) next->push_back(po.o);
  };
  return WalkPath(e, path, append);
}

}  // namespace kbqa::rdf
