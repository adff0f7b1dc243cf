#include "core/model_io.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "util/atomic_file.h"

namespace kbqa::core {

namespace {

constexpr uint64_t kModelMagic = 0x4b42514d4f44454cULL;  // "KBQMODEL"

void WriteString(util::FileSink& w, const std::string& s) {
  w.WriteU64(s.size());
  w.WriteBytes(s.data(), s.size());
}
bool ReadU64(std::FILE* f, uint64_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}
bool ReadF64(std::FILE* f, double* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}
bool ReadString(std::FILE* f, std::string* s) {
  uint64_t n = 0;
  if (!ReadU64(f, &n) || n > (1ULL << 30)) return false;
  if (n > 0) {
    // Size the buffer only after confirming the file actually holds n more
    // bytes: a corrupt length header must fail as Corruption, not allocate
    // up to 1 GiB first.
    const long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return false;
    const long end = std::ftell(f);
    if (end < 0 || std::fseek(f, pos, SEEK_SET) != 0) return false;
    if (n > static_cast<uint64_t>(end - pos)) return false;
  }
  s->resize(n);
  return n == 0 || std::fread(s->data(), 1, n, f) == n;
}

}  // namespace

Status SaveModel(const TemplateStore& store, const rdf::PathDictionary& paths,
                 const rdf::KnowledgeBase& kb, const std::string& path) {
  // Crash-safe: a save that dies mid-write leaves the previous model at
  // `path` intact.
  return util::WriteFileAtomically(path, [&](util::FileSink& w) {
    w.WriteU64(kModelMagic);
    w.WriteU64(store.num_templates());
    for (TemplateId t = 0; w.ok() && t < store.num_templates(); ++t) {
      WriteString(w, store.TemplateText(t));
      w.WriteU64(store.Frequency(t));
      auto dist = store.Distribution(t);
      w.WriteU64(dist.size());
      for (const PredicateProb& entry : dist) {
        const rdf::PredPath& pred_path = paths.GetPath(entry.path);
        w.WriteU64(pred_path.size());
        for (rdf::PredId p : pred_path) {
          WriteString(w, kb.PredicateString(p));
        }
        w.WriteF64(entry.probability);
      }
    }
  });
}

Result<LoadedModel> LoadModel(const rdf::KnowledgeBase& kb,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  LoadedModel model;
  uint64_t magic = 0, num_templates = 0;
  bool ok = ReadU64(f, &magic) && magic == kModelMagic &&
            ReadU64(f, &num_templates);
  for (uint64_t t = 0; ok && t < num_templates; ++t) {
    std::string text;
    uint64_t frequency = 0, dist_size = 0;
    ok = ReadString(f, &text) && ReadU64(f, &frequency) &&
         ReadU64(f, &dist_size);
    if (!ok) break;
    TemplateId id = model.store.Intern(text);
    model.store.AddFrequency(id, frequency);
    std::vector<PredicateProb> dist;
    double dropped_mass = 0;
    for (uint64_t d = 0; ok && d < dist_size; ++d) {
      uint64_t path_len = 0;
      ok = ReadU64(f, &path_len) && path_len >= 1 && path_len <= 16;
      rdf::PredPath pred_path;
      bool resolvable = true;
      for (uint64_t i = 0; ok && i < path_len; ++i) {
        std::string pred_name;
        ok = ReadString(f, &pred_name);
        if (!ok) break;
        auto pred = kb.LookupPredicate(pred_name);
        if (pred) {
          pred_path.push_back(*pred);
        } else {
          resolvable = false;  // predicate no longer in the KB
        }
      }
      double probability = 0;
      ok = ok && ReadF64(f, &probability);
      // NaN would break SetDistribution's sort (strict weak ordering);
      // infinities and negatives are equally meaningless as probabilities.
      ok = ok && std::isfinite(probability) && probability >= 0;
      if (!ok) break;
      if (resolvable) {
        dist.push_back(
            PredicateProb{model.paths.Intern(pred_path), probability});
      } else {
        dropped_mass += probability;
      }
    }
    if (!ok) break;
    if (!dist.empty() && dropped_mass > 0) {
      const double keep = 1.0 - dropped_mass;
      if (keep > 0) {
        for (PredicateProb& entry : dist) entry.probability /= keep;
      }
    }
    model.store.SetDistribution(id, std::move(dist));
  }
  std::fclose(f);
  if (!ok) return Status::Corruption("malformed model file: " + path);
  return model;
}

}  // namespace kbqa::core
