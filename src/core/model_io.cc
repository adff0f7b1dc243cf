#include "core/model_io.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/coding.h"

namespace kbqa::core {

namespace {

constexpr uint64_t kModelMagic = 0x4b42514d4f444c32ULL;  // "KBQMODL2"

// Layout (util/atomic_file.h framing): u64 magic "KBQMODL2", then one
// section, encoded with util/coding.h:
//   varint num_templates, then per template:
//     string text, varint frequency, varint dist_size, then per entry:
//       varint path_len, path_len predicate-name strings,
//       fixed64 probability (the double's bit pattern: round trips exactly)
// A string is a varint length followed by its bytes.

void PutString(std::string* dst, std::string_view s) {
  util::PutVarint64(dst, s.size());
  dst->append(s);
}

const uint8_t* GetString(const uint8_t* p, const uint8_t* limit,
                         std::string* s) {
  uint64_t n = 0;
  p = util::GetVarint64(p, limit, &n);
  if (p == nullptr || n > static_cast<uint64_t>(limit - p)) return nullptr;
  s->assign(reinterpret_cast<const char*>(p), static_cast<size_t>(n));
  return p + n;
}

}  // namespace

Status SaveModel(const TemplateStore& store, const rdf::PathDictionary& paths,
                 const rdf::KnowledgeBase& kb, const std::string& path) {
  std::string enc;
  util::PutVarint64(&enc, store.num_templates());
  for (TemplateId t = 0; t < store.num_templates(); ++t) {
    PutString(&enc, store.TemplateText(t));
    util::PutVarint64(&enc, store.Frequency(t));
    auto dist = store.Distribution(t);
    util::PutVarint64(&enc, dist.size());
    for (const PredicateProb& entry : dist) {
      const rdf::PredPath& pred_path = paths.GetPath(entry.path);
      util::PutVarint64(&enc, pred_path.size());
      for (rdf::PredId p : pred_path) PutString(&enc, kb.PredicateString(p));
      util::PutFixed64(&enc, std::bit_cast<uint64_t>(entry.probability));
    }
  }
  // Crash-safe: a save that dies mid-write leaves the previous model at
  // `path` intact.
  return util::WriteFileAtomically(path, [&](util::FileSink& w) {
    w.WriteU64(kModelMagic);
    w.WriteSection(enc);
  });
}

Result<LoadedModel> LoadModel(const rdf::KnowledgeBase& kb,
                              const std::string& path) {
  auto opened = util::FramedFileReader::Open(path);
  if (!opened.ok()) return opened.status();
  util::FramedFileReader& file = opened.value();
  if (file.magic() != kModelMagic) return file.Corruption("bad magic");
  std::string enc;
  if (Status st = file.ReadSection("model", &enc); !st.ok()) return st;
  if (file.remaining() != 0) return file.Corruption("trailing bytes");
  auto fail = [&file](std::string_view what) -> Result<LoadedModel> {
    return file.Corruption("bad model " + std::string(what));
  };

  const uint8_t* p = reinterpret_cast<const uint8_t*>(enc.data());
  const uint8_t* const limit = p + enc.size();
  LoadedModel model;
  uint64_t num_templates = 0;
  if ((p = util::GetVarint64(p, limit, &num_templates)) == nullptr) {
    return fail("template count");
  }
  std::string text;
  std::string pred_name;
  for (uint64_t t = 0; t < num_templates; ++t) {
    uint64_t frequency = 0, dist_size = 0;
    if ((p = GetString(p, limit, &text)) == nullptr) {
      return fail("template text");
    }
    if ((p = util::GetVarint64(p, limit, &frequency)) == nullptr ||
        (p = util::GetVarint64(p, limit, &dist_size)) == nullptr) {
      return fail("template header");
    }
    const TemplateId id = model.store.Intern(text);
    model.store.AddFrequency(id, frequency);
    std::vector<PredicateProb> dist;
    double dropped_mass = 0;
    for (uint64_t d = 0; d < dist_size; ++d) {
      uint64_t path_len = 0;
      p = util::GetVarint64(p, limit, &path_len);
      if (p == nullptr || path_len < 1 || path_len > 16) {
        return fail("predicate path length");
      }
      rdf::PredPath pred_path;
      bool resolvable = true;
      for (uint64_t i = 0; i < path_len; ++i) {
        if ((p = GetString(p, limit, &pred_name)) == nullptr) {
          return fail("predicate name");
        }
        auto pred = kb.LookupPredicate(pred_name);
        if (pred) {
          pred_path.push_back(*pred);
        } else {
          resolvable = false;  // predicate no longer in the KB
        }
      }
      uint64_t bits = 0;
      if ((p = util::GetFixed64(p, limit, &bits)) == nullptr) {
        return fail("probability");
      }
      const double probability = std::bit_cast<double>(bits);
      // NaN would break SetDistribution's sort (strict weak ordering);
      // infinities and negatives are equally meaningless as probabilities.
      if (!std::isfinite(probability) || probability < 0) {
        return fail("probability");
      }
      if (resolvable) {
        dist.push_back(
            PredicateProb{model.paths.Intern(pred_path), probability});
      } else {
        dropped_mass += probability;
      }
    }
    if (!dist.empty() && dropped_mass > 0) {
      const double keep = 1.0 - dropped_mass;
      if (keep > 0) {
        for (PredicateProb& entry : dist) entry.probability /= keep;
      }
    }
    model.store.SetDistribution(id, std::move(dist));
  }
  if (p != limit) return file.Corruption("trailing model bytes");
  return model;
}

}  // namespace kbqa::core
