// Fuzz target: KnowledgeBase snapshot loading, v3 framing (registry:
// src/rdf/knowledge_base.h, and util::FramedFileReader::Open in
// src/util/atomic_file.h, whose section reads every Load goes through —
// four sections in order, the most of any artifact). The seed is
// synthesized by saving a small KB with the current writer.

#include <algorithm>
#include <string>
#include <vector>

#include "fuzz/fuzz_driver.h"
#include "fuzz/targets/seed_util.h"
#include "rdf/knowledge_base.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  kbqa::fuzz::ScratchFile file(data, size);
  if (file.path().empty()) return 0;
  auto loaded = kbqa::rdf::KnowledgeBase::Load(file.path());
  if (!loaded.ok()) return 0;
  // Poke the CSR the loader rebuilt: a Load that "succeeds" on corrupt
  // bytes must still hand back a safely readable store.
  const kbqa::rdf::KnowledgeBase& kb = loaded.value();
  const size_t n = std::min<size_t>(kb.num_nodes(), 8);
  for (size_t s = 0; s < n; ++s) {
    const auto id = static_cast<kbqa::rdf::TermId>(s);
    (void)kb.Out(id);
    (void)kb.In(id);
    (void)kb.OutDegree(id);
  }
  (void)kb.EntitiesByName("Michelle Obama");
  return 0;
}

namespace kbqa::fuzz {

namespace {

rdf::KnowledgeBase MakeSeedKb() {
  rdf::KnowledgeBase kb;
  kb.SetNamePredicate(kb.AddPredicate("name"));
  kb.AddTriple("barack", "marriage", "m1", false);
  kb.AddTriple("m1", "person", "michelle", false);
  kb.AddTriple("michelle", "name", "Michelle Obama", true);
  kb.AddTriple("barack", "name", "Barack Obama", true);
  kb.AddTriple("barack", "job", "president", true);
  kb.Freeze();
  return kb;
}

}  // namespace

std::vector<std::string> SeedInputs() {
  std::vector<std::string> seeds;
  SeedTempPath tmp("kb");
  if (MakeSeedKb().Save(tmp.path()).ok()) {
    seeds.push_back(FileBytes(tmp.path()));
  }
  return seeds;
}

std::vector<std::string> Dictionary() {
  // The magic (first 8 bytes of the seed) as a splice token.
  std::vector<std::string> dict;
  for (const std::string& seed : SeedInputs()) {
    if (seed.size() >= 8) dict.push_back(seed.substr(0, 8));
  }
  return dict;
}

}  // namespace kbqa::fuzz
