#ifndef KBQA_CORE_MODEL_IO_H_
#define KBQA_CORE_MODEL_IO_H_

#include <string>

#include "core/template_store.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "util/status.h"

namespace kbqa::core {

/// A deserialized offline artifact: the template store plus the path
/// dictionary its PathIds refer to.
struct LoadedModel {
  TemplateStore store;
  rdf::PathDictionary paths;
};

/// Persists the learned model (templates, frequencies, P(p|t)) to a binary
/// file: magic "KBQMODL2" and one checksummed section (DESIGN.md §7).
/// Predicate paths are stored by *predicate name*, not by id, so a
/// model can be loaded against any knowledge base that defines the same
/// predicates — the offline procedure runs once (§7.4) and its artifact is
/// reusable across processes. Crash-safe (util::WriteFileAtomically): a
/// save that dies mid-write never clobbers the previous model at `path`.
[[nodiscard]] Status SaveModel(const TemplateStore& store, const rdf::PathDictionary& paths,
                 const rdf::KnowledgeBase& kb, const std::string& path);

/// Loads a model written by SaveModel; a bad magic, a failed checksum or a
/// malformed field is a Corruption. Distribution entries whose predicate
/// names are absent from `kb` are dropped (and the distribution
/// renormalized) rather than failing — the usual KB-evolution semantics.
[[nodiscard]] Result<LoadedModel> LoadModel(const rdf::KnowledgeBase& kb,
                              const std::string& path);

}  // namespace kbqa::core

#endif  // KBQA_CORE_MODEL_IO_H_
