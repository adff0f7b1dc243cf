#include "rdf/mutable_kb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rdf/knowledge_base.h"
#include "util/rng.h"

namespace kbqa::rdf {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Saves both stores and compares the snapshot bytes — Save serializes
/// the frozen CSR directly, so byte equality is bit-identity of the
/// entire frozen layout (dictionaries, node kinds, both CSR directions).
void ExpectBitIdentical(const KnowledgeBase& a, const KnowledgeBase& b,
                        const std::string& tag) {
  const std::string pa = ::testing::TempDir() + "/mkb_a_" + tag + ".bin";
  const std::string pb = ::testing::TempDir() + "/mkb_b_" + tag + ".bin";
  ASSERT_TRUE(a.Save(pa).ok());
  ASSERT_TRUE(b.Save(pb).ok());
  EXPECT_EQ(ReadFileBytes(pa), ReadFileBytes(pb)) << tag;
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

/// From-scratch freeze of the mutated world: an independent replay of the
/// op-log semantics through the public KnowledgeBase API. Base dictionary
/// entries are re-interned in id order first (the id-stability invariant),
/// then ops replay in order — adds intern unseen strings as they appear,
/// deletes never intern — over a plain triple set.
KnowledgeBase BuildReference(const KnowledgeBase& base,
                             const std::vector<MutationOp>& ops,
                             int num_threads) {
  KnowledgeBase next;
  for (TermId id = 0; id < base.num_nodes(); ++id) {
    if (base.IsLiteral(id)) {
      next.AddLiteral(base.NodeString(id));
    } else {
      next.AddEntity(base.NodeString(id));
    }
  }
  for (PredId p = 0; p < base.num_predicates(); ++p) {
    next.AddPredicate(base.PredicateString(p));
  }
  if (base.name_predicate() != kInvalidPred) {
    next.SetNamePredicate(base.name_predicate());
  }
  std::set<std::array<uint64_t, 3>> triples;
  for (TermId s = 0; s < base.num_nodes(); ++s) {
    for (const PredicateObject& po : base.Out(s)) {
      triples.insert({s, po.p, po.o});
    }
  }
  for (const MutationOp& op : ops) {
    if (op.is_delete) {
      auto s = next.LookupNode(op.s);
      auto p = next.LookupPredicate(op.p);
      auto o = next.LookupNode(op.o);
      if (!s || !p || !o) continue;
      triples.erase({*s, *p, *o});
      continue;
    }
    const TermId s = next.AddEntity(op.s);
    const PredId p = next.AddPredicate(op.p);
    const TermId o =
        op.object_is_literal ? next.AddLiteral(op.o) : next.AddEntity(op.o);
    triples.insert({s, p, o});
  }
  for (const auto& t : triples) {
    next.AddTriple(static_cast<TermId>(t[0]), static_cast<PredId>(t[1]),
                   static_cast<TermId>(t[2]));
  }
  next.Freeze(num_threads);
  return next;
}

/// The paper's Figure 1 toy world (same facts as rdf_test's fixture).
KnowledgeBase BuildToyKb() {
  KnowledgeBase kb;
  PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  kb.AddTriple("person/a", "name", "barack obama", true);
  kb.AddTriple("person/a", "dob", "1961", true);
  kb.AddTriple("person/a", "pob", "city/d", false);
  kb.AddTriple("person/a", "marriage", "marriage/b", false);
  kb.AddTriple("marriage/b", "person", "person/c", false);
  kb.AddTriple("marriage/b", "date", "1992", true);
  kb.AddTriple("person/c", "name", "michelle obama", true);
  kb.AddTriple("person/c", "dob", "1964", true);
  kb.AddTriple("city/d", "name", "honolulu", true);
  kb.AddTriple("city/d", "population", "390000", true);
  kb.Freeze();
  return kb;
}

MutableKb::Options ManualMerge() {
  MutableKb::Options options;
  options.auto_merge = false;
  return options;
}

TEST(MutableKbTest, AddIsVisibleBeforeAnyMerge) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto before = live.Pin();
  const TermId a = *before->LookupNode("person/a");
  const PredId dob = *before->LookupPredicate("dob");

  live.AddTriple("person/a", "dob", "1962", /*object_is_literal=*/true);

  auto after = live.Pin();
  EXPECT_EQ(after->epoch, 0u);
  EXPECT_EQ(after->version, 1u);
  const TermId v1962 = *after->LookupNode("1962");
  EXPECT_GE(v1962, before->base->num_nodes());  // overlay node
  EXPECT_TRUE(after->IsLiteral(v1962));
  EXPECT_EQ(after->NodeString(v1962), "1962");
  EXPECT_EQ(after->Objects(a, dob),
            (std::vector<TermId>{*before->LookupNode("1961"), v1962}));
  // The pinned pre-mutation snapshot is untouched (RCU isolation).
  EXPECT_EQ(before->Objects(a, dob),
            (std::vector<TermId>{*before->LookupNode("1961")}));
}

TEST(MutableKbTest, DeleteTombstonesAndLaterOpWins) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto snap = live.Pin();
  const TermId a = *snap->LookupNode("person/a");
  const PredId dob = *snap->LookupPredicate("dob");
  const TermId y1961 = *snap->LookupNode("1961");

  live.DeleteTriple("person/a", "dob", "1961");
  EXPECT_TRUE(live.Pin()->Objects(a, dob).empty());
  EXPECT_FALSE(live.Pin()->HasTriple(a, dob, y1961));

  // Later op wins: re-add resurrects the base triple (tombstone cleared),
  // without duplicating it.
  live.AddTriple("person/a", "dob", "1961", true);
  EXPECT_EQ(live.Pin()->Objects(a, dob), (std::vector<TermId>{y1961}));
  EXPECT_TRUE(live.Pin()->HasTriple(a, dob, y1961));

  // Deleting an overlay add removes it again.
  live.AddTriple("person/a", "dob", "1962", true);
  live.DeleteTriple("person/a", "dob", "1962");
  EXPECT_EQ(live.Pin()->Objects(a, dob), (std::vector<TermId>{y1961}));

  // Deleting unknown strings is a no-op and interns nothing.
  const size_t nodes_before = live.Pin()->num_nodes();
  live.DeleteTriple("person/a", "dob", "never seen");
  live.DeleteTriple("ghost", "dob", "1961");
  EXPECT_EQ(live.Pin()->num_nodes(), nodes_before);
  EXPECT_EQ(live.Pin()->Objects(a, dob), (std::vector<TermId>{y1961}));
}

TEST(MutableKbTest, MergedPathWalkSeesOverlayHops) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto snap = live.Pin();
  const TermId a = *snap->LookupNode("person/a");
  const PredId marriage = *snap->LookupPredicate("marriage");
  const PredId name = *snap->LookupPredicate("name");
  const PredId person = *snap->LookupPredicate("person");

  // Add a second marriage CVT entirely in the overlay, then walk
  // marriage -> person -> name across base and overlay hops.
  live.AddTriple("person/a", "marriage", "marriage/b2", false);
  live.AddTriple("marriage/b2", "person", "person/e", false);
  live.AddTriple("person/e", "name", "jane roe", true);

  auto after = live.Pin();
  const PredPath path = {marriage, person, name};
  const std::vector<TermId> names = after->ObjectsViaPath(a, path);
  std::vector<std::string> strings;
  for (TermId id : names) strings.push_back(after->NodeString(id));
  std::sort(strings.begin(), strings.end());
  EXPECT_EQ(strings,
            (std::vector<std::string>{"jane roe", "michelle obama"}));

  // Tombstoning the base hop prunes that branch of the walk.
  live.DeleteTriple("person/a", "marriage", "marriage/b");
  const std::vector<TermId> pruned = live.Pin()->ObjectsViaPath(a, path);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(live.Pin()->NodeString(pruned[0]), "jane roe");
}

TEST(MutableKbTest, MergePreservesBaseIdsAndEmptiesOverlay) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto before = live.Pin();
  const TermId a = *before->LookupNode("person/a");
  const TermId honolulu = *before->LookupNode("honolulu");
  const PredId dob = *before->LookupPredicate("dob");

  live.AddTriple("person/a", "spouse_count", "2", true);
  live.DeleteTriple("city/d", "population", "390000");
  const TermId overlay_id = *live.Pin()->LookupNode("2");

  live.ForceMerge();
  auto merged = live.Pin();
  EXPECT_EQ(merged.get() == before.get(), false);
  EXPECT_EQ(merged->epoch, 1u);
  EXPECT_TRUE(merged->overlay->empty());
  EXPECT_EQ(live.pending_ops(), 0u);
  // Id stability: every base id and the overlay-assigned id survive.
  EXPECT_EQ(*merged->base->LookupNode("person/a"), a);
  EXPECT_EQ(*merged->base->LookupNode("honolulu"), honolulu);
  EXPECT_EQ(*merged->base->LookupPredicate("dob"), dob);
  EXPECT_EQ(*merged->base->LookupNode("2"), overlay_id);
  // The merged base itself answers the mutated world.
  const PredId pop = *merged->base->LookupPredicate("population");
  const TermId d = *merged->base->LookupNode("city/d");
  EXPECT_TRUE(merged->base->Objects(d, pop).empty());
}

TEST(MutableKbTest, MergeIsBitIdenticalToFromScratchFreezeAtEveryThreadCount) {
  // Randomized storm: adds of new and existing triples, deletes of real
  // and bogus triples, across three merge epochs, then byte-compare the
  // final base against an independent from-scratch freeze of the ground
  // truth op log at several thread counts.
  KnowledgeBase base = BuildToyKb();
  const std::string base_path = ::testing::TempDir() + "/mkb_seed.bin";
  ASSERT_TRUE(base.Save(base_path).ok());
  auto reloaded = KnowledgeBase::Load(base_path);
  ASSERT_TRUE(reloaded.ok());
  std::remove(base_path.c_str());

  MutableKb live(std::move(reloaded.value()), ManualMerge());
  Rng rng(20260808);
  std::vector<MutationOp> ground_truth;

  const std::vector<std::string> subjects = {"person/a", "person/c", "city/d",
                                             "person/new1", "person/new2"};
  const std::vector<std::string> preds = {"dob", "pob", "likes", "visited"};
  const std::vector<std::string> objects = {"1961", "1964", "honolulu",
                                            "city/d", "paris", "42"};
  for (int round = 0; round < 3; ++round) {
    std::vector<MutationOp> batch;
    for (int i = 0; i < 40; ++i) {
      MutationOp op;
      op.is_delete = rng.Uniform(3) == 0;
      op.s = subjects[rng.Uniform(subjects.size())];
      op.p = preds[rng.Uniform(preds.size())];
      op.o = objects[rng.Uniform(objects.size())];
      op.object_is_literal = op.o.find('/') == std::string::npos;
      batch.push_back(op);
      ground_truth.push_back(op);
    }
    live.Apply(batch);
    live.ForceMerge();
  }

  auto merged = live.Pin();
  ASSERT_TRUE(merged->overlay->empty());
  EXPECT_EQ(merged->epoch, 3u);
  for (int threads : {1, 2, 4}) {
    KnowledgeBase reference = BuildReference(base, ground_truth, threads);
    ExpectBitIdentical(*merged->base, reference,
                       std::string("t").append(std::to_string(threads)));
  }

  // Pre-merge equivalence too: apply more ops WITHOUT merging and check
  // the merged-read view against a reference freeze of the longer log.
  std::vector<MutationOp> tail;
  for (int i = 0; i < 25; ++i) {
    MutationOp op;
    op.is_delete = rng.Uniform(4) == 0;
    op.s = subjects[rng.Uniform(subjects.size())];
    op.p = preds[rng.Uniform(preds.size())];
    op.o = objects[rng.Uniform(objects.size())];
    op.object_is_literal = op.o.find('/') == std::string::npos;
    tail.push_back(op);
    ground_truth.push_back(op);
  }
  live.Apply(tail);
  auto overlaid = live.Pin();
  ASSERT_FALSE(overlaid->overlay->empty());
  KnowledgeBase reference = BuildReference(base, ground_truth, 1);
  ASSERT_EQ(overlaid->num_nodes(), reference.num_nodes());
  ASSERT_EQ(overlaid->num_predicates(), reference.num_predicates());
  for (TermId s = 0; s < reference.num_nodes(); ++s) {
    EXPECT_EQ(overlaid->IsLiteral(s), reference.IsLiteral(s));
    EXPECT_EQ(overlaid->NodeString(s), reference.NodeString(s));
    for (PredId p = 0; p < reference.num_predicates(); ++p) {
      EXPECT_EQ(overlaid->Objects(s, p), reference.Objects(s, p))
          << "s=" << s << " p=" << p;
    }
  }
  // And after one more merge the overlay drains into an identical freeze.
  live.ForceMerge();
  ExpectBitIdentical(*live.Pin()->base, reference, "tail");
}

TEST(MutableKbTest, VersionEpochAccountingAndPublishHook) {
  MutableKb live(BuildToyKb(), ManualMerge());
  EXPECT_EQ(live.version(), 0u);
  EXPECT_EQ(live.epoch(), 0u);

  std::atomic<uint64_t> hook_epoch{0};
  std::atomic<int> hook_calls{0};
  live.SetPublishHook([&](const std::shared_ptr<const KbSnapshot>& snap) {
    hook_epoch.store(snap->epoch);
    hook_calls.fetch_add(1);
  });

  live.AddTriple("person/a", "dob", "1962", true);
  live.AddTriple("person/a", "dob", "1963", true);
  EXPECT_EQ(live.version(), 2u);
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.pending_ops(), 2u);
  EXPECT_EQ(hook_calls.load(), 0);  // Apply publishes no epoch

  live.ForceMerge();
  EXPECT_EQ(live.version(), 3u);  // merge publish bumps version too
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(live.merges_completed(), 1u);
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(hook_epoch.load(), 1u);
  EXPECT_EQ(live.Pin()->version, live.version());

  // ForceMerge with nothing pending is a no-op (no epoch churn).
  live.ForceMerge();
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(hook_calls.load(), 1);
}

TEST(MutableKbTest, AutoMergeTriggersInBackground) {
  MutableKb::Options options;
  options.merge_trigger_ops = 4;
  options.merge_threads = 2;
  MutableKb live(BuildToyKb(), options);
  for (int i = 0; i < 5; ++i) {
    live.AddTriple("person/a", "visited", "place_" + std::to_string(i),
                   false);
  }
  live.WaitForMergeIdle();
  EXPECT_GE(live.merges_completed(), 1u);
  EXPECT_GE(live.epoch(), 1u);
  EXPECT_LT(live.pending_ops(), 4u);
  auto snap = live.Pin();
  const TermId a = *snap->LookupNode("person/a");
  const PredId visited = *snap->LookupPredicate("visited");
  EXPECT_EQ(snap->Objects(a, visited).size(), 5u);
}

}  // namespace
}  // namespace kbqa::rdf
