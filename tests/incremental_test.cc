#include "reasoning/saturated_graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "schema/vocabulary.h"
#include "tests/test_util.h"

namespace wdr::reasoning {
namespace {

using rdf::Graph;
using rdf::Triple;
using rdf::TripleStore;
using schema::Vocabulary;
using test::Add;
using test::Enc;

// Recomputes the closure of `sg`'s base from scratch and compares with the
// incrementally maintained closure.
void ExpectClosureMatchesRebuild(const SaturatedGraph& sg,
                                 const std::string& context) {
  Saturator saturator(sg.vocab(), &sg.base().dict());
  TripleStore expected = saturator.Saturate(sg.base().store());
  EXPECT_EQ(sg.closure().ToVector(), expected.ToVector()) << context;
}

class IncrementalTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());
};

TEST_F(IncrementalTest, InsertPropagatesThroughHierarchy) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Mammal", schema::iri::kSubClassOf, "Animal");
  SaturatedGraph sg(g_, v_);
  size_t added = sg.Insert(Enc(g_, "Tom", schema::iri::kType, "Cat"));
  EXPECT_EQ(added, 3u);  // Tom:Cat, Tom:Mammal, Tom:Animal
  EXPECT_TRUE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Animal")));
  ExpectClosureMatchesRebuild(sg, "after instance insert");
}

TEST_F(IncrementalTest, InsertAlreadyEntailedTripleAddsNothing) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  SaturatedGraph sg(g_, v_);
  size_t added = sg.Insert(Enc(g_, "Tom", schema::iri::kType, "Mammal"));
  EXPECT_EQ(added, 0u);
  // But it is now a base triple: deleting the Cat typing keeps Mammal.
  sg.Erase(Enc(g_, "Tom", schema::iri::kType, "Cat"));
  EXPECT_TRUE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Mammal")));
  ExpectClosureMatchesRebuild(sg, "after erase of entailing triple");
}

TEST_F(IncrementalTest, DeleteRetractsDerivedTriples) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  SaturatedGraph sg(g_, v_);
  size_t removed = sg.Erase(Enc(g_, "Tom", schema::iri::kType, "Cat"));
  EXPECT_EQ(removed, 2u);  // the base triple and Tom:Mammal
  EXPECT_FALSE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Mammal")));
  ExpectClosureMatchesRebuild(sg, "after delete");
}

TEST_F(IncrementalTest, DeleteKeepsTriplesWithOtherDerivations) {
  // Tom is a Mammal via Cat and via Pet; deleting the Cat typing must keep
  // the Mammal typing alive (DRed re-derivation).
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Pet", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  Add(g_, "Tom", schema::iri::kType, "Pet");
  SaturatedGraph sg(g_, v_);
  sg.Erase(Enc(g_, "Tom", schema::iri::kType, "Cat"));
  EXPECT_TRUE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Mammal")));
  ExpectClosureMatchesRebuild(sg, "after delete with alternate support");
}

TEST_F(IncrementalTest, SchemaInsertRetypesExistingInstances) {
  Add(g_, "Tom", schema::iri::kType, "Cat");
  Add(g_, "Rex", schema::iri::kType, "Dog");
  SaturatedGraph sg(g_, v_);
  size_t added =
      sg.Insert(Enc(g_, "Cat", schema::iri::kSubClassOf, "Mammal"));
  EXPECT_EQ(added, 2u);  // the edge itself + Tom:Mammal
  EXPECT_TRUE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Mammal")));
  EXPECT_FALSE(
      sg.closure().Contains(Enc(g_, "Rex", schema::iri::kType, "Mammal")));
  ExpectClosureMatchesRebuild(sg, "after schema insert");
}

TEST_F(IncrementalTest, SchemaDeleteRetractsCascade) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Mammal", schema::iri::kSubClassOf, "Animal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  SaturatedGraph sg(g_, v_);
  ASSERT_TRUE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Animal")));
  sg.Erase(Enc(g_, "Cat", schema::iri::kSubClassOf, "Mammal"));
  EXPECT_FALSE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Mammal")));
  EXPECT_FALSE(
      sg.closure().Contains(Enc(g_, "Tom", schema::iri::kType, "Animal")));
  EXPECT_FALSE(sg.closure().Contains(
      Enc(g_, "Cat", schema::iri::kSubClassOf, "Animal")));
  ExpectClosureMatchesRebuild(sg, "after schema delete");
}

TEST_F(IncrementalTest, DeleteInsideSubclassCycle) {
  // Cycles are the case where derivation counting fails; DRed must get
  // this right: breaking the cycle retracts the equivalence.
  Add(g_, "A", schema::iri::kSubClassOf, "B");
  Add(g_, "B", schema::iri::kSubClassOf, "C");
  Add(g_, "C", schema::iri::kSubClassOf, "A");
  Add(g_, "x", schema::iri::kType, "A");
  SaturatedGraph sg(g_, v_);
  ASSERT_TRUE(
      sg.closure().Contains(Enc(g_, "B", schema::iri::kSubClassOf, "A")));
  sg.Erase(Enc(g_, "C", schema::iri::kSubClassOf, "A"));
  EXPECT_FALSE(
      sg.closure().Contains(Enc(g_, "B", schema::iri::kSubClassOf, "A")));
  EXPECT_TRUE(
      sg.closure().Contains(Enc(g_, "x", schema::iri::kType, "C")));
  ExpectClosureMatchesRebuild(sg, "after breaking a cycle");
}

TEST_F(IncrementalTest, EraseOfAbsentTripleIsANoOp) {
  Add(g_, "Tom", schema::iri::kType, "Cat");
  SaturatedGraph sg(g_, v_);
  EXPECT_EQ(sg.Erase(Enc(g_, "Tom", schema::iri::kType, "Dog")), 0u);
  ExpectClosureMatchesRebuild(sg, "after no-op erase");
}

TEST_F(IncrementalTest, StatsAccumulate) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  SaturatedGraph sg(g_, v_);
  sg.Insert(Enc(g_, "Tom", schema::iri::kType, "Cat"));
  sg.Erase(Enc(g_, "Tom", schema::iri::kType, "Cat"));
  EXPECT_EQ(sg.stats().inserts, 1u);
  EXPECT_EQ(sg.stats().deletes, 1u);
  EXPECT_GT(sg.stats().closure_added, 0u);
  EXPECT_GT(sg.stats().closure_removed, 0u);
}

// Drives one seeded random stream of inserts and deletes (instance and
// schema alike) through a SaturatedGraph, then checks the maintained
// closure against a from-scratch re-saturation of the maintained base.
// Invariant 3 of DESIGN.md.
void RunRandomUpdateStream(uint64_t seed) {
  Rng rng(seed);
  test::RandomGraph rg = test::MakeRandomGraph(rng, {});
  SaturatedGraph sg(rg.graph, rg.vocab);

  // Build an update pool: triples currently in the base plus fresh ones.
  std::vector<Triple> base = rg.graph.store().ToVector();
  for (int step = 0; step < 40; ++step) {
    bool remove = rng.Chance(0.45) && !base.empty();
    if (remove) {
      size_t pick = static_cast<size_t>(rng.Uniform(0, base.size() - 1));
      sg.Erase(base[pick]);
      base.erase(base.begin() + pick);
    } else {
      // Random (possibly already present) triple over the same universe.
      auto pick_any = [&](const std::vector<rdf::TermId>& pool) {
        return pool[static_cast<size_t>(rng.Uniform(0, pool.size() - 1))];
      };
      Triple t;
      switch (rng.Uniform(0, 3)) {
        case 0:
          t = Triple(pick_any(rg.individuals), rg.vocab.type,
                     pick_any(rg.classes));
          break;
        case 1:
          t = Triple(pick_any(rg.classes), rg.vocab.sub_class_of,
                     pick_any(rg.classes));
          break;
        case 2:
          t = Triple(pick_any(rg.properties), rg.vocab.domain,
                     pick_any(rg.classes));
          break;
        default:
          t = Triple(pick_any(rg.individuals), pick_any(rg.properties),
                     pick_any(rg.individuals));
      }
      sg.Insert(t);
      if (std::find(base.begin(), base.end(), t) == base.end()) {
        base.push_back(t);
      }
    }
  }

  Saturator saturator(sg.vocab(), &sg.base().dict());
  TripleStore expected = saturator.Saturate(sg.base().store());
  ASSERT_EQ(sg.closure().ToVector(), expected.ToVector())
      << "seed " << seed;
}

TEST(IncrementalPropertyTest, RandomUpdateStreamMatchesRebuild) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    RunRandomUpdateStream(seed);
  }
}

}  // namespace
}  // namespace wdr::reasoning
