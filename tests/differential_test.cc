// Randomized differential test: locks every reasoning mode together.
//
// Each seed builds a random schema-closed graph and asserts that all
// answering routes — saturation, reformulation, backward chaining,
// Datalog, and Datalog with magic sets — agree on both storage backends. Environment knobs:
//
//   WDR_SEED            base seed (default 20250807)
//   WDR_DIFF_INSTANCES  number of instances (default 50)
//
// A failure prints the offending seed; rerun just that instance with
// WDR_SEED=<seed> WDR_DIFF_INSTANCES=1.
#include <cstdio>

#include <gtest/gtest.h>

#include "reasoning/saturation.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace wdr {
namespace {

constexpr uint64_t kDefaultBaseSeed = 20250807;
constexpr uint64_t kDefaultInstances = 50;

TEST(DifferentialTest, AllModesAgreeOnRandomInstances) {
  const uint64_t base_seed = test::EnvU64("WDR_SEED", kDefaultBaseSeed);
  const uint64_t instances =
      test::EnvU64("WDR_DIFF_INSTANCES", kDefaultInstances);
  std::printf("differential: %llu instances, base seed %llu\n",
              static_cast<unsigned long long>(instances),
              static_cast<unsigned long long>(base_seed));
  for (uint64_t i = 0; i < instances; ++i) {
    EXPECT_TRUE(test::RunDifferentialInstance(base_seed + i));
  }
}

// Larger, cyclic instances stress the round-barrier schedule harder: more
// rounds, bigger deltas, subclass/subproperty cycles.
TEST(DifferentialTest, AllModesAgreeOnDenseCyclicInstances) {
  const uint64_t base_seed =
      test::EnvU64("WDR_SEED", kDefaultBaseSeed) ^ 0xdeadbeefull;
  test::DifferentialConfig config;
  config.graph.classes = 10;
  config.graph.properties = 6;
  config.graph.individuals = 16;
  config.graph.schema_triples = 24;
  config.graph.instance_triples = 80;
  config.queries_per_instance = 3;
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(test::RunDifferentialInstance(base_seed + i, config));
  }
}

// Store-level lock: through the ReasoningStore front door, every per-read
// mode override — saturation, reformulation, backward, Datalog + magic,
// and the kAuto strategy selector — answers identically on every seed,
// backend, and encoding flag. Whatever route the online cost model picks,
// it can only change performance, never answers.
TEST(DifferentialTest, StoreModeOverridesAgreeOnRandomInstances) {
  const uint64_t base_seed = test::EnvU64("WDR_SEED", kDefaultBaseSeed);
  const uint64_t instances =
      test::EnvU64("WDR_DIFF_INSTANCES", kDefaultInstances);
  for (uint64_t i = 0; i < instances; ++i) {
    EXPECT_TRUE(test::RunStoreDifferentialInstance(base_seed + i));
  }
}

// Reformulated queries evaluated as joins of per-atom unions answer as the
// whole-query UCQ and saturation do, on shapes that stress the per-atom
// split (shared class and property variables, repeated variables, cross
// products, UNION, ASK, LIMIT/OFFSET, existence probes) and on random BGPs
// with partial projections, through the engine and the store front door.
TEST(DifferentialTest, JoinOfUnionsAgreesOnRandomInstances) {
  const uint64_t base_seed = test::EnvU64("WDR_SEED", kDefaultBaseSeed);
  const uint64_t instances =
      test::EnvU64("WDR_DIFF_INSTANCES", kDefaultInstances);
  for (uint64_t i = 0; i < instances; ++i) {
    EXPECT_TRUE(test::RunJucqDifferentialInstance(base_seed + i));
  }
}

// Contract check: SaturateInto must refuse a non-empty closure instead of
// silently mixing its triples into the result.
TEST(SaturateIntoContract, RejectsNonEmptyClosure) {
  rdf::Graph g;
  schema::Vocabulary vocab = schema::Vocabulary::Intern(g.dict());
  test::Add(g, "Cat", schema::iri::kSubClassOf, "Animal");
  test::Add(g, "Tom", schema::iri::kType, "Cat");

  reasoning::Saturator saturator(vocab, &g.dict());
  rdf::TripleStore closure;
  closure.Insert(rdf::Triple(1, 2, 3));
  Status status = saturator.SaturateInto(g.store(), closure);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The pre-existing triple must not have been mixed into anything.
  EXPECT_EQ(closure.size(), 1u);

  rdf::TripleStore fresh;
  EXPECT_TRUE(saturator.SaturateInto(g.store(), fresh).ok());
  EXPECT_GT(fresh.size(), g.size());
}

}  // namespace
}  // namespace wdr
