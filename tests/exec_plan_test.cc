// wdr::exec operator corners and planner properties: empty inputs,
// all-duplicate batches, LIMIT landing mid-batch, degraded planning on
// empty/stale statistics, and randomized plan-vs-legacy answer equality
// through the query evaluator.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "exec/source.h"
#include "exec/statistics.h"
#include "query/evaluator.h"
#include "rdf/graph.h"
#include "tests/test_util.h"

namespace wdr {
namespace {

using exec::AtomTerm;
using exec::Batch;
using exec::ColId;
using exec::CompiledPlan;
using exec::ConjunctiveSpec;
using exec::ExecOptions;
using exec::OpKind;
using exec::PlanConjunct;
using exec::PlanNode;
using exec::PlannerOptions;
using exec::Slot;
using exec::Value;

// In-memory table source for operator-level tests.
class VectorSource final : public exec::TupleSource {
 public:
  VectorSource(size_t arity, std::vector<std::vector<Value>> rows)
      : arity_(arity), rows_(std::move(rows)) {}

  size_t arity() const override { return arity_; }

  bool Scan(const Value* values, const uint8_t* bound,
            exec::FunctionRef<bool(const Value*)> fn) const override {
    for (const auto& row : rows_) {
      if (!Matches(row, values, bound)) continue;
      if (!fn(row.data())) return false;
    }
    return true;
  }

  // StoreEstimator-compatible triple interface (0 = wildcard; tests using
  // it only store values >= 1).
  size_t EstimateCount(Value s, Value p, Value o) const {
    Value vals[3] = {s, p, o};
    uint8_t bound[3] = {s != 0, p != 0, o != 0};
    size_t n = 0;
    for (const auto& row : rows_) {
      if (Matches(row, vals, bound)) ++n;
    }
    return n;
  }

 private:
  bool Matches(const std::vector<Value>& row, const Value* values,
               const uint8_t* bound) const {
    for (size_t i = 0; i < arity_; ++i) {
      if (bound[i] && row[i] != values[i]) return false;
    }
    return true;
  }

  size_t arity_;
  std::vector<std::vector<Value>> rows_;
};

std::vector<std::vector<Value>> Collect(const PlanNode& plan,
                                        const std::vector<const exec::TupleSource*>& sources,
                                        size_t batch_rows) {
  std::vector<std::vector<Value>> out;
  ExecOptions options;
  options.batch_rows = batch_rows;
  bool completed = exec::Run(
      plan, sources, options,
      [&](const Value* row, size_t width) {
        out.emplace_back(row, row + width);
        return true;
      });
  EXPECT_TRUE(completed);
  return out;
}

std::unique_ptr<PlanNode> ScanAll(size_t source, size_t arity) {
  auto scan = std::make_unique<PlanNode>(OpKind::kIndexScan);
  scan->source = source;
  scan->width = static_cast<uint32_t>(arity);
  for (size_t i = 0; i < arity; ++i) {
    scan->scan.slots.push_back(Slot::Output(static_cast<ColId>(i)));
  }
  return scan;
}

TEST(ExecOperatorTest, ScanOverEmptySourceEmitsNothing) {
  VectorSource empty(3, {});
  for (size_t batch : {size_t{1}, size_t{1024}}) {
    auto rows = Collect(*ScanAll(0, 3), {&empty}, batch);
    EXPECT_TRUE(rows.empty());
  }
}

TEST(ExecOperatorTest, HashJoinWithEmptyBuildSideEmitsNothing) {
  VectorSource probe(2, {{1, 10}, {2, 20}, {3, 30}});
  VectorSource build(2, {});
  auto join = std::make_unique<PlanNode>(OpKind::kHashJoin);
  join->children.push_back(ScanAll(0, 2));
  join->children.push_back(ScanAll(1, 2));
  join->keys = {{0, 0}};
  join->payload = {1};
  join->width = 3;
  auto rows = Collect(*join, {&probe, &build}, 1024);
  EXPECT_TRUE(rows.empty());
}

TEST(ExecOperatorTest, HashJoinWithEmptyProbeSideEmitsNothing) {
  VectorSource probe(2, {});
  VectorSource build(2, {{1, 100}, {2, 200}});
  auto join = std::make_unique<PlanNode>(OpKind::kHashJoin);
  join->children.push_back(ScanAll(0, 2));
  join->children.push_back(ScanAll(1, 2));
  join->keys = {{0, 0}};
  join->payload = {1};
  join->width = 3;
  auto rows = Collect(*join, {&probe, &build}, 1024);
  EXPECT_TRUE(rows.empty());
}

TEST(ExecOperatorTest, HashJoinAllDuplicateKeysProducesFullCrossProduct) {
  // Every probe and build row shares one key: the join degenerates to a
  // cross product and must keep build-side insertion order per probe row.
  std::vector<std::vector<Value>> probe_rows, build_rows;
  for (Value i = 0; i < 5; ++i) probe_rows.push_back({7, 100 + i});
  for (Value i = 0; i < 4; ++i) build_rows.push_back({7, 200 + i});
  VectorSource probe(2, probe_rows);
  VectorSource build(2, build_rows);
  auto join = std::make_unique<PlanNode>(OpKind::kHashJoin);
  join->children.push_back(ScanAll(0, 2));
  join->children.push_back(ScanAll(1, 2));
  join->keys = {{0, 0}};
  join->payload = {1};
  join->width = 3;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
    auto rows = Collect(*join, {&probe, &build}, batch);
    ASSERT_EQ(rows.size(), 20u);
    size_t at = 0;
    for (Value i = 0; i < 5; ++i) {
      for (Value j = 0; j < 4; ++j) {
        std::vector<Value> want{7, 100 + i, 200 + j};
        EXPECT_EQ(rows[at++], want) << "batch_rows=" << batch;
      }
    }
  }
}

TEST(ExecOperatorTest, DedupCollapsesAllDuplicateBatches) {
  // 3000 copies of the same row span several 1024-row batches; dedup must
  // keep exactly the first and behave identically at batch size 1.
  std::vector<std::vector<Value>> data(3000, {42, 7});
  data.push_back({42, 8});
  VectorSource source(2, data);
  auto dedup = std::make_unique<PlanNode>(OpKind::kHashDedup);
  dedup->children.push_back(ScanAll(0, 2));
  dedup->width = 2;
  for (size_t batch : {size_t{1}, size_t{1024}}) {
    auto rows = Collect(*dedup, {&source}, batch);
    ASSERT_EQ(rows.size(), 2u) << "batch_rows=" << batch;
    EXPECT_EQ(rows[0], (std::vector<Value>{42, 7}));
    EXPECT_EQ(rows[1], (std::vector<Value>{42, 8}));
  }
}

TEST(ExecOperatorTest, LimitStopsMidBatch) {
  std::vector<std::vector<Value>> data;
  for (Value i = 0; i < 100; ++i) data.push_back({i});
  VectorSource source(1, data);
  // LIMIT 10 OFFSET 5 with a 64-row batch: both the offset and the limit
  // land strictly inside a batch.
  auto limit = std::make_unique<PlanNode>(OpKind::kLimit);
  limit->children.push_back(ScanAll(0, 1));
  limit->width = 1;
  limit->limit = 10;
  limit->offset = 5;
  for (size_t batch : {size_t{1}, size_t{64}, size_t{1024}}) {
    auto rows = Collect(*limit, {&source}, batch);
    ASSERT_EQ(rows.size(), 10u) << "batch_rows=" << batch;
    for (Value i = 0; i < 10; ++i) {
      EXPECT_EQ(rows[i], (std::vector<Value>{i + 5}));
    }
  }
}

TEST(ExecOperatorTest, EarlyStopFromSinkPropagates) {
  std::vector<std::vector<Value>> data;
  for (Value i = 0; i < 100; ++i) data.push_back({i});
  VectorSource source(1, data);
  auto scan = ScanAll(0, 1);
  size_t seen = 0;
  ExecOptions options;
  options.batch_rows = 8;
  bool completed = exec::Run(*scan, {&source}, options,
                             [&](const Value*, size_t) { return ++seen < 3; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 3u);
}

TEST(ExecOperatorTest, ProjectEmitsNullForUnboundColumns) {
  VectorSource source(2, {{1, 2}, {3, 4}});
  auto project = std::make_unique<PlanNode>(OpKind::kProject);
  project->children.push_back(ScanAll(0, 2));
  project->cols = {1, exec::kNoColumn, 0};
  project->width = 3;
  auto rows = Collect(*project, {&source}, 1024);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<Value>{2, 0, 1}));
  EXPECT_EQ(rows[1], (std::vector<Value>{4, 0, 3}));
}

// ---------------------------------------------------------------------------
// Planner properties.

ConjunctiveSpec TwoAtomSpec() {
  // ?x p ?y . ?y p ?z over a triple source.
  ConjunctiveSpec spec;
  PlanConjunct c1;
  c1.source = 0;
  c1.terms = {AtomTerm::Var(0), AtomTerm::Const(1), AtomTerm::Var(1)};
  spec.conjuncts.push_back(c1);
  PlanConjunct c2;
  c2.source = 0;
  c2.terms = {AtomTerm::Var(1), AtomTerm::Const(1), AtomTerm::Var(2)};
  spec.conjuncts.push_back(c2);
  spec.projection = {0, 1, 2};
  return spec;
}

TEST(PlannerTest, EmptyStatisticsDegradeToNestedLoopPlans) {
  exec::Statistics stats;  // never built: empty
  EXPECT_TRUE(stats.empty());
  exec::StatisticsEstimator estimator(stats);
  PlannerOptions popts;
  popts.estimator = &estimator;
  popts.cost_based = false;  // what the evaluator selects for empty stats
  CompiledPlan plan = exec::PlanConjunctive(TwoAtomSpec(), popts);
  ASSERT_NE(plan.root, nullptr);
  EXPECT_FALSE(plan.used_hash_join);
  EXPECT_LT(plan.est_rows, 0);  // degraded mode reports unknown cardinality
  // The degraded plan still runs and produces the join result.
  VectorSource triples(3, {{10, 1, 11}, {11, 1, 12}});
  auto rows = Collect(*plan.root, {&triples}, 1024);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<Value>{10, 11, 12}));
}

TEST(PlannerTest, NoEstimatorYieldsNoPlan) {
  PlannerOptions popts;  // estimator left null
  CompiledPlan plan = exec::PlanConjunctive(TwoAtomSpec(), popts);
  EXPECT_EQ(plan.root, nullptr);
}

TEST(PlannerTest, CostBasedPlanPicksHashJoinForLargeBothSides) {
  // Two large unselective atoms joined on one variable: hash join should
  // beat per-row index seeks under the cost model.
  rdf::Graph g;
  rdf::TermId p = g.dict().InternIri(std::string(test::kTestNs) + "p");
  for (uint32_t i = 0; i < 300; ++i) {
    rdf::TermId a = g.dict().InternIri(std::string(test::kTestNs) + "a" +
                                       std::to_string(i));
    rdf::TermId b = g.dict().InternIri(std::string(test::kTestNs) + "b" +
                                       std::to_string(i % 10));
    g.Insert(rdf::Triple(a, p, b));
    g.Insert(rdf::Triple(b, p, a));
  }
  exec::Statistics stats = exec::Statistics::Build(g.store());
  EXPECT_FALSE(stats.empty());
  EXPECT_EQ(stats.total_triples(), g.store().size());
  exec::StatisticsEstimator estimator(stats);

  ConjunctiveSpec spec = TwoAtomSpec();
  spec.conjuncts[0].terms[1] = AtomTerm::Const(p);
  spec.conjuncts[1].terms[1] = AtomTerm::Const(p);
  PlannerOptions popts;
  popts.estimator = &estimator;
  CompiledPlan plan = exec::PlanConjunctive(spec, popts);
  ASSERT_NE(plan.root, nullptr);
  EXPECT_TRUE(plan.used_hash_join);
  EXPECT_GE(plan.est_rows, 0);
  // Disallowing hash joins must still yield a runnable plan.
  popts.hash_joins = false;
  CompiledPlan bnl = exec::PlanConjunctive(spec, popts);
  ASSERT_NE(bnl.root, nullptr);
  EXPECT_FALSE(bnl.used_hash_join);
}

// ---------------------------------------------------------------------------
// Plan-mode evaluator properties.

query::ResultSet EvalPlan(const rdf::StoreView& store,
                          const query::BgpQuery& q,
                          query::EvaluatorOptions options) {
  query::Evaluator eval(store, options);
  return eval.Evaluate(q);
}

TEST(PlanModeTest, EmptyGraphRandomQueriesMatchLegacy) {
  // Empty store: statistics are empty, so plan mode must take the
  // degraded path — and still agree with legacy on arbitrary queries.
  Rng rng(20260807);
  test::RandomGraph rg;  // graph left empty on purpose
  rg.vocab = schema::Vocabulary::Intern(rg.graph.dict());
  for (int i = 0; i < 4; ++i) {
    rg.classes.push_back(rg.graph.dict().InternIri(
        std::string(test::kTestNs) + "C" + std::to_string(i)));
    rg.properties.push_back(rg.graph.dict().InternIri(
        std::string(test::kTestNs) + "p" + std::to_string(i)));
    rg.individuals.push_back(rg.graph.dict().InternIri(
        std::string(test::kTestNs) + "i" + std::to_string(i)));
  }
  for (int i = 0; i < 50; ++i) {
    query::BgpQuery q = test::MakeRandomQuery(rng, rg);
    query::EvaluatorOptions legacy;
    query::EvaluatorOptions plan;
    plan.plan = true;
    query::ResultSet want = EvalPlan(rg.graph.store(), q, legacy);
    query::ResultSet got = EvalPlan(rg.graph.store(), q, plan);
    EXPECT_TRUE(want.rows.empty());
    EXPECT_EQ(test::Rows(rg.graph, got), test::Rows(rg.graph, want))
        << "query " << i;
  }
}

TEST(PlanModeTest, StaleStatisticsDegradeButStayCorrect) {
  Rng rng(7);
  test::RandomGraphConfig config;
  test::RandomGraph rg = test::MakeRandomGraph(rng, config);
  // Build stats, then mutate the store so they go stale.
  exec::Statistics stats = exec::Statistics::Build(rg.graph.store());
  test::Add(rg.graph, "extra_s", "extra_p", "extra_o");
  ASSERT_NE(stats.total_triples(), rg.graph.store().size());
  for (int i = 0; i < 30; ++i) {
    query::BgpQuery q = test::MakeRandomQuery(rng, rg);
    query::EvaluatorOptions legacy;
    query::EvaluatorOptions plan;
    plan.plan = true;
    plan.stats = &stats;  // stale: evaluator must detect and degrade
    query::ResultSet want = EvalPlan(rg.graph.store(), q, legacy);
    query::ResultSet got = EvalPlan(rg.graph.store(), q, plan);
    EXPECT_EQ(test::Rows(rg.graph, got), test::Rows(rg.graph, want))
        << "query " << i;
  }
}

TEST(PlanModeTest, RandomGraphsMatchLegacyAcrossConfigurations) {
  Rng rng(20260808);
  for (int instance = 0; instance < 12; ++instance) {
    test::RandomGraphConfig config;
    config.instance_triples = 60;
    test::RandomGraph rg = test::MakeRandomGraph(rng, config);
    exec::Statistics stats = exec::Statistics::Build(rg.graph.store());
    for (int qi = 0; qi < 6; ++qi) {
      query::BgpQuery q = test::MakeRandomQuery(rng, rg);
      query::EvaluatorOptions legacy;
      query::ResultSet want = EvalPlan(rg.graph.store(), q, legacy);
      auto want_rows = test::Rows(rg.graph, want);
      for (bool external_stats : {false, true}) {
        for (bool hash : {false, true}) {
          for (size_t batch : {size_t{1}, size_t{1024}}) {
            query::EvaluatorOptions popt;
            popt.plan = true;
            popt.hash_joins = hash;
            popt.batch_rows = batch;
            popt.stats = external_stats ? &stats : nullptr;
            query::ResultSet got = EvalPlan(rg.graph.store(), q, popt);
            ASSERT_EQ(test::Rows(rg.graph, got), want_rows)
                << "instance " << instance << " query " << qi << " hash "
                << hash << " batch " << batch << " ext " << external_stats;
          }
        }
      }
      // CountAnswers must agree between modes too.
      query::EvaluatorOptions popt;
      popt.plan = true;
      query::Evaluator legacy_eval(rg.graph.store());
      query::Evaluator plan_eval(rg.graph.store(), popt);
      EXPECT_EQ(plan_eval.CountAnswers(q), legacy_eval.CountAnswers(q));
    }
  }
}

TEST(PlanModeTest, PlanConfigurationsAreBitIdenticalToEachOther) {
  // Different batch sizes and dedup/hash settings must not change the
  // emitted ROW ORDER of a fixed plan-mode evaluation: the executor is
  // deterministic for a fixed plan shape. Hash on/off changes the plan, so
  // only batch size is varied here.
  Rng rng(99);
  test::RandomGraphConfig config;
  config.instance_triples = 50;
  test::RandomGraph rg = test::MakeRandomGraph(rng, config);
  exec::Statistics stats = exec::Statistics::Build(rg.graph.store());
  for (int qi = 0; qi < 10; ++qi) {
    query::BgpQuery q = test::MakeRandomQuery(rng, rg);
    query::EvaluatorOptions base;
    base.plan = true;
    base.stats = &stats;
    base.batch_rows = 1024;
    query::ResultSet reference = EvalPlan(rg.graph.store(), q, base);
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      query::EvaluatorOptions popt = base;
      popt.batch_rows = batch;
      query::ResultSet got = EvalPlan(rg.graph.store(), q, popt);
      ASSERT_EQ(got.rows, reference.rows) << "query " << qi << " batch "
                                          << batch;
    }
  }
}

}  // namespace
}  // namespace wdr
