// Determinism contract of the cross-branch scan cache: for EVERY query,
// Evaluate() with the cache on must return the exact row stream of the
// cache-off evaluation — same rows, same order — on both storage
// backends. The differential harness checks this on random reformulated
// workloads; this suite pins down the corners that randomness rarely
// hits: LIMIT/OFFSET/ASK early stops, overlapping and duplicated
// branches, within-branch duplicates under a row bound, and streaming
// counts.
#include "query/evaluator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "tests/test_util.h"

namespace wdr::query {
namespace {

using test::Add;
using test::MakeRandomGraph;
using test::MakeRandomQuery;
using test::RandomGraphConfig;

// Asserts, on both storage backends, that the cache-on evaluation
// reproduces the cache-off row stream bit for bit.
void ExpectCacheIdentical(rdf::Graph& graph, const UnionQuery& q,
                          const std::string& label) {
  for (rdf::StorageBackend backend :
       {rdf::StorageBackend::kOrdered, rdf::StorageBackend::kFlat}) {
    graph.SetBackend(backend);
    EvaluatorOptions reference_options;
    reference_options.scan_cache = false;
    const ResultSet reference =
        Evaluator(graph.store(), reference_options).Evaluate(q);
    const ResultSet got = Evaluator(graph.store()).Evaluate(q);
    EXPECT_EQ(got.rows, reference.rows)
        << label << " differs with the cache on ("
        << rdf::StorageBackendName(backend) << ")";
    EXPECT_EQ(got.var_names, reference.var_names) << label;
  }
}

// A small graph with enough row multiplicity to make dedup observable:
// every student takes several courses, some students are also tutors.
struct StudentGraph {
  rdf::Graph graph;

  StudentGraph() {
    for (int s = 0; s < 6; ++s) {
      const std::string student = "s" + std::to_string(s);
      Add(graph, student, "type", "Student");
      if (s % 2 == 0) Add(graph, student, "type", "Tutor");
      for (int c = 0; c < 4; ++c) {
        Add(graph, student, "takes", "c" + std::to_string((s + c) % 5));
      }
    }
  }

  PatternTerm Const(const std::string& name) {
    return PatternTerm::Constant(graph.dict().Intern(test::T(name)));
  }
};

// One-variable branch (?x type <cls>), optionally DISTINCT.
BgpQuery TypeBranch(StudentGraph& g, const std::string& cls,
                    bool distinct = true) {
  BgpQuery q;
  q.SetDistinct(distinct);
  VarId x = q.AddVar("x");
  q.AddAtom(TriplePattern{PatternTerm::Variable(x), g.Const("type"),
                          g.Const(cls)});
  q.Project(x);
  return q;
}

// One-variable NON-distinct branch (?x takes ?c) projecting only ?x —
// each student surfaces once per course, so the projected stream is full
// of within-branch duplicates.
BgpQuery TakesBranch(StudentGraph& g) {
  BgpQuery q;
  VarId x = q.AddVar("x");
  VarId c = q.AddVar("c");
  q.AddAtom(TriplePattern{PatternTerm::Variable(x), g.Const("takes"),
                          PatternTerm::Variable(c)});
  q.Project(x);
  return q;
}

TEST(ScanCacheTest, OverlappingBranchesStayBitIdentical) {
  StudentGraph g;
  // Tutor ⊂ Student and the Student branch appears twice: every Tutor row
  // is produced by three branches, so cross-branch dedup is load bearing.
  UnionQuery q;
  q.AddBranch(TypeBranch(g, "Student"));
  q.AddBranch(TypeBranch(g, "Tutor"));
  q.AddBranch(TypeBranch(g, "Student"));
  ExpectCacheIdentical(g.graph, q, "overlapping branches");

  // Sanity: the union answers are the six students, once each.
  EXPECT_EQ(Evaluator(g.graph.store()).Evaluate(q).rows.size(), 6u);
}

TEST(ScanCacheTest, LimitOffsetAskAreDeterministic) {
  StudentGraph g;
  UnionQuery base;
  base.AddBranch(TakesBranch(g));
  base.AddBranch(TypeBranch(g, "Tutor"));
  base.AddBranch(TypeBranch(g, "Student"));

  for (size_t limit : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                       size_t{100}, UnionQuery::kNoLimit}) {
    for (size_t offset : {size_t{0}, size_t{1}, size_t{4}, size_t{50}}) {
      UnionQuery q = base;
      q.SetLimit(limit);
      q.SetOffset(offset);
      ExpectCacheIdentical(g.graph, q,
                          "limit=" + std::to_string(limit) +
                              " offset=" + std::to_string(offset));
    }
  }

  UnionQuery ask = base;
  ask.SetAsk(true);
  ExpectCacheIdentical(g.graph, ask, "ask over matching union");

  // ASK with no answers: the early stop must not fire, every branch runs.
  UnionQuery empty_ask;
  empty_ask.AddBranch(TypeBranch(g, "NoSuchClass"));
  empty_ask.AddBranch(TypeBranch(g, "AlsoMissing"));
  empty_ask.SetAsk(true);
  ExpectCacheIdentical(g.graph, empty_ask, "ask over empty union");
  EXPECT_TRUE(Evaluator(g.graph.store()).Evaluate(empty_ask).rows.empty());
}

TEST(ScanCacheTest, WithinBranchDuplicatesUnderLimit) {
  StudentGraph g;
  // The duplicate-heavy branch alone, bounded: the row-budget trigger must
  // count DISTINCT kept rows, not raw enumerated rows, or LIMIT would
  // undershoot after dedup collapses the stream.
  for (size_t limit : {size_t{1}, size_t{3}, size_t{6}, size_t{7}}) {
    UnionQuery q = UnionQuery::Single(TakesBranch(g));
    q.SetLimit(limit);
    ExpectCacheIdentical(g.graph, q,
                        "duplicate branch limit=" + std::to_string(limit));
    const ResultSet rs = Evaluator(g.graph.store()).Evaluate(q);
    EXPECT_EQ(rs.rows.size(), std::min<size_t>(limit, 6));
  }
}

TEST(ScanCacheTest, ReformulatedRandomUnionsAreBitIdentical) {
  for (uint64_t seed : {1ull, 7ull, 23ull, 71ull, 2026ull}) {
    Rng rng(seed);
    test::RandomGraph rg = MakeRandomGraph(rng, RandomGraphConfig{});
    reformulation::CloseSchema(rg.graph, rg.vocab);
    schema::Schema schema = schema::Schema::FromGraph(rg.graph, rg.vocab);
    reformulation::Reformulator reformulator(schema, rg.vocab);
    for (int k = 0; k < 3; ++k) {
      auto reformulated =
          reformulator.Reformulate(UnionQuery::Single(MakeRandomQuery(rng, rg)));
      ASSERT_TRUE(reformulated.ok()) << reformulated.status();
      ExpectCacheIdentical(rg.graph, *reformulated,
                          "seed " + std::to_string(seed) + " query " +
                              std::to_string(k));
    }
  }
}

TEST(ScanCacheTest, CountAnswersMatchesEvaluate) {
  StudentGraph g;
  Rng rng(99);
  test::RandomGraph rg = MakeRandomGraph(rng, RandomGraphConfig{});
  for (rdf::StorageBackend backend :
       {rdf::StorageBackend::kOrdered, rdf::StorageBackend::kFlat}) {
    g.graph.SetBackend(backend);
    rg.graph.SetBackend(backend);
    for (bool distinct : {false, true}) {
      BgpQuery takes = TakesBranch(g);
      takes.SetDistinct(distinct);
      Evaluator evaluator(g.graph.store());
      EXPECT_EQ(evaluator.CountAnswers(takes),
                evaluator.Evaluate(takes).rows.size())
          << "distinct=" << distinct << " "
          << rdf::StorageBackendName(backend);
    }
    // Random property check on top of the fixed fixture; the same queries
    // on both backends.
    Rng queries = rng;
    Evaluator evaluator(rg.graph.store());
    for (int k = 0; k < 10; ++k) {
      BgpQuery q = MakeRandomQuery(queries, rg);
      EXPECT_EQ(evaluator.CountAnswers(q), evaluator.Evaluate(q).rows.size())
          << rdf::StorageBackendName(backend);
    }
  }
}

}  // namespace
}  // namespace wdr::query
