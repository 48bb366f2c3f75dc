#include "datalog/evaluator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/parser.h"
#include "datalog/program.h"

namespace wdr::datalog {
namespace {

// Parses, or fails the test with the parse error.
DlProgram MustParse(const std::string& text) {
  auto program = ParseDatalog(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(*program);
}

// Tuples of `pred` in the materialization of `text` under `strategy`.
std::vector<Tuple> Tuples(const DlProgram& program, const Database& db,
                          const std::string& pred) {
  auto id = program.PredByName(pred);
  EXPECT_TRUE(id.ok());
  std::vector<Tuple> out = db.relation(*id).tuples();
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DatalogParserTest, FactsRulesAndComments) {
  DlProgram p = MustParse(
      "% genealogy\n"
      "parent(tom, bob).\n"
      "parent(bob, ann).  # inline comment\n"
      "ancestor(X, Y) :- parent(X, Y).\n"
      "ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).\n");
  EXPECT_EQ(p.facts().size(), 2u);
  EXPECT_EQ(p.rules().size(), 2u);
  EXPECT_EQ(p.pred_arity(*p.PredByName("parent")), 2u);
}

TEST(DatalogParserTest, QuotedAndNumericConstants) {
  DlProgram p = MustParse("likes('Alice B', 42).\n");
  EXPECT_EQ(p.facts().size(), 1u);
  EXPECT_EQ(p.sym_name(p.facts()[0].args[0].id), "Alice B");
  EXPECT_EQ(p.sym_name(p.facts()[0].args[1].id), "42");
}

TEST(DatalogParserTest, RejectsVariableInFact) {
  auto p = ParseDatalog("parent(X, bob).");
  ASSERT_FALSE(p.ok());
}

TEST(DatalogParserTest, RejectsUnsafeRule) {
  auto p = ParseDatalog("head(X, Y) :- body(X).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("range-restricted"),
            std::string::npos);
}

TEST(DatalogParserTest, RejectsArityMismatch) {
  auto p = ParseDatalog("p(a). p(a, b).");
  ASSERT_FALSE(p.ok());
}

TEST(DatalogParserTest, RejectsCapitalizedPredicate) {
  auto p = ParseDatalog("Parent(a, b).");
  ASSERT_FALSE(p.ok());
}

TEST(DatalogParserTest, AtomToStringRoundsTrip) {
  DlProgram p = MustParse("edge(a, b). path(X, Y) :- edge(X, Y).");
  const DlRule& rule = p.rules()[0];
  EXPECT_EQ(p.AtomToString(rule.head, rule.var_names), "path(X, Y)");
  EXPECT_EQ(p.AtomToString(p.facts()[0], {}), "edge(a, b)");
}

TEST(DatalogEvalTest, TransitiveClosure) {
  DlProgram p = MustParse(
      "edge(a, b). edge(b, c). edge(c, d).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n");
  auto db = Materialize(p, Strategy::kSemiNaive);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(Tuples(p, *db, "path").size(), 6u);  // all ordered pairs a<..<d
}

TEST(DatalogEvalTest, CyclicGraphTerminates) {
  DlProgram p = MustParse(
      "edge(a, b). edge(b, a).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n");
  auto db = Materialize(p, Strategy::kSemiNaive);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(Tuples(p, *db, "path").size(), 4u);  // aa ab ba bb
}

TEST(DatalogEvalTest, NaiveAndSemiNaiveAgreeOnStats) {
  DlProgram p = MustParse(
      "edge(a, b). edge(b, c). edge(c, d). edge(d, e).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n");
  EvalStats naive_stats, semi_stats;
  auto naive = Materialize(p, Strategy::kNaive, &naive_stats);
  auto semi = Materialize(p, Strategy::kSemiNaive, &semi_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(Tuples(p, *naive, "path"), Tuples(p, *semi, "path"));
  EXPECT_EQ(naive_stats.derived_tuples, semi_stats.derived_tuples);
  EXPECT_GT(naive_stats.iterations, 1u);
}

TEST(DatalogEvalTest, QueryEvaluation) {
  DlProgram p = MustParse(
      "edge(a, b). edge(b, c).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n");
  auto db = Materialize(p, Strategy::kSemiNaive);
  ASSERT_TRUE(db.ok());
  // ?- path(a, X): expect b and c.
  DlAtom atom;
  atom.pred = *p.PredByName("path");
  atom.args = {DlTerm::Constant(p.InternSym("a")), DlTerm::Variable(0)};
  auto rows = EvaluateQuery(p, *db, {atom}, {0});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(DatalogEvalTest, QueryRejectsUnknownProjection) {
  DlProgram p = MustParse("edge(a, b).");
  auto db = Materialize(p, Strategy::kSemiNaive);
  ASSERT_TRUE(db.ok());
  DlAtom atom;
  atom.pred = *p.PredByName("edge");
  atom.args = {DlTerm::Variable(0), DlTerm::Variable(1)};
  auto rows = EvaluateQuery(p, *db, {atom}, {5});
  ASSERT_FALSE(rows.ok());
}

TEST(DatalogEvalTest, EmptyProgramYieldsEmptyDatabase) {
  DlProgram p = MustParse("");
  auto db = Materialize(p, Strategy::kSemiNaive);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->TotalTuples(), 0u);
}

TEST(RelationTest, ProbeFindsByColumn) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({1, 3}));
  EXPECT_TRUE(r.Insert({4, 2}));
  EXPECT_EQ(r.Probe(0, 1).size(), 2u);
  EXPECT_EQ(r.Probe(1, 2).size(), 2u);
  EXPECT_EQ(r.Probe(0, 9).size(), 0u);
  EXPECT_TRUE(r.Contains({4, 2}));
  EXPECT_EQ(r.size(), 3u);
}

// Property: naive and semi-naive agree on random chain/tree programs.
TEST(DatalogPropertyTest, StrategiesAgreeOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    std::string text;
    int nodes = 8;
    for (int i = 0; i < 18; ++i) {
      text += "edge(n" + std::to_string(rng.Uniform(0, nodes - 1)) + ", n" +
              std::to_string(rng.Uniform(0, nodes - 1)) + ").\n";
    }
    text +=
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
        "sym(X, Y) :- path(X, Y), path(Y, X).\n";
    DlProgram p = MustParse(text);
    auto naive = Materialize(p, Strategy::kNaive);
    auto semi = Materialize(p, Strategy::kSemiNaive);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(semi.ok());
    ASSERT_EQ(Tuples(p, *naive, "path"), Tuples(p, *semi, "path"))
        << "seed " << seed;
    ASSERT_EQ(Tuples(p, *naive, "sym"), Tuples(p, *semi, "sym"))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace wdr::datalog
