#include "datalog/rdf_datalog.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "reasoning/saturation.h"
#include "tests/test_util.h"

namespace wdr::datalog {
namespace {

using rdf::Graph;
using rdf::TripleStore;
using schema::Vocabulary;
using test::Add;
using test::Enc;

class RdfDatalogTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());
};

TEST_F(RdfDatalogTest, TranslationShape) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  EXPECT_EQ(xlat.program.rules().size(), 6u);  // the RDFS rule set
  // One triple fact per graph triple + one resource fact per non-literal.
  size_t triple_facts = 0, resource_facts = 0;
  for (const DlAtom& fact : xlat.program.facts()) {
    if (fact.pred == xlat.triple_pred) ++triple_facts;
    if (fact.pred == xlat.resource_pred) ++resource_facts;
  }
  EXPECT_EQ(triple_facts, g_.size());
  EXPECT_EQ(resource_facts, g_.dict().size());
  EXPECT_TRUE(xlat.program.Validate().ok());
}

TEST_F(RdfDatalogTest, LiteralsGetNoResourceFact) {
  Add(g_, "x", "name", "\"Bob");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  size_t resource_facts = 0;
  for (const DlAtom& fact : xlat.program.facts()) {
    if (fact.pred == xlat.resource_pred) ++resource_facts;
  }
  EXPECT_EQ(resource_facts, g_.dict().size() - 1);
}

TEST_F(RdfDatalogTest, MaterializationMatchesNativeSaturatorSmall) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Mammal", schema::iri::kSubClassOf, "Animal");
  Add(g_, "hasPet", schema::iri::kRange, "Animal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  Add(g_, "anne", "hasPet", "Tom");
  auto via_datalog = MaterializeViaDatalog(g_, v_);
  ASSERT_TRUE(via_datalog.ok()) << via_datalog.status();
  TripleStore native = reasoning::Saturator::SaturateGraph(g_, v_);
  EXPECT_EQ(via_datalog->ToVector(), native.ToVector());
}

TEST_F(RdfDatalogTest, QueryAnsweringThroughDatalog) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  RdfDatalogTranslation xlat = TranslateGraph(g_, v_);
  auto db = Materialize(xlat.program, Strategy::kSemiNaive);
  ASSERT_TRUE(db.ok());

  query::BgpQuery q;
  query::VarId x = q.AddVar("x");
  q.AddAtom({query::PatternTerm::Variable(x),
             query::PatternTerm::Constant(v_.type),
             query::PatternTerm::Constant(g_.dict().Intern(test::T("Mammal")))});
  q.Project(x);
  auto result = AnswerViaDatalog(xlat, *db, query::UnionQuery::Single(q));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(test::Rows(g_, *result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/Tom>"}}));
}

// Invariant: the Datalog route computes exactly G∞ on random graphs, with
// both strategies.
TEST(RdfDatalogPropertyTest, MaterializationEqualsNativeSaturation) {
  for (uint64_t seed = 300; seed < 320; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    TripleStore native =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    for (Strategy strategy : {Strategy::kNaive, Strategy::kSemiNaive}) {
      auto via_datalog = MaterializeViaDatalog(rg.graph, rg.vocab, strategy);
      ASSERT_TRUE(via_datalog.ok()) << via_datalog.status();
      ASSERT_EQ(via_datalog->ToVector(), native.ToVector())
          << "seed " << seed << " strategy "
          << (strategy == Strategy::kNaive ? "naive" : "semi-naive");
    }
  }
}

// And query answers through Datalog match query answers over the closure.
TEST(RdfDatalogPropertyTest, QueryAnswersMatchSaturatedEvaluation) {
  for (uint64_t seed = 400; seed < 415; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    TripleStore closure =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    query::Evaluator closure_eval(closure);

    RdfDatalogTranslation xlat = TranslateGraph(rg.graph, rg.vocab);
    auto db = Materialize(xlat.program, Strategy::kSemiNaive);
    ASSERT_TRUE(db.ok());

    for (int qi = 0; qi < 4; ++qi) {
      query::BgpQuery q = test::MakeRandomQuery(rng, rg);
      auto via_datalog =
          AnswerViaDatalog(xlat, *db, query::UnionQuery::Single(q));
      ASSERT_TRUE(via_datalog.ok()) << via_datalog.status();
      query::ResultSet via_sat = closure_eval.Evaluate(q);
      via_datalog->Normalize();
      via_sat.Normalize();
      ASSERT_EQ(test::Rows(rg.graph, *via_datalog),
                test::Rows(rg.graph, via_sat))
          << "seed " << seed << " query " << qi;
    }
  }
}

// EvaluateQuery dedups through the shared row table and then sorts. On
// projections where most rows repeat (the predicate column of a whole
// closure, a two-hop join projected to its two predicates) its rows must
// equal a std::set reference, order included.
TEST(RdfDatalogPropertyTest, EvaluateQueryDedupsHeavyDuplicateProjections) {
  for (uint64_t seed = 500; seed < 510; ++seed) {
    Rng rng(seed);
    test::RandomGraphConfig config;
    config.individuals = 30;
    config.instance_triples = 200;
    test::RandomGraph rg = test::MakeRandomGraph(rng, config);
    RdfDatalogTranslation xlat = TranslateGraph(rg.graph, rg.vocab);
    auto db = Materialize(xlat.program, Strategy::kSemiNaive);
    ASSERT_TRUE(db.ok());
    const std::vector<Tuple>& triples =
        db->relation(xlat.triple_pred).tuples();
    auto atom = [&](DlVarId s, DlVarId p, DlVarId o) {
      DlAtom a;
      a.pred = xlat.triple_pred;
      a.args = {DlTerm::Variable(s), DlTerm::Variable(p), DlTerm::Variable(o)};
      return a;
    };
    auto check = [&](const std::vector<DlAtom>& body,
                     const std::vector<DlVarId>& projection,
                     const std::set<Tuple>& want) {
      auto got = EvaluateQuery(xlat.program, *db, body, projection);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, std::vector<Tuple>(want.begin(), want.end()))
          << "seed " << seed << " width " << projection.size();
    };

    // One atom t(?0, ?1, ?2), projected to {?1}, {?2, ?1} and {}.
    std::set<Tuple> preds, objects_preds, any;
    for (const Tuple& t : triples) {
      preds.insert({t[1]});
      objects_preds.insert({t[2], t[1]});
      any.insert(Tuple{});
    }
    ASSERT_GT(triples.size(), 5 * preds.size()) << "seed " << seed;
    check({atom(0, 1, 2)}, {1}, preds);
    check({atom(0, 1, 2)}, {2, 1}, objects_preds);
    check({atom(0, 1, 2)}, {}, any);

    // Two hops t(?0, ?1, ?2), t(?2, ?3, ?4), projected to {?1, ?3}.
    std::set<Tuple> hops;
    size_t joined = 0;
    for (const Tuple& a : triples) {
      for (const Tuple& b : triples) {
        if (a[2] != b[0]) continue;
        ++joined;
        hops.insert({a[1], b[1]});
      }
    }
    ASSERT_GT(joined, 2 * hops.size()) << "seed " << seed;
    check({atom(0, 1, 2), atom(2, 3, 4)}, {1, 3}, hops);
  }
}

}  // namespace
}  // namespace wdr::datalog
