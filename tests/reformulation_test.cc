#include "reformulation/reformulator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "rdf/hier_encoding.h"
#include "reasoning/saturation.h"
#include "schema/schema.h"
#include "tests/test_util.h"

namespace wdr::reformulation {
namespace {

using query::BgpQuery;
using query::Evaluator;
using query::ResultSet;
using query::UnionQuery;
using rdf::Graph;
using rdf::TripleStore;
using schema::Schema;
using schema::Vocabulary;
using test::Add;
using test::Rows;

// Fixture: builds a graph, closes its schema, and provides both
// reformulation-based and saturation-based answering for comparison.
class ReformulationTest : public ::testing::Test {
 protected:
  Graph g_;
  Vocabulary v_ = Vocabulary::Intern(g_.dict());

  UnionQuery MustParse(const std::string& sparql) {
    auto q = query::ParseSparql(sparql, g_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  // q_ref(G), with the schema of G closed first.
  ResultSet AnswerByReformulation(const UnionQuery& q,
                                  ReformulationStats* stats = nullptr) {
    CloseSchema(g_, v_);
    Schema schema = Schema::FromGraph(g_, v_);
    Reformulator reformulator(schema, v_);
    auto reformulated = reformulator.Reformulate(q, stats);
    EXPECT_TRUE(reformulated.ok()) << reformulated.status();
    Evaluator evaluator(g_.store());
    ResultSet result = evaluator.Evaluate(*reformulated);
    result.Normalize();
    return result;
  }

  // q(G∞).
  ResultSet AnswerBySaturation(const UnionQuery& q) {
    TripleStore closure = reasoning::Saturator::SaturateGraph(g_, v_);
    Evaluator evaluator(closure);
    ResultSet result = evaluator.Evaluate(q);
    result.Normalize();
    return result;
  }

  // Hierarchy-encoded q_ref(G): closes the schema, re-encodes g_ IN PLACE
  // under the interval permutation, re-parses `sparql` in the new id
  // space, and answers with the union collapse enabled.
  ResultSet AnswerByEncodedReformulation(const std::string& sparql,
                                         ReformulationStats* stats = nullptr) {
    CloseSchema(g_, v_);
    rdf::HierEncoding encoding =
        rdf::HierEncoding::Build(Schema::FromGraph(g_, v_), g_.dict());
    g_.ApplyPermutation(encoding.permutation());
    v_ = Vocabulary::Intern(g_.dict());
    Schema schema = Schema::FromGraph(g_, v_);
    ReformulationOptions options;
    options.encoding = &encoding;
    Reformulator reformulator(schema, v_, options);
    auto reformulated = reformulator.Reformulate(MustParse(sparql), stats);
    EXPECT_TRUE(reformulated.ok()) << reformulated.status();
    Evaluator evaluator(g_.store());
    ResultSet result = evaluator.Evaluate(*reformulated);
    result.Normalize();
    return result;
  }
};

constexpr const char* kPrefixes =
    "PREFIX t: <http://test.example.org/>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n";

TEST_F(ReformulationTest, MotivatingExampleFindsTomAmongMammals) {
  // §I: querying for all mammals returns Tom, "even though it was not
  // explicitly stated to be a mammal", without touching the data.
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Mammal }");
  ResultSet result = AnswerByReformulation(q);
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/Tom>"}}));
}

TEST_F(ReformulationTest, LeafClassReformulationIsIdentity) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Cat }");
  ReformulationStats stats;
  AnswerByReformulation(q, &stats);
  EXPECT_EQ(stats.conjunctive_queries, 1u);
}

TEST_F(ReformulationTest, DomainAndRangeRewritings) {
  Add(g_, "hasFriend", schema::iri::kDomain, "Person");
  Add(g_, "hasFriend", schema::iri::kRange, "Person");
  Add(g_, "Anne", "hasFriend", "Marie");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Person }");
  ResultSet result = AnswerByReformulation(q);
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/Anne>"},
                {"<http://test.example.org/Marie>"}}));
}

TEST_F(ReformulationTest, SubPropertyRewriting) {
  Add(g_, "headOf", schema::iri::kSubPropertyOf, "worksFor");
  Add(g_, "worksFor", schema::iri::kSubPropertyOf, "memberOf");
  Add(g_, "alice", "headOf", "dept");
  Add(g_, "bob", "memberOf", "club");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x ?y WHERE { ?x t:memberOf ?y }");
  ResultSet result = AnswerByReformulation(q);
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/alice>",
                 "<http://test.example.org/dept>"},
                {"<http://test.example.org/bob>",
                 "<http://test.example.org/club>"}}));
}

TEST_F(ReformulationTest, ClassVariableIsGrounded) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x ?c WHERE { ?x rdf:type ?c }");
  ResultSet result = AnswerByReformulation(q);
  // Tom is typed both Cat (explicit) and Mammal (entailed, via grounding).
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/Tom>",
                 "<http://test.example.org/Cat>"},
                {"<http://test.example.org/Tom>",
                 "<http://test.example.org/Mammal>"}}));
}

TEST_F(ReformulationTest, PropertyVariableIsGrounded) {
  Add(g_, "headOf", schema::iri::kSubPropertyOf, "worksFor");
  Add(g_, "alice", "headOf", "dept");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?p WHERE { t:alice ?p t:dept }");
  ResultSet result = AnswerByReformulation(q);
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/headOf>"},
                {"<http://test.example.org/worksFor>"}}));
}

TEST_F(ReformulationTest, JoinQueryMatchesSaturation) {
  Add(g_, "GradStudent", schema::iri::kSubClassOf, "Student");
  Add(g_, "advisor", schema::iri::kDomain, "Student");
  Add(g_, "advisor", schema::iri::kRange, "Professor");
  Add(g_, "sam", schema::iri::kType, "GradStudent");
  Add(g_, "sam", "advisor", "ada");
  Add(g_, "kim", "advisor", "ada");
  UnionQuery q = MustParse(
      std::string(kPrefixes) +
      "SELECT ?s ?p WHERE { ?s rdf:type t:Student . ?s t:advisor ?p }");
  EXPECT_EQ(Rows(g_, AnswerByReformulation(q)),
            Rows(g_, AnswerBySaturation(q)));
  // Both sam (explicit subtype) and kim (domain-typed) qualify.
  EXPECT_EQ(AnswerByReformulation(q).rows.size(), 2u);
}

TEST_F(ReformulationTest, CqCapIsEnforced) {
  for (int i = 0; i < 30; ++i) {
    Add(g_, "C" + std::to_string(i), schema::iri::kSubClassOf, "Top");
  }
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Top . "
                           "?y rdf:type t:Top . ?z rdf:type t:Top }");
  CloseSchema(g_, v_);
  Schema schema = Schema::FromGraph(g_, v_);
  ReformulationOptions options;
  options.max_conjunctive_queries = 100;
  Reformulator reformulator(schema, v_, options);
  auto reformulated = reformulator.Reformulate(q);
  ASSERT_FALSE(reformulated.ok());
  EXPECT_EQ(reformulated.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ReformulationTest, UnionQueriesReformulatePerBranch) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  Add(g_, "Rex", schema::iri::kType, "Dog");
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { { ?x rdf:type t:Mammal } UNION "
                           "{ ?x rdf:type t:Dog } }");
  ResultSet result = AnswerByReformulation(q);
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/Tom>"},
                {"<http://test.example.org/Rex>"}}));
}

TEST_F(ReformulationTest, CloseSchemaAddsTransitiveEdges) {
  Add(g_, "A", schema::iri::kSubClassOf, "B");
  Add(g_, "B", schema::iri::kSubClassOf, "C");
  size_t added = CloseSchema(g_, v_);
  EXPECT_EQ(added, 1u);
  EXPECT_TRUE(
      g_.Contains(test::Enc(g_, "A", schema::iri::kSubClassOf, "C")));
}

TEST_F(ReformulationTest, EncodingCollapsesDeepSubclassChainToRangeAtom) {
  // C0 ⊑ C1 ⊑ ... ⊑ C9 with one instance at the bottom. Classic
  // reformulation of "type C9" enumerates the whole closure; the
  // hierarchy encoding replaces the enumeration with one range branch.
  for (int i = 0; i < 9; ++i) {
    Add(g_, "C" + std::to_string(i), schema::iri::kSubClassOf,
        "C" + std::to_string(i + 1));
  }
  Add(g_, "x", schema::iri::kType, "C0");
  const std::string sparql =
      std::string(kPrefixes) + "SELECT ?x WHERE { ?x rdf:type t:C9 }";

  ReformulationStats classic;
  ResultSet classic_result = AnswerByReformulation(MustParse(sparql), &classic);
  EXPECT_EQ(classic.conjunctive_queries, 10u);  // original + 9 subclasses
  EXPECT_EQ(Rows(g_, classic_result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/x>"}}));

  ReformulationStats encoded;
  ResultSet encoded_result = AnswerByEncodedReformulation(sparql, &encoded);
  EXPECT_EQ(encoded.conjunctive_queries, 2u);  // original + range branch
  EXPECT_EQ(Rows(g_, encoded_result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/x>"}}));
}

TEST_F(ReformulationTest, EncodingCollapsesSubPropertyChain) {
  Add(g_, "headOf", schema::iri::kSubPropertyOf, "worksFor");
  Add(g_, "worksFor", schema::iri::kSubPropertyOf, "memberOf");
  Add(g_, "alice", "headOf", "dept");
  Add(g_, "bob", "memberOf", "club");
  const std::string sparql =
      std::string(kPrefixes) + "SELECT ?x ?y WHERE { ?x t:memberOf ?y }";
  ReformulationStats encoded;
  ResultSet result = AnswerByEncodedReformulation(sparql, &encoded);
  EXPECT_EQ(encoded.conjunctive_queries, 2u);  // original + range branch
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/alice>",
                 "<http://test.example.org/dept>"},
                {"<http://test.example.org/bob>",
                 "<http://test.example.org/club>"}}));
}

TEST_F(ReformulationTest, EncodedCollapseKeepsDomainRewritingsOfSubclasses) {
  // The range branch is terminal, so rdfs2 rewritings that the classic
  // fixpoint reaches THROUGH enumerated subclasses must still be emitted:
  // p's domain is the bottom class C0, two levels below the queried C2.
  Add(g_, "C0", schema::iri::kSubClassOf, "C1");
  Add(g_, "C1", schema::iri::kSubClassOf, "C2");
  Add(g_, "p", schema::iri::kDomain, "C0");
  Add(g_, "x", schema::iri::kType, "C1");
  Add(g_, "y", "p", "z");
  const std::string sparql =
      std::string(kPrefixes) + "SELECT ?s WHERE { ?s rdf:type t:C2 }";
  ReformulationStats encoded;
  ResultSet result = AnswerByEncodedReformulation(sparql, &encoded);
  // original + range branch + one domain rewriting (p, via C0 ∈ closure).
  EXPECT_EQ(encoded.conjunctive_queries, 3u);
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/x>"},
                {"<http://test.example.org/y>"}}));
}

TEST_F(ReformulationTest, EncodedCollapseStaysCorrectOnCycles) {
  // X and Y form a subclass cycle: at most one cycle member keeps a valid
  // interval, every other query over the SCC falls back to classic
  // closure enumeration. Either way the answers match saturation.
  Add(g_, "X", schema::iri::kSubClassOf, "Y");
  Add(g_, "Y", schema::iri::kSubClassOf, "X");
  Add(g_, "Z", schema::iri::kSubClassOf, "X");
  Add(g_, "a", schema::iri::kType, "Y");
  Add(g_, "b", schema::iri::kType, "Z");
  const std::string sparql =
      std::string(kPrefixes) + "SELECT ?s WHERE { ?s rdf:type t:X }";
  ReformulationStats encoded;
  ResultSet result = AnswerByEncodedReformulation(sparql, &encoded);
  EXPECT_GE(encoded.conjunctive_queries, 2u);
  EXPECT_EQ(Rows(g_, result),
            (std::set<std::vector<std::string>>{
                {"<http://test.example.org/a>"},
                {"<http://test.example.org/b>"}}));
}

TEST_F(ReformulationTest, MemoReturnsIdenticalRewriting) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  CloseSchema(g_, v_);
  Schema schema = Schema::FromGraph(g_, v_);
  Reformulator reformulator(schema, v_);
  UnionQuery q = MustParse(std::string(kPrefixes) +
                           "SELECT ?x WHERE { ?x rdf:type t:Mammal }");
  ReformulationStats first_stats;
  auto first = reformulator.Reformulate(q, &first_stats);
  ASSERT_TRUE(first.ok()) << first.status();
  ReformulationStats second_stats;
  auto second = reformulator.Reformulate(q, &second_stats);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->branches().size(), first->branches().size());
  EXPECT_EQ(second_stats.conjunctive_queries, first_stats.conjunctive_queries);
  // Same projection header and same answers through the memoized copy.
  Evaluator evaluator(g_.store());
  ResultSet via_first = evaluator.Evaluate(*first);
  ResultSet via_second = evaluator.Evaluate(*second);
  via_first.Normalize();
  via_second.Normalize();
  EXPECT_EQ(Rows(g_, via_first), Rows(g_, via_second));
  EXPECT_EQ(via_first.var_names, via_second.var_names);
}

TEST_F(ReformulationTest, MemoKeysOnProjectionNamesNotJustShape) {
  // Two queries that canonicalize to the same positional shape but project
  // under different variable names must not share a memo entry.
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  CloseSchema(g_, v_);
  Schema schema = Schema::FromGraph(g_, v_);
  Reformulator reformulator(schema, v_);
  UnionQuery q1 = MustParse(std::string(kPrefixes) +
                            "SELECT ?x WHERE { ?x rdf:type t:Mammal }");
  UnionQuery q2 = MustParse(std::string(kPrefixes) +
                            "SELECT ?who WHERE { ?who rdf:type t:Mammal }");
  auto r1 = reformulator.Reformulate(q1);
  auto r2 = reformulator.Reformulate(q2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  Evaluator evaluator(g_.store());
  EXPECT_EQ(evaluator.Evaluate(*r1).var_names,
            std::vector<std::string>{"x"});
  EXPECT_EQ(evaluator.Evaluate(*r2).var_names,
            std::vector<std::string>{"who"});
}

// Once a query was rewritten atom by atom (the join-of-unions route), its
// fan-out estimate reads each atom's memoized rewriting: exact, the product
// of the atoms' rewriting-set sizes, instead of the closure-walk bound.
TEST_F(ReformulationTest, FanoutIsExactFromAtomMemo) {
  Add(g_, "Cat", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Dog", schema::iri::kSubClassOf, "Mammal");
  Add(g_, "Tom", schema::iri::kType, "Cat");
  CloseSchema(g_, v_);
  Schema schema = Schema::FromGraph(g_, v_);
  Reformulator reformulator(schema, v_);
  UnionQuery q = MustParse(
      std::string(kPrefixes) +
      "SELECT ?x ?y WHERE { ?x rdf:type t:Mammal . ?y rdf:type t:Cat }");
  EXPECT_FALSE(reformulator.EstimateFanout(q).exact);

  auto joins = reformulator.ReformulateAtoms(q);
  ASSERT_TRUE(joins.ok()) << joins.status();
  ASSERT_EQ(joins->size(), 1u);
  ASSERT_EQ((*joins)[0].atoms().size(), 2u);
  EXPECT_EQ((*joins)[0].atoms()[0].alternatives(), 3u);  // Mammal, Cat, Dog
  EXPECT_EQ((*joins)[0].atoms()[1].alternatives(), 1u);  // Cat
  const FanoutEstimate estimate = reformulator.EstimateFanout(q);
  EXPECT_TRUE(estimate.exact);
  EXPECT_EQ(estimate.branches, 3u);
}

// The defining property (invariant 1 of DESIGN.md): q_ref(G) = q(G∞) on
// random schema-closed graphs and random queries.
TEST(ReformulationPropertyTest, ReformulationEqualsSaturation) {
  int nontrivial = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    test::RandomGraph rg = test::MakeRandomGraph(rng, {});
    CloseSchema(rg.graph, rg.vocab);
    Schema schema = Schema::FromGraph(rg.graph, rg.vocab);
    Reformulator reformulator(schema, rg.vocab);

    TripleStore closure =
        reasoning::Saturator::SaturateGraph(rg.graph, rg.vocab);
    Evaluator base_eval(rg.graph.store());
    Evaluator closure_eval(closure);

    for (int qi = 0; qi < 5; ++qi) {
      BgpQuery q = test::MakeRandomQuery(rng, rg);
      auto reformulated = reformulator.Reformulate(q);
      ASSERT_TRUE(reformulated.ok()) << reformulated.status();

      ResultSet via_ref = base_eval.Evaluate(*reformulated);
      ResultSet via_sat = closure_eval.Evaluate(q);
      via_ref.Normalize();
      via_sat.Normalize();
      ASSERT_EQ(test::Rows(rg.graph, via_ref), test::Rows(rg.graph, via_sat))
          << "seed " << seed << " query " << qi;
      if (via_sat.rows.size() != base_eval.Evaluate(q).rows.size()) {
        ++nontrivial;
      }
    }
  }
  // The property must not pass vacuously: entailment must have made a
  // difference in a healthy share of the sampled instances.
  EXPECT_GT(nontrivial, 30);
}

}  // namespace
}  // namespace wdr::reformulation
