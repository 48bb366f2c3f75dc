#include "query/sparql_parser.h"

#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "schema/vocabulary.h"

namespace wdr::query {
namespace {

using rdf::Dictionary;

TEST(SparqlParserTest, BasicSelect) {
  Dictionary dict;
  auto q = ParseSparql(
      "SELECT ?x WHERE { ?x <http://p> <http://o> }", dict);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->size(), 1u);
  const BgpQuery& bgp = q->branches()[0];
  EXPECT_EQ(bgp.atoms().size(), 1u);
  EXPECT_EQ(bgp.projection().size(), 1u);
  EXPECT_FALSE(bgp.distinct());
  EXPECT_TRUE(bgp.atoms()[0].s.is_var());
  EXPECT_TRUE(bgp.atoms()[0].p.is_const());
  EXPECT_EQ(bgp.atoms()[0].p.id, dict.LookupIri("http://p"));
}

TEST(SparqlParserTest, PrefixesAndAKeyword) {
  Dictionary dict;
  auto q = ParseSparql(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x a ex:Cat }",
      dict);
  ASSERT_TRUE(q.ok()) << q.status();
  const BgpQuery& bgp = q->branches()[0];
  EXPECT_EQ(bgp.atoms()[0].p.id, dict.LookupIri(schema::iri::kType));
  EXPECT_EQ(bgp.atoms()[0].o.id, dict.LookupIri("http://ex.org/Cat"));
}

TEST(SparqlParserTest, DistinctAndMultipleVars) {
  Dictionary dict;
  auto q = ParseSparql(
      "SELECT DISTINCT ?x ?y WHERE { ?x <http://p> ?y . ?y <http://p> ?x }",
      dict);
  ASSERT_TRUE(q.ok()) << q.status();
  const BgpQuery& bgp = q->branches()[0];
  EXPECT_TRUE(bgp.distinct());
  EXPECT_EQ(bgp.atoms().size(), 2u);
  EXPECT_EQ(bgp.ProjectionNames(),
            (std::vector<std::string>{"x", "y"}));
}

TEST(SparqlParserTest, StarProjectsAllVarsInOrder) {
  Dictionary dict;
  auto q = ParseSparql(
      "SELECT * WHERE { ?b <http://p> ?a . ?a <http://q> ?c }", dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->branches()[0].ProjectionNames(),
            (std::vector<std::string>{"b", "a", "c"}));
}

// `*` and ASK project every variable of every UNION branch, so branch
// arities line up (one dedup width for the whole union).
TEST(SparqlParserTest, StarAndAskOverUnionProjectEveryBranchVar) {
  Dictionary dict;
  for (const char* text :
       {"SELECT * WHERE { { ?x <http://p> ?y } UNION { ?z <http://q> ?x } }",
        "ASK { { ?x <http://p> ?y } UNION { ?z <http://q> ?x } }"}) {
    auto q = ParseSparql(text, dict);
    ASSERT_TRUE(q.ok()) << q.status();
    ASSERT_EQ(q->size(), 2u);
    for (const BgpQuery& branch : q->branches()) {
      EXPECT_EQ(branch.ProjectionNames(),
                (std::vector<std::string>{"x", "y", "z"}))
          << text;
    }
    EXPECT_EQ(q->width(), 3u);
  }
}

TEST(SparqlParserTest, UnionBranches) {
  Dictionary dict;
  auto q = ParseSparql(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { { ?x a ex:Cat } UNION { ?x a ex:Dog } UNION "
      "{ ?x a ex:Fox } }",
      dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->size(), 3u);
  for (const BgpQuery& branch : q->branches()) {
    EXPECT_EQ(branch.ProjectionNames(), (std::vector<std::string>{"x"}));
  }
}

TEST(SparqlParserTest, LiteralsAndBlankNodes) {
  Dictionary dict;
  auto q = ParseSparql(
      "SELECT ?x WHERE { ?x <http://name> \"Bob\"@en . _:b <http://p> ?x }",
      dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->branches()[0].atoms()[0].o.id,
            dict.Lookup(rdf::Term::Literal("Bob", "", "en")));
  EXPECT_EQ(q->branches()[0].atoms()[1].s.id,
            dict.Lookup(rdf::Term::Blank("b")));
}

TEST(SparqlParserTest, TriplePatternsSeparatedByDots) {
  Dictionary dict;
  auto q = ParseSparql(
      "SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z . }", dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->branches()[0].atoms().size(), 2u);
}

TEST(SparqlParserTest, KeywordsAreCaseInsensitive) {
  Dictionary dict;
  auto q = ParseSparql(
      "select distinct ?x where { ?x <http://p> ?y }", dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->branches()[0].distinct());
}

TEST(SparqlParserTest, ErrorOnMissingQueryForm) {
  Dictionary dict;
  auto q = ParseSparql("CONSTRUCT { ?x ?p ?o }", dict);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
}

TEST(SparqlParserTest, AskForm) {
  Dictionary dict;
  auto q = ParseSparql("ASK { ?x <http://p> ?o }", dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->ask());
  auto with_where = ParseSparql("ASK WHERE { ?x <http://p> ?o }", dict);
  ASSERT_TRUE(with_where.ok()) << with_where.status();
  EXPECT_TRUE(with_where->ask());
}

TEST(SparqlParserTest, LimitAndOffsetInEitherOrder) {
  Dictionary dict;
  auto q = ParseSparql(
      "SELECT ?x WHERE { ?x <http://p> ?o } LIMIT 10 OFFSET 3", dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->limit(), 10u);
  EXPECT_EQ(q->offset(), 3u);
  auto swapped = ParseSparql(
      "SELECT ?x WHERE { ?x <http://p> ?o } OFFSET 3 LIMIT 10", dict);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(swapped->limit(), 10u);
  EXPECT_EQ(swapped->offset(), 3u);
  EXPECT_FALSE(
      ParseSparql("SELECT ?x WHERE { ?x <http://p> ?o } LIMIT x", dict).ok());
}

TEST(SparqlParserTest, ErrorOnEmptyPattern) {
  Dictionary dict;
  auto q = ParseSparql("SELECT ?x WHERE { }", dict);
  ASSERT_FALSE(q.ok());
}

TEST(SparqlParserTest, ErrorOnUndeclaredPrefix) {
  Dictionary dict;
  auto q = ParseSparql("SELECT ?x WHERE { ?x ex:p ?y }", dict);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("undeclared prefix"),
            std::string::npos);
}

TEST(SparqlParserTest, ErrorOnTrailingInput) {
  Dictionary dict;
  auto q = ParseSparql("SELECT ?x WHERE { ?x <http://p> ?y } garbage", dict);
  ASSERT_FALSE(q.ok());
}

TEST(SparqlParserTest, ErrorOnMissingProjection) {
  Dictionary dict;
  auto q = ParseSparql("SELECT WHERE { ?x <http://p> ?y }", dict);
  ASSERT_FALSE(q.ok());
}

TEST(SparqlParserTest, ProjectedVarMissingFromOneUnionBranchStaysUnbound) {
  Dictionary dict;
  auto q = ParseSparql(
      "SELECT ?x ?y WHERE { { ?x <http://p> ?y } UNION { ?x <http://q> ?z } }",
      dict);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->branches()[1].ProjectionNames(),
            (std::vector<std::string>{"x", "y"}));
}

}  // namespace
}  // namespace wdr::query
