#include "store/reasoning_store.h"

#include <gtest/gtest.h>

#include "store/update_parser.h"

#include "common/rng.h"
#include "common/timer.h"
#include "io/ntriples.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "tests/test_util.h"

namespace wdr::store {
namespace {

constexpr const char* kData = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://ex.org/> .
ex:Cat rdfs:subClassOf ex:Mammal .
ex:Mammal rdfs:subClassOf ex:Animal .
ex:hasPet rdfs:range ex:Animal .
ex:tom a ex:Cat .
ex:anne ex:hasPet ex:tom .
)";

constexpr const char* kMammalQuery =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?x WHERE { ?x rdf:type ex:Mammal }";

constexpr const char* kAnimalQuery =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?x WHERE { ?x rdf:type ex:Animal }";

size_t Answers(ReasoningStore& store, const char* sparql) {
  auto result = store.Query(sparql);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result->rows.size() : 0;
}

TEST(ReasoningStoreTest, ModeNames) {
  EXPECT_STREQ(ReasoningModeName(ReasoningMode::kNone), "none");
  EXPECT_STREQ(ReasoningModeName(ReasoningMode::kSaturation), "saturation");
  EXPECT_STREQ(ReasoningModeName(ReasoningMode::kReformulation),
               "reformulation");
  EXPECT_STREQ(ReasoningModeName(ReasoningMode::kBackward), "backward");
}

TEST(ReasoningStoreTest, EntailedAnswersInEveryReasoningMode) {
  for (ReasoningMode mode :
       {ReasoningMode::kSaturation, ReasoningMode::kReformulation,
        ReasoningMode::kBackward}) {
    ReasoningStoreOptions options;
    options.mode = mode;
    ReasoningStore store(options);
    auto loaded = store.LoadTurtle(kData);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(Answers(store, kMammalQuery), 1u) << ReasoningModeName(mode);
    // tom is an Animal both via the subclass chain and via hasPet's range;
    // set semantics returns it once.
    EXPECT_EQ(Answers(store, kAnimalQuery), 1u) << ReasoningModeName(mode);
  }
}

TEST(ReasoningStoreTest, NoneModeSeesOnlyExplicitTriples) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kNone;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  EXPECT_EQ(Answers(store, kMammalQuery), 0u);
}

TEST(ReasoningStoreTest, SchemaStaysClosedForRewritingModes) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kReformulation;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  // The derived edge Cat ⊑ Animal is queryable as an explicit triple.
  auto result = store.Query(
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?c WHERE { ?c rdfs:subClassOf ex:Animal }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);  // Cat and Mammal
}

TEST(ReasoningStoreTest, InsertDataMaintainsClosure) {
  // Pinned to saturation: closure_delta is a saturation-maintenance
  // observable (WDR_MODE=auto would leave the closure unmaterialized).
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kSaturation;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  auto info = store.Update(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "INSERT DATA { ex:felix rdf:type ex:Cat }");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->inserted, 1u);
  EXPECT_GE(info->closure_delta, 3u);  // felix: Cat, Mammal, Animal
  EXPECT_EQ(Answers(store, kMammalQuery), 2u);
}

TEST(ReasoningStoreTest, DeleteDataRetractsEntailments) {
  ReasoningStore store;
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  auto info = store.Update(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "DELETE DATA { ex:tom rdf:type ex:Cat }");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->deleted, 1u);
  EXPECT_EQ(Answers(store, kMammalQuery), 0u);
  // tom is still an Animal via hasPet's range.
  EXPECT_EQ(Answers(store, kAnimalQuery), 1u);
}

TEST(ReasoningStoreTest, MultiOperationUpdateRequest) {
  ReasoningStore store;
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  auto info = store.Update(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "INSERT DATA { ex:rex a ex:Mammal . ex:milo a ex:Cat } ;\n"
      "DELETE DATA { ex:tom rdf:type ex:Cat }");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->inserted, 2u);
  EXPECT_EQ(info->deleted, 1u);
  EXPECT_EQ(Answers(store, kMammalQuery), 2u);  // rex + milo
}

TEST(ReasoningStoreTest, SchemaUpdateRetypesInEveryMode) {
  for (ReasoningMode mode :
       {ReasoningMode::kSaturation, ReasoningMode::kReformulation,
        ReasoningMode::kBackward}) {
    ReasoningStoreOptions options;
    options.mode = mode;
    ReasoningStore store(options);
    ASSERT_TRUE(store.LoadTurtle(kData).ok());
    // New leaf class under Cat plus an instance.
    auto info = store.Update(
        "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
        "PREFIX ex: <http://ex.org/>\n"
        "INSERT DATA { ex:Kitten rdfs:subClassOf ex:Cat . "
        "ex:whiskers a ex:Kitten }");
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(Answers(store, kMammalQuery), 2u) << ReasoningModeName(mode);
  }
}

TEST(ReasoningStoreTest, SchemaDeleteRetractsDerivedEdges) {
  ReasoningStore store;
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  size_t before = store.size();
  auto info = store.Update(
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "DELETE DATA { ex:Mammal rdfs:subClassOf ex:Animal }");
  ASSERT_TRUE(info.ok());
  // The derived edge Cat ⊑ Animal disappears from the closed schema too.
  EXPECT_EQ(store.size(), before - 2);
  EXPECT_EQ(Answers(store, kMammalQuery), 1u);
  EXPECT_EQ(Answers(store, kAnimalQuery), 1u);  // only via hasPet range
}

TEST(ReasoningStoreTest, ModeSwitchPreservesAnswers) {
  // Starts pinned to saturation: the effective_size assertions below are
  // about the materialized closure, whatever WDR_MODE says.
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kSaturation;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  size_t saturated_answers = Answers(store, kAnimalQuery);
  EXPECT_GT(store.effective_size(), store.size());
  store.SetMode(ReasoningMode::kReformulation);
  EXPECT_EQ(store.effective_size(), store.size());
  EXPECT_EQ(Answers(store, kAnimalQuery), saturated_answers);
  store.SetMode(ReasoningMode::kBackward);
  EXPECT_EQ(Answers(store, kAnimalQuery), saturated_answers);
  store.SetMode(ReasoningMode::kSaturation);
  EXPECT_EQ(Answers(store, kAnimalQuery), saturated_answers);
}

TEST(ReasoningStoreTest, QueryInfoReportsModeAndUnionSize) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kReformulation;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  QueryInfo info;
  auto result = store.Query(kAnimalQuery, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(info.mode, ReasoningMode::kReformulation);
  EXPECT_GT(info.union_size, 1u);
  EXPECT_GT(info.seconds, 0.0);
}

TEST(ReasoningStoreTest, DecodeRow) {
  ReasoningStore store;
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  auto result = store.Query(kMammalQuery);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(store.DecodeRow(result->rows[0]),
            (std::vector<std::string>{"<http://ex.org/tom>"}));
  EXPECT_EQ(store.DecodeRow({rdf::kNullTermId}),
            (std::vector<std::string>{"UNBOUND"}));
}

TEST(ReasoningStoreTest, ExplainTripleRendersProof) {
  ReasoningStore store;
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  auto proof = store.ExplainTriple(
      "<http://ex.org/tom> "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://ex.org/Animal> .");
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_NE(proof->find("[asserted]"), std::string::npos);
  EXPECT_NE(proof->find("Animal"), std::string::npos);

  // Works in non-saturation modes too (transient closure).
  store.SetMode(ReasoningMode::kReformulation);
  auto proof2 = store.ExplainTriple(
      "<http://ex.org/tom> "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://ex.org/Mammal> .");
  ASSERT_TRUE(proof2.ok()) << proof2.status();
  EXPECT_NE(proof2->find("rdfs9"), std::string::npos);

  EXPECT_FALSE(store
                   .ExplainTriple("<http://ex.org/tom> "
                                  "<http://ex.org/p> <http://ex.org/q> .")
                   .ok());
  EXPECT_FALSE(store.ExplainTriple("not a triple").ok());
  EXPECT_FALSE(store
                   .ExplainTriple("<http://a> <http://b> <http://c> .\n"
                                  "<http://d> <http://e> <http://f> .")
                   .ok());
}

TEST(ReasoningStoreTest, BadInputsReportParseErrors) {
  ReasoningStore store;
  EXPECT_FALSE(store.LoadTurtle("ex:a ex:b").ok());
  EXPECT_FALSE(store.Query("SELECT").ok());
  EXPECT_FALSE(store.Update("INSERT { oops }").ok());
  EXPECT_FALSE(store.Update("").ok());
  EXPECT_FALSE(
      store.Update("INSERT DATA { ?x <http://p> <http://o> }").ok());
}

TEST(ReasoningStoreTest, EncodingTogglePreservesAnswers) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kReformulation;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  size_t plain_mammals = Answers(store, kMammalQuery);
  size_t plain_animals = Answers(store, kAnimalQuery);

  store.SetEncoding(true);
  EXPECT_TRUE(store.encoding_enabled());
  EXPECT_EQ(Answers(store, kMammalQuery), plain_mammals);
  EXPECT_EQ(Answers(store, kAnimalQuery), plain_animals);
  // Querying under the toggle built a hierarchy encoding.
  ASSERT_NE(store.encoding(), nullptr);
  EXPECT_EQ(store.encoding()->version(), store.schema_version());

  store.SetEncoding(false);
  EXPECT_FALSE(store.encoding_enabled());
  EXPECT_EQ(store.encoding(), nullptr);
  EXPECT_EQ(Answers(store, kMammalQuery), plain_mammals);
}

TEST(ReasoningStoreTest, SchemaUpdateRebuildsEncoding) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kReformulation;
  options.encoding = true;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  EXPECT_EQ(Answers(store, kMammalQuery), 1u);
  ASSERT_NE(store.encoding(), nullptr);
  uint64_t version_before = store.encoding()->version();

  // A schema change (new subclass edge) must re-encode; the new instance
  // is then found through the widened interval.
  auto info = store.Update(
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "INSERT DATA { ex:Dog rdfs:subClassOf ex:Mammal . ex:rex a ex:Dog }");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(Answers(store, kMammalQuery), 2u);  // tom + rex
  ASSERT_NE(store.encoding(), nullptr);
  EXPECT_GT(store.encoding()->version(), version_before);

  // Instance-only updates must NOT stale the encoding: new terms intern
  // past the permuted range, outside every interval.
  uint64_t version_after = store.encoding()->version();
  ASSERT_TRUE(store
                  .Update("PREFIX ex: <http://ex.org/>\n"
                          "INSERT DATA { ex:milo a ex:Cat }")
                  .ok());
  EXPECT_EQ(Answers(store, kMammalQuery), 3u);
  EXPECT_EQ(store.encoding()->version(), version_after);
}

// Warm() builds planner statistics only where the store's default read
// path reads them; a read that overrides plan mode builds its flavour on
// first use, once per update.
TEST(ReasoningStoreTest, WarmBuildsStatisticsOnlyForTheDefaultReadPath) {
  const obs::Counter& builds =
      obs::MetricsRegistry::Get().GetCounter("wdr.store.statistics.builds");
  constexpr const char* kInsert =
      "PREFIX ex: <http://ex.org/>\nINSERT DATA { ex:milo a ex:Cat }";
  ReadOptions plan;
  plan.plan = true;
  plan.frozen = true;

  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kSaturation;
  options.query.plan = false;
  options.encoding = false;
  ReasoningStore legacy(options);
  ASSERT_TRUE(legacy.LoadTurtle(kData).ok());
  legacy.Warm();
  uint64_t before = builds.value();
  ASSERT_TRUE(legacy.Update(kInsert).ok());
  legacy.Warm();
  EXPECT_EQ(builds.value(), before);  // legacy joins read no statistics
  ASSERT_TRUE(legacy.Prepare(kMammalQuery, plan).ok());
  EXPECT_EQ(builds.value(), before + 1);
  ASSERT_TRUE(legacy.Prepare(kMammalQuery, plan).ok());
  EXPECT_EQ(builds.value(), before + 1);

  // A plan-mode store warms the closure flavour its reads plan over.
  options.query.plan = true;
  ReasoningStore planned(options);
  ASSERT_TRUE(planned.LoadTurtle(kData).ok());
  before = builds.value();
  ASSERT_TRUE(planned.Update(kInsert).ok());
  planned.Warm();
  EXPECT_EQ(builds.value(), before + 1);
  ASSERT_TRUE(planned.Prepare(kMammalQuery, plan).ok());
  EXPECT_EQ(builds.value(), before + 1);
}

// Backward chaining and Datalog run their own joins: a plan-on store in
// either mode builds no planner statistics, and its reads log plan=false.
TEST(ReasoningStoreTest, NonPlanningRoutesBuildNoStatistics) {
  const obs::Counter& builds =
      obs::MetricsRegistry::Get().GetCounter("wdr.store.statistics.builds");
  for (ReasoningMode mode :
       {ReasoningMode::kDatalog, ReasoningMode::kBackward}) {
    ReasoningStoreOptions options;
    options.mode = mode;
    options.query.plan = true;
    options.encoding = false;
    ReasoningStore store(options);
    ASSERT_TRUE(store.LoadTurtle(kData).ok());
    obs::QueryLog::Get().Clear();
    const uint64_t before = builds.value();
    ASSERT_TRUE(store
                    .Update("PREFIX ex: <http://ex.org/>\n"
                            "INSERT DATA { ex:milo a ex:Cat }")
                    .ok());
    store.Warm();
    EXPECT_EQ(Answers(store, kMammalQuery), 2u) << ReasoningModeName(mode);
    EXPECT_EQ(builds.value(), before) << ReasoningModeName(mode);
    const std::vector<obs::QueryLogRecord> records =
        obs::QueryLog::Get().Records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].mode, ReasoningModeName(mode));
    EXPECT_FALSE(records[0].plan) << ReasoningModeName(mode);
  }
}

TEST(ReasoningStoreTest, EncodingWorksAcrossBackendsAndModes) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kReformulation;
  options.encoding = true;
  ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  EXPECT_EQ(Answers(store, kAnimalQuery), 1u);

  store.SetBackend(rdf::StorageBackend::kFlat);
  EXPECT_EQ(Answers(store, kAnimalQuery), 1u);
  EXPECT_EQ(Answers(store, kMammalQuery), 1u);

  // Saturation mode with the encoding on exercises the closure-rebuild
  // path of RebuildEncoding (the saturated view is re-derived in the
  // permuted id space).
  store.SetMode(ReasoningMode::kSaturation);
  EXPECT_EQ(Answers(store, kAnimalQuery), 1u);
  ASSERT_TRUE(store
                  .Update("PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
                          "PREFIX ex: <http://ex.org/>\n"
                          "INSERT DATA { ex:Kitten rdfs:subClassOf ex:Cat . "
                          "ex:whiskers a ex:Kitten }")
                  .ok());
  EXPECT_EQ(Answers(store, kMammalQuery), 2u);
  store.SetMode(ReasoningMode::kReformulation);
  EXPECT_EQ(Answers(store, kMammalQuery), 2u);
}

TEST(UpdateParserTest, ParsesInsertAndDelete) {
  rdf::Dictionary dict;
  auto ops = ParseSparqlUpdate(
      "PREFIX ex: <http://ex.org/>\n"
      "INSERT DATA { ex:a ex:p ex:b . ex:a a ex:C } ;\n"
      "DELETE DATA { ex:z ex:p ex:w }",
      dict);
  ASSERT_TRUE(ops.ok()) << ops.status();
  ASSERT_EQ(ops->size(), 2u);
  EXPECT_TRUE((*ops)[0].is_insert);
  EXPECT_EQ((*ops)[0].triples.size(), 2u);
  EXPECT_FALSE((*ops)[1].is_insert);
  EXPECT_EQ((*ops)[1].triples.size(), 1u);
}

TEST(UpdateParserTest, LiteralWithBraceInsideBlock) {
  rdf::Dictionary dict;
  auto ops = ParseSparqlUpdate(
      "INSERT DATA { <http://a> <http://p> \"curly } brace\" }", dict);
  ASSERT_TRUE(ops.ok()) << ops.status();
  EXPECT_EQ((*ops)[0].triples.size(), 1u);
}

TEST(UpdateParserTest, RejectsTemplates) {
  rdf::Dictionary dict;
  auto ops = ParseSparqlUpdate(
      "DELETE WHERE { ?x <http://p> ?y }", dict);
  ASSERT_FALSE(ops.ok());
  EXPECT_NE(ops.status().message().find("DATA"), std::string::npos);
}

// A malformed block, or a malformed token after a good block, fails the
// whole request before any term reaches the dictionary.
TEST(UpdateParserTest, MalformedRequestInternsNothing) {
  rdf::Dictionary dict;
  dict.InternIri("http://ex.org/known");
  const size_t before = dict.size();
  for (const char* request :
       {"PREFIX ex: <http://ex.org/>\n"
        "INSERT DATA { ex:fresh1 ex:p ex:fresh2 } ;\n"
        "INSERT DATA { ex:fresh3 a ex:C ",
        "PREFIX ex: <http://ex.org/>\n"
        "INSERT DATA { ex:fresh1 ex:p ex:fresh2 } ;\n"
        "DELETE DATA { ex:fresh3 ex:p \"unterminated }",
        "PREFIX ex: <http://ex.org/>\n"
        "INSERT DATA { ex:fresh1 ex:p ex:fresh2 } ;\n"
        "DELETE WHERE { ?x ex:p ?y }"}) {
    auto ops = ParseSparqlUpdate(request, dict);
    EXPECT_FALSE(ops.ok()) << request;
    EXPECT_EQ(dict.size(), before) << request;
  }
}

TEST(ReasoningStoreTest, FailedUpdateInternsNothing) {
  ReasoningStore store;
  ASSERT_TRUE(store.LoadTurtle(kData).ok());
  const size_t before = store.graph().dict().size();
  auto info = store.Update(
      "PREFIX ex: <http://ex.org/>\n"
      "INSERT DATA { ex:newcomer a ex:Cat } ;\n"
      "INSERT DATA { ex:other a ");
  EXPECT_FALSE(info.ok());
  EXPECT_EQ(store.graph().dict().size(), before);
  // A good request after it interns as usual.
  ASSERT_TRUE(store.Update("PREFIX ex: <http://ex.org/>\n"
                           "INSERT DATA { ex:newcomer a ex:Cat }")
                  .ok());
  EXPECT_EQ(store.graph().dict().size(), before + 1);
}

// Property: a random mixed stream of SPARQL updates leaves saturation and
// reformulation modes agreeing on a probe query.
TEST(ReasoningStorePropertyTest, ModesAgreeUnderUpdateStream) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    ReasoningStore sat_store;  // saturation
    ReasoningStoreOptions ref_options;
    ref_options.mode = ReasoningMode::kReformulation;
    ReasoningStore ref_store(ref_options);

    ASSERT_TRUE(sat_store.LoadTurtle(kData).ok());
    ASSERT_TRUE(ref_store.LoadTurtle(kData).ok());

    for (int step = 0; step < 25; ++step) {
      int entity = static_cast<int>(rng.Uniform(0, 5));
      const char* kinds[] = {"Cat", "Mammal", "Animal"};
      const char* kind = kinds[rng.Uniform(0, 2)];
      std::string triple = "<http://ex.org/pet" + std::to_string(entity) +
                           "> a <http://ex.org/" + kind + ">";
      std::string update = rng.Chance(0.6)
                               ? "INSERT DATA { " + triple + " }"
                               : "DELETE DATA { " + triple + " }";
      auto a = sat_store.Update(update);
      auto b = ref_store.Update(update);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();

      auto sat_result = sat_store.Query(kAnimalQuery);
      auto ref_result = ref_store.Query(kAnimalQuery);
      ASSERT_TRUE(sat_result.ok());
      ASSERT_TRUE(ref_result.ok());
      sat_result->Normalize();
      ref_result->Normalize();
      ASSERT_EQ(sat_result->rows.size(), ref_result->rows.size())
          << "seed " << seed << " step " << step;
    }
  }
}

// --- Reformulation as a join of per-atom unions ------------------------------

// `persons` individuals spread over Person's subclasses and its domain, so
// (?x a ex:Person) is a union of several alternatives.
std::string PersonData(int persons) {
  std::string turtle =
      "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
      "@prefix ex: <http://ex.org/> .\n"
      "ex:Student rdfs:subClassOf ex:Person .\n"
      "ex:Professor rdfs:subClassOf ex:Person .\n"
      "ex:teaches rdfs:domain ex:Professor .\n";
  for (int i = 0; i < persons; ++i) {
    const std::string who = "ex:p" + std::to_string(i);
    turtle += i % 3 == 0   ? who + " a ex:Student .\n"
              : i % 3 == 1 ? who + " a ex:Professor .\n"
                           : who + " ex:teaches ex:c" +
                                 std::to_string(i % 7) + " .\n";
  }
  return turtle;
}

TEST(JoinOfUnionsTest, LegacyJoinPreparesOneUnionPerAtom) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kReformulation;
  options.encoding = false;
  ReasoningStore store(options);
  store.SetPlanMode(false);
  ASSERT_TRUE(store.LoadTurtle(PersonData(6)).ok());
  const char* query =
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x ?y WHERE { ?x rdf:type ex:Person . ?y rdf:type ex:Person }";
  auto prepared = store.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_EQ(prepared->joins.size(), 1u);
  // Person, Student, Professor, and (?x teaches _) per atom: 4 + 4, where
  // the UCQ has 4 x 4 combinations.
  EXPECT_EQ(prepared->union_size, 8u);
  EXPECT_EQ(prepared->query.size(), 1u);  // the query as written
  QueryInfo info;
  auto result = store.Execute(*prepared, &info);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 36u);
  EXPECT_EQ(info.union_size, 8u);

  // The plan route keeps the whole-query UCQ.
  ReadOptions plan;
  plan.plan = true;
  auto planned = store.Prepare(query, plan);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(planned->joins.empty());
  EXPECT_EQ(planned->union_size, 16u);
  auto planned_result = store.Execute(*planned);
  ASSERT_TRUE(planned_result.ok());
  EXPECT_EQ(planned_result->rows.size(), 36u);
}

// A reformulated cross product would answer 9M rows; its deadline stops it
// within twice the timeout, with DeadlineExceeded and no partial rows.
TEST(JoinOfUnionsTest, CrossProductHonoursDeadline) {
  ReasoningStoreOptions options;
  options.mode = ReasoningMode::kReformulation;
  options.encoding = false;
  ReasoningStore store(options);
  store.SetPlanMode(false);
  ASSERT_TRUE(store.LoadTurtle(PersonData(3000)).ok());
  constexpr uint64_t kTimeoutNanos = 50'000'000;  // 50 ms
  ReadOptions read;
  const uint64_t start = SteadyNowNanos();
  read.deadline_nanos = start + kTimeoutNanos;
  auto prepared = store.Prepare(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x ?y WHERE { ?x rdf:type ex:Person . ?y rdf:type ex:Person }",
      read);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_EQ(prepared->joins.size(), 1u);
  auto result = store.Execute(*prepared);
  const uint64_t elapsed = SteadyNowNanos() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2 * kTimeoutNanos);
}

}  // namespace
}  // namespace wdr::store
