// Storage-seam equivalence: the flat backend must be observationally
// identical to the ordered backend through the StoreView interface, and
// every reasoning mode must produce the same answers on either backend.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "rdf/flat_triple_store.h"
#include "rdf/store_view.h"
#include "rdf/triple_store.h"
#include "reasoning/saturated_graph.h"
#include "store/reasoning_store.h"
#include "tests/test_util.h"

namespace wdr {
namespace {

using rdf::FlatTripleStore;
using rdf::StorageBackend;
using rdf::StoreView;
using rdf::TermId;
using rdf::Triple;
using rdf::TripleStore;

Triple RandomTriple(Rng& rng, TermId universe) {
  return Triple(static_cast<TermId>(rng.Uniform(1, universe)),
                static_cast<TermId>(rng.Uniform(1, 8)),
                static_cast<TermId>(rng.Uniform(1, universe)));
}

// Every pattern shape over a small probe set, checked for identical Match
// enumeration, Count, and EstimateCount ordering-independent agreement.
void ExpectSameObservations(const StoreView& a, const StoreView& b,
                            const std::vector<Triple>& probes) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.ToVector(), b.ToVector());
  for (const Triple& probe : probes) {
    EXPECT_EQ(a.Contains(probe), b.Contains(probe));
    for (int mask = 0; mask < 8; ++mask) {
      TermId s = (mask & 1) ? probe.s : 0;
      TermId p = (mask & 2) ? probe.p : 0;
      TermId o = (mask & 4) ? probe.o : 0;
      std::vector<Triple> from_a, from_b;
      a.Match(s, p, o, [&](const Triple& t) { from_a.push_back(t); });
      b.Match(s, p, o, [&](const Triple& t) { from_b.push_back(t); });
      std::sort(from_a.begin(), from_a.end());
      std::sort(from_b.begin(), from_b.end());
      ASSERT_EQ(from_a, from_b) << "pattern (" << s << "," << p << "," << o
                                << ")";
      EXPECT_EQ(a.Count(s, p, o), from_a.size());
      EXPECT_EQ(b.Count(s, p, o), from_b.size());
    }
  }
}

TEST(StorageBackendTest, RandomizedWorkloadAgreement) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    TripleStore ordered;
    FlatTripleStore flat;
    std::vector<Triple> probes;
    // Interleaved inserts and erases; the flat store crosses its merge
    // threshold several times at this volume.
    for (int round = 0; round < 2000; ++round) {
      Triple t = RandomTriple(rng, 40);
      if (rng.Chance(0.25)) {
        EXPECT_EQ(ordered.Erase(t), flat.Erase(t)) << "seed " << seed;
      } else {
        EXPECT_EQ(ordered.Insert(t), flat.Insert(t)) << "seed " << seed;
      }
      if (probes.size() < 32 && rng.Chance(0.05)) probes.push_back(t);
    }
    ExpectSameObservations(ordered, flat, probes);
  }
}

TEST(StorageBackendTest, BatchInsertMatchesIncremental) {
  Rng rng(7);
  std::vector<Triple> batch;
  for (int i = 0; i < 3000; ++i) batch.push_back(RandomTriple(rng, 60));

  TripleStore ordered;
  FlatTripleStore flat_bulk;
  FlatTripleStore flat_incremental;
  size_t added_ordered = ordered.InsertBatch(batch);
  size_t added_bulk = flat_bulk.InsertBatch(batch);
  size_t added_incremental = 0;
  for (const Triple& t : batch) {
    if (flat_incremental.Insert(t)) ++added_incremental;
  }
  EXPECT_EQ(added_ordered, added_bulk);
  EXPECT_EQ(added_ordered, added_incremental);
  EXPECT_EQ(ordered.ToVector(), flat_bulk.ToVector());
  EXPECT_EQ(ordered.ToVector(), flat_incremental.ToVector());
}

TEST(StorageBackendTest, InsertWhileScanningDoesNotInvalidateCursors) {
  // The saturation loop inserts into the store it is scanning; the flat
  // backend must defer compaction while a cursor is live.
  FlatTripleStore flat;
  std::vector<Triple> batch;
  for (TermId i = 1; i <= 600; ++i) batch.push_back(Triple(i, 1, i + 1));
  flat.InsertBatch(batch);

  size_t seen = 0;
  flat.Match(0, 1, 0, [&](const Triple& t) {
    ++seen;
    // Enough inserts to cross the merge threshold mid-scan.
    flat.Insert(Triple(t.s, 2, t.o));
    return true;
  });
  EXPECT_EQ(seen, 600u);
  EXPECT_EQ(flat.size(), 1200u);
  EXPECT_EQ(flat.Count(0, 2, 0), 600u);
}

TEST(StorageBackendTest, CloneIsIndependent) {
  FlatTripleStore flat;
  flat.Insert(Triple(1, 2, 3));
  std::unique_ptr<StoreView> copy = flat.Clone();
  copy->Insert(Triple(4, 5, 6));
  EXPECT_EQ(flat.size(), 1u);
  EXPECT_EQ(copy->size(), 2u);
  EXPECT_EQ(copy->backend(), StorageBackend::kFlat);
}

// All four reasoning modes must answer identically regardless of the
// storage engine selected through ReasoningStore.
TEST(StorageBackendTest, ReasoningModesAgreeAcrossBackends) {
  constexpr const char* kData = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix : <http://test.example.org/> .
:Professor rdfs:subClassOf :Faculty .
:Faculty rdfs:subClassOf :Person .
:teaches rdfs:domain :Faculty .
:teaches rdfs:range :Course .
:advises rdfs:subPropertyOf :knows .
:alice rdf:type :Professor .
:alice :teaches :cs101 .
:alice :advises :bob .
:bob rdf:type :Person .
)";
  constexpr const char* kQueries[] = {
      "SELECT ?x WHERE { ?x a <http://test.example.org/Person> }",
      "SELECT ?x ?c WHERE { ?x a ?c }",
      "SELECT ?x ?y WHERE { ?x <http://test.example.org/knows> ?y }",
      "SELECT ?c WHERE { ?c a <http://test.example.org/Course> }",
  };
  using store::ReasoningMode;
  constexpr ReasoningMode kModes[] = {
      ReasoningMode::kSaturation, ReasoningMode::kReformulation,
      ReasoningMode::kBackward};

  for (const char* sparql : kQueries) {
    std::set<std::vector<std::string>> reference;
    bool have_reference = false;
    for (ReasoningMode mode : kModes) {
      for (StorageBackend backend :
           {StorageBackend::kOrdered, StorageBackend::kFlat}) {
        store::ReasoningStoreOptions options;
        options.mode = mode;
        options.backend = backend;
        store::ReasoningStore rs(options);
        ASSERT_TRUE(rs.LoadTurtle(kData).ok());
        EXPECT_EQ(rs.backend(), backend);
        auto result = rs.Query(sparql);
        ASSERT_TRUE(result.ok()) << sparql;
        auto rows = test::Rows(rs.graph(), *result);
        if (!have_reference) {
          reference = rows;
          have_reference = true;
        } else {
          EXPECT_EQ(rows, reference)
              << sparql << " mode=" << store::ReasoningModeName(mode)
              << " backend=" << rdf::StorageBackendName(backend);
        }
      }
    }
    EXPECT_FALSE(reference.empty()) << sparql;
  }
}

// Switching the backend at run time carries all data (and the closure).
TEST(StorageBackendTest, RuntimeBackendSwitchPreservesAnswers) {
  store::ReasoningStore rs;
  ASSERT_TRUE(rs
                  .LoadTurtle(R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix : <http://test.example.org/> .
:Cat rdfs:subClassOf :Mammal .
:tom rdf:type :Cat .
)")
                  .ok());
  const char* q = "SELECT ?x WHERE { ?x a <http://test.example.org/Mammal> }";
  auto before = rs.Query(q);
  ASSERT_TRUE(before.ok());
  auto before_rows = test::Rows(rs.graph(), *before);
  EXPECT_EQ(before_rows.size(), 1u);

  // Backend names parse to exactly the two engines; anything else fails.
  StorageBackend parsed = StorageBackend::kOrdered;
  EXPECT_FALSE(rdf::ParseStorageBackend("sharded", &parsed));
  ASSERT_TRUE(rdf::ParseStorageBackend("flat", &parsed));
  rs.SetBackend(parsed);
  EXPECT_EQ(rs.backend(), StorageBackend::kFlat);
  EXPECT_EQ(rs.graph().backend(), StorageBackend::kFlat);
  auto after = rs.Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(test::Rows(rs.graph(), *after), before_rows);

  // And updates keep maintaining the closure on the new backend.
  rdf::Triple t = test::Enc(rs.graph(), "felix", schema::iri::kType, "Cat");
  auto info = rs.Insert(t);
  EXPECT_EQ(info.inserted, 1u);
  auto final_result = rs.Query(q);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(test::Rows(rs.graph(), *final_result).size(), 2u);
}

// SaturatedGraph on a flat-backed graph: incremental insert/delete (DRed)
// agrees with recomputation — the self-inserting-scan stress path.
TEST(StorageBackendTest, IncrementalMaintenanceOnFlatBackend) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    test::RandomGraphConfig config;
    test::RandomGraph rg = test::MakeRandomGraph(rng, config);

    rdf::Graph flat_graph(StorageBackend::kFlat);
    rg.graph.store().Match(0, 0, 0, [&](const Triple& t) {
      // Same dictionary ids; copy the triples into the flat-backed graph.
      flat_graph.Insert(t);
    });
    flat_graph.dict() = rg.graph.dict();

    reasoning::SaturatedGraph sg(flat_graph, rg.vocab);
    EXPECT_EQ(sg.backend(), StorageBackend::kFlat);
    reasoning::SaturatedGraph reference(rg.graph, rg.vocab);
    EXPECT_EQ(test::Triples(sg.closure()), test::Triples(reference.closure()));

    // Random churn, checking against recomputation after each operation.
    std::vector<Triple> pool = rg.graph.store().ToVector();
    for (int i = 0; i < 10; ++i) {
      Triple t = pool[static_cast<size_t>(
          rng.Uniform(0, pool.size() - 1))];
      if (rng.Chance(0.5)) {
        sg.Erase(t);
        reference.Erase(t);
      } else {
        sg.Insert(t);
        reference.Insert(t);
      }
      ASSERT_EQ(test::Triples(sg.closure()),
                test::Triples(reference.closure()))
          << "seed " << seed << " op " << i;
    }
  }
}

}  // namespace
}  // namespace wdr
