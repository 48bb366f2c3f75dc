// Snapshot-isolation property test for the server's concurrency core:
// N reader threads query a server::SnapshotStore while one writer applies
// update batches, and every observed answer set must equal the reference
// answers of the exact epoch the read reports — never a torn mix of two
// epochs. A single-threaded ReasoningStore replays the same batches to
// produce the per-epoch reference. Runs at 1/2/8 reader threads on both
// storage backends over many seeded instances; every failure names its
// seed for replay with WDR_SEED=<seed>.
//
// Also here: the deterministic compaction fault-injection tests — an
// epoch pin must defer a flat-store merge (TryCompact() == false, delta
// intact, deferral counter bumped) and the merge must fire once the pin
// is released — and a socket-level smoke test driving the same invariant
// through server::Server with real concurrent clients.
#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "rdf/flat_triple_store.h"
#include "rdf/store_view.h"
#include "rdf/triple_store.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"
#include "tests/differential_util.h"

namespace wdr::server {
namespace {

constexpr uint64_t kDefaultBaseSeed = 20250807;

constexpr const char* kPrefixes =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
    "PREFIX ex: <http://ex.org/>\n";

// The three probe queries every reader issues. All touch the top of the
// class/property hierarchies, so their answers depend on reasoning over
// schema AND data — a torn read (old closure, new base, or vice versa)
// shows up as an answer set matching no epoch.
std::vector<std::string> ProbeQueries() {
  return {
      std::string(kPrefixes) + "SELECT ?x WHERE { ?x rdf:type ex:C0 }",
      std::string(kPrefixes) + "SELECT ?x ?y WHERE { ?x ex:p0 ?y }",
      std::string(kPrefixes) +
          "SELECT ?x ?y WHERE { ?x rdf:type ex:C0 . ?x ex:p0 ?y }",
  };
}

// One randomized workload: an RDFS schema (subclass/subproperty trees
// rooted at C0/p0, some domain/range axioms) plus a base load and a
// sequence of INSERT/DELETE DATA batches.
struct Instance {
  std::string schema_turtle;
  std::string base_turtle;
  std::vector<std::string> updates;  // SPARQL UPDATE, one per epoch
};

Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  const int classes = 5;
  const int properties = 3;
  const int individuals = 12;

  Instance instance;
  std::ostringstream schema;
  schema << "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
         << "@prefix ex: <http://ex.org/> .\n";
  // Every class/property above index 0 points at a random lower index, so
  // the hierarchies are DAGs with C0/p0 as the unique roots.
  for (int c = 1; c < classes; ++c) {
    schema << "ex:C" << c << " rdfs:subClassOf ex:C" << rng.Uniform(0, c - 1)
           << " .\n";
  }
  for (int p = 1; p < properties; ++p) {
    schema << "ex:p" << p << " rdfs:subPropertyOf ex:p"
           << rng.Uniform(0, p - 1) << " .\n";
  }
  // A couple of domain/range axioms make property assertions feed the
  // class query too.
  schema << "ex:p" << rng.Uniform(0, properties - 1) << " rdfs:domain ex:C"
         << rng.Uniform(0, classes - 1) << " .\n";
  schema << "ex:p" << rng.Uniform(0, properties - 1) << " rdfs:range ex:C"
         << rng.Uniform(0, classes - 1) << " .\n";
  instance.schema_turtle = schema.str();

  // Ground triples as "ex:s ex:p ex:o" strings, shared by Turtle and
  // UPDATE blocks. Track what is live so deletes hit real triples.
  std::vector<std::string> live;
  const auto random_triple = [&]() -> std::string {
    std::ostringstream t;
    if (rng.Uniform(0, 1) == 0) {
      t << "ex:i" << rng.Uniform(0, individuals - 1) << " a ex:C"
        << rng.Uniform(0, classes - 1);
    } else {
      t << "ex:i" << rng.Uniform(0, individuals - 1) << " ex:p"
        << rng.Uniform(0, properties - 1) << " ex:i"
        << rng.Uniform(0, individuals - 1);
    }
    return t.str();
  };

  std::ostringstream base;
  base << "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
       << "@prefix ex: <http://ex.org/> .\n";
  for (int i = 0; i < 20; ++i) {
    const std::string t = random_triple();
    base << t << " .\n";
    live.push_back(t);
  }
  instance.base_turtle = instance.schema_turtle + base.str();

  const int batches = 4;
  for (int b = 0; b < batches; ++b) {
    std::ostringstream update;
    update << kPrefixes << "INSERT DATA {";
    for (int i = 0; i < 6; ++i) {
      const std::string t = random_triple();
      update << ' ' << t << " .";
      live.push_back(t);
    }
    update << " } ;\nDELETE DATA {";
    for (int i = 0; i < 3 && !live.empty(); ++i) {
      const size_t victim =
          static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      update << ' ' << live[victim] << " .";
      live.erase(live.begin() + static_cast<long>(victim));
    }
    update << " }";
    instance.updates.push_back(update.str());
  }
  return instance;
}

using AnswerSet = std::set<std::vector<std::string>>;

AnswerSet Decode(const store::ReasoningStore& store,
                 const query::ResultSet& rs) {
  AnswerSet out;
  for (const query::Row& row : rs.rows) out.insert(store.DecodeRow(row));
  return out;
}

AnswerSet Sorted(const std::vector<std::vector<std::string>>& rows) {
  return AnswerSet(rows.begin(), rows.end());
}

std::string Render(const AnswerSet& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    out << "  [";
    for (size_t i = 0; i < row.size(); ++i) out << (i ? " " : "") << row[i];
    out << "]\n";
  }
  return out.str();
}

// Replays the instance on a plain single-threaded ReasoningStore and
// records, for every epoch e (0 = empty, 1 = base load, 2.. = batches),
// the expected answer set of every probe query.
std::vector<std::vector<AnswerSet>> ReferenceAnswers(
    const Instance& instance, const store::ReasoningStoreOptions& options) {
  const std::vector<std::string> queries = ProbeQueries();
  store::ReasoningStore reference(options);
  std::vector<std::vector<AnswerSet>> expected;
  const auto snapshot = [&] {
    std::vector<AnswerSet> answers;
    for (const std::string& q : queries) {
      auto result = reference.Query(q);
      EXPECT_TRUE(result.ok()) << result.status();
      answers.push_back(result.ok() ? Decode(reference, result.value())
                                    : AnswerSet{});
    }
    expected.push_back(std::move(answers));
  };
  snapshot();  // epoch 0
  EXPECT_TRUE(reference.LoadTurtle(instance.base_turtle).ok());
  snapshot();  // epoch 1
  for (const std::string& update : instance.updates) {
    auto applied = reference.Update(update);
    EXPECT_TRUE(applied.ok()) << applied.status();
    snapshot();
  }
  return expected;
}

// The property: run `readers` concurrent query threads against a
// SnapshotStore while one writer applies the instance's batches; every
// (epoch, answers) observation must match the reference for that epoch.
void RunSnapshotInstance(uint64_t seed, rdf::StorageBackend backend,
                         int readers) {
  const Instance instance = MakeInstance(seed);
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kSaturation;
  options.backend = backend;
  options.query.plan = false;
  const std::vector<std::vector<AnswerSet>> expected =
      ReferenceAnswers(instance, options);
  const std::vector<std::string> queries = ProbeQueries();

  SnapshotStore store(options);
  std::atomic<bool> writer_done{false};
  std::vector<std::string> errors(static_cast<size_t>(readers));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers) + 1);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(r + 1)));
      SnapshotStore::PlanCache cache(8);
      std::ostringstream error;
      // Keep reading until the writer finishes, then one final pass that
      // must observe the last epoch.
      bool final_pass = false;
      while (error.str().empty()) {
        const bool done = writer_done.load(std::memory_order_acquire);
        const size_t qi =
            static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(queries.size()) - 1));
        store::ReadOptions ropts;
        // Exercise per-session mode overrides: all reasoning modes must
        // agree on the answers of any one epoch. Auto-routed reads probe
        // base statistics and plan-mode reads plan over the queried
        // store's; the writer's Warm() builds neither for this legacy-join
        // store, so these reads build them under prepare_mu while writes
        // land.
        switch (rng.Uniform(0, 4)) {
          case 1:
            ropts.mode = store::ReasoningMode::kReformulation;
            break;
          case 2:
            ropts.mode = store::ReasoningMode::kBackward;
            break;
          case 3:
            ropts.mode = store::ReasoningMode::kAuto;
            break;
          default:
            break;  // store default (saturation)
        }
        if (rng.Uniform(0, 1) == 1) ropts.plan = true;
        auto result = store.Query(queries[qi], ropts, &cache);
        if (!result.ok()) {
          error << "query failed: " << result.status().ToString();
          break;
        }
        const uint64_t epoch = result.value().epoch;
        if (epoch >= expected.size()) {
          error << "epoch " << epoch << " out of range";
          break;
        }
        const AnswerSet got = Sorted(result.value().rows);
        const AnswerSet& want = expected[epoch][qi];
        if (got != want) {
          error << "torn read at epoch " << epoch << " query " << qi
                << "\nexpected:\n"
                << Render(want) << "got:\n"
                << Render(got);
          break;
        }
        if (final_pass) break;
        if (done) final_pass = true;
      }
      errors[static_cast<size_t>(r)] = error.str();
    });
  }

  threads.emplace_back([&] {
    auto loaded = store.LoadTurtle(instance.base_turtle);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    for (const std::string& update : instance.updates) {
      auto applied = store.Update(update);
      EXPECT_TRUE(applied.ok()) << applied.status();
      std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(store.epoch(), instance.updates.size() + 1);
  for (int r = 0; r < readers; ++r) {
    EXPECT_TRUE(errors[static_cast<size_t>(r)].empty())
        << "reader " << r << ": " << errors[static_cast<size_t>(r)]
        << "\n[seed=" << seed << " — rerun with WDR_SEED=" << seed << "]";
  }
}

class SnapshotIsolationTest
    : public ::testing::TestWithParam<std::tuple<rdf::StorageBackend, int>> {};

TEST_P(SnapshotIsolationTest, EveryReadMatchesItsEpoch) {
  const auto [backend, readers] = GetParam();
  const uint64_t base_seed = test::EnvU64("WDR_SEED", kDefaultBaseSeed);
  const uint64_t instances = test::EnvU64("WDR_SNAPSHOT_INSTANCES", 10);
  for (uint64_t i = 0; i < instances; ++i) {
    RunSnapshotInstance(base_seed + i, backend, readers);
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SnapshotIsolationTest,
    ::testing::Combine(::testing::Values(rdf::StorageBackend::kOrdered,
                                         rdf::StorageBackend::kFlat),
                       ::testing::Values(1, 2, 8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ==
                                 rdf::StorageBackend::kOrdered
                             ? "ordered"
                             : "flat") +
             "_" + std::to_string(std::get<1>(info.param)) + "readers";
    });

// Sequential sanity check: epochs advance one per write and the published
// answers match the reference with no concurrency in play.
TEST(SnapshotStoreTest, SequentialEpochsMatchReference) {
  const uint64_t seed = test::EnvU64("WDR_SEED", kDefaultBaseSeed);
  const Instance instance = MakeInstance(seed);
  store::ReasoningStoreOptions options;
  const auto expected = ReferenceAnswers(instance, options);
  const std::vector<std::string> queries = ProbeQueries();

  SnapshotStore store(options);
  EXPECT_EQ(store.epoch(), 0u);
  ASSERT_TRUE(store.LoadTurtle(instance.base_turtle).ok());
  EXPECT_EQ(store.epoch(), 1u);
  SnapshotStore::PlanCache cache;
  for (size_t e = 1; e <= instance.updates.size(); ++e) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto result = store.Query(queries[qi], {}, &cache);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result.value().epoch, e);
      EXPECT_EQ(Sorted(result.value().rows), expected[e][qi])
          << "[seed=" << seed << " — rerun with WDR_SEED=" << seed << "]";
    }
    ASSERT_TRUE(store.Update(instance.updates[e - 1]).ok());
    EXPECT_EQ(store.epoch(), e + 1);
  }
  // Plan cache reuse: the same queries were re-prepared per epoch but hit
  // within one.
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

// Plan-cache effectiveness: within one epoch, repeated queries hit.
TEST(SnapshotStoreTest, PlanCacheHitsWithinEpoch) {
  SnapshotStore store;
  ASSERT_TRUE(store
                  .LoadTurtle("@prefix ex: <http://ex.org/> .\n"
                              "ex:a ex:p ex:b .\n")
                  .ok());
  SnapshotStore::PlanCache cache;
  const std::string query =
      std::string(kPrefixes) + "SELECT ?x WHERE { ?x ex:p ?y }";
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Query(query, {}, &cache).ok());
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 4u);
  // A write invalidates: the next query must re-prepare against the new
  // epoch.
  ASSERT_TRUE(store
                  .Update(std::string(kPrefixes) +
                          "INSERT DATA { ex:c ex:p ex:d }")
                  .ok());
  ASSERT_TRUE(store.Query(query, {}, &cache).ok());
  EXPECT_EQ(cache.misses(), 2u);
}

// --- Compaction fault injection (epoch pins vs. flat-store merges) -------

// An epoch pin must defer the flat backend's LSM merge exactly like an
// open scan: TryCompact refuses, the deferral counter ticks, and the
// pending delta stays put until the pin is released.
TEST(EpochPinFaultInjectionTest, PinDefersFlatCompactionUntilRelease) {
  rdf::FlatTripleStore store;
  auto& deferred = obs::MetricsRegistry::Get().GetCounter(
      "wdr.store.flat.compactions_deferred");

  // Pin first, then pour in enough triples that an unpinned store would
  // have merged (kMergeFloor), forcing deferred compaction attempts.
  rdf::EpochPin pin(store);
  ASSERT_EQ(store.epoch_pins(), 1u);
  const uint64_t deferred_before = deferred.value();
  for (rdf::TermId i = 1; i <= rdf::FlatTripleStore::kMergeFloor + 8; ++i) {
    store.Insert(rdf::Triple(i, 1, i + 1));
  }
  EXPECT_GT(store.delta_size(), rdf::FlatTripleStore::kMergeFloor)
      << "delta was merged while an epoch pin was held";
  EXPECT_FALSE(store.TryCompact());
  EXPECT_GT(deferred.value(), deferred_before);
  const size_t size_pinned = store.size();

  // Release: the merge must now fire and preserve contents exactly.
  pin.Release();
  ASSERT_EQ(store.epoch_pins(), 0u);
  EXPECT_TRUE(store.TryCompact());
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.size(), size_pinned);
}

// The ordered backend has no merge to defer but must still count pins
// symmetrically (the store layer pins whichever backend it queries).
TEST(EpochPinFaultInjectionTest, OrderedBackendCountsPins) {
  rdf::TripleStore store;
  {
    rdf::EpochPin outer(store);
    rdf::EpochPin inner(store);
    EXPECT_EQ(store.epoch_pins(), 2u);
    EXPECT_TRUE(store.TryCompact());  // nothing to defer; always succeeds
  }
  EXPECT_EQ(store.epoch_pins(), 0u);
}

// While a SnapshotStore read is in flight the queried side's view holds an
// epoch pin; quiescent stores hold none (pins cannot leak across reads).
TEST(EpochPinFaultInjectionTest, QuiescentSnapshotStoreHoldsNoPins) {
  store::ReasoningStoreOptions options;
  options.backend = rdf::StorageBackend::kFlat;
  SnapshotStore store(options);
  ASSERT_TRUE(store
                  .LoadTurtle("@prefix ex: <http://ex.org/> .\n"
                              "ex:a ex:p ex:b .\n")
                  .ok());
  ASSERT_TRUE(
      store.Query(std::string(kPrefixes) + "SELECT ?x WHERE { ?x ex:p ?y }",
                  {})
          .ok());
  EXPECT_EQ(store.published_store_view().epoch_pins(), 0u);
}

// --- Socket smoke: the same isolation property through server::Server ----

TEST(ServerSnapshotSmokeTest, ConcurrentSocketClientsSeeConsistentEpochs) {
  const uint64_t seed = test::EnvU64("WDR_SEED", kDefaultBaseSeed) ^ 0x5eedull;
  const Instance instance = MakeInstance(seed);
  store::ReasoningStoreOptions options;
  const auto expected = ReferenceAnswers(instance, options);
  const std::vector<std::string> queries = ProbeQueries();

  SnapshotStore store(options);
  Server server(store);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  std::atomic<bool> writer_done{false};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      const Status connected = client.Connect(server.port());
      if (!connected.ok()) {
        errors[static_cast<size_t>(c)] = connected.ToString();
        return;
      }
      std::ostringstream error;
      bool final_pass = false;
      size_t qi = 0;
      while (error.str().empty()) {
        const bool done = writer_done.load(std::memory_order_acquire);
        qi = (qi + 1) % queries.size();
        auto response = client.Query(queries[qi]);
        if (!response.ok()) {
          error << response.status().ToString();
          break;
        }
        if (!response.value().ok) {
          error << "server error: " << response.value().head;
          break;
        }
        // Parse "rows=N epoch=E ..." out of the head.
        const std::string& head = response.value().head;
        const size_t at = head.find("epoch=");
        if (at == std::string::npos) {
          error << "no epoch in head: " << head;
          break;
        }
        const uint64_t epoch = std::strtoull(head.c_str() + at + 6, nullptr, 10);
        if (epoch >= expected.size()) {
          error << "epoch out of range: " << head;
          break;
        }
        // Body: header line, then one row per line; compare as sets.
        AnswerSet got;
        std::istringstream body(response.value().body);
        std::string line;
        std::getline(body, line);  // variable-name header
        while (std::getline(body, line)) {
          std::vector<std::string> row;
          size_t pos = 0;
          while (true) {
            const size_t tab = line.find('\t', pos);
            row.push_back(line.substr(pos, tab - pos));
            if (tab == std::string::npos) break;
            pos = tab + 1;
          }
          got.insert(std::move(row));
        }
        if (got != expected[epoch][qi]) {
          error << "torn socket read at epoch " << epoch << " query " << qi
                << "\nexpected:\n"
                << Render(expected[epoch][qi]) << "got:\n"
                << Render(got);
          break;
        }
        if (final_pass) break;
        if (done) final_pass = true;
      }
      errors[static_cast<size_t>(c)] = error.str();
    });
  }

  // The writer goes through a socket session too: updates from any client
  // are serialized by the store's single-writer protocol.
  threads.emplace_back([&] {
    // Whatever happens, release the readers from their loop at the end.
    struct Done {
      std::atomic<bool>& flag;
      ~Done() { flag.store(true, std::memory_order_release); }
    } done{writer_done};
    Client writer;
    EXPECT_TRUE(writer.Connect(server.port()).ok());
    // The protocol has no bulk-load verb; load the base directly, then
    // apply every batch over the wire (UPDATE from any session is
    // serialized by the store's single-writer protocol).
    EXPECT_TRUE(store.LoadTurtle(instance.base_turtle).ok());
    for (const std::string& update : instance.updates) {
      auto response = writer.Update(update);
      EXPECT_TRUE(response.ok()) << response.status();
      if (!response.ok()) break;
      EXPECT_TRUE(response.value().ok) << response.value().head;
      if (!response.value().ok) break;
    }
  });
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(errors[static_cast<size_t>(c)].empty())
        << "client " << c << ": " << errors[static_cast<size_t>(c)]
        << "\n[seed=" << seed << " — rerun with WDR_SEED=" << seed << "]";
  }
  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u);
}

}  // namespace
}  // namespace wdr::server
