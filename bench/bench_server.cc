// Concurrent-server throughput bench: N socket clients drive a mixed
// read/write workload against an in-process wdr::server::Server (real
// loopback TCP, the full framed protocol) and the harness reports
// per-class and aggregate throughput plus client-observed latency
// quantiles.
//
// The default shape is the acceptance workload: 16 clients, 90% QUERY /
// 10% UPDATE, reasoning answers on every read (the queries hit the top of
// a class hierarchy). Reads are snapshot-isolated (each sees one epoch);
// writes funnel through the store's single-writer left-right protocol, so
// the write column also prices the double-apply + incremental reasoning.
//
// Flags:
//   --clients=N       concurrent client connections (default 16)
//   --write-pct=P     percentage of operations that are updates (default 10)
//   --seconds=S       measured duration per mix (default 2)
//   --scale=T         approximate base-graph size in triples (default 2000)
//   --backend=B       ordered|flat storage backend (default ordered)
//   --metrics-json=P  dump the wdr.* metrics registry to P afterwards
//                     (includes the server's wdr.server.* histograms)
//
// A numeric flag must be a whole number in its range, or the bench exits
// 1 before doing any work.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"

namespace {

using wdr::Rng;
using wdr::server::Client;
using wdr::server::Server;
using wdr::server::SnapshotStore;

constexpr const char* kPrefixes =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ex: <http://ex.org/>\n";

constexpr int kClasses = 20;
constexpr int kProperties = 8;

// A LUBM-flavored synthetic instance: deep subclass/subproperty trees and
// `scale` instance triples, so the read side exercises real reasoning.
std::string MakeData(uint64_t seed, int scale) {
  Rng rng(seed);
  std::ostringstream out;
  out << "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
      << "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
      << "@prefix ex: <http://ex.org/> .\n";
  for (int c = 1; c < kClasses; ++c) {
    out << "ex:C" << c << " rdfs:subClassOf ex:C" << rng.Uniform(0, c - 1)
        << " .\n";
  }
  for (int p = 1; p < kProperties; ++p) {
    out << "ex:p" << p << " rdfs:subPropertyOf ex:p" << rng.Uniform(0, p - 1)
        << " .\n";
  }
  const int individuals = scale / 2;
  for (int i = 0; i < scale; ++i) {
    if (i % 2 == 0) {
      out << "ex:i" << rng.Uniform(0, individuals) << " a ex:C"
          << rng.Uniform(0, kClasses - 1) << " .\n";
    } else {
      out << "ex:i" << rng.Uniform(0, individuals) << " ex:p"
          << rng.Uniform(0, kProperties - 1) << " ex:i"
          << rng.Uniform(0, individuals) << " .\n";
    }
  }
  return out.str();
}

// The read mix: entailment-heavy queries against the hierarchy tops.
std::vector<std::string> MakeQueries() {
  return {
      std::string(kPrefixes) + "SELECT ?x WHERE { ?x rdf:type ex:C0 }",
      std::string(kPrefixes) + "SELECT ?x ?y WHERE { ?x ex:p0 ?y }",
      std::string(kPrefixes) +
          "SELECT ?x ?y WHERE { ?x rdf:type ex:C1 . ?x ex:p0 ?y }",
  };
}

struct WorkerResult {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
};

// Parses `arg` as `name` followed by a number in [lo, hi] into `*out`.
// Returns 0 when `arg` is another flag, 1 when parsed, -1 when the value
// is not entirely a number in range ("4x" or an int-overflowing value).
int FlagInt(const char* arg, const char* name, long lo, long hi, int* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return 0;
  char* end = nullptr;
  const long value = std::strtol(arg + n, &end, 10);
  if (end == arg + n || *end != '\0' || value < lo || value > hi) return -1;
  *out = static_cast<int>(value);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 16;
  int write_pct = 10;
  int seconds = 2;
  int scale = 2000;
  wdr::store::ReasoningStoreOptions store_options;
  std::string metrics_path =
      wdr::bench::ConsumeMetricsJsonFlag(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    int parsed = FlagInt(argv[i], "--clients=", 1, 256, &clients);
    if (parsed == 0) {
      parsed = FlagInt(argv[i], "--write-pct=", 0, 100, &write_pct);
    }
    if (parsed == 0) parsed = FlagInt(argv[i], "--seconds=", 1, 3600, &seconds);
    if (parsed == 0) parsed = FlagInt(argv[i], "--scale=", 2, 10000000, &scale);
    if (parsed < 0) {
      std::fprintf(stderr, "invalid value in %s\n", argv[i]);
      return 1;
    }
    if (parsed > 0) continue;
    if (std::strcmp(argv[i], "--backend=flat") == 0) {
      store_options.backend = wdr::rdf::StorageBackend::kFlat;
    } else if (std::strcmp(argv[i], "--backend=ordered") == 0) {
      store_options.backend = wdr::rdf::StorageBackend::kOrdered;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  SnapshotStore store(store_options);
  {
    auto loaded = store.LoadTurtle(MakeData(20250807, scale));
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("base graph: %zu triples, backend=%s, %d clients, %d%% "
                "writes, %ds\n",
                store.size(),
                wdr::rdf::StorageBackendName(store.backend()), clients,
                write_pct, seconds);
  }

  wdr::server::ServerOptions server_options;
  server_options.max_sessions = static_cast<size_t>(clients) + 4;
  Server server(store, server_options);
  if (wdr::Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  const std::vector<std::string> queries = MakeQueries();
  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const int individuals = scale / 2;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      WorkerResult& result = results[static_cast<size_t>(c)];
      Rng rng(0x5eedull + static_cast<uint64_t>(c));
      Client client;
      if (!client.Connect(server.port()).ok()) {
        ++result.errors;
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        const bool write = rng.Uniform(1, 100) <= write_pct;
        wdr::Timer timer;
        if (write) {
          // One insert + one (likely present) delete per update batch.
          std::ostringstream update;
          update << kPrefixes << "INSERT DATA { ex:i"
                 << rng.Uniform(0, individuals) << " a ex:C"
                 << rng.Uniform(0, kClasses - 1) << " } ;\n"
                 << "DELETE DATA { ex:i" << rng.Uniform(0, individuals)
                 << " a ex:C" << rng.Uniform(0, kClasses - 1) << " }";
          auto response = client.Update(update.str());
          if (!response.ok() || !response.value().ok) {
            ++result.errors;
            break;
          }
          ++result.writes;
          result.write_us.push_back(timer.ElapsedMicros());
        } else {
          const auto& query = queries[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(queries.size()) - 1))];
          auto response = client.Query(query);
          if (!response.ok() || !response.value().ok) {
            ++result.errors;
            break;
          }
          ++result.reads;
          result.read_us.push_back(timer.ElapsedMicros());
        }
      }
    });
  }

  wdr::Timer wall;
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.ElapsedSeconds();
  server.Stop();

  uint64_t reads = 0, writes = 0, errors = 0;
  std::vector<double> read_us, write_us;
  for (const WorkerResult& r : results) {
    reads += r.reads;
    writes += r.writes;
    errors += r.errors;
    read_us.insert(read_us.end(), r.read_us.begin(), r.read_us.end());
    write_us.insert(write_us.end(), r.write_us.begin(), r.write_us.end());
  }
  std::sort(read_us.begin(), read_us.end());
  std::sort(write_us.begin(), write_us.end());
  const auto quantile = [](const std::vector<double>& samples, double q) {
    if (samples.empty()) return 0.0;
    size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
    if (rank >= samples.size()) rank = samples.size() - 1;
    return samples[rank];
  };

  std::printf("%-10s %10s %12s %12s %12s\n", "class", "ops", "ops/s", "p50",
              "p99");
  std::printf("%-10s %10llu %12.0f %10.1fus %10.1fus\n", "query",
              static_cast<unsigned long long>(reads),
              static_cast<double>(reads) / elapsed, quantile(read_us, 0.5),
              quantile(read_us, 0.99));
  std::printf("%-10s %10llu %12.0f %10.1fus %10.1fus\n", "update",
              static_cast<unsigned long long>(writes),
              static_cast<double>(writes) / elapsed, quantile(write_us, 0.5),
              quantile(write_us, 0.99));
  std::printf("%-10s %10llu %12.0f  (%.2fs wall, %llu errors, final epoch "
              "%llu)\n",
              "total", static_cast<unsigned long long>(reads + writes),
              static_cast<double>(reads + writes) / elapsed, elapsed,
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(store.epoch()));

  if (errors != 0) {
    std::fprintf(stderr, "bench saw %llu client errors\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  if (!metrics_path.empty() &&
      !wdr::bench::ExportMetricsJson(metrics_path)) {
    return 1;
  }
  return 0;
}
