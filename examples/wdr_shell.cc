// wdr_shell — a small command-line front end over ReasoningStore, the
// shape of tool a downstream user runs first.
//
// Usage:
//   wdr_shell [--mode=saturation|reformulation|backward|datalog|none|auto]
//             [--backend=ordered|flat] [--plan] [--encoding=on|off]
//             [--explain] [--script=FILE]
//             [--serve=PORT] [--listen=PORT] [file.ttl ...]
//
// With --listen=PORT (or `.listen PORT` at the prompt) the shell starts
// the concurrent query server on the loaded data and — when stdin is not
// a command stream — stays up serving clients until interrupted.
//
// Reads commands from stdin (one per line):
//   SELECT ...          run a SPARQL query
//   INSERT DATA {...}   / DELETE DATA {...}   run an update
//   .load FILE          load a Turtle/N-Triples file
//   .mode MODE          switch reasoning technique at run time ("auto"
//                       routes each query through the online selector)
//   .why                last auto-mode routing decision with its per-route
//                       cost estimates
//   .backend ENGINE     switch storage engine (ordered|flat) at run time
//   .plan on|off        cost-based physical plans (hash joins, batching)
//   .encoding on|off    hierarchy-aware id encoding (LiteMat): collapse
//                       reformulation unions into range scans
//   .explain QUERY      run QUERY, print its operator tree (in plan mode:
//                       the chosen plan with estimated vs actual rows)
//   .profile on|off     per-operator query profiling (EXPLAIN ANALYZE)
//   .trace FILE / off   capture spans; "off" writes JSON lines to FILE
//   .stats              store statistics + live wdr.* metrics
//   .serve PORT / off   live stats endpoint on 127.0.0.1:PORT — /metrics
//                       (Prometheus), /metrics.json, /querylog, /trace
//   .listen PORT / off  multi-client query server on 127.0.0.1:PORT: the
//                       current graph is snapshotted into a concurrent
//                       wdr::server::SnapshotStore and served over the
//                       framed protocol (connect with wdr_client)
//   .slowlog MS / off   flag queries at or above MS milliseconds as slow
//                       in the query log
//   .help               this text
//
// --plan starts the store in plan mode; --explain prints the operator
// tree after every query (combine with --plan for estimated-vs-actual
// cardinalities per operator).
//
// With --script=FILE, commands come from FILE instead of stdin, errors go
// to stderr, and the first failing command terminates the shell with a
// non-zero exit status (so scripts are usable in CI).
//
// Without stdin input (or with --demo) runs a scripted demonstration so
// the binary is exercisable non-interactively.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "io/turtle_writer.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"

namespace {

using wdr::store::ReasoningMode;
using wdr::store::ReasoningStore;

// Path the next ".trace off" exports to; empty = tracing inactive.
std::string g_trace_path;

// The ".serve" / "--serve=" endpoint; stopped on destruction.
wdr::obs::StatsServer g_stats_server;

// The ".listen" / "--listen=" query server and its snapshot-isolated
// store. The snapshot is taken when listening starts: later shell-local
// commands do not feed it — clients update it over the wire.
std::unique_ptr<wdr::server::SnapshotStore> g_snapshot_store;
std::unique_ptr<wdr::server::Server> g_query_server;

// --explain: print the operator tree after every query.
bool g_explain = false;

bool ParseMode(const std::string& name, ReasoningMode* mode) {
  if (name == "saturation") {
    *mode = ReasoningMode::kSaturation;
  } else if (name == "reformulation") {
    *mode = ReasoningMode::kReformulation;
  } else if (name == "backward") {
    *mode = ReasoningMode::kBackward;
  } else if (name == "none") {
    *mode = ReasoningMode::kNone;
  } else if (name == "datalog") {
    *mode = ReasoningMode::kDatalog;
  } else if (name == "auto") {
    *mode = ReasoningMode::kAuto;
  } else {
    return false;
  }
  return true;
}

void PrintHelp() {
  std::cout << "commands:\n"
               "  SELECT ...            SPARQL BGP/UNION query\n"
               "  INSERT DATA { ... }   add ground triples\n"
               "  DELETE DATA { ... }   remove ground triples\n"
               "  .load FILE            load Turtle (.ttl) or N-Triples\n"
               "  .explain <s> <p> <o> .  prove why a triple is entailed\n"
               "  .mode MODE            "
               "saturation|reformulation|backward|datalog|none|auto\n"
               "  .why                  last auto-mode routing decision "
               "(estimates per route)\n"
               "  .backend ENGINE       ordered|flat storage engine\n"
               "  .plan on|off          cost-based physical plans (hash "
               "joins)\n"
               "  .encoding on|off      hierarchy-aware id encoding "
               "(reformulation range scans)\n"
               "  .explain SELECT ...   show a query's operator tree (plan "
               "mode: estimated vs actual rows)\n"
               "  .profile on|off       per-operator query profiling\n"
               "  .trace FILE           start span capture\n"
               "  .trace off            stop capture, write JSON lines to "
               "FILE\n"
               "  .stats                store statistics + live metrics\n"
               "  .serve PORT           live stats endpoint on 127.0.0.1:PORT "
               "(/metrics, /metrics.json, /querylog, /trace)\n"
               "  .serve off            stop the stats endpoint\n"
               "  .listen PORT          multi-client query server on "
               "127.0.0.1:PORT (snapshot of the current graph; connect with "
               "wdr_client)\n"
               "  .listen off           stop the query server\n"
               "  .slowlog MS           flag queries >= MS ms as slow in the "
               "query log\n"
               "  .slowlog off          disable the slow-query flag\n"
               "  .help                 this text\n"
               "  .quit                 exit\n";
}

int LoadFile(ReasoningStore& store, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return -1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto loaded = wdr::EndsWith(path, ".nt")
                    ? store.LoadNTriples(buffer.str())
                    : store.LoadTurtle(buffer.str());
  if (!loaded.ok()) {
    std::cerr << path << ": " << loaded.status() << "\n";
    return -1;
  }
  std::cout << "loaded " << *loaded << " triples from " << path << "\n";
  return static_cast<int>(*loaded);
}

void PrintStats(const ReasoningStore& store) {
  std::cout << "triples: " << store.size()
            << "  effective (with closure): " << store.effective_size()
            << "  mode: " << ReasoningModeName(store.mode()) << "  backend: "
            << wdr::rdf::StorageBackendName(store.backend()) << "\n";
  const wdr::obs::MetricsSnapshot snapshot =
      wdr::obs::MetricsRegistry::Get().Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (value != 0) std::cout << "  " << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (value != 0) std::cout << "  " << name << " = " << value << "\n";
  }
  for (const wdr::obs::HistogramData& h : snapshot.histograms) {
    if (h.count == 0) continue;
    std::cout << "  " << h.name << "  count=" << h.count
              << "  mean=" << static_cast<long long>(h.MeanNanos() / 1000)
              << "us  p99=" << static_cast<long long>(h.QuantileNanos(0.99) /
                                                      1000)
              << "us\n";
  }
}

bool StopTrace() {
  if (g_trace_path.empty()) {
    std::cerr << "tracing is not active\n";
    return false;
  }
  wdr::obs::SetTraceEnabled(false);
  std::ofstream out(g_trace_path);
  if (!out) {
    std::cerr << "cannot write " << g_trace_path << "\n";
    g_trace_path.clear();
    return false;
  }
  const size_t events = wdr::obs::ExportTraceJsonLines(out);
  std::cout << "wrote " << events << " span(s) to " << g_trace_path << "\n";
  g_trace_path.clear();
  wdr::obs::ClearTrace();
  return true;
}

// Snapshots the shell's current graph into a concurrent SnapshotStore
// (same mode/backend/settings) and starts the framed-protocol query
// server on it.
bool StartListen(const ReasoningStore& store, int port) {
  if (g_query_server != nullptr) {
    g_query_server->Stop();
    g_query_server.reset();
    g_snapshot_store.reset();
  }
  wdr::store::ReasoningStoreOptions options;
  options.mode = store.mode();
  options.backend = store.backend();
  options.query.plan = store.plan_mode();
  options.encoding = store.encoding_enabled();
  g_snapshot_store =
      std::make_unique<wdr::server::SnapshotStore>(options);
  auto loaded = g_snapshot_store->LoadTurtle(wdr::io::WriteTurtle(
      store.graph(), {{"ex", "http://ex.org/"}}));
  if (!loaded.ok()) {
    std::cerr << "snapshot failed: " << loaded.status() << "\n";
    g_snapshot_store.reset();
    return false;
  }
  wdr::server::ServerOptions server_options;
  server_options.port = port;
  g_query_server = std::make_unique<wdr::server::Server>(*g_snapshot_store,
                                                         server_options);
  wdr::Status status = g_query_server->Start();
  if (!status.ok()) {
    std::cerr << status << "\n";
    g_query_server.reset();
    g_snapshot_store.reset();
    return false;
  }
  std::cout << "query server listening on 127.0.0.1:"
            << g_query_server->port() << " (" << *loaded
            << " triples snapshotted; connect with wdr_client --port="
            << g_query_server->port() << ")\n";
  return true;
}

bool StartServe(int port) {
  if (g_stats_server.running()) g_stats_server.Stop();
  wdr::Status status = g_stats_server.Start(port);
  if (!status.ok()) {
    std::cerr << status << "\n";
    return false;
  }
  std::cout << "serving stats on http://127.0.0.1:" << g_stats_server.port()
            << " (/metrics, /metrics.json, /querylog, /trace)\n";
  return true;
}

// Executes one line; returns false if the command failed (used by --script
// mode to stop with a non-zero exit status).
bool RunCommand(ReasoningStore& store, const std::string& line) {
  if (line.empty() || line[0] == '#') return true;
  if (line[0] == '.') {
    std::istringstream words(line);
    std::string command, argument;
    words >> command >> argument;
    if (command == ".explain") {
      // Everything after ".explain " is either a SPARQL query (query-form
      // explain: run it and print the operator tree) or one N-Triples
      // statement (proof-form explain: why is the triple entailed).
      std::string statement = line.substr(std::string(".explain").size());
      std::string upper;
      for (char c : statement) upper += static_cast<char>(std::toupper(c));
      const size_t first = upper.find_first_not_of(" \t");
      if (first != std::string::npos &&
          (upper.rfind("SELECT", first) == first ||
           upper.rfind("ASK", first) == first ||
           upper.rfind("PREFIX", first) == first)) {
        const bool was_profiling = store.profiling();
        store.SetProfiling(true);
        wdr::store::QueryInfo info;
        auto result = store.Query(statement, &info);
        store.SetProfiling(was_profiling);
        if (!result.ok()) {
          std::cerr << result.status() << "\n";
          return false;
        }
        std::cout << result->rows.size() << " answer(s) in "
                  << static_cast<long long>(info.seconds * 1e6) << "us via "
                  << ReasoningModeName(info.mode)
                  << (store.plan_mode() && ModePlans(info.mode)
                          ? " [plan]"
                          : " [legacy join]")
                  << "\n";
        if (info.profile != nullptr) std::cout << info.profile->Render();
        return true;
      }
      auto proof = store.ExplainTriple(statement);
      if (proof.ok()) {
        std::cout << *proof;
        return true;
      }
      std::cerr << proof.status() << "\n";
      return false;
    }
    if (command == ".load") {
      return LoadFile(store, argument) >= 0;
    }
    if (command == ".mode") {
      ReasoningMode mode;
      if (ParseMode(argument, &mode)) {
        store.SetMode(mode);
        std::cout << "mode = " << ReasoningModeName(mode) << "\n";
        return true;
      }
      std::cerr << "unknown mode '" << argument << "'\n";
      return false;
    }
    if (command == ".why") {
      const auto decision = store.LastAutoDecision();
      if (!decision.has_value()) {
        std::cerr << "no auto-routed query yet (try .mode auto, then run a "
                     "query)\n";
        return false;
      }
      std::cout << "route = " << wdr::analysis::RouteName(decision->route)
                << (decision->fallback ? " (static fallback)" : "")
                << (decision->per_key ? " (per-key history)" : "")
                << "\n  closure: "
                << (decision->closure_available ? "materialized" : "absent")
                << "  model: v" << decision->model_version << "\n  "
                << decision->rationale << "\n";
      return true;
    }
    if (command == ".backend") {
      wdr::rdf::StorageBackend backend;
      if (wdr::rdf::ParseStorageBackend(argument, &backend)) {
        store.SetBackend(backend);
        std::cout << "backend = " << wdr::rdf::StorageBackendName(backend)
                  << "\n";
        return true;
      }
      std::cerr << "unknown backend '" << argument << "'\n";
      return false;
    }
    if (command == ".plan") {
      if (argument == "on" || argument == "off") {
        store.SetPlanMode(argument == "on");
        std::cout << "plan = " << argument << "\n";
        return true;
      }
      std::cerr << "usage: .plan on|off\n";
      return false;
    }
    if (command == ".encoding") {
      if (argument == "on" || argument == "off") {
        store.SetEncoding(argument == "on");
        std::cout << "encoding = " << argument << "\n";
        return true;
      }
      std::cerr << "usage: .encoding on|off\n";
      return false;
    }
    if (command == ".profile") {
      if (argument == "on" || argument == "off") {
        store.SetProfiling(argument == "on");
        std::cout << "profiling = " << argument << "\n";
        return true;
      }
      std::cerr << "usage: .profile on|off\n";
      return false;
    }
    if (command == ".trace") {
      if (argument.empty()) {
        std::cerr << "usage: .trace FILE | .trace off\n";
        return false;
      }
      if (argument == "off") return StopTrace();
      g_trace_path = argument;
      wdr::obs::ClearTrace();
      wdr::obs::SetTraceEnabled(true);
      std::cout << "tracing to " << g_trace_path << " (stop with .trace "
                   "off)\n";
      return true;
    }
    if (command == ".serve") {
      if (argument == "off") {
        if (!g_stats_server.running()) {
          std::cerr << "stats server is not running\n";
          return false;
        }
        g_stats_server.Stop();
        std::cout << "stats server stopped\n";
        return true;
      }
      char* end = nullptr;
      const long port = std::strtol(argument.c_str(), &end, 10);
      if (argument.empty() || end == nullptr || *end != '\0' || port < 0 ||
          port > 65535) {
        std::cerr << "usage: .serve PORT | .serve off\n";
        return false;
      }
      return StartServe(static_cast<int>(port));
    }
    if (command == ".listen") {
      if (argument == "off") {
        if (g_query_server == nullptr) {
          std::cerr << "query server is not running\n";
          return false;
        }
        g_query_server->Stop();
        g_query_server.reset();
        g_snapshot_store.reset();
        std::cout << "query server stopped\n";
        return true;
      }
      char* end = nullptr;
      const long port = std::strtol(argument.c_str(), &end, 10);
      if (argument.empty() || end == nullptr || *end != '\0' || port < 0 ||
          port > 65535) {
        std::cerr << "usage: .listen PORT | .listen off\n";
        return false;
      }
      return StartListen(store, static_cast<int>(port));
    }
    if (command == ".slowlog") {
      if (argument == "off") {
        wdr::obs::QueryLog::Get().SetSlowThresholdNanos(0);
        std::cout << "slowlog = off\n";
        return true;
      }
      char* end = nullptr;
      const long ms = std::strtol(argument.c_str(), &end, 10);
      if (argument.empty() || end == nullptr || *end != '\0' || ms < 1) {
        std::cerr << "usage: .slowlog MS | .slowlog off\n";
        return false;
      }
      wdr::obs::QueryLog::Get().SetSlowThresholdNanos(
          static_cast<uint64_t>(ms) * 1000000ull);
      std::cout << "slowlog = " << ms << "ms\n";
      return true;
    }
    if (command == ".stats") {
      PrintStats(store);
      return true;
    }
    if (command == ".help") {
      PrintHelp();
      return true;
    }
    if (command == ".quit") {
      if (!g_trace_path.empty()) StopTrace();
      std::exit(EXIT_SUCCESS);
    }
    std::cerr << "unknown command; try .help\n";
    return false;
  }

  // Updates start with INSERT/DELETE (case-insensitive); otherwise query.
  std::string upper;
  for (char c : line) upper += static_cast<char>(std::toupper(c));
  if (upper.rfind("INSERT", 0) == 0 || upper.rfind("DELETE", 0) == 0 ||
      upper.rfind("PREFIX", 0) == 0 || upper.rfind("SELECT", 0) == 0 ||
      upper.rfind("ASK", 0) == 0) {
    if (upper.find("SELECT") != std::string::npos ||
        upper.rfind("ASK", 0) == 0) {
      const bool was_profiling = store.profiling();
      if (g_explain) store.SetProfiling(true);
      wdr::store::QueryInfo info;
      auto result = store.Query(line, &info);
      if (g_explain) store.SetProfiling(was_profiling);
      if (!result.ok()) {
        std::cerr << result.status() << "\n";
        return false;
      }
      for (const wdr::query::Row& row : result->rows) {
        std::cout << "  " << wdr::Join(store.DecodeRow(row), "  ") << "\n";
      }
      std::cout << result->rows.size() << " answer(s) in "
                << static_cast<long long>(info.seconds * 1e6) << "us via "
                << ReasoningModeName(info.mode);
      if (info.mode == ReasoningMode::kReformulation) {
        std::cout << " (" << info.union_size << " CQs)";
      }
      std::cout << "\n";
      if (info.profile != nullptr) std::cout << info.profile->Render();
      return true;
    }
    auto info = store.Update(line);
    if (!info.ok()) {
      std::cerr << info.status() << "\n";
      return false;
    }
    std::cout << "+" << info->inserted << " -" << info->deleted
              << " triple(s), closure delta " << info->closure_delta << "\n";
    return true;
  }
  std::cerr << "unrecognized input; try .help\n";
  return false;
}

void RunDemo(ReasoningStore& store) {
  const char* script[] = {
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
      "PREFIX ex: <http://ex.org/> "
      "INSERT DATA { ex:Cat rdfs:subClassOf ex:Mammal . ex:tom a ex:Cat }",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      ".explain <http://ex.org/tom> "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://ex.org/Mammal> .",
      ".mode reformulation",
      ".profile on",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      ".profile off",
      ".encoding on",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      ".encoding off",
      ".mode saturation",
      ".backend flat",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      ".plan on",
      ".explain PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x ?y WHERE { ?x rdf:type ?y . ?y rdfs:subClassOf ex:Mammal }",
      ".plan off",
      ".backend ordered",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      ".mode datalog",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      ".mode auto",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
      "PREFIX ex: <http://ex.org/> "
      "SELECT ?x WHERE { ?x rdf:type ex:Mammal }",
      ".why",
      ".stats",
  };
  std::cout << "(no stdin input — running the scripted demo; pipe commands "
               "or use a terminal for interactive use)\n";
  for (const char* line : script) {
    std::cout << "wdr> " << line << "\n";
    RunCommand(store, line);
  }
}

}  // namespace

int main(int argc, char** argv) {
  wdr::store::ReasoningStoreOptions options;
  bool demo = false;
  int listen_port = -1;  // -1 = no --listen flag (0 picks an ephemeral port)
  std::string script_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      if (!ParseMode(arg.substr(7), &options.mode)) {
        std::cerr << "unknown mode in " << arg << "\n";
        return EXIT_FAILURE;
      }
    } else if (arg.rfind("--backend=", 0) == 0) {
      if (!wdr::rdf::ParseStorageBackend(arg.substr(10), &options.backend)) {
        std::cerr << "unknown backend in " << arg << "\n";
        return EXIT_FAILURE;
      }
    } else if (arg == "--plan") {
      options.query.plan = true;
    } else if (arg.rfind("--encoding=", 0) == 0) {
      const std::string value = arg.substr(11);
      if (value != "on" && value != "off") {
        std::cerr << "usage: --encoding=on|off\n";
        return EXIT_FAILURE;
      }
      options.encoding = value == "on";
    } else if (arg == "--explain") {
      g_explain = true;
    } else if (arg.rfind("--serve=", 0) == 0) {
      char* end = nullptr;
      const long port = std::strtol(arg.c_str() + 8, &end, 10);
      if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
        std::cerr << "invalid port in " << arg << "\n";
        return EXIT_FAILURE;
      }
      if (!StartServe(static_cast<int>(port))) return EXIT_FAILURE;
    } else if (arg.rfind("--listen=", 0) == 0) {
      char* end = nullptr;
      const long port = std::strtol(arg.c_str() + 9, &end, 10);
      if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
        std::cerr << "invalid port in " << arg << "\n";
        return EXIT_FAILURE;
      }
      listen_port = static_cast<int>(port);
    } else if (arg.rfind("--script=", 0) == 0) {
      script_path = arg.substr(9);
    } else if (arg == "--script" && i + 1 < argc) {
      script_path = argv[++i];
    } else if (arg == "--demo") {
      demo = true;
    } else {
      files.push_back(arg);
    }
  }

  ReasoningStore store(options);
  for (const std::string& file : files) {
    if (LoadFile(store, file) < 0) return EXIT_FAILURE;
  }

  if (listen_port >= 0 && !StartListen(store, listen_port)) {
    return EXIT_FAILURE;
  }

  if (!script_path.empty()) {
    std::ifstream in(script_path);
    if (!in) {
      std::cerr << "cannot open script " << script_path << "\n";
      return EXIT_FAILURE;
    }
    std::string line;
    size_t line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (!RunCommand(store, line)) {
        std::cerr << script_path << ":" << line_number
                  << ": command failed: " << line << "\n";
        return EXIT_FAILURE;
      }
    }
    if (!g_trace_path.empty()) StopTrace();
    return EXIT_SUCCESS;
  }

  // With --listen and no command stream, stay up serving clients until
  // interrupted — the plain "run me as a server" invocation.
  if (listen_port >= 0 && !demo &&
      std::cin.peek() == std::char_traits<char>::eof()) {
    std::cout << "serving; interrupt (Ctrl-C) to stop\n";
    while (g_query_server != nullptr && g_query_server->running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return EXIT_SUCCESS;
  }

  // With no piped input, run the scripted demo so the binary always
  // demonstrates something.
  if (!demo && std::cin.peek() == std::char_traits<char>::eof()) {
    demo = true;
  }
  if (demo) {
    RunDemo(store);
    return EXIT_SUCCESS;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    RunCommand(store, line);
  }
  if (!g_trace_path.empty()) StopTrace();
  return EXIT_SUCCESS;
}
