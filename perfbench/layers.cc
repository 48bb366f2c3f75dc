// The traced run: per-layer numbers for one workload, from timers around
// calls into each module's public functions and from before/after deltas
// of the counters obs::MetricsRegistry keeps. The end-to-end runs never
// execute this file's probes.
//
// It has two parts:
//   A. a fixed amount of work on two stores, one per reasoning mode: the
//      workload's store and a reference store in the other mode. Each of
//      kRounds rounds runs one read pass on both, the reference's answer
//      counts checking the traced store's, and applies one instance write
//      to both; kSchemaWrites schema writes follow. Every count and count
//      ratio comes from this part, so counts repeat exactly for one seed.
//      A layer that only one mode runs (DRed maintenance in saturation;
//      the rewrite memo and the union scan cache in reformulation) is read
//      on the store that runs it, so no count is zero by construction;
//   B. timed probes repeated until --seconds have passed, from which every
//      time is a median. Traced passes (Prepare and Execute timed apart)
//      alternate with untraced ones (Query); trace.overhead_pct compares
//      the two, so it also says how well prepare + execute account for
//      an untraced pass. Every answer is checked against the reference.
//
// The layers are the modules io, reasoning, query, reformulation, store,
// rdf and server. analysis (auto mode) is left out: its routes are refit
// from measured wall times, so they do not repeat. exec is off the
// default query path, so its counters read zero.
#include <cstdio>
#include <unordered_map>

#include "io/turtle.h"
#include "query/sparql_parser.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "server/client.h"
#include "workloads.h"

namespace wdr::perfbench {
namespace {

constexpr int kRounds = 20;
constexpr int kSchemaWrites = 20;
constexpr int kServerRequests = 40;  // about 3.5 s at today's wire pace
constexpr int kRepeats = 3;          // load and saturation probes

double Ratio(double part, double whole) {
  return whole == 0 ? 0 : part / whole;
}

// Counter deltas of one store over part A.
struct LayerCounts {
  double scans = 0;
  double scan_cache_hits = 0;
  double scan_cache_misses = 0;
  double memo_hits = 0;
  double rewrites = 0;  // memo misses
  double overdeleted = 0;
  double rederived = 0;

  void Add(const CounterDelta& delta) {
    scans += delta.Delta("wdr.store.ordered.scans");
    scan_cache_hits += delta.Delta("wdr.query.scan_cache.hits");
    scan_cache_misses += delta.Delta("wdr.query.scan_cache.misses");
    memo_hits += delta.Delta("wdr.reformulation.memo_hits");
    rewrites += delta.Delta("wdr.reformulation.runs");
    overdeleted += delta.Delta("wdr.maintenance.overdeleted");
    rederived += delta.Delta("wdr.maintenance.rederived");
  }
};

// Answer counts on the reference store by query text: every answer of
// the traced run is checked against them.
class ReferenceCounts {
 public:
  explicit ReferenceCounts(store::ReasoningStore& store) : store_(store) {}

  // Counts `text` on the reference store, again if it was counted before.
  long long Count(const std::string& text) {
    return counts_[text] = CountAnswers(store_, text);
  }
  // The last count of `text`, counting it when there is none.
  long long Get(const std::string& text) {
    const auto it = counts_.find(text);
    return it != counts_.end() ? it->second : Count(text);
  }

 private:
  store::ReasoningStore& store_;
  std::unordered_map<std::string, long long> counts_;
};

// Index entries matching the atoms of `prepared` (every branch of its
// union), one StoreView::Count per atom: pure index access.
size_t CountAtomMatches(const store::PreparedQuery& prepared,
                        const rdf::StoreView& queried) {
  auto id = [](const query::PatternTerm& t) {
    return t.kind == query::PatternTerm::Kind::kConstant ? t.id
                                                         : rdf::kNullTermId;
  };
  size_t matches = 0;
  for (const query::BgpQuery& branch : prepared.query.branches()) {
    for (const query::TriplePattern& atom : branch.atoms()) {
      matches += queried.Count(id(atom.s), id(atom.p), id(atom.o));
    }
  }
  return matches;
}

// Per-pass layer times of one traced pass, in microseconds.
struct TracedPass {
  double prepare_us = 0;
  double execute_us = 0;
  double decode_us = 0;
  double count_us = 0;
  size_t answers = 0;
  bool ok = true;
};

// Runs `pass` through Prepare and Execute, timed apart. After each query,
// off those two clocks, it decodes every row and counts every atom of the
// prepared query on `queried` (the store the mode evaluates against).
TracedPass RunTracedPass(store::ReasoningStore& store,
                         const rdf::StoreView& queried,
                         const std::vector<Selective>& pass) {
  TracedPass out;
  for (const Selective& request : pass) {
    Timer prepare;
    auto p = store.Prepare(request.text);
    out.prepare_us += prepare.ElapsedMicros();
    if (!p.ok()) {
      out.ok = false;
      continue;
    }
    Timer execute;
    auto r = store.Execute(p.value());
    out.execute_us += execute.ElapsedMicros();
    if (!r.ok()) {
      out.ok = false;
      continue;
    }
    out.answers += r.value().rows.size();

    Timer decode;
    for (const query::Row& row : r.value().rows) store.DecodeRow(row);
    out.decode_us += decode.ElapsedMicros();
    Timer count;
    CountAtomMatches(p.value(), queried);
    out.count_us += count.ElapsedMicros();
  }
  return out;
}

// Wall time of `pass` through Query(), in microseconds; adds the answers
// to `*answers` and clears `*ok` on a failed query.
double UntracedPassMicros(store::ReasoningStore& store,
                          const std::vector<Selective>& pass, size_t* answers,
                          bool* ok) {
  Timer wall;
  for (const Selective& request : pass) {
    auto r = store.Query(request.text);
    if (!r.ok()) {
      *ok = false;
      continue;
    }
    *answers += r.value().rows.size();
  }
  return wall.ElapsedMicros();
}

// Server-layer probes against a SnapshotStore in `mode`, on a fixed
// sequence of selective requests and instance writes.
void ProbeServer(const Inputs& inputs, const Args& args,
                 store::ReasoningMode mode, ReferenceCounts& reference,
                 Report& report) {
  Served served = Serve(inputs, mode);
  Rng rng(args.seed + 101);
  std::vector<std::string> texts;
  while (texts.size() < kServerRequests) {
    for (Selective& s : DrawSelectivePass(inputs, rng)) {
      texts.push_back(std::move(s.text));
    }
  }
  texts.resize(kServerRequests);

  // In process: what a session does per QUERY frame, minus the wire.
  server::SnapshotStore::PlanCache cache;
  std::vector<double> handle_us;
  for (const std::string& text : texts) {
    Timer one;
    auto r = served.store->Query(text, {}, &cache, /*decode=*/true);
    handle_us.push_back(one.ElapsedMicros());
    ++report.attempted;
    if (!r.ok() || static_cast<long long>(r.value().row_count) !=
                       reference.Get(text)) {
      ++report.failed;
    }
  }

  std::vector<double> update_us;
  CounterDelta writes;
  for (uint64_t n = 1; n <= kRounds; ++n) {
    Timer one;
    auto r = served.store->Update(InstanceWrite(n));
    update_us.push_back(one.ElapsedMicros());
    ++report.attempted;
    if (!r.ok()) ++report.failed;
  }
  const double catchups = writes.Delta("wdr.server.store.catchup_batches");

  // Over the socket, one client, the same texts.
  server::Client client;
  if (!client.Connect(served.server->port()).ok()) {
    Fatal("server probe connect failed");
  }
  std::vector<double> round_trip_ms;
  for (const std::string& text : texts) {
    Timer one;
    auto r = client.Query(text);
    round_trip_ms.push_back(ElapsedMillis(one));
    ++report.attempted;
    if (!r.ok() || !r.value().ok ||
        HeadValue(r.value().head, "rows") != reference.Get(text)) {
      ++report.failed;
    }
  }
  client.Close();
  served.server->Stop();

  const double handle = Median(handle_us);
  const double round_trip = Median(round_trip_ms);
  const double wire = round_trip - handle / 1e3;
  report.Add("server.handle_us", handle, "us", handle_us.size());
  report.Add("server.wire_ms", wire, "ms", round_trip_ms.size());
  report.Add("server.wire_share", 100 * Ratio(wire, round_trip), "%",
             round_trip_ms.size());
  report.Add("server.update_us", Median(update_us), "us", update_us.size());
  report.Add("server.plan_cache_miss_ratio",
             Ratio(static_cast<double>(cache.misses()),
                   static_cast<double>(cache.hits() + cache.misses())),
             "ratio", texts.size());
  report.Add("server.catchup_batches", catchups / kRounds, "count", kRounds);
}

}  // namespace

Report RunLayers(const Args& args) {
  const bool fig3 = args.workload != "server-mix";
  const store::ReasoningMode mode = args.workload == "fig3-ref"
                                        ? store::ReasoningMode::kReformulation
                                        : store::ReasoningMode::kSaturation;
  const store::ReasoningMode other =
      mode == store::ReasoningMode::kSaturation
          ? store::ReasoningMode::kReformulation
          : store::ReasoningMode::kSaturation;
  Timer run;
  const Inputs inputs = MakeInputs(args.seed);
  std::unique_ptr<store::ReasoningStore> s = BuildStore(inputs, mode);
  std::unique_ptr<store::ReasoningStore> reference_store =
      BuildStore(inputs, other);
  if (s == nullptr || reference_store == nullptr) Fatal("set-up failed");
  ReferenceCounts reference(*reference_store);
  Report report;
  report.Note("base_triples", static_cast<double>(s->size()));

  // Load and saturation probes on the loaded graph. The last closure
  // (a copy carrying the store's term ids) is the index that atom counts
  // run against in saturation mode; the base graph is in the others.
  std::vector<double> load_s, saturate_s;
  std::unique_ptr<reasoning::SaturatedGraph> closure;
  for (int i = 0; i < kRepeats; ++i) {
    rdf::Graph graph;
    Timer load;
    if (!io::ParseTurtle(inputs.turtle, graph).ok()) Fatal("parse failed");
    load_s.push_back(load.ElapsedSeconds());
    closure.reset();
    Timer saturate;
    closure = std::make_unique<reasoning::SaturatedGraph>(s->graph(),
                                                          s->vocab());
    saturate_s.push_back(saturate.ElapsedSeconds());
  }
  const rdf::StoreView* queried = mode == store::ReasoningMode::kSaturation
                                      ? &closure->closure()
                                      : &s->graph().store();

  // --- A. Fixed work on both stores: counts. --------------------------------
  Rng rng(args.seed + 7);
  auto next_pass = [&] {
    return fig3 ? Fig3Pass(inputs) : DrawSelectivePass(inputs, rng);
  };
  LayerCounts traced_counts, reference_counts;
  std::vector<double> update_us, schema_update_us;
  double answers = 0, union_cqs = 0, matched = 0;
  for (uint64_t n = 1; n <= kRounds; ++n) {
    const std::vector<Selective> pass = next_pass();
    std::vector<store::PreparedQuery> prepared;
    std::vector<long long> got;
    CounterDelta traced_reads;
    for (const Selective& request : pass) {
      store::QueryInfo info;
      auto p = s->Prepare(request.text);
      auto r = p.ok() ? s->Execute(p.value(), &info)
                      : Result<query::ResultSet>(p.status());
      got.push_back(r.ok() ? static_cast<long long>(r.value().rows.size())
                           : -1);
      if (!r.ok()) continue;
      answers += static_cast<double>(r.value().rows.size());
      union_cqs += static_cast<double>(info.union_size);
      prepared.push_back(std::move(p).value());
    }
    traced_counts.Add(traced_reads);
    for (const store::PreparedQuery& p : prepared) {
      matched += static_cast<double>(CountAtomMatches(p, *queried));
    }
    CounterDelta reference_reads;
    for (size_t i = 0; i < pass.size(); ++i) {
      ++report.attempted;
      if (got[i] < 0 || got[i] != reference.Count(pass[i].text)) {
        ++report.failed;
      }
    }
    reference_counts.Add(reference_reads);

    const std::string write = InstanceWrite(n);
    CounterDelta traced_write;
    Timer timer;
    auto w = s->Update(write);
    update_us.push_back(timer.ElapsedMicros());
    traced_counts.Add(traced_write);
    ++report.attempted;
    if (!w.ok()) ++report.failed;
    CounterDelta reference_write;
    if (!reference_store->Update(write).ok()) Fatal("reference write failed");
    reference_counts.Add(reference_write);
  }

  // Schema writes go to both stores too, which keep answering alike.
  for (uint64_t n = 0; n <= kSchemaWrites; ++n) {
    const std::string write = SchemaWrite(inputs, n);
    Timer timer;
    auto w = s->Update(write);
    if (n > 0) schema_update_us.push_back(timer.ElapsedMicros());  // 0 only inserts
    ++report.attempted;
    if (!w.ok()) ++report.failed;
    if (!reference_store->Update(write).ok()) Fatal("reference write failed");
  }
  const LayerCounts& saturating =
      mode == store::ReasoningMode::kSaturation ? traced_counts
                                                : reference_counts;
  const LayerCounts& reformulating =
      mode == store::ReasoningMode::kSaturation ? reference_counts
                                                : traced_counts;

  // --- B. Timed probes. -----------------------------------------------------
  Report server_layer;
  ProbeServer(inputs, args, mode, reference, server_layer);

  const schema::Schema schema = schema::Schema::FromGraph(s->graph(),
                                                          s->vocab());
  std::vector<double> parse_us, rewrite_us, prepare_us, execute_us,
      decode_us, count_us, traced_us, untraced_us;
  while (run.ElapsedSeconds() < args.seconds || traced_us.size() < 3) {
    const std::vector<Selective> pass = next_pass();
    size_t want = 0;
    bool ok = true;
    for (const Selective& request : pass) {
      const long long count = reference.Get(request.text);
      ok = ok && count >= 0;
      want += static_cast<size_t>(count);
    }
    size_t untraced_answers = 0;
    untraced_us.push_back(
        UntracedPassMicros(*s, pass, &untraced_answers, &ok));
    const TracedPass traced = RunTracedPass(*s, *queried, pass);
    ok = ok && traced.ok && traced.answers == want && untraced_answers == want;
    traced_us.push_back(traced.prepare_us + traced.execute_us);
    prepare_us.push_back(traced.prepare_us);
    execute_us.push_back(traced.execute_us);
    decode_us.push_back(traced.decode_us);
    count_us.push_back(traced.count_us);

    double parse = 0, rewrite = 0;
    for (const Selective& request : pass) {
      Timer one;
      auto parsed = query::ParseSparql(request.text, s->graph().dict());
      parse += one.ElapsedMicros();
      if (!parsed.ok()) {
        ok = false;
        continue;
      }
      // A fresh reformulator has an empty memo: the full rewrite cost.
      const reformulation::Reformulator reformulator(schema, s->vocab());
      Timer rewriting;
      if (!reformulator.Reformulate(parsed.value()).ok()) ok = false;
      rewrite += rewriting.ElapsedMicros();
    }
    parse_us.push_back(parse);
    rewrite_us.push_back(rewrite);
    report.attempted += 2 * pass.size();
    if (!ok) ++report.failed;
  }

  const double untraced = Median(untraced_us);
  report.Add("io.load_s", Median(load_s), "s", load_s.size());
  report.Add("reasoning.saturate_s", Median(saturate_s), "s",
             saturate_s.size());
  report.Add("reasoning.closure_triples",
             static_cast<double>(closure->closure().size()), "count");
  report.Add("reasoning.overdeleted_per_write",
             saturating.overdeleted / kRounds, "count", kRounds);
  report.Add("reasoning.rederived_per_write", saturating.rederived / kRounds,
             "count", kRounds);
  report.Add("query.parse_us", Median(parse_us), "us", parse_us.size());
  report.Add("query.matches_per_answer", Ratio(matched, answers), "ratio",
             kRounds);
  report.Add("query.scan_cache_miss_ratio",
             Ratio(reformulating.scan_cache_misses,
                   reformulating.scan_cache_hits +
                       reformulating.scan_cache_misses),
             "ratio", kRounds);
  report.Add("reformulation.rewrite_us", Median(rewrite_us), "us",
             rewrite_us.size());
  report.Add("reformulation.union_cqs", union_cqs / kRounds, "count",
             kRounds);
  report.Add("reformulation.memo_miss_ratio",
             Ratio(reformulating.rewrites,
                   reformulating.memo_hits + reformulating.rewrites),
             "ratio", kRounds);
  report.Add("store.prepare_us", Median(prepare_us), "us", prepare_us.size());
  report.Add("store.execute_us", Median(execute_us), "us", execute_us.size());
  report.Add("store.decode_us", Median(decode_us), "us", decode_us.size());
  report.Add("store.update_us", Median(update_us), "us", update_us.size());
  report.Add("store.schema_update_us", Median(schema_update_us), "us",
             schema_update_us.size());
  report.Add("rdf.scans_per_pass", traced_counts.scans / kRounds, "count",
             kRounds);
  report.Add("rdf.count_us", Median(count_us), "us", count_us.size());
  report.Add("trace.overhead_pct",
             100 * (Ratio(Median(traced_us), untraced) - 1), "%",
             traced_us.size());
  report.attempted += server_layer.attempted;
  report.failed += server_layer.failed;
  report.metrics.insert(report.metrics.end(), server_layer.metrics.begin(),
                        server_layer.metrics.end());
  report.Note("closure_triples",
              static_cast<double>(closure->closure().size()));
  report.Note("untraced_pass_p50_us", untraced);
  return report;
}

}  // namespace wdr::perfbench
