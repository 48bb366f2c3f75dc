#include "store/reasoning_store.h"

#include <cstdlib>
#include <cstring>

#include "analysis/live_profile.h"
#include "backward/backward_evaluator.h"
#include "common/timer.h"
#include "io/ntriples.h"
#include "io/turtle.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "query/sparql_parser.h"
#include "reasoning/explain.h"
#include "reasoning/saturation.h"
#include "store/update_parser.h"

namespace wdr::store {
namespace {

// Per-update latency histograms, split by schema vs instance triple: the
// paper's cost model treats the two very differently (schema updates
// re-close the schema; instance updates run DRed in saturation mode), and
// the analysis advisor consumes exactly this split.
obs::Histogram& UpdateHistogram(bool is_schema, bool is_insert) {
  const char* name = is_schema
                         ? (is_insert ? "wdr.store.update.schema_insert"
                                      : "wdr.store.update.schema_delete")
                         : (is_insert ? "wdr.store.update.instance_insert"
                                      : "wdr.store.update.instance_delete");
  return obs::MetricsRegistry::Get().GetHistogram(name);
}

// The selector's Route for an executed static mode (kAuto routes only to
// the four reasoning techniques; kNone never goes through the selector).
analysis::Route RouteOf(ReasoningMode mode) {
  switch (mode) {
    case ReasoningMode::kSaturation:
      return analysis::Route::kSaturation;
    case ReasoningMode::kBackward:
      return analysis::Route::kBackward;
    case ReasoningMode::kDatalog:
      return analysis::Route::kDatalog;
    default:
      return analysis::Route::kReformulation;
  }
}

ReasoningMode ModeOf(analysis::Route route) {
  switch (route) {
    case analysis::Route::kSaturation:
      return ReasoningMode::kSaturation;
    case analysis::Route::kReformulation:
      return ReasoningMode::kReformulation;
    case analysis::Route::kBackward:
      return ReasoningMode::kBackward;
    case analysis::Route::kDatalog:
      return ReasoningMode::kDatalog;
  }
  return ReasoningMode::kReformulation;
}

}  // namespace

bool EncodingModeDefault() {
  static const bool value = [] {
    const char* env = std::getenv("WDR_ENCODING");
    return env != nullptr && env[0] == '1' && env[1] == '\0';
  }();
  return value;
}

bool ModePlans(ReasoningMode mode) {
  return mode != ReasoningMode::kBackward && mode != ReasoningMode::kDatalog;
}

const char* ReasoningModeName(ReasoningMode mode) {
  switch (mode) {
    case ReasoningMode::kNone:
      return "none";
    case ReasoningMode::kSaturation:
      return "saturation";
    case ReasoningMode::kReformulation:
      return "reformulation";
    case ReasoningMode::kBackward:
      return "backward";
    case ReasoningMode::kDatalog:
      return "datalog";
    case ReasoningMode::kAuto:
      return "auto";
  }
  return "unknown";
}

ReasoningMode ReasoningModeDefault() {
  static const ReasoningMode value = [] {
    const char* env = std::getenv("WDR_MODE");
    if (env == nullptr) return ReasoningMode::kSaturation;
    if (std::strcmp(env, "none") == 0) return ReasoningMode::kNone;
    if (std::strcmp(env, "saturation") == 0) return ReasoningMode::kSaturation;
    if (std::strcmp(env, "reformulation") == 0)
      return ReasoningMode::kReformulation;
    if (std::strcmp(env, "backward") == 0) return ReasoningMode::kBackward;
    if (std::strcmp(env, "datalog") == 0) return ReasoningMode::kDatalog;
    if (std::strcmp(env, "auto") == 0) return ReasoningMode::kAuto;
    return ReasoningMode::kSaturation;
  }();
  return value;
}

ReasoningStore::ReasoningStore(ReasoningStoreOptions options)
    : options_(options),
      graph_(options.backend),
      vocab_(schema::Vocabulary::Intern(graph_.dict())) {
  if (options_.mode == ReasoningMode::kSaturation) {
    saturated_.emplace(graph_, vocab_, /*enable_owl=*/false);
  }
}

size_t ReasoningStore::effective_size() const {
  return saturated_.has_value() ? saturated_->closure().size()
                                : graph_.size();
}

void ReasoningStore::SetMode(ReasoningMode mode) {
  if (mode == options_.mode) return;
  options_.mode = mode;
  stats_cache_.reset();  // statistics follow the mode's queried store
  closure_stats_cache_.reset();
  if (mode == ReasoningMode::kSaturation) {
    if (!saturated_.has_value()) {
      saturated_.emplace(graph_, vocab_, /*enable_owl=*/false);
    }
  } else if (mode == ReasoningMode::kAuto) {
    // Inherit whatever closure exists (a warm start from kSaturation);
    // from here its lifecycle belongs to the selector's lazy
    // materialization / drop policy.
    EnsureSelector();
  } else {
    saturated_.reset();
  }
}

void ReasoningStore::SetBackend(rdf::StorageBackend backend) {
  if (backend == options_.backend) return;
  options_.backend = backend;
  stats_cache_.reset();
  closure_stats_cache_.reset();
  graph_.SetBackend(backend);
  // The closure store follows the base graph's backend; rebuild it.
  if (saturated_.has_value()) {
    saturated_.emplace(graph_, vocab_, /*enable_owl=*/false);
  }
}

void ReasoningStore::RecloseSchema() {
  for (const rdf::Triple& t : derived_schema_) graph_.Erase(t);
  derived_schema_.clear();

  rdf::TripleStore schema_triples;
  graph_.store().Match(0, 0, 0, [&](const rdf::Triple& t) {
    if (vocab_.IsSchemaProperty(t.p)) schema_triples.Insert(t);
  });
  reasoning::Saturator saturator(vocab_, &graph_.dict());
  rdf::TripleStore closed = saturator.Saturate(schema_triples);
  closed.Match(0, 0, 0, [&](const rdf::Triple& t) {
    if (graph_.Insert(t)) derived_schema_.push_back(t);
  });
}

void ReasoningStore::OnUpdate(bool schema_changed) {
  stats_cache_.reset();
  closure_stats_cache_.reset();
  // The Datalog translation bakes the facts in; any update invalidates it.
  datalog_cache_.reset();
  if (selector_ != nullptr) selector_->NoteUpdate();
  if (schema_changed) {
    RecloseSchema();
    schema_cache_.reset();
    // One counter invalidates everything derived from the schema: the
    // encoding (rebuilt lazily at the next Query) and the cached
    // Reformulators with their memos.
    ++schema_version_;
    reformulator_cache_.reset();
    reformulator_plain_cache_.reset();
  }
}

void ReasoningStore::SetEncoding(bool on) {
  if (on == options_.encoding) return;
  options_.encoding = on;
  // The reformulator snapshot bakes in the encoding pointer; rebuild it
  // either way. Turning the encoding off keeps the permuted id space — it
  // is a valid id space, only the union collapse stops.
  reformulator_cache_.reset();
  if (!on) encoding_.reset();
}

const rdf::HierEncoding* ReasoningStore::CachedEncoding() {
  if (!options_.encoding) return nullptr;
  if (!encoding_.has_value() || encoding_->version() != schema_version_) {
    RebuildEncoding();
  }
  return &*encoding_;
}

void ReasoningStore::RebuildEncoding() {
  obs::Span span("wdr.store.encoding.rebuild");
  Timer timer;
  // Build against the current (pre-permutation) id space, then switch the
  // whole store over: dictionary + triples, the derived-schema bookkeeping,
  // the interned vocabulary ids, and the closure in saturation mode. Every
  // cache keyed by ids is stale afterwards.
  rdf::HierEncoding encoding =
      rdf::HierEncoding::Build(CachedSchema(), graph_.dict());
  encoding.set_version(schema_version_);
  graph_.ApplyPermutation(encoding.permutation());
  for (rdf::Triple& t : derived_schema_) {
    t = rdf::Triple(encoding.Remap(t.s), encoding.Remap(t.p),
                    encoding.Remap(t.o));
  }
  vocab_ = schema::Vocabulary::Intern(graph_.dict());
  if (saturated_.has_value()) {
    saturated_.emplace(graph_, vocab_, /*enable_owl=*/false);
  }
  schema_cache_.reset();
  stats_cache_.reset();
  closure_stats_cache_.reset();
  // The permutation moved every id the translation's sym tables bake in.
  datalog_cache_.reset();
  reformulator_cache_.reset();
  // The schema version is unchanged by a rebuild, so the plain cache's
  // version check would wrongly pass — reset it explicitly (its baked-in
  // schema ids were just permuted).
  reformulator_plain_cache_.reset();
  encoding_ = std::move(encoding);
  WDR_COUNTER_INC("wdr.store.encoding.rebuilds");
  obs::MetricsRegistry::Get()
      .GetHistogram("wdr.store.encoding.rebuild_seconds")
      .RecordSeconds(timer.ElapsedSeconds());
}

reformulation::Reformulator& ReasoningStore::CachedReformulator() {
  // Resolve the encoding first: its rebuild permutes ids and resets the
  // schema cache this snapshot is built over.
  const rdf::HierEncoding* encoding = CachedEncoding();
  if (!reformulator_cache_.has_value() ||
      reformulator_version_ != schema_version_) {
    reformulation::ReformulationOptions ref_options = options_.reformulation;
    ref_options.encoding = encoding;
    reformulator_cache_.emplace(CachedSchema(), vocab_, ref_options);
    reformulator_version_ = schema_version_;
  }
  return *reformulator_cache_;
}

reformulation::Reformulator& ReasoningStore::CachedPlainReformulator() {
  if (!reformulator_plain_cache_.has_value() ||
      reformulator_plain_version_ != schema_version_) {
    reformulation::ReformulationOptions ref_options = options_.reformulation;
    ref_options.encoding = nullptr;
    reformulator_plain_cache_.emplace(CachedSchema(), vocab_, ref_options);
    reformulator_plain_version_ = schema_version_;
  }
  return *reformulator_plain_cache_;
}

const schema::Schema& ReasoningStore::CachedSchema() {
  if (!schema_cache_.has_value()) {
    schema_cache_ = schema::Schema::FromGraph(graph_, vocab_);
  }
  return *schema_cache_;
}

const exec::Statistics& ReasoningStore::CachedStats(bool over_closure) {
  // One flavor per queried store, so a saturation-routed query plans over
  // closure statistics while a reformulation-routed one (same store, auto
  // mode or a per-read override) plans over base-graph statistics.
  const bool closure = over_closure && saturated_.has_value();
  std::optional<exec::Statistics>& cache =
      closure ? closure_stats_cache_ : stats_cache_;
  if (!cache.has_value()) {
    Timer timer;
    cache = closure ? exec::Statistics::Build(saturated_->closure())
                    : exec::Statistics::Build(graph_.store());
    WDR_COUNTER_INC("wdr.store.statistics.builds");
    obs::MetricsRegistry::Get()
        .GetHistogram("wdr.store.statistics.build_seconds")
        .RecordSeconds(timer.ElapsedSeconds());
  }
  return *cache;
}

const datalog::RdfDatalogTranslation& ReasoningStore::CachedDatalog() {
  if (!datalog_cache_.has_value()) {
    Timer timer;
    datalog_cache_ = datalog::TranslateGraph(graph_, vocab_);
    obs::MetricsRegistry::Get()
        .GetHistogram("wdr.store.datalog.translate")
        .RecordSeconds(timer.ElapsedSeconds());
  }
  return *datalog_cache_;
}

analysis::StrategySelector& ReasoningStore::EnsureSelector() {
  if (selector_ == nullptr) {
    selector_ = std::make_unique<analysis::StrategySelector>();
    // Cold-start prior: whatever the process-global histograms already
    // know (possibly nothing — the selector then falls back statically
    // until the first window refresh).
    selector_->SetPrior(analysis::CostProfileFromMetrics(
        obs::MetricsRegistry::Get().Snapshot()));
  }
  return *selector_;
}

std::optional<analysis::RouteDecision> ReasoningStore::LastAutoDecision()
    const {
  std::lock_guard<std::mutex> lock(*decisions_mu_);
  if (decisions_.empty()) return std::nullopt;
  return decisions_.back();
}

Result<size_t> ReasoningStore::LoadTurtle(std::string_view text) {
  obs::Span span("wdr.store.load");
  WDR_ASSIGN_OR_RETURN(size_t added, io::ParseTurtle(text, graph_));
  OnUpdate(/*schema_changed=*/true);
  if (saturated_.has_value()) {
    saturated_.emplace(graph_, vocab_, /*enable_owl=*/false);
  }
  WDR_COUNTER_ADD("wdr.store.loaded_triples", added);
  span.AddAttr("triples", static_cast<uint64_t>(added));
  return added;
}

Result<size_t> ReasoningStore::LoadNTriples(std::string_view text) {
  obs::Span span("wdr.store.load");
  WDR_ASSIGN_OR_RETURN(size_t added, io::ParseNTriples(text, graph_));
  OnUpdate(/*schema_changed=*/true);
  if (saturated_.has_value()) {
    saturated_.emplace(graph_, vocab_, /*enable_owl=*/false);
  }
  WDR_COUNTER_ADD("wdr.store.loaded_triples", added);
  span.AddAttr("triples", static_cast<uint64_t>(added));
  return added;
}

namespace {

// Finishes a query-log record from the run's diagnostics. Shared by
// Query() and Execute() so both paths log identical shapes.
void CompleteRecord(obs::QueryLogRecord& record, const QueryInfo& qinfo,
                    const query::EvalStats& eval_stats,
                    const Result<query::ResultSet>& result) {
  record.union_size = qinfo.union_size;
  record.rewrite_steps = qinfo.reformulation.rewrite_steps;
  record.pruned_cqs = qinfo.reformulation.pruned_cqs;
  record.range_collapses = qinfo.reformulation.range_collapses;
  if (eval_stats.est_rows >= 0) {
    record.est_rows = static_cast<int64_t>(eval_stats.est_rows);
  }
  record.scan_cache_hits = eval_stats.scan_cache_hits;
  record.scan_cache_misses = eval_stats.scan_cache_misses;
  record.dup_rows = eval_stats.duplicate_rows;
  record.wall_nanos = static_cast<uint64_t>(qinfo.seconds * 1e9);
  record.ok = result.ok();
  if (result.ok()) {
    record.rows = result.value().rows.size();
  } else {
    record.error = result.status().ToString();
  }
}

// The all-or-nothing half of cooperative cancellation: the evaluator stops
// early and returns partial rows; this turns a tripped condition into an
// error so callers never mistake a truncated answer set for a complete one.
Status ReadInterrupted(const query::EvaluatorOptions& eval) {
  if (eval.cancel != nullptr &&
      eval.cancel->load(std::memory_order_relaxed)) {
    return CancelledError("query cancelled");
  }
  if (eval.deadline_nanos != 0 && SteadyNowNanos() >= eval.deadline_nanos) {
    return DeadlineExceededError("query deadline exceeded");
  }
  return Status::Ok();
}

}  // namespace

Result<query::ResultSet> ReasoningStore::Query(std::string_view sparql,
                                               QueryInfo* info) {
  obs::Span span("wdr.store.query");
  WDR_COUNTER_INC("wdr.store.queries");

  Timer timer;
  // Start the structured query-log record; every exit appends it (errors
  // included), so /querylog carries one record per executed query.
  obs::QueryLogRecord record;
  record.trace_id = span.trace_id();

  // Route diagnostics through a local QueryInfo when the caller passed
  // none — the query log wants them either way.
  QueryInfo local_info;
  QueryInfo& qinfo = info != nullptr ? *info : local_info;
  query::EvalStats eval_stats;

  // In kAuto mode the executed mode is only known after PrepareInternal
  // routed the query; the latency histogram and diagnostics follow the
  // routed mode so the online cost model trains on real route costs.
  ReasoningMode executed_mode = options_.mode;
  bool via_auto = false;
  double est_seconds = -1;

  Result<query::ResultSet> result = [&]() -> Result<query::ResultSet> {
    WDR_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         PrepareInternal(sparql, ReadOptions{}, &record));
    executed_mode = prepared.mode;
    via_auto = prepared.via_auto;
    est_seconds = prepared.est_seconds;
    std::shared_ptr<obs::ProfileNode> profile;
    if (profiling_ && info != nullptr) {
      profile = std::make_shared<obs::ProfileNode>();
      profile->label = std::string("query [mode=") +
                       ReasoningModeName(prepared.mode) + "]";
    }
    Result<query::ResultSet> r =
        ExecuteInternal(prepared, &qinfo, profile.get(), &eval_stats);
    qinfo.profile = std::move(profile);
    return r;
  }();

  span.AddAttr("mode", ReasoningModeName(executed_mode));
  qinfo.mode = executed_mode;
  qinfo.seconds = timer.ElapsedSeconds();
  obs::MetricsRegistry::Get()
      .GetHistogram(std::string("wdr.store.query.") +
                    ReasoningModeName(executed_mode))
      .RecordSeconds(qinfo.seconds);
  if (via_auto) {
    analysis::RecordEstimateError(RouteOf(executed_mode), est_seconds,
                                  qinfo.seconds);
  }
  CompleteRecord(record, qinfo, eval_stats, result);
  obs::QueryLog::Get().Append(std::move(record));
  return result;
}

Result<PreparedQuery> ReasoningStore::Prepare(std::string_view sparql,
                                              const ReadOptions& options) {
  obs::Span span("wdr.store.prepare");
  Timer timer;
  obs::QueryLogRecord record;
  record.trace_id = span.trace_id();
  Result<PreparedQuery> prepared = PrepareInternal(sparql, options, &record);
  if (!prepared.ok()) {
    // A failed prepare is a query that never reaches Execute; log it here
    // so the one-record-per-query invariant holds on the split path too.
    WDR_COUNTER_INC("wdr.store.queries");
    record.ok = false;
    record.error = prepared.status().ToString();
    record.wall_nanos = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9);
    obs::QueryLog::Get().Append(std::move(record));
  }
  return prepared;
}

Result<query::ResultSet> ReasoningStore::Execute(const PreparedQuery& prepared,
                                                 QueryInfo* info) const {
  obs::Histogram& latency = obs::MetricsRegistry::Get().GetHistogram(
      std::string("wdr.store.query.") + ReasoningModeName(prepared.mode));
  obs::Span span("wdr.store.query", &latency);
  span.AddAttr("mode", ReasoningModeName(prepared.mode));
  WDR_COUNTER_INC("wdr.store.queries");
  Timer timer;

  QueryInfo local_info;
  QueryInfo& qinfo = info != nullptr ? *info : local_info;
  query::EvalStats eval_stats;
  std::shared_ptr<obs::ProfileNode> profile;
  // Profiling renders labels through the dictionary — a shared mutable
  // structure concurrent Prepares intern into. Concurrent callers (the
  // server) keep profiling off; single-threaded callers get the full tree.
  if (profiling_ && info != nullptr) {
    profile = std::make_shared<obs::ProfileNode>();
    profile->label =
        std::string("query [mode=") + ReasoningModeName(prepared.mode) + "]";
  }
  Result<query::ResultSet> result =
      ExecuteInternal(prepared, &qinfo, profile.get(), &eval_stats);
  qinfo.profile = std::move(profile);
  qinfo.mode = prepared.mode;
  qinfo.seconds = prepared.prepare_seconds + timer.ElapsedSeconds();
  if (prepared.via_auto) {
    analysis::RecordEstimateError(RouteOf(prepared.mode),
                                  prepared.est_seconds, qinfo.seconds);
  }

  obs::QueryLogRecord record = prepared.record;
  record.trace_id = span.trace_id();
  CompleteRecord(record, qinfo, eval_stats, result);
  obs::QueryLog::Get().Append(std::move(record));
  return result;
}

void ReasoningStore::Warm() {
  if (options_.encoding) CachedEncoding();
  CachedSchema();
  // Statistics only for the default read path: kAuto's est_rows probe
  // reads the base flavour, a planning route the queried store's. A read
  // that needs another flavour builds it in CachedStats on first use.
  const bool auto_mode = options_.mode == ReasoningMode::kAuto;
  const bool over_closure =
      auto_mode || options_.mode == ReasoningMode::kSaturation;
  if (auto_mode) CachedStats(/*over_closure=*/false);
  if (options_.query.plan && ModePlans(options_.mode)) {
    CachedStats(over_closure);
  }
  CachedReformulator();
  // The plain flavor only differs when the encoding is on (it IS the
  // plain one otherwise).
  if (options_.encoding) CachedPlainReformulator();
}

Result<PreparedQuery> ReasoningStore::PrepareInternal(
    std::string_view sparql, const ReadOptions& ropts,
    obs::QueryLogRecord* record) {
  Timer timer;
  PreparedQuery prepared;
  prepared.mode = ropts.mode.value_or(options_.mode);
  if (prepared.mode == ReasoningMode::kSaturation && !saturated_.has_value()) {
    return FailedPreconditionError(
        "saturation mode needs a materialized closure: the store's mode is "
        "neither kSaturation nor kAuto-with-closure");
  }
  const bool want_encoding = ropts.encoding.value_or(options_.encoding);
  if (want_encoding && !options_.encoding) {
    return FailedPreconditionError(
        "hierarchy encoding is not enabled on this store (it permutes the "
        "shared id space and cannot be materialized per session)");
  }

  // Resolve the encoding before parsing: a pending rebuild permutes the
  // dictionary id space, and the query's interned ids must land in the
  // final space. Frozen prepares never rebuild — a stale encoding just
  // means classic reformulation for this query.
  const rdf::HierEncoding* enc = nullptr;
  if (options_.encoding) {
    if (ropts.frozen) {
      if (encoding_.has_value() && encoding_->version() == schema_version_) {
        enc = &*encoding_;
      }
    } else {
      enc = CachedEncoding();
    }
  }
  const bool use_encoding = want_encoding && enc != nullptr;

  query::EvaluatorOptions eval = options_.query;
  eval.dict = &graph_.dict();
  eval.plan = ropts.plan.value_or(eval.plan) && ModePlans(prepared.mode);
  eval.cancel = ropts.cancel;
  eval.deadline_nanos = ropts.deadline_nanos;

  // Prefill the log record before parsing so failures carry full context.
  record->query = obs::CanonicalQueryKey(sparql);
  record->mode = ReasoningModeName(prepared.mode);
  record->backend = rdf::StorageBackendName(options_.backend);
  record->plan = eval.plan;
  record->encoding = use_encoding;

  WDR_ASSIGN_OR_RETURN(query::UnionQuery q,
                       query::ParseSparql(sparql, graph_.dict()));

  if (prepared.mode == ReasoningMode::kAuto) {
    analysis::StrategySelector& selector = EnsureSelector();
    if (selector.NeedsRefresh()) {
      selector.Refresh(obs::QueryLog::Get().Records(),
                       obs::MetricsRegistry::Get().Snapshot());
    }

    // Cheap per-query features: the reformulation fan-out probe (exact on
    // a memo hit, an O(closure) bound otherwise) and a statistics bound on
    // the query's smallest scan.
    reformulation::Reformulator& probe =
        (options_.encoding && !use_encoding) ? CachedPlainReformulator()
                                             : CachedReformulator();
    const reformulation::FanoutEstimate fanout = probe.EstimateFanout(q);
    analysis::QueryFeatures features;
    features.fanout = static_cast<double>(fanout.branches);
    features.fanout_exact = fanout.exact;
    features.atoms = q.TotalAtoms();
    const exec::Statistics& base_stats = CachedStats(/*over_closure=*/false);
    if (!base_stats.empty()) {
      double best = -1;
      for (const query::BgpQuery& branch : q.branches()) {
        for (const query::TriplePattern& atom : branch.atoms()) {
          const double est = base_stats.Estimate(
              atom.s.is_var() ? exec::BoundMode::kWild
                              : exec::BoundMode::kConst,
              atom.p.is_var() ? exec::BoundMode::kWild
                              : exec::BoundMode::kConst,
              atom.p.is_var() ? 0 : atom.p.id,
              atom.o.is_var() ? exec::BoundMode::kWild
                              : exec::BoundMode::kConst);
          if (best < 0 || est < best) best = est;
        }
      }
      features.est_rows = best;
    }

    analysis::RouteDecision decision = selector.Decide(
        record->query, features, saturated_.has_value(), graph_.size());

    // Closure lifecycle advice. Materializing is safe even under the
    // server's frozen prepares: it fills an empty optional no concurrent
    // Execute can be referencing, and permutes no ids. Dropping is not —
    // concurrent saturation-routed Executes may hold cursors into the
    // closure — so it only happens on non-frozen (externally synchronized)
    // prepares.
    if (decision.materialize_closure && !saturated_.has_value()) {
      saturated_.emplace(graph_, vocab_, /*enable_owl=*/false);
      closure_stats_cache_.reset();
      selector.ClosureMaterialized();
      decision.closure_available = true;
    } else if (decision.drop_closure && saturated_.has_value() &&
               !ropts.frozen && options_.mode == ReasoningMode::kAuto &&
               !ropts.mode.has_value()) {
      saturated_.reset();
      closure_stats_cache_.reset();
      selector.ClosureDropped();
    }

    prepared.mode = ModeOf(decision.route);
    prepared.via_auto = true;
    prepared.est_seconds =
        decision.est_seconds[static_cast<size_t>(decision.route)];
    record->mode = ReasoningModeName(prepared.mode);
    record->fanout = fanout.branches;
    record->via_auto = true;
    {
      std::lock_guard<std::mutex> lock(*decisions_mu_);
      decisions_.push_back(std::move(decision));
      if (decisions_.size() > 8) decisions_.pop_front();
    }
  }

  if (!ModePlans(prepared.mode)) {
    // Auto routing picked backward chaining or Datalog.
    eval.plan = false;
    record->plan = false;
  }
  if (eval.plan && eval.stats == nullptr) {
    // Hand the planner cached statistics so it never pays the O(store)
    // build per query and never degrades on a fresh store. The flavor
    // follows the (routed) mode's queried store.
    eval.stats =
        &CachedStats(prepared.mode == ReasoningMode::kSaturation);
  }

  if (prepared.mode == ReasoningMode::kReformulation) {
    // Rewriting happens at prepare time: the reformulator's memo is shared
    // mutable state, and baking the rewriting into the PreparedQuery makes
    // Execute pure. An encoding-enabled store serves sessions that opted
    // out (and frozen prepares that found the encoding stale) from the
    // classic-reformulator cache. The legacy join evaluates a join of
    // per-atom unions; the plan route compiles the whole-query UCQ.
    reformulation::Reformulator& reformulator =
        (options_.encoding && !use_encoding) ? CachedPlainReformulator()
                                             : CachedReformulator();
    reformulation::ReformulationStats ref_stats;
    double rewrite_seconds = 0;
    Status rewritten = [&]() -> Status {
      ScopedTimer<> rewrite_timer(rewrite_seconds);
      if (eval.plan) {
        WDR_ASSIGN_OR_RETURN(prepared.query,
                             reformulator.Reformulate(q, &ref_stats));
      } else {
        WDR_ASSIGN_OR_RETURN(prepared.joins,
                             reformulator.ReformulateAtoms(q, &ref_stats));
        prepared.query = std::move(q);
      }
      return Status::Ok();
    }();
    WDR_RETURN_IF_ERROR(rewritten);
    obs::MetricsRegistry::Get()
        .GetHistogram("wdr.store.reformulation.rewrite")
        .RecordSeconds(rewrite_seconds);
    // The UCQ's branches, or the alternatives summed over union atoms.
    prepared.union_size = ref_stats.conjunctive_queries;
    prepared.reformulation = ref_stats;
    prepared.rewrite_seconds = rewrite_seconds;
  } else {
    prepared.query = std::move(q);
  }
  if (prepared.mode == ReasoningMode::kBackward) {
    prepared.schema = &CachedSchema();
  }
  if (prepared.mode == ReasoningMode::kDatalog) {
    prepared.datalog = &CachedDatalog();
  }
  prepared.eval = eval;
  prepared.prepare_seconds = timer.ElapsedSeconds();
  prepared.record = *record;
  return prepared;
}

Result<query::ResultSet> ReasoningStore::ExecuteInternal(
    const PreparedQuery& prepared, QueryInfo* info, obs::ProfileNode* profile,
    query::EvalStats* collect) const {
  query::EvaluatorOptions eval_options = prepared.eval;
  eval_options.collect = collect;
  // The dictionary only renders operator labels, and concurrent Prepares
  // intern into it: an Execute without a profile must not read it.
  if (profile == nullptr) eval_options.dict = nullptr;
  if (info != nullptr) {
    info->union_size = prepared.union_size;
    info->reformulation = prepared.reformulation;
  }
  if (prepared.mode == ReasoningMode::kSaturation && !saturated_.has_value()) {
    return FailedPreconditionError("closure dropped since this query was "
                                   "prepared (mode changed?)");
  }

  // Pin the queried store's epoch for the whole evaluation: a pinned flat
  // store defers compaction, so cursors into its arrays stay valid even
  // if a (misbehaving) writer mutates underneath — and the pin count is
  // how the snapshot tests assert reader visibility.
  const rdf::StoreView& queried =
      prepared.mode == ReasoningMode::kSaturation ? saturated_->closure()
                                                  : graph_.store();
  rdf::EpochPin pin(queried);

  Result<query::ResultSet> result = [&]() -> Result<query::ResultSet> {
    switch (prepared.mode) {
      case ReasoningMode::kNone:
      case ReasoningMode::kSaturation: {
        query::Evaluator evaluator(queried, eval_options);
        return evaluator.Evaluate(prepared.query, profile);
      }
      case ReasoningMode::kReformulation: {
        if (profile != nullptr) {
          const std::string shape =
              !prepared.joins.empty()
                  ? std::to_string(prepared.union_size) +
                        " alternatives in a join of unions"
                  : std::to_string(prepared.union_size) + " CQs";
          obs::ProfileNode& rewrite = profile->AddChild(
              "reformulate (" + shape + ", " +
              std::to_string(prepared.reformulation.pruned_cqs) +
              " pruned)");
          rewrite.rows = prepared.union_size;
          rewrite.seconds = prepared.rewrite_seconds;
        }
        query::Evaluator evaluator(queried, eval_options);
        if (!prepared.joins.empty()) {
          return evaluator.Evaluate(prepared.query, prepared.joins, profile);
        }
        return evaluator.Evaluate(prepared.query, profile);
      }
      case ReasoningMode::kBackward: {
        backward::BackwardChainingEvaluator evaluator(
            graph_.store(), *prepared.schema, vocab_);
        if (profile == nullptr) return evaluator.Evaluate(prepared.query);
        backward::BackwardStats stats;
        double seconds = 0;
        Result<query::ResultSet> result = [&] {
          ScopedTimer<> eval_timer(seconds);
          return evaluator.Evaluate(prepared.query, &stats);
        }();
        obs::ProfileNode& node = profile->AddChild(
            "backward_join (" + std::to_string(stats.atom_alternatives) +
            " alternatives)");
        node.scans = stats.index_probes;
        node.seconds = seconds;
        profile->seconds += seconds;
        if (result.ok()) {
          node.rows = result.value().rows.size();
          profile->rows = result.value().rows.size();
        }
        return result;
      }
      case ReasoningMode::kDatalog: {
        if (prepared.datalog == nullptr) {
          return FailedPreconditionError(
              "datalog translation missing from the prepared query");
        }
        datalog::EvalStats dstats;
        double seconds = 0;
        Result<query::ResultSet> result = [&] {
          ScopedTimer<> eval_timer(seconds);
          return datalog::AnswerViaMagicUnion(
              *prepared.datalog, prepared.query,
              profile != nullptr ? &dstats : nullptr);
        }();
        if (profile != nullptr) {
          obs::ProfileNode& node = profile->AddChild(
              "datalog_magic (" + std::to_string(dstats.derived_tuples) +
              " derived, " + std::to_string(dstats.iterations) +
              " iterations)");
          node.seconds = seconds;
          profile->seconds += seconds;
          if (result.ok()) {
            node.rows = result.value().rows.size();
            profile->rows = result.value().rows.size();
          }
        }
        return result;
      }
      case ReasoningMode::kAuto:
        // Prepare always routes kAuto to a static mode; reaching Execute
        // with it is a programming error.
        return InternalError("kAuto must be routed at prepare time");
    }
    return InternalError("unknown reasoning mode");
  }();
  if (result.ok()) {
    // A tripped cancellation leaves a truncated row set; surface it as an
    // error rather than an answer.
    WDR_RETURN_IF_ERROR(ReadInterrupted(eval_options));
  }
  return result;
}

std::vector<std::string> ReasoningStore::DecodeRow(
    const query::Row& row) const {
  std::vector<std::string> out;
  out.reserve(row.size());
  for (rdf::TermId id : row) {
    out.push_back(id == rdf::kNullTermId ? "UNBOUND"
                                         : graph_.dict().term(id).ToNTriples());
  }
  return out;
}

Result<std::string> ReasoningStore::ExplainTriple(
    std::string_view ntriples_line) {
  rdf::Graph scratch;
  WDR_ASSIGN_OR_RETURN(size_t parsed, io::ParseNTriples(ntriples_line, scratch));
  if (parsed != 1) {
    return InvalidArgumentError("expected exactly one N-Triples statement");
  }
  rdf::Triple target;
  scratch.store().Match(0, 0, 0, [&](const rdf::Triple& t) {
    target = rdf::Triple(graph_.dict().Intern(scratch.dict().term(t.s)),
                         graph_.dict().Intern(scratch.dict().term(t.p)),
                         graph_.dict().Intern(scratch.dict().term(t.o)));
  });

  const rdf::StoreView* closure = nullptr;
  rdf::TripleStore transient;
  if (saturated_.has_value()) {
    closure = &saturated_->closure();
  } else {
    transient = reasoning::Saturator::SaturateGraph(graph_, vocab_);
    closure = &transient;
  }
  WDR_ASSIGN_OR_RETURN(
      reasoning::Explanation explanation,
      reasoning::Explain(graph_.store(), *closure, vocab_, &graph_.dict(),
                         target));
  return reasoning::FormatExplanation(graph_, graph_.store(), explanation);
}

UpdateInfo ReasoningStore::Insert(const rdf::Triple& t) {
  UpdateInfo info;
  const bool is_schema = vocab_.IsSchemaProperty(t.p);
  {
    ScopedTimer<> timer(info.seconds);
    // A triple previously present only as a derived schema edge becomes an
    // asserted one: stop tracking it as derived.
    for (auto it = derived_schema_.begin(); it != derived_schema_.end();
         ++it) {
      if (*it == t) {
        derived_schema_.erase(it);
        break;
      }
    }
    info.inserted = graph_.Insert(t) ? 1 : 0;
    if (saturated_.has_value()) info.closure_delta = saturated_->Insert(t);
    OnUpdate(is_schema);
  }
  UpdateHistogram(is_schema, /*is_insert=*/true).RecordSeconds(info.seconds);
  return info;
}

UpdateInfo ReasoningStore::Erase(const rdf::Triple& t) {
  UpdateInfo info;
  const bool is_schema = vocab_.IsSchemaProperty(t.p);
  {
    ScopedTimer<> timer(info.seconds);
    info.deleted = graph_.Erase(t) ? 1 : 0;
    if (saturated_.has_value()) info.closure_delta = saturated_->Erase(t);
    // Re-closing may legitimately re-add the erased triple if it is still
    // entailed by the remaining schema (deleting an entailed triple is a
    // no-op on the semantics, as the paper's §II-B maintenance discussion
    // assumes).
    OnUpdate(is_schema);
  }
  UpdateHistogram(is_schema, /*is_insert=*/false).RecordSeconds(info.seconds);
  return info;
}

Result<UpdateInfo> ReasoningStore::Update(std::string_view sparql_update) {
  obs::Span span("wdr.store.update");
  Timer timer;
  WDR_ASSIGN_OR_RETURN(std::vector<UpdateOp> ops,
                       ParseSparqlUpdate(sparql_update, graph_.dict()));
  UpdateInfo total;
  for (const UpdateOp& op : ops) {
    for (const rdf::Triple& t : op.triples) {
      UpdateInfo step = op.is_insert ? Insert(t) : Erase(t);
      total.inserted += step.inserted;
      total.deleted += step.deleted;
      total.closure_delta += step.closure_delta;
    }
  }
  total.seconds = timer.ElapsedSeconds();
  span.AddAttr("inserted", static_cast<uint64_t>(total.inserted));
  span.AddAttr("deleted", static_cast<uint64_t>(total.deleted));
  return total;
}

}  // namespace wdr::store
