#ifndef WDR_STORE_REASONING_STORE_H_
#define WDR_STORE_REASONING_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/strategy_selector.h"
#include "common/status.h"
#include "datalog/rdf_datalog.h"
#include "exec/statistics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "query/evaluator.h"
#include "rdf/graph.h"
#include "rdf/hier_encoding.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "schema/vocabulary.h"

namespace wdr::store {

// How the store answers queries with respect to RDF entailment — the
// technique families the paper classifies (§II-B, §II-C), plus the online
// selector that picks among them per query (§II-D's open issue).
enum class ReasoningMode {
  // No reasoning: plain evaluation over explicit triples only.
  kNone,
  // Forward chaining: an incrementally maintained closure G∞ is queried
  // (OWLIM / Oracle style). Cheap queries, maintenance on update.
  kSaturation,
  // Query rewriting: q is reformulated (EDBT'13 style) and evaluated on G,
  // as a join of per-atom unions on the legacy join or as one UCQ on the
  // plan route. Zero maintenance, costlier queries.
  kReformulation,
  // Run-time backward chaining: per-atom expansion inside the join
  // (AllegroGraph / Virtuoso style). Zero maintenance.
  kBackward,
  // Datalog translation + magic sets, evaluated per query against the
  // base facts (§II-D: "translation to Datalog"). Zero maintenance; the
  // translation is cached between updates.
  kDatalog,
  // Adaptive: every query is routed to one of the four static techniques
  // above by an online-fitted cost model (analysis::StrategySelector).
  // Queries never execute "in kAuto" — Prepare resolves the route, so a
  // PreparedQuery always carries a static mode.
  kAuto,
};

const char* ReasoningModeName(ReasoningMode mode);

// Whether a read in `mode` can compile through the wdr::exec planner when
// plan mode is on. Backward chaining and Datalog run their own joins and
// read no planner statistics; kAuto is undecided until Prepare routes it.
bool ModePlans(ReasoningMode mode);

// Process-wide default for the hierarchy-aware encoding toggle: true iff
// the environment variable WDR_ENCODING is exactly "1" (mirroring
// exec::PlanModeDefault / WDR_PLAN, so the whole test suite can be flipped
// encoding-on without touching call sites).
bool EncodingModeDefault();

// Process-wide default reasoning mode: the WDR_MODE environment variable
// when it names a mode exactly ("none", "saturation", "reformulation",
// "backward", "datalog", "auto"), kSaturation otherwise. Same pattern as
// WDR_PLAN / WDR_ENCODING: the whole test suite can be flipped onto a mode
// (CI runs WDR_MODE=auto) without touching call sites.
ReasoningMode ReasoningModeDefault();

struct ReasoningStoreOptions {
  ReasoningMode mode = ReasoningModeDefault();
  // Storage engine for the base graph and (in saturation mode) the closure.
  rdf::StorageBackend backend = rdf::StorageBackend::kOrdered;
  // Passed through to the reformulation engine (kReformulation mode).
  reformulation::ReformulationOptions reformulation;
  // Passed through to the query evaluator in every mode: join order, the
  // plan route and the cross-branch scan cache (most effective in
  // kReformulation mode, where unions are large). Answers are identical
  // at any setting.
  query::EvaluatorOptions query;
  // Hierarchy-aware id encoding (LiteMat; rdf/hier_encoding.h): permute
  // the dictionary so subclass/subproperty closures occupy contiguous id
  // intervals and collapse reformulation unions into range scans. Answers
  // are identical either way; the encoding trades a rebuild on schema
  // change for O(1)-branch rewritings.
  bool encoding = EncodingModeDefault();
};

// Per-read overrides and controls for Prepare()/Execute(). Default-
// constructed, a ReadOptions changes nothing: the store's own settings
// apply. The server's sessions are the main client — each session carries
// its own ReadOptions so many clients with different mode/plan/encoding
// settings can share one store.
struct ReadOptions {
  // Reasoning-mode override. kSaturation is only accepted when the store
  // has a materialized closure (configured kSaturation, or kAuto after the
  // selector materialized one); otherwise Prepare returns
  // FailedPrecondition — building a closure per query would be neither
  // cheap nor the technique the caller asked for. kAuto routes this one
  // query through the strategy selector.
  std::optional<ReasoningMode> mode;
  // Plan-based evaluation override (see SetPlanMode).
  std::optional<bool> plan;
  // Hierarchy-encoding override. `true` requires the store's encoding to
  // be enabled (the encoding permutes the global id space; it cannot be
  // materialized per session) — FailedPrecondition otherwise. `false` on
  // an encoding-enabled store rewrites through a plain (classic)
  // reformulator instead of the interval-collapsing one.
  std::optional<bool> encoding;
  // Cooperative cancellation, threaded into the evaluator (see
  // query::EvaluatorOptions): Execute returns Cancelled once `*cancel` is
  // true, DeadlineExceeded once `deadline_nanos` (absolute steady-clock
  // nanos, SteadyNowNanos time base; 0 = none) has passed. Partial rows
  // are discarded, never returned.
  const std::atomic<bool>* cancel = nullptr;
  uint64_t deadline_nanos = 0;
  // Frozen prepare: never rebuild the hierarchy encoding (a rebuild
  // permutes the dictionary id space under every concurrent reader's
  // feet). If the encoding is stale, reformulation falls back to the
  // classic rewriting for this query. The server prepares frozen; its
  // writer refreshes the encoding via Warm() before publishing. Caches
  // that permute no ids (planner statistics, the Datalog translation)
  // still fill on first use, under the caller's Prepare serialization.
  bool frozen = false;
};

// A parsed, rewritten, ready-to-evaluate query: the output of Prepare()
// and the input of Execute(). Splitting the two is what makes concurrent
// reads safe: Prepare touches shared mutable state (interning query terms
// into the dictionary, filling caches) and must be externally serialized
// with other Prepares; Execute is const and id-pure, so any number of
// Executes run concurrently against a frozen store. A PreparedQuery may
// be Executed repeatedly (the server's per-session plan cache does) as
// long as the store is not updated in between.
struct PreparedQuery {
  ReasoningMode mode = ReasoningMode::kNone;
  // The parsed query; in kReformulation mode with plan mode on, its
  // whole-query UCQ reformulation.
  query::UnionQuery query;
  // kReformulation on the legacy join: one join of per-atom unions per
  // branch of `query`, which Execute evaluates in place of the branches'
  // BGPs. Empty on every other route.
  std::vector<query::JoinOfUnions> joins;
  // Fully resolved evaluator knobs (dict, cached statistics, cancellation).
  query::EvaluatorOptions eval;
  // Schema snapshot for kBackward (null in other modes). Borrowed from the
  // store's cache; valid until the next update.
  const schema::Schema* schema = nullptr;
  // Datalog translation for kDatalog (null in other modes). Borrowed from
  // the store's cache; valid until the next update.
  const datalog::RdfDatalogTranslation* datalog = nullptr;
  // Set when kAuto routed this query: `mode` above is the routed static
  // mode, and Execute scores the selector's estimate against the actual
  // wall time (wdr.auto.est_error_pct).
  bool via_auto = false;
  double est_seconds = -1;  // selector's estimate for the routed mode
  // Rewrite diagnostics captured at prepare time (kReformulation).
  // union_size counts the evaluated disjuncts: the UCQ's branches, or the
  // alternatives summed over union atoms on the JUCQ route.
  size_t union_size = 1;
  reformulation::ReformulationStats reformulation;
  double rewrite_seconds = 0;
  // Parse + rewrite wall time, folded into QueryInfo::seconds by Execute.
  double prepare_seconds = 0;
  // Query-log prefill (canonical key, mode, backend, plan/encoding flags);
  // Execute copies and completes it, one appended record per execution.
  obs::QueryLogRecord record;
};

// Per-query diagnostics.
struct QueryInfo {
  ReasoningMode mode = ReasoningMode::kNone;
  // Disjuncts evaluated (reformulation): UCQ branches, or alternatives
  // summed over union atoms on the JUCQ route.
  size_t union_size = 1;
  double seconds = 0;        // wall-clock, parse included
  // Rewriting shape (kReformulation mode; zeros elsewhere).
  reformulation::ReformulationStats reformulation;
  // Per-operator EXPLAIN-ANALYZE tree; set only when the store's
  // profiling flag is on (see SetProfiling). Render() pretty-prints it.
  std::shared_ptr<obs::ProfileNode> profile;
};

// Counts of applied update operations.
struct UpdateInfo {
  size_t inserted = 0;          // base triples added
  size_t deleted = 0;           // base triples removed
  size_t closure_delta = 0;     // |closure changes| (saturation mode)
  double seconds = 0;
};

// The library's front door: an RDF store whose query answers always
// reflect RDFS entailment, under a pluggable technique. Invariant: for the
// same data, Query() returns the same answers in every reasoning mode
// except kNone (property-tested) — the modes differ only in where the
// reasoning cost is paid, which is the whole subject of the paper.
//
// The store keeps its schema component closed at all times (tiny, and the
// correctness precondition of the rewriting techniques); the base/derived
// schema distinction is tracked so schema deletions retract closure edges.
class ReasoningStore {
 public:
  explicit ReasoningStore(ReasoningStoreOptions options = {});

  // Not copyable (holds a maintained closure); movable.
  ReasoningStore(const ReasoningStore&) = delete;
  ReasoningStore& operator=(const ReasoningStore&) = delete;
  ReasoningStore(ReasoningStore&&) = default;
  ReasoningStore& operator=(ReasoningStore&&) = default;

  // --- Loading ------------------------------------------------------------

  // Parses and inserts data; returns the number of new triples.
  Result<size_t> LoadTurtle(std::string_view text);
  Result<size_t> LoadNTriples(std::string_view text);

  // --- Querying -----------------------------------------------------------

  // Answers a SPARQL BGP/UNION query under the configured mode.
  // Equivalent to Prepare() + Execute(); one query-log record either way.
  Result<query::ResultSet> Query(std::string_view sparql,
                                 QueryInfo* info = nullptr);

  // Parses (interning query terms into the dictionary), resolves the
  // per-read settings against the store's own, and — in reformulation
  // mode — rewrites, yielding a ready-to-evaluate PreparedQuery. MUTATES
  // shared state (dictionary, lazy caches): callers running concurrent
  // reads must serialize all Prepare calls (and DecodeRow) among
  // themselves; see wdr::server::SnapshotStore. A failed Prepare appends
  // its own query-log record (parse errors are queries too).
  Result<PreparedQuery> Prepare(std::string_view sparql,
                                const ReadOptions& options = {});

  // Evaluates a PreparedQuery. Const and touches no lazily-filled cache:
  // safe to call from many threads at once (against a store no writer is
  // mutating), each execution pinning the queried store's epoch for its
  // duration (StoreView::PinEpoch — the flat backend defers compaction
  // while pins are held). Returns Cancelled / DeadlineExceeded and
  // discards rows when the prepared read's cancellation tripped. Appends
  // one query-log record per call.
  Result<query::ResultSet> Execute(const PreparedQuery& prepared,
                                   QueryInfo* info = nullptr) const;

  // Fills the lazy caches the store's default read path touches —
  // hierarchy encoding (when enabled), schema view, both reformulator
  // flavors, and planner statistics only where that path reads them (the
  // queried store's flavour when plan mode is on, the base flavour in
  // kAuto) — so a default frozen Prepare rebuilds nothing. A read that
  // overrides plan or mode builds the statistics it needs on first use;
  // legacy-join reads never pay for them. The server's writer calls this
  // before publishing a store to readers.
  void Warm();

  // Decodes a result row to N-Triples term strings.
  std::vector<std::string> DecodeRow(const query::Row& row) const;

  // Explains why a triple holds: `ntriples_line` is one N-Triples
  // statement ("<s> <p> <o> ."); the result is a rendered proof from
  // asserted triples through the entailment rules (see reasoning/explain.h
  // — the §II-C "justifications"). Works in every mode (the closure is
  // computed transiently if the store is not in saturation mode). NotFound
  // if the triple is not entailed.
  Result<std::string> ExplainTriple(std::string_view ntriples_line);

  // --- Updating -----------------------------------------------------------

  // Executes a SPARQL UPDATE request: a sequence of
  //   INSERT DATA { <ground triples> }   and
  //   DELETE DATA { <ground triples> }
  // operations (separated by ';'), with PREFIX declarations and Turtle
  // abbreviations allowed inside the blocks. In saturation mode the
  // closure is maintained incrementally (DRed for deletes).
  Result<UpdateInfo> Update(std::string_view sparql_update);

  // Programmatic single-triple updates.
  UpdateInfo Insert(const rdf::Triple& t);
  UpdateInfo Erase(const rdf::Triple& t);

  // --- Mode control ---------------------------------------------------------

  ReasoningMode mode() const { return options_.mode; }

  // Switches technique at run time: entering kSaturation builds the
  // closure; leaving it drops the closure — except into kAuto, which
  // inherits whatever closure exists and hands its lifecycle to the
  // selector (lazy materialization / drop; see DESIGN.md).
  void SetMode(ReasoningMode mode);

  // The most recent kAuto routing decision (the shell's `.why`), or
  // nullopt if no auto-routed query ran yet. Thread-safe against
  // concurrent Prepares.
  std::optional<analysis::RouteDecision> LastAutoDecision() const;

  // The auto-mode selector, created lazily at the first kAuto-routed
  // Prepare (null before that). Exposed for tests and diagnostics.
  const analysis::StrategySelector* selector() const {
    return selector_.get();
  }

  rdf::StorageBackend backend() const { return options_.backend; }

  // Switches the storage engine at run time, carrying the data over (and
  // rebuilding the closure in saturation mode). No-op if unchanged.
  void SetBackend(rdf::StorageBackend backend);

  // Toggles plan-based evaluation: BGP and UCQ reads (the kNone,
  // kSaturation and kReformulation routes) compile into the shared
  // wdr::exec physical-plan IR with cost-based join order and hash joins.
  // Backward chaining and Datalog always run their own joins and ignore
  // the toggle; their query-log records say plan=false. The store lazily
  // builds and caches per-predicate statistics over the queried store
  // (base graph, or the closure in kSaturation mode), only for routes that
  // plan, and invalidates them on every update, load, mode switch, and
  // backend switch — so the planner always sees fresh statistics and never
  // takes the degraded path. Answers are identical either way.
  void SetPlanMode(bool on) { options_.query.plan = on; }
  bool plan_mode() const { return options_.query.plan; }

  // Toggles the hierarchy-aware id encoding (kReformulation's union
  // collapse; see ReasoningStoreOptions::encoding). Turning it on is lazy:
  // the permutation is built and applied at the next Query(), and rebuilt
  // whenever the schema changes (the encoding is versioned by the store's
  // schema version counter). Turning it off stops the collapse but leaves
  // the current id space in place — a permuted id space is a perfectly
  // valid id space. Answers are identical either way.
  void SetEncoding(bool on);
  bool encoding_enabled() const { return options_.encoding; }
  // The live encoding snapshot, or null when disabled or not yet built.
  const rdf::HierEncoding* encoding() const {
    return encoding_.has_value() ? &*encoding_ : nullptr;
  }
  // Bumped on every schema-changing update; the encoding and the cached
  // Reformulator (whose memo rides on it) are valid iff their recorded
  // version equals this counter.
  uint64_t schema_version() const { return schema_version_; }

  // Toggles per-query operator profiling. When on, Query() fills
  // QueryInfo::profile with a per-operator stats tree. Off by default:
  // profiling adds a timer read per join operator.
  void SetProfiling(bool on) { profiling_ = on; }
  bool profiling() const { return profiling_; }

  // --- Introspection --------------------------------------------------------

  rdf::Graph& graph() { return graph_; }
  const rdf::Graph& graph() const { return graph_; }
  const schema::Vocabulary& vocab() const { return vocab_; }
  // Base triples (user-visible data, including the closed schema).
  size_t size() const { return graph_.size(); }
  // Closure size in saturation mode; base size otherwise.
  size_t effective_size() const;

 private:
  // Re-closes the schema component after a schema change: previously
  // derived schema edges are retracted and re-derived from the current
  // base schema.
  void RecloseSchema();

  // Invalidate caches after any update.
  void OnUpdate(bool schema_changed);

  const schema::Schema& CachedSchema();

  // Statistics over the queried store: the maintained closure when
  // `over_closure` (the saturation route; requires saturated_), the base
  // graph otherwise. Cached per flavor, invalidated on every update; each
  // build counts in wdr.store.statistics.builds. Building one flavor never
  // moves the other, so a pointer a Prepare handed out stays valid until
  // the next update.
  const exec::Statistics& CachedStats(bool over_closure);

  // The encoding for the current schema version (building or rebuilding it
  // if needed), or null when the toggle is off. Rebuilding permutes the
  // dictionary id space — call only at a point where no TermIds are held
  // outside the store (Query() calls it before parsing).
  const rdf::HierEncoding* CachedEncoding();
  void RebuildEncoding();

  // Datalog translation of the current base graph (kDatalog route),
  // rebuilt lazily after updates.
  const datalog::RdfDatalogTranslation& CachedDatalog();

  // Creates the auto-mode selector on first use, seeded with a
  // metrics-derived cost prior.
  analysis::StrategySelector& EnsureSelector();

  // Reformulator snapshot for the current schema version; carries the
  // memoized per-query rewritings until the schema version moves.
  reformulation::Reformulator& CachedReformulator();
  // Like CachedReformulator but always classic (no interval collapse),
  // serving sessions that opt out of the encoding on an encoding-enabled
  // store.
  reformulation::Reformulator& CachedPlainReformulator();

  // Prepare() minus the query-log bookkeeping: fills `record`'s prefix
  // fields (query key, mode, backend, flags) before parsing so the caller
  // can log failures with full context.
  Result<PreparedQuery> PrepareInternal(std::string_view sparql,
                                        const ReadOptions& options,
                                        obs::QueryLogRecord* record);

  // Execute() minus span/record assembly. `collect`, when non-null,
  // receives the evaluator's EvalStats (est-vs-actual cardinality,
  // scan-cache traffic) for the query-log record.
  Result<query::ResultSet> ExecuteInternal(const PreparedQuery& prepared,
                                           QueryInfo* info,
                                           obs::ProfileNode* profile,
                                           query::EvalStats* collect) const;

  ReasoningStoreOptions options_;
  bool profiling_ = false;
  rdf::Graph graph_;
  schema::Vocabulary vocab_;

  // Schema edges present only by entailment (kept closed in graph_).
  std::vector<rdf::Triple> derived_schema_;

  // kSaturation state; in kAuto mode present iff the selector's lazy
  // materialization policy built it.
  std::optional<reasoning::SaturatedGraph> saturated_;

  // Lazily rebuilt constraint view for the rewriting modes.
  std::optional<schema::Schema> schema_cache_;

  // Lazily rebuilt planner statistics, one flavor per queried store (see
  // CachedStats).
  std::optional<exec::Statistics> stats_cache_;          // base graph
  std::optional<exec::Statistics> closure_stats_cache_;  // closure

  // kAuto state: the online selector (lazily created at the first
  // auto-routed Prepare; mutated only on the externally-serialized
  // Prepare/update path) and a short ring of recent routing decisions for
  // `.why` / WHY, behind its own mutex because const readers
  // (LastAutoDecision) run concurrently with Prepares. unique_ptrs keep
  // the store movable.
  std::unique_ptr<analysis::StrategySelector> selector_;
  std::unique_ptr<std::mutex> decisions_mu_ =
      std::make_unique<std::mutex>();
  std::deque<analysis::RouteDecision> decisions_;

  // kDatalog state: the translation of the current base graph (facts baked
  // in), built lazily at the first kDatalog-routed Prepare after each
  // update.
  std::optional<datalog::RdfDatalogTranslation> datalog_cache_;

  // Hierarchy-aware encoding state (see SetEncoding). The version counter
  // starts at 1 so a default-constructed HierEncoding (version 0) always
  // reads as stale.
  uint64_t schema_version_ = 1;
  std::optional<rdf::HierEncoding> encoding_;
  std::optional<reformulation::Reformulator> reformulator_cache_;
  uint64_t reformulator_version_ = 0;
  // Classic (encoding-free) flavor; see CachedPlainReformulator.
  std::optional<reformulation::Reformulator> reformulator_plain_cache_;
  uint64_t reformulator_plain_version_ = 0;
};

}  // namespace wdr::store

#endif  // WDR_STORE_REASONING_STORE_H_
