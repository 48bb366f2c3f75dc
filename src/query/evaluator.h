#ifndef WDR_QUERY_EVALUATOR_H_
#define WDR_QUERY_EVALUATOR_H_

#include <atomic>
#include <string>
#include <vector>

#include "exec/plan.h"
#include "exec/statistics.h"
#include "obs/profile.h"
#include "rdf/store_view.h"
#include "rdf/union_store.h"
#include "query/query.h"

namespace wdr::rdf {
class Dictionary;
}  // namespace wdr::rdf

namespace wdr::query {

// One answer: projected variable values in projection order.
using Row = std::vector<TermId>;

// Answers of a query evaluation.
struct ResultSet {
  std::vector<std::string> var_names;  // projection names
  std::vector<Row> rows;

  // Sorts rows (and de-duplicates if `dedup`) so result sets compare
  // structurally; used pervasively by tests.
  void Normalize(bool dedup = true);

  friend bool operator==(const ResultSet& a, const ResultSet& b) {
    return a.var_names == b.var_names && a.rows == b.rows;
  }
};

// Applies a query's solution modifiers to an assembled result: ASK
// collapses to zero-or-one empty row; OFFSET drops leading rows; LIMIT
// truncates. Shared by every evaluation route so the routes stay
// answer-equivalent.
void ApplySolutionModifiers(const UnionQuery& q, ResultSet& result);

// Per-evaluation measurements for the structured query log, filled when
// EvaluatorOptions::collect points at an instance. Everything here is
// already computed by the evaluation; collection adds no extra passes.
struct EvalStats {
  // Sum of the planner's per-branch row estimates (plan mode); -1 when no
  // branch was planned — the legacy join has no cardinality model.
  double est_rows = -1;
  // Branches actually evaluated (cancelled branches don't count).
  uint64_t branches = 0;
  // This evaluation's cross-branch scan-cache traffic (0/0 when the cache
  // was not engaged, e.g. single-branch unions).
  uint64_t scan_cache_hits = 0;
  uint64_t scan_cache_misses = 0;
  // Rows the evaluation's dedup tables dropped as already answered (union
  // overlap and DISTINCT; on a JUCQ also the bindings a union atom's
  // alternatives share); 0 when no table ran. Also counted in
  // wdr.query.duplicate_rows, never one add per row.
  uint64_t duplicate_rows = 0;
};

// Knobs shared by Evaluator and FederatedEvaluator.
struct EvaluatorOptions {
  // Pick the cheapest remaining atom at each join step (estimated via
  // the store's indexes). Disabling falls back to the query's written
  // atom order — the ablation bench_queryopt quantifies the difference.
  bool greedy_join_order = true;
  // When set, profile-node operator labels render terms through this
  // dictionary instead of as raw ids.
  const rdf::Dictionary* dict = nullptr;
  // Cross-branch scan-signature cache: reformulated branches repeatedly
  // issue identical resolved (s,p,o) scans, so each union evaluation
  // memoizes completed small scans and replays them as flat vectors.
  // Answers are identical either way (a cached scan is the exact triple
  // sequence of the live cursor); wdr.query.scan_cache.{hits,misses}
  // measure effectiveness.
  bool scan_cache = true;
  // Compile each BGP/branch into the shared wdr::exec physical-plan IR —
  // cost-based join order AND join algorithm (hash join vs bound-first
  // index lookup) from per-predicate statistics, batch-at-a-time
  // execution — instead of the legacy recursive bound-first join. Off by
  // default: the legacy path stays the reference for differential
  // testing, and a static plan's row ORDER can differ from the legacy
  // join, which re-picks the cheapest atom under every partial binding
  // (answer SETS are always identical; the differential harness locks
  // both properties). WDR_PLAN=1 in the environment flips the default
  // on — the CI matrix runs the whole test suite both ways.
  bool plan = exec::PlanModeDefault();
  // Plan mode: allow hash joins (off = nested-loop-only plans; the
  // bench_exec grid quantifies the difference).
  bool hash_joins = true;
  // Plan mode: rows per executor batch.
  size_t batch_rows = 1024;
  // Plan mode: per-predicate statistics for the cost model. Null builds
  // them per evaluation (one O(store) pass — ReasoningStore caches a copy
  // instead); empty or stale statistics degrade the planner to the greedy
  // bound-first order with nested loops only.
  const exec::Statistics* stats = nullptr;
  // When non-null, union evaluation accumulates EvalStats here (est-vs-
  // actual cardinality, scan-cache traffic) for the caller's query-log
  // record. Not owned; must outlive the evaluation.
  EvalStats* collect = nullptr;
  // Cooperative cancellation, for callers serving queries with a timeout
  // (the server's per-query deadline). When `cancel` is non-null and
  // becomes true, or `deadline_nanos` (absolute std::chrono::steady_clock
  // nanos; 0 = none) passes, evaluation stops soon after — mid-scan, mid-
  // branch — and returns whatever rows it had. A truncated ResultSet is
  // indistinguishable from a complete one here, so callers that need
  // all-or-nothing semantics must re-check the condition after Evaluate
  // returns and discard the rows (ReasoningStore::Execute does). The flag
  // is probed per emitted triple; the clock is only read every few
  // thousand triples so the uncancelled path stays unmeasurable.
  const std::atomic<bool>* cancel = nullptr;
  uint64_t deadline_nanos = 0;
};

// BGP / union-of-BGP query evaluation over a triple store, per the paper's
// "query evaluation" (no reasoning): only explicit triples of the store are
// matched. Reasoning enters either by evaluating over a saturated store or
// by evaluating a reformulated UnionQuery — which is the whole point.
// The store is consumed through the StoreView seam, so evaluation runs
// unchanged over any storage backend.
//
// The join strategy is greedy bound-first index nested loops: at each step
// the atom with the fewest estimated matches under the current bindings is
// expanded via the best store index.
class Evaluator {
 public:
  using Options = EvaluatorOptions;

  explicit Evaluator(const rdf::StoreView& store)
      : store_(&store), options_() {}
  Evaluator(const rdf::StoreView& store, const Options& options)
      : store_(&store), options_(options) {}

  // `profile`, when non-null, receives one child per join operator with
  // EXPLAIN-ANALYZE-style stats (rows produced, triples enumerated, cursor
  // opens, inclusive wall time). A null profile collects nothing and adds
  // no measurable cost to the join.
  ResultSet Evaluate(const BgpQuery& q,
                     obs::ProfileNode* profile = nullptr) const;

  // Set-union of branch answers (always de-duplicated: a UCQ's answers are
  // a set, and reformulation disjuncts overlap heavily).
  ResultSet Evaluate(const UnionQuery& q,
                     obs::ProfileNode* profile = nullptr) const;

  // A JUCQ: the branches of `q` (projection and modifiers as in a UCQ),
  // branch b evaluated as the join of per-atom unions joins[b], on the
  // legacy join whatever `plan` says; `joins` holds one entry per branch.
  // Answers are always de-duplicated, as a UCQ's are. A profile gets one
  // node per branch and, under it, one per union atom with its
  // alternatives and existence probes.
  ResultSet Evaluate(const UnionQuery& q,
                     const std::vector<JoinOfUnions>& joins,
                     obs::ProfileNode* profile = nullptr) const;

  // Number of rows without materializing a ResultSet: counts stream
  // through the join's emit callback (still enumerates; DISTINCT queries
  // keep a dedup table of projected rows, others never even project).
  size_t CountAnswers(const BgpQuery& q) const;

 private:
  const rdf::StoreView* store_;  // not owned
  Options options_;
};

// Evaluation across a federation: same join machinery over a UnionStore
// view (set semantics across member stores). Used with reformulation,
// this answers queries over autonomous endpoints without ever saturating
// their union — the paper's §I argument for reformulation.
class FederatedEvaluator {
 public:
  explicit FederatedEvaluator(const rdf::UnionStore& store)
      : store_(&store), options_() {}
  FederatedEvaluator(const rdf::UnionStore& store,
                     const EvaluatorOptions& options)
      : store_(&store), options_(options) {}

  ResultSet Evaluate(const BgpQuery& q,
                     obs::ProfileNode* profile = nullptr) const;
  ResultSet Evaluate(const UnionQuery& q,
                     obs::ProfileNode* profile = nullptr) const;

 private:
  const rdf::UnionStore* store_;  // not owned
  EvaluatorOptions options_;
};

}  // namespace wdr::query

#endif  // WDR_QUERY_EVALUATOR_H_
