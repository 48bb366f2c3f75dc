#ifndef WDR_ANALYSIS_MEASURE_H_
#define WDR_ANALYSIS_MEASURE_H_

#include <vector>

#include "analysis/thresholds.h"
#include "common/status.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "schema/vocabulary.h"

namespace wdr::analysis {

// Updates to exercise when measuring maintenance costs. Insertions must not
// be present in the graph; deletions must be present.
struct UpdateSample {
  std::vector<rdf::Triple> instance_insertions;
  std::vector<rdf::Triple> instance_deletions;
  std::vector<rdf::Triple> schema_insertions;
  std::vector<rdf::Triple> schema_deletions;
};

struct MeasureOptions {
  // Query evaluations are repeated and averaged.
  int query_repetitions = 3;
  // Applied to both evaluations being compared (q over G∞ and q_ref over
  // G), so the thresholds reflect the deployment's query configuration.
  // The scan cache speeds up the reformulated side far more than the
  // saturated side (large unions vs. single BGPs), raising the measured
  // saturation thresholds. The plan knob (EvaluatorOptions::plan) rides
  // along too: with it on, both sides are measured under cost-based
  // physical plans (statistics are built per evaluation — leave `stats`
  // null; the graphs being measured are snapshots).
  query::EvaluatorOptions query;
  // Measure the reformulated side under the hierarchy-aware id encoding
  // (rdf/hier_encoding.h): a snapshot of the graph is re-encoded so that
  // subclass/subproperty closures occupy contiguous id intervals, and the
  // rewriting collapses those unions into range atoms. The one-time
  // encoding build is charged to reformulation_seconds (it amortizes like
  // the rewriting itself: redone only on schema change). Answers are
  // identical either way.
  bool encoding = false;
};

// Side measurements produced along the way, reported by the benches.
struct MeasureReport {
  CostProfile costs;
  size_t closure_triples = 0;
  size_t base_triples = 0;
  size_t reformulation_cqs = 0;
  size_t answers = 0;
};

// Measures the full Fig. 3 cost profile of `q` on `graph` (which must be
// schema-closed for reformulation to be exact — see reformulation docs):
//
//   - saturation cost and |G∞|
//   - per-run cost of q over G∞
//   - the one-time rewriting cost of q into q_ref (re-done only when the
//     schema changes, so not charged per run — matching the threshold
//     definition, which compares evaluation costs)
//   - per-run cost of evaluating q_ref over G
//   - per-update closure maintenance cost for the four update kinds
//     (each update is applied to the maintained closure, timed, and rolled
//     back untimed, so measurements are independent)
//
// Returns ResourceExhausted if the reformulation exceeds its CQ cap.
Result<MeasureReport> MeasureCostProfile(const rdf::Graph& graph,
                                         const schema::Vocabulary& vocab,
                                         const query::BgpQuery& q,
                                         const UpdateSample& updates,
                                         const MeasureOptions& options = {});

}  // namespace wdr::analysis

#endif  // WDR_ANALYSIS_MEASURE_H_
