// Physical-plan IR of the BGP/UCQ query evaluator (query::Evaluator and,
// through it, the saturation, reformulation and federated routes). A plan
// is a tree of operators over columnar batches of uint32 values; the
// planner (planner.h) builds plans, the executor (executor.h) runs them.
// Backward chaining and Datalog do not compile into it: each runs its own
// recursive join.
#ifndef WDR_EXEC_PLAN_H_
#define WDR_EXEC_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/batch.h"

namespace wdr::exec {

enum class OpKind : uint8_t {
  kIndexScan,            // leaf: stream a source, emit output columns
  kBoundNestedLoopJoin,  // per input row, probe a source with bound columns
  kHashJoin,             // children = {probe, build}; build side drained first
  kProject,              // reorder/drop columns
  kHashDedup,            // keep the first occurrence of each row
  kLimit,                // skip `offset` rows, pass at most `limit`
};

const char* OpKindName(OpKind kind);

// Process-wide default for query::EvaluatorOptions::plan: true iff the
// environment variable WDR_PLAN is exactly "1" (read once). Lets one CI
// matrix entry run the entire test suite's BGP evaluation through the
// planner while the regular entry keeps the legacy join as reference.
bool PlanModeDefault();

// One position of a source pattern as seen by a scan or bound-loop
// operator.
struct Slot {
  enum class Kind : uint8_t {
    kConst,   // position must equal `value`
    kInput,   // position must equal input column `col` (bound-loop only)
    kOutput,  // position is emitted into output column `col`
    kRange,   // position must lie in [value, value2]; never emitted
  };

  Kind kind = Kind::kConst;
  Value value = 0;
  Value value2 = 0;  // kRange upper bound (inclusive)
  ColId col = kNoColumn;

  static Slot Const(Value v) { return {Kind::kConst, v, 0, kNoColumn}; }
  static Slot Input(ColId c) { return {Kind::kInput, 0, 0, c}; }
  static Slot Output(ColId c) { return {Kind::kOutput, 0, 0, c}; }
  static Slot Range(Value lo, Value hi) {
    return {Kind::kRange, lo, hi, kNoColumn};
  }
};

// How a scan or bound-loop operator matches its source.
struct ScanPattern {
  std::vector<Slot> slots;  // one per source column
  // Output column := constant, applied to every emitted row (projected
  // preset variables, which no pattern position binds).
  std::vector<std::pair<ColId, Value>> presets;
};

struct PlanNode {
  OpKind kind;
  uint32_t width = 0;  // output column count
  std::vector<std::unique_ptr<PlanNode>> children;

  // kIndexScan / kBoundNestedLoopJoin: which TupleSource, and how to match.
  size_t source = 0;
  ScanPattern scan;

  // kHashJoin: equality keys as (probe column, build column) pairs, plus
  // the build columns appended after the probe columns in the output
  // (build key columns are omitted — they duplicate probe columns).
  std::vector<std::pair<ColId, ColId>> keys;
  std::vector<ColId> payload;

  // kProject: output column i reads input column cols[i]; kNoColumn emits
  // the null value 0 (a projected variable the body never binds).
  std::vector<ColId> cols;

  // kLimit.
  size_t limit = SIZE_MAX;
  size_t offset = 0;

  double est_rows = -1;  // planner cardinality estimate; <0 = unknown
  std::string label;     // human-readable operator description

  explicit PlanNode(OpKind k) : kind(k) {}

  // Indented tree with per-operator estimates, for EXPLAIN output.
  std::string Render() const;
};

}  // namespace wdr::exec

#endif  // WDR_EXEC_PLAN_H_
