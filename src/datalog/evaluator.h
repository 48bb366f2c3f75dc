#ifndef WDR_DATALOG_EVALUATOR_H_
#define WDR_DATALOG_EVALUATOR_H_

#include <vector>

#include "common/status.h"
#include "datalog/database.h"
#include "datalog/program.h"
#include "exec/plan.h"

namespace wdr::datalog {

// Bottom-up evaluation strategy.
enum class Strategy {
  // Re-evaluates every rule against the whole database each round.
  kNaive,
  // Each round restricts one body atom to the tuples derived in the
  // previous round (the textbook optimization the paper's [29] builds on).
  kSemiNaive,
};

struct EvalStats {
  size_t iterations = 0;
  size_t derived_tuples = 0;  // beyond the initial facts
  size_t rule_evaluations = 0;
};

// Knobs for the wdr::exec physical-plan route through rule-body joins.
struct BodyPlanOptions {
  bool hash_joins = true;
  size_t batch_rows = 1024;
};

// Full materialization configuration. `plan` compiles each rule-body join
// into the shared wdr::exec physical-plan IR — cost-based join order and
// join algorithm from live relation statistics (sizes and per-column
// distinct counts are maintained by Relation inserts, so the estimator is
// never stale) — instead of the recursive per-binding BodyJoin. Both
// routes derive the same database (property-tested differentially).
// WDR_PLAN=1 in the environment flips the `plan` default on.
struct MaterializeOptions {
  Strategy strategy = Strategy::kSemiNaive;
  bool plan = exec::PlanModeDefault();
  BodyPlanOptions plan_options;
};

Result<Database> MaterializeWithOptions(const DlProgram& program,
                                        const MaterializeOptions& options,
                                        EvalStats* stats = nullptr);

// Materializes the least fixpoint of `program` (facts + rules).
// The program must Validate(); the two strategies produce identical
// databases (property-tested), differing only in work done.
Result<Database> Materialize(const DlProgram& program, Strategy strategy,
                             EvalStats* stats = nullptr);

// Evaluates a conjunctive query (the `body` atoms, sharing variable ids)
// against a materialized database, returning the distinct projections of
// `projection` variables. Every projected variable must occur in `body`.
// When `plan` is non-null the body runs through a wdr::exec physical plan
// (cost-based over live relation statistics); answers are identical.
Result<std::vector<Tuple>> EvaluateQuery(const DlProgram& program,
                                         const Database& db,
                                         const std::vector<DlAtom>& body,
                                         const std::vector<DlVarId>& projection,
                                         const BodyPlanOptions* plan = nullptr);

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_EVALUATOR_H_
