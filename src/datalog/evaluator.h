#ifndef WDR_DATALOG_EVALUATOR_H_
#define WDR_DATALOG_EVALUATOR_H_

#include <vector>

#include "common/status.h"
#include "datalog/database.h"
#include "datalog/program.h"

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

// Materializes the least fixpoint of `program` (facts + rules).
// The program must Validate(); the two strategies produce identical
// databases (property-tested), differing only in work done.
Result<Database> Materialize(const DlProgram& program, Strategy strategy,
                             EvalStats* stats = nullptr);

// Evaluates a conjunctive query (the `body` atoms, sharing variable ids)
// against a materialized database, returning the distinct projections of
// `projection` variables in lexicographic order. Every projected variable
// must occur in `body`.
Result<std::vector<Tuple>> EvaluateQuery(const DlProgram& program,
                                         const Database& db,
                                         const std::vector<DlAtom>& body,
                                         const std::vector<DlVarId>& projection);

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_EVALUATOR_H_
