// Cost-based planner over conjunctive specs. Its client, BGP evaluation
// in query::Evaluator, describes a conjunction of atoms, each one pattern
// over some TupleSource, and gets back a physical plan: join order chosen
// greedily by estimated output cardinality, join algorithm chosen per step
// (hash join when building the right side once beats re-seeking the index
// per outer row, bound-first index lookup otherwise). When statistics are
// missing or stale the planner degrades to the legacy greedy bound-first
// order with nested loops only.
#ifndef WDR_EXEC_PLANNER_H_
#define WDR_EXEC_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/batch.h"
#include "exec/plan.h"
#include "exec/statistics.h"

namespace wdr::exec {

// Planning-time atom position: a constant, a variable (identified by an
// arbitrary caller-chosen key), or an inclusive id range (hierarchy-encoded
// reformulation; range positions bind nothing).
struct AtomTerm {
  enum class Kind : uint8_t { kConst, kVar, kRange };
  Kind kind = Kind::kConst;
  Value value = 0;
  Value value2 = 0;  // kRange upper bound (inclusive)
  uint32_t var = 0;

  static AtomTerm Const(Value v) { return {Kind::kConst, v, 0, 0}; }
  static AtomTerm Var(uint32_t v) { return {Kind::kVar, 0, 0, v}; }
  static AtomTerm Range(Value lo, Value hi) {
    return {Kind::kRange, lo, hi, 0};
  }
};

struct PlanConjunct {
  size_t source = 0;            // TupleSource index at execution time
  std::vector<AtomTerm> terms;  // one per source column
  std::string label;            // operator label, e.g. "scan(?x type C)"
};

struct ConjunctiveSpec {
  std::vector<PlanConjunct> conjuncts;
  // Variables fixed to constants before evaluation (query presets).
  std::vector<std::pair<uint32_t, Value>> presets;
  // Output columns, by variable key. A variable bound nowhere projects the
  // null value 0.
  std::vector<uint32_t> projection;
  bool distinct = false;
  size_t limit = SIZE_MAX;
  size_t offset = 0;
};

// Cardinality oracle the planner consults. `modes[i]` uses the
// CardinalityEstimator::k* constants below.
class CardinalityEstimator {
 public:
  static constexpr uint8_t kWild = 0;     // unconstrained
  static constexpr uint8_t kConst = 1;    // bound to values[i]
  static constexpr uint8_t kRuntime = 2;  // bound to an unknown run-time value
  static constexpr uint8_t kRange = 3;    // in [values[i], values_hi[i]]

  virtual ~CardinalityEstimator() = default;
  // `values_hi` holds the upper bounds of kRange positions (may be null
  // when no position is kRange).
  virtual double Estimate(size_t source, const Value* values,
                          const Value* values_hi, const uint8_t* modes,
                          size_t arity) const = 0;
};

// Statistics-backed estimator for triple-shaped sources (arity 3,
// predicate in the middle).
class StatisticsEstimator final : public CardinalityEstimator {
 public:
  explicit StatisticsEstimator(const Statistics& stats) : stats_(&stats) {}
  double Estimate(size_t source, const Value* values, const Value* values_hi,
                  const uint8_t* modes, size_t arity) const override;

 private:
  const Statistics* stats_;
};

// Store-backed estimator for the degraded path: run-time-bound positions
// are treated as wild (the store cannot price an unknown value), which
// over-estimates — exactly the conservative direction the greedy
// bound-first fallback wants.
template <typename Store>
class StoreEstimator final : public CardinalityEstimator {
 public:
  explicit StoreEstimator(const Store& store) : store_(&store) {}
  double Estimate(size_t /*source*/, const Value* values,
                  const Value* values_hi, const uint8_t* modes,
                  size_t /*arity*/) const override {
    bool any_range = false;
    for (size_t i = 0; i < 3; ++i) any_range |= modes[i] == kRange;
    if (any_range) {
      // Push the interval into the store's range estimate when the store
      // supports it; otherwise a range position prices as wild below
      // (over-estimating, the conservative direction).
      if constexpr (requires(const Store& s, typename Store::Range r) {
                      s.EstimateCountRange(Store::MakeRangePlan(r, r, r));
                    }) {
        auto range = [&](size_t i) {
          typename Store::Range r{};
          if (modes[i] == kConst) {
            r.lo = r.hi = values[i];
          } else if (modes[i] == kRange) {
            r.lo = values[i];
            r.hi = values_hi[i];
          }
          return r;
        };
        return static_cast<double>(store_->EstimateCountRange(
            Store::MakeRangePlan(range(0), range(1), range(2))));
      }
    }
    return static_cast<double>(store_->EstimateCount(
        modes[0] == kConst ? values[0] : 0, modes[1] == kConst ? values[1] : 0,
        modes[2] == kConst ? values[2] : 0));
  }

 private:
  const Store* store_;
};

struct PlannerOptions {
  const CardinalityEstimator* estimator = nullptr;  // required
  // Cost-based mode: order by estimated output cardinality and pick hash
  // joins where they win. Off → greedy bound-first order, nested loops
  // only (the degraded path for empty/stale statistics).
  bool cost_based = true;
  bool hash_joins = true;
  // Relative cost constants: one hash-table insert per build row, and one
  // index seek per outer row of a bound nested loop (an index seek is a
  // few binary-search probes; a hash probe is the unit).
  double hash_build_cost = 1.5;
  double index_seek_cost = 4.0;
};

struct CompiledPlan {
  std::unique_ptr<PlanNode> root;  // null when the spec has no conjuncts
  double est_rows = -1;            // pre-dedup root estimate; <0 = unknown
  bool used_hash_join = false;
};

CompiledPlan PlanConjunctive(const ConjunctiveSpec& spec,
                             const PlannerOptions& options);

}  // namespace wdr::exec

#endif  // WDR_EXEC_PLANNER_H_
