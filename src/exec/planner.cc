#include "exec/planner.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace wdr::exec {
namespace {

using VarCols = std::unordered_map<uint32_t, ColId>;
using PresetMap = std::unordered_map<uint32_t, Value>;

// True when some variable of the conjunct is already bound upstream.
bool Connected(const PlanConjunct& conjunct, const VarCols& bound) {
  for (const AtomTerm& term : conjunct.terms) {
    if (term.kind == AtomTerm::Kind::kVar && bound.count(term.var) != 0) {
      return true;
    }
  }
  return false;
}

// Estimated matches of a conjunct given the currently bound variables.
// Presets count as known constants, pipeline-bound variables as
// run-time-bound, everything else as wild.
double ConjunctEstimate(const PlanConjunct& conjunct,
                        const CardinalityEstimator& estimator,
                        const PresetMap& presets, const VarCols& bound) {
  const size_t arity = conjunct.terms.size();
  std::vector<Value> values(arity, 0);
  std::vector<Value> values_hi(arity, 0);
  std::vector<uint8_t> modes(arity, CardinalityEstimator::kWild);
  for (size_t i = 0; i < arity; ++i) {
    const AtomTerm& term = conjunct.terms[i];
    switch (term.kind) {
      case AtomTerm::Kind::kConst:
        values[i] = term.value;
        modes[i] = CardinalityEstimator::kConst;
        break;
      case AtomTerm::Kind::kVar: {
        auto preset = presets.find(term.var);
        if (preset != presets.end()) {
          values[i] = preset->second;
          modes[i] = CardinalityEstimator::kConst;
        } else if (bound.count(term.var) != 0) {
          modes[i] = CardinalityEstimator::kRuntime;
        }
        break;
      }
      case AtomTerm::Kind::kRange:
        values[i] = term.value;
        values_hi[i] = term.value2;
        modes[i] = CardinalityEstimator::kRange;
        break;
    }
  }
  return estimator.Estimate(conjunct.source, values.data(), values_hi.data(),
                            modes.data(), arity);
}

// Positions the conjunct leaves unbound — the bound-first ranking signal
// of the degraded path.
size_t UnboundPositions(const PlanConjunct& conjunct, const PresetMap& presets,
                        const VarCols& bound) {
  size_t unbound = 0;
  for (const AtomTerm& term : conjunct.terms) {
    // kConst and kRange positions are constrained by the pattern itself
    // and never count as unbound.
    if (term.kind == AtomTerm::Kind::kVar && presets.count(term.var) == 0 &&
        bound.count(term.var) == 0) {
      ++unbound;
    }
  }
  return unbound;
}

// Lowers one conjunct into the scan pattern of a scan or bound-loop node.
// `base_col` is the first output column this node may assign (0 for a leaf
// scan or a hash-join build side, the input width for a bound loop);
// `var_col` maps upstream-bound variables (inputs for a bound loop; empty
// for leaves). Newly bound variables are appended to `produced` in
// first-appearance order. `extra_presets` materializes preset variables as
// constant columns (only used on the plan's first node, for projected
// presets).
struct LoweredConjunct {
  ScanPattern scan;
  std::vector<std::pair<uint32_t, ColId>> produced;  // var → new column
};

LoweredConjunct LowerConjunct(
    const PlanConjunct& conjunct, ColId base_col, const VarCols& var_col,
    const PresetMap& presets,
    const std::vector<std::pair<uint32_t, Value>>& extra_presets) {
  LoweredConjunct out;
  VarCols new_cols;
  ColId next = base_col;
  auto col_of_new = [&](uint32_t var) {
    auto it = new_cols.find(var);
    if (it != new_cols.end()) return it->second;
    const ColId col = next++;
    new_cols.emplace(var, col);
    out.produced.emplace_back(var, col);
    return col;
  };
  out.scan.slots.reserve(conjunct.terms.size());
  for (const AtomTerm& term : conjunct.terms) {
    switch (term.kind) {
      case AtomTerm::Kind::kConst:
        out.scan.slots.push_back(Slot::Const(term.value));
        break;
      case AtomTerm::Kind::kVar: {
        auto preset = presets.find(term.var);
        if (preset != presets.end()) {
          out.scan.slots.push_back(Slot::Const(preset->second));
        } else if (auto it = var_col.find(term.var); it != var_col.end()) {
          out.scan.slots.push_back(Slot::Input(it->second));
        } else {
          out.scan.slots.push_back(Slot::Output(col_of_new(term.var)));
        }
        break;
      }
      case AtomTerm::Kind::kRange:
        out.scan.slots.push_back(Slot::Range(term.value, term.value2));
        break;
    }
  }
  for (const auto& [var, value] : extra_presets) {
    out.scan.presets.emplace_back(col_of_new(var), value);
  }
  return out;
}

}  // namespace

double StatisticsEstimator::Estimate(size_t /*source*/, const Value* values,
                                     const Value* values_hi,
                                     const uint8_t* modes,
                                     size_t /*arity*/) const {
  auto mode = [](uint8_t m) {
    switch (m) {
      case CardinalityEstimator::kConst:
        return BoundMode::kConst;
      case CardinalityEstimator::kRuntime:
        return BoundMode::kRuntime;
      case CardinalityEstimator::kRange:
        return BoundMode::kRange;
      default:
        return BoundMode::kWild;
    }
  };
  auto hi = [&](size_t i) {
    return modes[i] == CardinalityEstimator::kRange ? values_hi[i] : values[i];
  };
  return stats_->EstimateRange(mode(modes[0]), mode(modes[1]), values[1],
                               hi(1), mode(modes[2]), values[2], hi(2));
}

CompiledPlan PlanConjunctive(const ConjunctiveSpec& spec,
                             const PlannerOptions& options) {
  CompiledPlan compiled;
  if (spec.conjuncts.empty() || options.estimator == nullptr) return compiled;
  const CardinalityEstimator& estimator = *options.estimator;

  PresetMap presets;
  for (const auto& [var, value] : spec.presets) presets.emplace(var, value);
  // Projected preset variables must be materialized as columns; the
  // plan's first node emits them as per-row constants.
  std::vector<std::pair<uint32_t, Value>> projected_presets;
  for (uint32_t var : spec.projection) {
    auto it = presets.find(var);
    if (it == presets.end()) continue;
    bool already = false;
    for (const auto& [pvar, pvalue] : projected_presets) {
      (void)pvalue;
      if (pvar == var) already = true;
    }
    if (!already) projected_presets.emplace_back(var, it->second);
  }

  const size_t n = spec.conjuncts.size();
  std::vector<bool> placed(n, false);
  VarCols var_col;
  std::unique_ptr<PlanNode> root;
  double current_est = -1;

  // Solo (nothing bound) estimates drive both the first pick and the
  // hash-join build-side cost.
  std::vector<double> solo(n, 0);
  for (size_t i = 0; i < n; ++i) {
    solo[i] = ConjunctEstimate(spec.conjuncts[i], estimator, presets, {});
  }

  for (size_t step = 0; step < n; ++step) {
    // --- Pick the next conjunct. ---------------------------------------
    size_t pick = n;
    double pick_probe = -1;
    bool pick_connected = false;
    if (root == nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (pick == n || solo[i] < solo[pick]) pick = i;
      }
    } else if (options.cost_based) {
      double best_out = 0;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        const bool connected = Connected(spec.conjuncts[i], var_col);
        const double probe = connected
                                 ? ConjunctEstimate(spec.conjuncts[i],
                                                    estimator, presets, var_col)
                                 : solo[i];
        const double out_est = current_est * probe;
        // Prefer any connected conjunct over a cartesian product.
        const bool better =
            pick == n || (connected && !pick_connected) ||
            (connected == pick_connected && out_est < best_out);
        if (better) {
          pick = i;
          best_out = out_est;
          pick_probe = probe;
          pick_connected = connected;
        }
      }
    } else {
      // Degraded path: greedy bound-first — prefer connected conjuncts
      // with the fewest unbound positions, then the smallest solo
      // estimate, then written order.
      size_t best_unbound = 0;
      double best_solo = 0;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        const bool connected = Connected(spec.conjuncts[i], var_col);
        const size_t unbound =
            UnboundPositions(spec.conjuncts[i], presets, var_col);
        const bool better =
            pick == n || (connected && !pick_connected) ||
            (connected == pick_connected &&
             (unbound < best_unbound ||
              (unbound == best_unbound && solo[i] < best_solo)));
        if (better) {
          pick = i;
          best_unbound = unbound;
          best_solo = solo[i];
          pick_connected = connected;
        }
      }
    }
    const PlanConjunct& conjunct = spec.conjuncts[pick];
    placed[pick] = true;

    // --- Build the operator. -------------------------------------------
    if (root == nullptr) {
      LoweredConjunct lowered =
          LowerConjunct(conjunct, 0, {}, presets, projected_presets);
      auto node = std::make_unique<PlanNode>(OpKind::kIndexScan);
      node->source = conjunct.source;
      node->scan = std::move(lowered.scan);
      node->width = static_cast<uint32_t>(lowered.produced.size());
      node->est_rows = solo[pick];
      node->label = conjunct.label;
      for (const auto& [var, col] : lowered.produced) var_col[var] = col;
      root = std::move(node);
      current_est = solo[pick];
      continue;
    }

    const uint32_t in_width = root->width;
    // Hash join when the one-off build of the right side is cheaper than
    // an index seek per outer row. Requires at least one equality key.
    bool use_hash = false;
    if (options.cost_based && options.hash_joins && pick_connected) {
      const double bnl_cost =
          current_est * (options.index_seek_cost + pick_probe);
      const double hash_cost = options.hash_build_cost * solo[pick] +
                               current_est * (1.0 + pick_probe);
      use_hash = hash_cost < bnl_cost;
    }

    if (use_hash) {
      // Build side: an independent leaf scan of the conjunct; shared
      // variables become build columns paired with their probe columns.
      LoweredConjunct lowered = LowerConjunct(conjunct, 0, {}, presets, {});
      auto build = std::make_unique<PlanNode>(OpKind::kIndexScan);
      build->source = conjunct.source;
      build->scan = std::move(lowered.scan);
      build->width = static_cast<uint32_t>(lowered.produced.size());
      build->est_rows = solo[pick];
      build->label = conjunct.label;

      auto join = std::make_unique<PlanNode>(OpKind::kHashJoin);
      for (const auto& [var, col] : lowered.produced) {
        auto it = var_col.find(var);
        if (it != var_col.end()) {
          join->keys.emplace_back(it->second, col);
        } else {
          join->payload.push_back(col);
        }
      }
      if (join->keys.empty()) {
        // No shared column surfaced (the only shared variable is a
        // projected preset, which scans as a constant): fall back to a
        // bound loop below.
        use_hash = false;
      } else {
        ColId out_col = in_width;
        for (const auto& [var, col] : lowered.produced) {
          if (var_col.count(var) != 0) continue;
          var_col[var] = out_col++;
        }
        join->width = in_width + static_cast<uint32_t>(join->payload.size());
        join->est_rows = current_est * pick_probe;
        join->label = "hash_join[" + conjunct.label + "]";
        join->children.push_back(std::move(root));
        join->children.push_back(std::move(build));
        root = std::move(join);
        compiled.used_hash_join = true;
      }
    }
    if (!use_hash) {
      LoweredConjunct lowered =
          LowerConjunct(conjunct, in_width, var_col, presets, {});
      auto node = std::make_unique<PlanNode>(OpKind::kBoundNestedLoopJoin);
      node->source = conjunct.source;
      node->scan = std::move(lowered.scan);
      node->width = in_width + static_cast<uint32_t>(lowered.produced.size());
      node->est_rows =
          options.cost_based && pick_probe >= 0 ? current_est * pick_probe : -1;
      node->label = "bound_loop[" + conjunct.label + "]";
      for (const auto& [var, col] : lowered.produced) var_col[var] = col;
      node->children.push_back(std::move(root));
      root = std::move(node);
    }
    if (options.cost_based) {
      current_est *= pick_probe >= 0 ? pick_probe : solo[pick];
    }
  }

  if (!options.cost_based) current_est = -1;

  // --- Projection / dedup / limit tail. --------------------------------
  auto project = std::make_unique<PlanNode>(OpKind::kProject);
  project->width = static_cast<uint32_t>(spec.projection.size());
  for (uint32_t var : spec.projection) {
    auto it = var_col.find(var);
    project->cols.push_back(it == var_col.end() ? kNoColumn : it->second);
  }
  project->est_rows = current_est;
  project->label = "project";
  project->children.push_back(std::move(root));
  root = std::move(project);

  if (spec.distinct) {
    auto dedup = std::make_unique<PlanNode>(OpKind::kHashDedup);
    dedup->width = root->width;
    dedup->est_rows = current_est;
    dedup->label = "dedup";
    dedup->children.push_back(std::move(root));
    root = std::move(dedup);
  }
  if (spec.limit != SIZE_MAX || spec.offset != 0) {
    auto limit = std::make_unique<PlanNode>(OpKind::kLimit);
    limit->width = root->width;
    limit->limit = spec.limit;
    limit->offset = spec.offset;
    limit->est_rows = current_est < 0
                          ? -1
                          : std::min(current_est,
                                     static_cast<double>(
                                         spec.limit == SIZE_MAX
                                             ? std::numeric_limits<
                                                   double>::max()
                                             : static_cast<double>(spec.limit)));
    limit->label = "limit";
    limit->children.push_back(std::move(root));
    root = std::move(limit);
  }

  compiled.root = std::move(root);
  compiled.est_rows = current_est;
  return compiled;
}

}  // namespace wdr::exec
