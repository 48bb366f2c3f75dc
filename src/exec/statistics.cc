#include "exec/statistics.h"

#include <algorithm>

namespace wdr::exec {
namespace {

double PerPredicate(const PredicateStats& ps, bool s_bound, bool o_bound) {
  double est = static_cast<double>(ps.count);
  if (s_bound) est /= static_cast<double>(std::max<uint64_t>(1, ps.distinct_subjects));
  if (o_bound) est /= static_cast<double>(std::max<uint64_t>(1, ps.distinct_objects));
  return est;
}

}  // namespace

double Statistics::Estimate(BoundMode s, BoundMode p, Value p_value,
                            BoundMode o) const {
  const bool s_bound = s != BoundMode::kWild;
  const bool o_bound = o != BoundMode::kWild;
  if (p == BoundMode::kConst) {
    const PredicateStats* ps = Predicate(p_value);
    return ps == nullptr ? 0.0 : PerPredicate(*ps, s_bound, o_bound);
  }
  double total = 0;
  for (const auto& [pred, ps] : preds_) {
    total += PerPredicate(ps, s_bound, o_bound);
  }
  if (p == BoundMode::kRuntime && !preds_.empty()) {
    total /= static_cast<double>(preds_.size());
  }
  return total;
}

double Statistics::ObjectRangeEstimate(const PredicateStats& ps, Value lo,
                                       Value hi) {
  if (ps.obj_hist.empty() || hi < ps.obj_min || lo > ps.obj_max || hi < lo) {
    return 0.0;
  }
  const double clip_lo = std::max<double>(lo, ps.obj_min);
  const double clip_hi = std::min<double>(hi, ps.obj_max);
  const double width = static_cast<double>(ps.obj_max) - ps.obj_min + 1;
  const double bucket_w = width / static_cast<double>(ps.obj_hist.size());
  double distinct_in = 0;
  for (size_t b = 0; b < ps.obj_hist.size(); ++b) {
    if (ps.obj_hist[b] == 0) continue;
    const double b_lo = static_cast<double>(ps.obj_min) + bucket_w * b;
    const double b_hi = b_lo + bucket_w;
    const double overlap =
        std::min(clip_hi + 1, b_hi) - std::max(clip_lo, b_lo);
    if (overlap <= 0) continue;
    distinct_in += ps.obj_hist[b] * std::min(1.0, overlap / bucket_w);
  }
  // In-range distinct objects times the average multiplicity per object.
  return distinct_in * static_cast<double>(ps.count) /
         static_cast<double>(std::max<uint64_t>(1, ps.distinct_objects));
}

double Statistics::EstimateRange(BoundMode s, BoundMode p, Value p_lo,
                                 Value p_hi, BoundMode o, Value o_lo,
                                 Value o_hi) const {
  // kRange subjects price as wild: there is no subject histogram, and
  // over-estimating keeps the planner conservative.
  const bool s_bound = s == BoundMode::kConst || s == BoundMode::kRuntime;
  const bool o_point = o == BoundMode::kConst || o == BoundMode::kRuntime;
  auto per_pred = [&](const PredicateStats& ps) {
    double est;
    if (o == BoundMode::kRange) {
      est = ObjectRangeEstimate(ps, o_lo, o_hi);
    } else {
      est = static_cast<double>(ps.count);
      if (o_point) {
        est /= static_cast<double>(
            std::max<uint64_t>(1, ps.distinct_objects));
      }
    }
    if (s_bound) {
      est /= static_cast<double>(
          std::max<uint64_t>(1, ps.distinct_subjects));
    }
    return est;
  };
  if (p == BoundMode::kConst) {
    const PredicateStats* ps = Predicate(p_lo);
    return ps == nullptr ? 0.0 : per_pred(*ps);
  }
  if (p == BoundMode::kRange) {
    double total = 0;
    for (const auto& [pred, ps] : preds_) {
      if (pred >= p_lo && pred <= p_hi) total += per_pred(ps);
    }
    return total;
  }
  double total = 0;
  for (const auto& [pred, ps] : preds_) total += per_pred(ps);
  if (p == BoundMode::kRuntime && !preds_.empty()) {
    total /= static_cast<double>(preds_.size());
  }
  return total;
}

}  // namespace wdr::exec
