// Per-predicate cardinality statistics over a triple store, feeding the
// cost-based planner: triple count plus distinct subject/object counts per
// predicate give selectivities for every bound/wild combination of a
// triple pattern. Built in one O(store) pass; staleness is detected by
// comparing total_triples() against the live store size.
#ifndef WDR_EXEC_STATISTICS_H_
#define WDR_EXEC_STATISTICS_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/batch.h"

namespace wdr::exec {

// Buckets of the per-predicate object histogram backing range estimates.
inline constexpr size_t kObjectHistogramBuckets = 64;

struct PredicateStats {
  uint64_t count = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
  // Equi-width histogram of the predicate's distinct object ids over
  // [obj_min, obj_max], for pricing id-range constraints (hierarchy-
  // encoded reformulation scans object intervals).
  Value obj_min = 0;
  Value obj_max = 0;
  std::vector<uint32_t> obj_hist;  // empty until built
};

// How a pattern position is constrained when asking for an estimate.
enum class BoundMode : uint8_t {
  kWild,     // unconstrained
  kConst,    // bound to a known constant
  kRuntime,  // bound at run time to a value unknown while planning
  kRange,    // bound to an inclusive id interval known while planning
};

class Statistics {
 public:
  Statistics() = default;

  // One pass over any store exposing Match(s, p, o, fn) with 0-wildcards
  // (rdf::StoreView, rdf::UnionStore).
  template <typename Store>
  static Statistics Build(const Store& store) {
    Statistics stats;
    std::unordered_map<Value, std::pair<std::unordered_set<Value>,
                                        std::unordered_set<Value>>>
        distinct;
    store.Match(0, 0, 0, [&](const auto& t) {
      ++stats.total_;
      ++stats.preds_[t.p].count;
      auto& [subjects, objects] = distinct[t.p];
      subjects.insert(t.s);
      objects.insert(t.o);
      return true;
    });
    for (auto& [p, sets] : distinct) {
      PredicateStats& ps = stats.preds_[p];
      ps.distinct_subjects = sets.first.size();
      ps.distinct_objects = sets.second.size();
      // Object histogram: distinct ids per equi-width bucket. Range
      // estimates scale the in-range distinct count by the predicate's
      // average object multiplicity (count / distinct_objects).
      const auto& objs = sets.second;
      if (objs.empty()) continue;
      Value mn = *objs.begin();
      Value mx = mn;
      for (Value v : objs) {
        if (v < mn) mn = v;
        if (v > mx) mx = v;
      }
      ps.obj_min = mn;
      ps.obj_max = mx;
      ps.obj_hist.assign(kObjectHistogramBuckets, 0);
      const double width = static_cast<double>(mx) - mn + 1;
      for (Value v : objs) {
        auto b = static_cast<size_t>((static_cast<double>(v) - mn) / width *
                                     kObjectHistogramBuckets);
        if (b >= kObjectHistogramBuckets) b = kObjectHistogramBuckets - 1;
        ++ps.obj_hist[b];
      }
    }
    return stats;
  }

  uint64_t total_triples() const { return total_; }
  bool empty() const { return total_ == 0; }
  size_t distinct_predicates() const { return preds_.size(); }

  const PredicateStats* Predicate(Value p) const {
    auto it = preds_.find(p);
    return it == preds_.end() ? nullptr : &it->second;
  }

  // Estimated matches of a triple pattern. Only the predicate's *value*
  // matters (statistics are per-predicate): a kConst predicate selects its
  // bucket, kRuntime averages over buckets, kWild sums them. Subject and
  // object positions contribute 1/distinct selectivity when bound, whether
  // the value is known or not.
  double Estimate(BoundMode s, BoundMode p, Value p_value, BoundMode o) const;

  // Range-aware form: a kRange predicate sums the buckets with keys in
  // [p_lo, p_hi]; a kRange object prices the interval against the
  // predicate's object histogram. A kRange subject degrades to wild (no
  // subject histogram — conservative). The point/wild modes reduce to
  // Estimate's behaviour exactly.
  double EstimateRange(BoundMode s, BoundMode p, Value p_lo, Value p_hi,
                       BoundMode o, Value o_lo, Value o_hi) const;

  // Estimated triples with predicate stats `ps` and object in [lo, hi].
  static double ObjectRangeEstimate(const PredicateStats& ps, Value lo,
                                    Value hi);

 private:
  uint64_t total_ = 0;
  std::unordered_map<Value, PredicateStats> preds_;
};

}  // namespace wdr::exec

#endif  // WDR_EXEC_STATISTICS_H_
