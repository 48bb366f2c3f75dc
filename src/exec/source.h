// TupleSource: the seam between physical-plan operators and concrete
// relations. The executor only ever asks a source to (a) estimate how many
// tuples match a partially-bound pattern and (b) stream those tuples.
// StoreSource adapts anything triple-store-shaped (rdf::StoreView,
// rdf::UnionStore); the Datalog layer provides a RelationSource of its own.
#ifndef WDR_EXEC_SOURCE_H_
#define WDR_EXEC_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/batch.h"

namespace wdr::exec {

// Minimal non-owning callable reference, so the per-tuple scan callback
// crosses the virtual TupleSource boundary without a std::function
// allocation. The referenced callable must outlive the call (the executor
// only ever passes stack lambdas down synchronous calls).
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        fn_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return fn_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*fn_)(void*, Args...);
};

// A relation of fixed arity the executor can scan with some columns bound.
// `values`/`bound` are arrays of length arity(); bound[i] != 0 means column
// i must equal values[i] (this is an explicit mask, NOT a 0-sentinel:
// Datalog symbol 0 is a legal constant).
class TupleSource {
 public:
  // Codes of the `bound` mask. Plain Scan/EstimateBound only see kUnbound
  // and kPoint; the *Range entry points add kRange, meaning column i must
  // lie in the inclusive interval [values[i], values_hi[i]] (hierarchy-
  // encoded reformulation compiles subclass closures into such columns).
  static constexpr uint8_t kUnbound = 0;
  static constexpr uint8_t kPoint = 1;
  static constexpr uint8_t kRange = 2;

  virtual ~TupleSource() = default;

  virtual size_t arity() const = 0;

  // Estimated number of matching tuples, for run-time fallback decisions
  // and dedup-set pre-reservation.
  virtual double EstimateBound(const Value* values,
                               const uint8_t* bound) const = 0;

  // Streams every matching tuple to `fn` (argument: arity() values). Stops
  // early when fn returns false; returns false iff it stopped early.
  virtual bool Scan(const Value* values, const uint8_t* bound,
                    FunctionRef<bool(const Value*)> fn) const = 0;

  // Range-aware variants; `bound` may additionally contain kRange. The
  // defaults treat range columns as unbound (estimate) or post-filter them
  // (scan), so sources that cannot seek ranges stay correct; stores with
  // ordered indexes override to push the interval into the scan window.
  virtual double EstimateRange(const Value* values, const Value* values_hi,
                               const uint8_t* bound) const {
    (void)values_hi;
    std::vector<uint8_t> relaxed(bound, bound + arity());
    for (uint8_t& b : relaxed) {
      if (b == kRange) b = kUnbound;
    }
    return EstimateBound(values, relaxed.data());
  }

  virtual bool ScanRange(const Value* values, const Value* values_hi,
                         const uint8_t* bound,
                         FunctionRef<bool(const Value*)> fn) const {
    const size_t n = arity();
    std::vector<uint8_t> relaxed(bound, bound + n);
    bool any_range = false;
    for (uint8_t& b : relaxed) {
      if (b == kRange) {
        b = kUnbound;
        any_range = true;
      }
    }
    if (!any_range) return Scan(values, bound, fn);
    return Scan(values, relaxed.data(), [&](const Value* tuple) {
      for (size_t i = 0; i < n; ++i) {
        if (bound[i] == kRange &&
            (tuple[i] < values[i] || tuple[i] > values_hi[i])) {
          return true;  // outside the interval: skip, keep scanning
        }
      }
      return fn(tuple);
    });
  }
};

// Adapter over any triple-store-shaped type exposing
// EstimateCount(s, p, o) and Match(s, p, o, fn) with kNullTermId (0) as
// the wildcard — rdf::StoreView and rdf::UnionStore both qualify.
template <typename Store>
class StoreSource final : public TupleSource {
 public:
  explicit StoreSource(const Store& store) : store_(&store) {}

  size_t arity() const override { return 3; }

  double EstimateBound(const Value* values,
                       const uint8_t* bound) const override {
    return static_cast<double>(store_->EstimateCount(bound[0] ? values[0] : 0,
                                                     bound[1] ? values[1] : 0,
                                                     bound[2] ? values[2] : 0));
  }

  bool Scan(const Value* values, const uint8_t* bound,
            FunctionRef<bool(const Value*)> fn) const override {
    bool keep = true;
    store_->Match(bound[0] ? values[0] : 0, bound[1] ? values[1] : 0,
                  bound[2] ? values[2] : 0, [&](const auto& t) {
                    Value row[3] = {t.s, t.p, t.o};
                    keep = fn(row);
                    return keep;
                  });
    return keep;
  }

  // Range pushdown: the store seeks the interval as one contiguous index
  // window instead of post-filtering a full-position scan.
  double EstimateRange(const Value* values, const Value* values_hi,
                       const uint8_t* bound) const override {
    return static_cast<double>(store_->EstimateCountRange(
        MakePlan(values, values_hi, bound)));
  }

  bool ScanRange(const Value* values, const Value* values_hi,
                 const uint8_t* bound,
                 FunctionRef<bool(const Value*)> fn) const override {
    bool keep = true;
    store_->MatchPlan(MakePlan(values, values_hi, bound), [&](const auto& t) {
      Value row[3] = {t.s, t.p, t.o};
      keep = fn(row);
      return keep;
    });
    return keep;
  }

 private:
  static auto MakePlan(const Value* values, const Value* values_hi,
                       const uint8_t* bound) {
    auto range = [&](size_t i) {
      typename Store::Range r{};  // default: unconstrained
      if (bound[i] == kPoint) {
        r.lo = r.hi = values[i];
      } else if (bound[i] == kRange) {
        r.lo = values[i];
        r.hi = values_hi[i];
      }
      return r;
    };
    return Store::MakeRangePlan(range(0), range(1), range(2));
  }

  const Store* store_;  // not owned
};

}  // namespace wdr::exec

#endif  // WDR_EXEC_SOURCE_H_
