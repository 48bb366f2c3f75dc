// TupleSource: the seam between physical-plan operators and concrete
// relations. The executor only ever asks a source to stream the tuples
// that match a partially-bound pattern; cardinality estimates come from
// the planner's CardinalityEstimator instead. query::Evaluator's
// CachedStoreSource adapts a triple store (routed through its ScanCache).
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
// i must equal values[i] (an explicit mask, not a 0-sentinel).
class TupleSource {
 public:
  // Codes of the `bound` mask. Plain Scan only sees kUnbound and kPoint;
  // ScanRange adds kRange, meaning column i must
  // lie in the inclusive interval [values[i], values_hi[i]] (hierarchy-
  // encoded reformulation compiles subclass closures into such columns).
  static constexpr uint8_t kUnbound = 0;
  static constexpr uint8_t kPoint = 1;
  static constexpr uint8_t kRange = 2;

  virtual ~TupleSource() = default;

  virtual size_t arity() const = 0;

  // Streams every matching tuple to `fn` (argument: arity() values). Stops
  // early when fn returns false; returns false iff it stopped early.
  virtual bool Scan(const Value* values, const uint8_t* bound,
                    FunctionRef<bool(const Value*)> fn) const = 0;

  // Range-aware variant; `bound` may additionally contain kRange. The
  // default post-filters range columns, so sources that cannot seek ranges
  // stay correct; stores with ordered indexes override to push the
  // interval into the scan window.
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

}  // namespace wdr::exec

#endif  // WDR_EXEC_SOURCE_H_
