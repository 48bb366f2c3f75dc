#ifndef WDR_RDF_STORE_VIEW_H_
#define WDR_RDF_STORE_VIEW_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "rdf/triple.h"

namespace wdr::rdf {

// The three index orders every backend maintains. With a wildcard-free
// prefix convention, these cover every triple-pattern shape with a
// contiguous range scan:
//   SPO: (s ? ?), (s p ?), (s p o)
//   POS: (? p ?), (? p o)
//   OSP: (? ? o), (s ? o) -- via SPO prefix on s, filtering o
enum class IndexOrder { kSpo = 0, kPos = 1, kOsp = 2 };

inline constexpr int kIndexOrderCount = 3;

// Index keys are permuted triples so lexicographic order on the permuted
// components matches the index order.
inline Triple PermuteKey(const Triple& t, IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return t;
    case IndexOrder::kPos:
      return Triple(t.p, t.o, t.s);
    case IndexOrder::kOsp:
      return Triple(t.o, t.s, t.p);
  }
  return t;
}

inline Triple UnpermuteKey(const Triple& k, IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return k;
    case IndexOrder::kPos:
      return Triple(k.o, k.s, k.p);  // key = (p,o,s)
    case IndexOrder::kOsp:
      return Triple(k.p, k.o, k.s);  // key = (o,s,p)
  }
  return k;
}

// An inclusive term-id interval. Default-constructed it matches every id
// (wildcard); Point(id) matches exactly one. Ranges are how the
// hierarchy-aware (LiteMat-style) encoding expresses "any subclass of c" as
// a single constraint: after the encoding pass a subclass closure occupies
// one contiguous id interval, so the UCQ over it collapses to a range scan.
struct TermRange {
  static constexpr TermId kMaxId = std::numeric_limits<TermId>::max();

  TermId lo = 0;
  TermId hi = kMaxId;

  static constexpr TermRange Any() { return TermRange{}; }
  static constexpr TermRange Point(TermId id) { return TermRange{id, id}; }
  // The kNullTermId-as-wildcard pattern convention of Match/Count.
  static constexpr TermRange Pattern(TermId id) {
    return id == kNullTermId ? Any() : Point(id);
  }

  constexpr bool is_point() const { return lo == hi; }
  constexpr bool is_any() const { return lo == 0 && hi == kMaxId; }
  constexpr bool Contains(TermId id) const { return lo <= id && id <= hi; }

  friend constexpr bool operator==(const TermRange&, const TermRange&) =
      default;
};

// A compiled triple-pattern scan: which index to use plus the per-position
// constraints, each an inclusive range (points and wildcards are the
// special cases). The scanned key window is the component-wise [lo, hi]
// box permuted into index order; any matching key k satisfies
// (a.lo, b.lo, c.lo) <= k <= (a.hi, b.hi, c.hi) lexicographically (by
// induction on components), so the window is a superset of the matches and
// PassesFilter removes the rest.
struct ScanPlan {
  IndexOrder order = IndexOrder::kSpo;
  TermRange s, p, o;

  bool PassesFilter(const Triple& t) const {
    return s.Contains(t.s) && p.Contains(t.p) && o.Contains(t.o);
  }

  // Inclusive key-space bounds of the scanned window (permuted components).
  void KeyBounds(Triple* lo, Triple* hi) const {
    *lo = PermuteKey(Triple(s.lo, p.lo, o.lo), order);
    *hi = PermuteKey(Triple(s.hi, p.hi, o.hi), order);
  }

  // Per-position ranges in permuted (key-component) order.
  void PermutedRanges(TermRange out[3]) const {
    switch (order) {
      case IndexOrder::kSpo:
        out[0] = s, out[1] = p, out[2] = o;
        return;
      case IndexOrder::kPos:
        out[0] = p, out[1] = o, out[2] = s;
        return;
      case IndexOrder::kOsp:
        out[0] = o, out[1] = s, out[2] = p;
        return;
    }
  }

  // True when the key window contains exactly the matches (no residual
  // filtering): every permuted component after the first non-point one is
  // unconstrained. Closed-form range counting is valid exactly then.
  bool Exact() const {
    TermRange key[3];
    PermutedRanges(key);
    int i = 0;
    while (i < 3 && key[i].is_point()) ++i;
    for (int j = i + 1; j < 3; ++j) {
      if (!key[j].is_any()) return false;
    }
    return true;
  }
};

// Chooses the index for a per-position range pattern: the index whose
// leading key component is a point, preferring s, then p, then o (the
// (s ? o) shape scans the SPO s-prefix with an o filter, typically smaller
// than the OSP o-prefix); with no point available, the index led by the
// narrowest-available constrained component, so a range-encoded
// (? type [lo,hi]) pattern becomes one contiguous POS window.
inline ScanPlan PlanRangeScan(const TermRange& s, const TermRange& p,
                              const TermRange& o) {
  ScanPlan plan;
  plan.s = s;
  plan.p = p;
  plan.o = o;
  if (s.is_point()) {
    plan.order = IndexOrder::kSpo;
  } else if (p.is_point()) {
    plan.order = IndexOrder::kPos;
  } else if (o.is_point()) {
    plan.order = IndexOrder::kOsp;
  } else if (!s.is_any()) {
    plan.order = IndexOrder::kSpo;
  } else if (!p.is_any()) {
    plan.order = IndexOrder::kPos;
  } else {
    plan.order = o.is_any() ? IndexOrder::kSpo : IndexOrder::kOsp;
  }
  return plan;
}

// Point/wildcard pattern convenience (kNullTermId = wildcard).
inline ScanPlan PlanScan(TermId s, TermId p, TermId o) {
  return PlanRangeScan(TermRange::Pattern(s), TermRange::Pattern(p),
                       TermRange::Pattern(o));
}

// Pull-style iterator over the matches of one triple-pattern scan.
// Triples are produced in the scan's index order. Cursors must not outlive
// the store they scan; mutating the store mid-scan follows the same
// guarantees as iterating a std::set (triples inserted during the scan may
// or may not be visited; the scanned store must not be cleared/compacted).
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;

  // Copies up to `cap` next matches into `out` and returns the number
  // copied; 0 means the scan is exhausted.
  virtual size_t NextBatch(Triple* out, size_t cap) = 0;

  // Skips forward to the first remaining match >= `key` (given in s/p/o
  // space, compared in the scan's permutation order). Never moves backward.
  virtual void SeekAtLeast(const Triple& key) = 0;
};

// Fixed-capacity slot a backend placement-news its cursor into, so opening
// a scan performs no heap allocation (scans are the innermost operation of
// every join and every rule application).
class ScanHandle {
 public:
  static constexpr size_t kInlineBytes = 160;

  ScanHandle() = default;
  ~ScanHandle() { Reset(); }
  ScanHandle(const ScanHandle&) = delete;
  ScanHandle& operator=(const ScanHandle&) = delete;

  template <typename C, typename... Args>
  C& Emplace(Args&&... args) {
    static_assert(std::is_base_of_v<ScanCursor, C>);
    static_assert(sizeof(C) <= kInlineBytes, "cursor too large for handle");
    static_assert(alignof(C) <= alignof(std::max_align_t));
    Reset();
    C* cursor = ::new (static_cast<void*>(buffer_)) C(std::forward<Args>(args)...);
    cursor_ = cursor;
    return *cursor;
  }

  ScanCursor* get() { return cursor_; }
  ScanCursor& operator*() { return *cursor_; }
  ScanCursor* operator->() { return cursor_; }

  void Reset() {
    if (cursor_ != nullptr) {
      cursor_->~ScanCursor();
      cursor_ = nullptr;
    }
  }

 private:
  alignas(std::max_align_t) unsigned char buffer_[kInlineBytes];
  ScanCursor* cursor_ = nullptr;
};

namespace internal {
// Adapts callables returning void to the bool protocol (continue scanning).
template <typename Fn>
bool InvokeMatchFn(Fn&& fn, const Triple& t) {
  if constexpr (std::is_void_v<decltype(fn(t))>) {
    fn(t);
    return true;
  } else {
    return fn(t);
  }
}
}  // namespace internal

// Available storage engines behind the StoreView seam.
enum class StorageBackend {
  kOrdered,  // TripleStore: three node-based ordered sets, O(log n) updates
  kFlat,     // FlatTripleStore: flat sorted arrays + delta log, fast scans
};

const char* StorageBackendName(StorageBackend backend);
bool ParseStorageBackend(std::string_view name, StorageBackend* backend);

// The storage-engine seam: everything the reasoning, query, backward,
// federation and store layers need from triple storage. Concrete layouts
// (ordered sets, flat arrays, future columnar backends) live behind
// this interface; no consumer outside src/rdf names a backend type on its
// evaluation path.
//
// Concurrency contract: any number of threads may *read* one store
// concurrently (Contains/Count/EstimateCount/OpenScan/Match/ToVector) as
// long as no thread mutates it — backends keep their read paths free of
// non-atomic mutable state. Mutations require exclusive access; there is
// no internal locking. The server's snapshot reads rely on exactly this
// split: session threads scan a published store while the single writer
// mutates only the unpublished one.
class StoreView {
 public:
  // Dependent names generic adapters (exec::StoreEstimator) use to push
  // range constraints down without naming rdf types.
  using Range = TermRange;
  static ScanPlan MakeRangePlan(const TermRange& s, const TermRange& p,
                                const TermRange& o) {
    return PlanRangeScan(s, p, o);
  }

  virtual ~StoreView() = default;

  // --- Mutation ----------------------------------------------------------

  // Inserts `t`; returns false if it was already present.
  virtual bool Insert(const Triple& t) = 0;

  // Erases `t`; returns false if it was not present.
  virtual bool Erase(const Triple& t) = 0;

  // Inserts a batch, amortizing per-triple index maintenance where the
  // backend supports it. Returns the number of triples actually added
  // (duplicates, within the batch or against the store, count once).
  virtual size_t InsertBatch(std::span<const Triple> batch);

  virtual void Clear() = 0;

  // --- Lookup ------------------------------------------------------------

  virtual bool Contains(const Triple& t) const = 0;
  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  // Counts matches of the pattern (kNullTermId = wildcard). Fully-wild
  // patterns return size() and fully-bound ones reduce to Contains()
  // without enumerating.
  virtual size_t Count(TermId s, TermId p, TermId o) const;

  // Counts the matches of a compiled (possibly range-constrained) plan.
  // Backends answer Exact() plans in closed form where their layout
  // allows; the default enumerates.
  virtual size_t CountRange(const ScanPlan& plan) const;

  // Estimated number of matches, used for join ordering. Exact for fully
  // wild and fully bound patterns; backend-dependent otherwise.
  virtual size_t EstimateCount(TermId s, TermId p, TermId o) const = 0;

  // Range-pattern estimate with the same contract as EstimateCount. The
  // default does a capped enumeration and falls back to a coarse
  // positional signal.
  virtual size_t EstimateCountRange(const ScanPlan& plan) const;

  // --- Scanning ----------------------------------------------------------

  // Opens a cursor over the matches of a compiled scan plan into `handle`
  // — the range-capable primitive every other scan entry point lowers to.
  virtual void OpenScan(ScanHandle& handle, const ScanPlan& plan) const = 0;

  // Opens a cursor over the matches of the point/wildcard pattern.
  void OpenScan(ScanHandle& handle, TermId s, TermId p, TermId o) const {
    OpenScan(handle, PlanScan(s, p, o));
  }

  // Invokes `fn(const Triple&)` for every triple matching the pattern,
  // where kNullTermId (0) in a position is a wildcard. If `fn` returns
  // false the scan stops early. Fn: bool(const Triple&) or
  // void(const Triple&). Implemented over OpenScan with batched pulls so
  // the per-triple virtual-dispatch cost is amortized.
  template <typename Fn>
  void Match(TermId s, TermId p, TermId o, Fn&& fn) const {
    MatchPlan(PlanScan(s, p, o), std::forward<Fn>(fn));
  }

  // Match over a compiled (possibly range-constrained) plan.
  template <typename Fn>
  void MatchPlan(const ScanPlan& plan, Fn&& fn) const {
    ScanHandle handle;
    OpenScan(handle, plan);
    Triple buffer[kMatchBatch];
    for (;;) {
      size_t n = handle->NextBatch(buffer, kMatchBatch);
      if (n == 0) return;
      for (size_t i = 0; i < n; ++i) {
        if (!internal::InvokeMatchFn(fn, buffer[i])) return;
      }
    }
  }

  // Match over per-position inclusive ranges.
  template <typename Fn>
  void MatchRange(const TermRange& s, const TermRange& p, const TermRange& o,
                  Fn&& fn) const {
    MatchPlan(PlanRangeScan(s, p, o), std::forward<Fn>(fn));
  }

  // Copies all triples in SPO order.
  std::vector<Triple> ToVector() const;

  // --- Epoch pinning -----------------------------------------------------
  //
  // A reader that consumes a store across multiple scans (a whole query
  // evaluation, a snapshot held across requests) pins its epoch: while any
  // pin is held the store must not physically restructure — for the flat
  // backend that means delta/tombstone merges are deferred exactly as they
  // are for open cursors (the open_scans_ contract generalized from one
  // scan to one reader). Pins are counted, not owned; use EpochPin (below)
  // for scope safety. Thread-safe: concurrent readers pin and unpin freely.
  // Backends whose nodes are stable under mutation (the ordered backend)
  // only count, since they never restructure.

  virtual void PinEpoch() const {}
  virtual void UnpinEpoch() const {}
  // Live pins, for tests and the compaction-defer assertions.
  virtual size_t epoch_pins() const { return 0; }

  // Attempts any deferred physical restructuring now (the deterministic
  // hook the fault-injection tests drive). Returns false when live scans
  // or epoch pins forbid it; true otherwise — including when the backend
  // has nothing to restructure.
  virtual bool TryCompact() { return true; }

  // --- Introspection -----------------------------------------------------

  virtual StorageBackend backend() const = 0;

  // Deep copy preserving the backend (used by Graph snapshots).
  virtual std::unique_ptr<StoreView> Clone() const = 0;

  static constexpr size_t kMatchBatch = 64;
};

// RAII epoch pin: pins `store` for the lifetime of the object. Movable so
// a pinned read can be handed across scopes; a moved-from or default pin
// holds nothing.
class EpochPin {
 public:
  EpochPin() = default;
  explicit EpochPin(const StoreView& store) : store_(&store) {
    store_->PinEpoch();
  }
  ~EpochPin() { Release(); }

  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  EpochPin(EpochPin&& other) noexcept : store_(other.store_) {
    other.store_ = nullptr;
  }
  EpochPin& operator=(EpochPin&& other) noexcept {
    if (this != &other) {
      Release();
      store_ = other.store_;
      other.store_ = nullptr;
    }
    return *this;
  }

  void Release() {
    if (store_ != nullptr) {
      store_->UnpinEpoch();
      store_ = nullptr;
    }
  }

  bool held() const { return store_ != nullptr; }

 private:
  const StoreView* store_ = nullptr;
};

// Creates an empty store of the requested backend.
std::unique_ptr<StoreView> MakeStore(StorageBackend backend);

}  // namespace wdr::rdf

#endif  // WDR_RDF_STORE_VIEW_H_
