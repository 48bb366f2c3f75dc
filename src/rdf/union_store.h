#ifndef WDR_RDF_UNION_STORE_H_
#define WDR_RDF_UNION_STORE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "rdf/store_view.h"

namespace wdr::rdf {

// A read-only set-union view over several triple stores (the member
// stores of a federation). Exposes the same Match / Contains /
// EstimateCount surface as StoreView so the query evaluator can join
// across endpoints without copying their data. Members are held through
// the storage seam, so a federation can mix backends per endpoint.
//
// Triples present in several member stores are reported once (the member
// with the smallest index wins), preserving set semantics.
class UnionStore {
 public:
  // Same generic range-pushdown names as StoreView (see there).
  using Range = TermRange;
  static ScanPlan MakeRangePlan(const TermRange& s, const TermRange& p,
                                const TermRange& o) {
    return PlanRangeScan(s, p, o);
  }

  // Per-member scan accounting, collected only after EnableMemberStats():
  // how often each member was probed and how many triples it contributed
  // (post-dedup). The federation layer reports these per endpoint.
  struct MemberStats {
    uint64_t matches = 0;  // Match calls issued to this member
    uint64_t rows = 0;     // triples this member contributed
  };

  UnionStore() = default;
  explicit UnionStore(std::vector<const StoreView*> members)
      : members_(std::move(members)) {}

  void AddMember(const StoreView* store) { members_.push_back(store); }

  size_t member_count() const { return members_.size(); }

  // Turns on per-member accounting (off by default: the counters sit on
  // the match hot path). Resets any previous stats. The counters are
  // relaxed atomics so concurrent readers account without racing.
  void EnableMemberStats() const {
    stats_size_ = members_.size();
    stats_ = std::make_unique<AtomicMemberStats[]>(stats_size_);
  }

  // Snapshot of the per-member counters, by value (the live counters keep
  // advancing under concurrent scans). Empty unless EnableMemberStats()
  // was called.
  std::vector<MemberStats> member_stats() const {
    std::vector<MemberStats> snapshot(stats_size_);
    for (size_t i = 0; i < stats_size_; ++i) {
      snapshot[i].matches = stats_[i].matches.load(std::memory_order_relaxed);
      snapshot[i].rows = stats_[i].rows.load(std::memory_order_relaxed);
    }
    return snapshot;
  }

  bool Contains(const Triple& t) const {
    for (const StoreView* member : members_) {
      if (member->Contains(t)) return true;
    }
    return false;
  }

  // Upper bound on the union's size (duplicates counted per member).
  size_t size() const {
    size_t total = 0;
    for (const StoreView* member : members_) total += member->size();
    return total;
  }

  size_t EstimateCount(TermId s, TermId p, TermId o) const {
    size_t total = 0;
    for (const StoreView* member : members_) {
      total += member->EstimateCount(s, p, o);
    }
    return total;
  }

  size_t EstimateCountRange(const ScanPlan& plan) const {
    size_t total = 0;
    for (const StoreView* member : members_) {
      total += member->EstimateCountRange(plan);
    }
    return total;
  }

  // Same contract as StoreView::Match; each distinct triple is reported
  // exactly once across members.
  template <typename Fn>
  void Match(TermId s, TermId p, TermId o, Fn&& fn) const {
    MatchPlan(PlanScan(s, p, o), std::forward<Fn>(fn));
  }

  // Same contract as StoreView::MatchPlan, with the same cross-member
  // first-wins de-duplication as Match.
  template <typename Fn>
  void MatchPlan(const ScanPlan& plan, Fn&& fn) const {
    const bool collect = stats_size_ != 0;
    for (size_t i = 0; i < members_.size(); ++i) {
      bool keep_going = true;
      if (collect) {
        stats_[i].matches.fetch_add(1, std::memory_order_relaxed);
      }
      members_[i]->MatchPlan(plan, [&](const Triple& t) {
        for (size_t j = 0; j < i; ++j) {
          if (members_[j]->Contains(t)) return true;  // already reported
        }
        if (collect) stats_[i].rows.fetch_add(1, std::memory_order_relaxed);
        keep_going = internal::InvokeMatchFn(fn, t);
        return keep_going;
      });
      if (!keep_going) return;
    }
  }

  size_t Count(TermId s, TermId p, TermId o) const {
    size_t n = 0;
    Match(s, p, o, [&n](const Triple&) { ++n; });
    return n;
  }

 private:
  struct AtomicMemberStats {
    std::atomic<uint64_t> matches{0};
    std::atomic<uint64_t> rows{0};
  };

  std::vector<const StoreView*> members_;  // not owned
  // null = accounting off. Heap array (not vector) because the elements
  // are atomics, which are neither copyable nor movable.
  mutable std::unique_ptr<AtomicMemberStats[]> stats_;
  mutable size_t stats_size_ = 0;
};

}  // namespace wdr::rdf

#endif  // WDR_RDF_UNION_STORE_H_
