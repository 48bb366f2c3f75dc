#ifndef WDR_RDF_FLAT_TRIPLE_STORE_H_
#define WDR_RDF_FLAT_TRIPLE_STORE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rdf/store_view.h"
#include "rdf/triple.h"

namespace wdr::rdf {

// The cache-friendly storage backend: three flat sorted arrays (SPO, POS,
// OSP permutations) scanned with binary-search range lookups, plus a small
// ordered delta log (inserts) and a tombstone set (erases) so updates stay
// cheap. When the delta/tombstone volume crosses a threshold proportional
// to the main arrays, it is merged in one linear pass — the classic
// LSM-style amortization, giving contiguous scans on the hot read path
// while keeping amortized-logarithmic updates.
//
// Scans merge the main range with the delta range in index order, so all
// StoreView semantics (SPO-ordered ToVector, prefix scans) are identical
// to the ordered backend; this is property-tested.
class FlatTripleStore final : public StoreView {
 public:
  FlatTripleStore() = default;

  // Copies carry the data but not the open-scan count (a copy has no
  // cursors into it).
  FlatTripleStore(const FlatTripleStore& other)
      : main_(other.main_),
        delta_(other.delta_),
        tombstones_(other.tombstones_) {}
  FlatTripleStore& operator=(const FlatTripleStore& other) {
    if (this != &other) {
      main_ = other.main_;
      delta_ = other.delta_;
      tombstones_ = other.tombstones_;
    }
    return *this;
  }
  // Moves transfer the data but not the open-scan count (moving a store
  // with live cursors is a caller bug either way: cursors hold pointers
  // into the source). Spelled out because the atomic counter is not
  // movable.
  FlatTripleStore(FlatTripleStore&& other) noexcept
      : main_(std::move(other.main_)),
        delta_(std::move(other.delta_)),
        tombstones_(std::move(other.tombstones_)) {}
  FlatTripleStore& operator=(FlatTripleStore&& other) noexcept {
    if (this != &other) {
      main_ = std::move(other.main_);
      delta_ = std::move(other.delta_);
      tombstones_ = std::move(other.tombstones_);
    }
    return *this;
  }

  // Bulk load: replaces the contents with `triples` (sorted and
  // de-duplicated here), leaving an empty delta. The loaders and the
  // workload generators use this path via InsertBatch on an empty store.
  void Build(std::vector<Triple> triples);

  // Merges the delta log and tombstones into the main arrays now. Must not
  // be called while a scan is open or an epoch pin is held.
  void Compact();

  // Compacts if pending work exists and no scan or pin forbids it; counts
  // a deferral (wdr.store.flat.compactions_deferred) and returns false
  // otherwise. The deterministic compaction hook for fault-injection tests.
  bool TryCompact() override;

  // Epoch pins defer merges exactly like open cursors: a pinned reader may
  // keep scanning the frozen main arrays across many scans.
  void PinEpoch() const override {
    epoch_pins_.fetch_add(1, std::memory_order_relaxed);
  }
  void UnpinEpoch() const override {
    epoch_pins_.fetch_sub(1, std::memory_order_relaxed);
  }
  size_t epoch_pins() const override {
    return epoch_pins_.load(std::memory_order_relaxed);
  }

  // Pending (unmerged) delta/tombstone volume, for tests and benches.
  size_t delta_size() const { return delta_[0].size(); }
  size_t tombstone_size() const { return tombstones_.size(); }

  bool Insert(const Triple& t) override;
  bool Erase(const Triple& t) override;
  size_t InsertBatch(std::span<const Triple> batch) override;
  void Clear() override;

  bool Contains(const Triple& t) const override;
  size_t size() const override {
    return main_[0].size() - tombstones_.size() + delta_[0].size();
  }

  size_t Count(TermId s, TermId p, TermId o) const override;
  size_t CountRange(const ScanPlan& plan) const override;
  size_t EstimateCount(TermId s, TermId p, TermId o) const override;
  size_t EstimateCountRange(const ScanPlan& plan) const override;

  using StoreView::OpenScan;
  void OpenScan(ScanHandle& handle, const ScanPlan& plan) const override;

  StorageBackend backend() const override { return StorageBackend::kFlat; }
  std::unique_ptr<StoreView> Clone() const override {
    return std::make_unique<FlatTripleStore>(*this);
  }

  // Delta volume below which no merge happens (amortization floor).
  static constexpr size_t kMergeFloor = 512;

 private:
  friend class FlatScanCursor;

  bool InMain(const Triple& t) const;

  // True when no open scan and no epoch pin holds pointers into main_.
  bool Restructurable() const;

  // Merges when the pending volume justifies the linear rebuild and no
  // scan or pin holds pointers into the main arrays.
  void MaybeCompact();

  // [first, last) of the keys in `main_[order]` within the plan's bounds.
  std::pair<const Triple*, const Triple*> MainRange(const ScanPlan& plan) const;

  // Main arrays hold permuted keys, index = IndexOrder.
  std::array<std::vector<Triple>, kIndexOrderCount> main_;
  // Delta log: triples inserted since the last merge, absent from main_
  // (keys permuted per index, like main_). Ordered so scans can merge.
  std::array<std::set<Triple>, kIndexOrderCount> delta_;
  // Main-array triples erased since the last merge (s/p/o space).
  std::unordered_set<Triple, TripleHash> tombstones_;
  // Open cursors holding pointers into main_; merges are deferred while
  // any scan is live. Atomic because concurrent *readers* (server sessions
  // scanning a published snapshot) open and close cursors from several
  // threads at once; relaxed ordering suffices since the
  // count only gates compaction, which runs on the (single) writer thread.
  mutable std::atomic<size_t> open_scans_{0};
  // Reader-held epoch pins (see StoreView::PinEpoch); same deferral rule
  // and memory-order rationale as open_scans_, but held across whole
  // read operations rather than single cursors. Like the scan count,
  // copies and moves do not carry pins.
  mutable std::atomic<size_t> epoch_pins_{0};
};

}  // namespace wdr::rdf

#endif  // WDR_RDF_FLAT_TRIPLE_STORE_H_
