#include "rdf/store_view.h"

#include "rdf/flat_triple_store.h"
#include "rdf/triple_store.h"

namespace wdr::rdf {

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kOrdered:
      return "ordered";
    case StorageBackend::kFlat:
      return "flat";
  }
  return "unknown";
}

bool ParseStorageBackend(std::string_view name, StorageBackend* backend) {
  if (name == "ordered") {
    *backend = StorageBackend::kOrdered;
  } else if (name == "flat") {
    *backend = StorageBackend::kFlat;
  } else {
    return false;
  }
  return true;
}

size_t StoreView::InsertBatch(std::span<const Triple> batch) {
  size_t added = 0;
  for (const Triple& t : batch) {
    if (Insert(t)) ++added;
  }
  return added;
}

size_t StoreView::Count(TermId s, TermId p, TermId o) const {
  const bool bs = s != kNullTermId;
  const bool bp = p != kNullTermId;
  const bool bo = o != kNullTermId;
  if (!bs && !bp && !bo) return size();
  if (bs && bp && bo) return Contains(Triple(s, p, o)) ? 1 : 0;
  size_t n = 0;
  Match(s, p, o, [&n](const Triple&) { ++n; });
  return n;
}

size_t StoreView::CountRange(const ScanPlan& plan) const {
  if (plan.s.is_any() && plan.p.is_any() && plan.o.is_any()) return size();
  if (plan.s.is_point() && plan.p.is_point() && plan.o.is_point()) {
    return Contains(Triple(plan.s.lo, plan.p.lo, plan.o.lo)) ? 1 : 0;
  }
  size_t n = 0;
  MatchPlan(plan, [&n](const Triple&) { ++n; });
  return n;
}

size_t StoreView::EstimateCountRange(const ScanPlan& plan) const {
  if (plan.s.is_any() && plan.p.is_any() && plan.o.is_any()) return size();
  if (plan.s.is_point() && plan.p.is_point() && plan.o.is_point()) {
    return Contains(Triple(plan.s.lo, plan.p.lo, plan.o.lo)) ? 1 : 0;
  }
  size_t n = 0;
  constexpr size_t kCap = 64;
  MatchPlan(plan, [&n](const Triple&) { return ++n < kCap; });
  if (n < kCap) return n;
  // Hit the cap: coarse ordering signal by constrained positions.
  const int bound = (plan.s.is_any() ? 0 : 1) + (plan.p.is_any() ? 0 : 1) +
                    (plan.o.is_any() ? 0 : 1);
  return size() >> (2 * bound);
}

std::vector<Triple> StoreView::ToVector() const {
  std::vector<Triple> out;
  out.reserve(size());
  Match(0, 0, 0, [&out](const Triple& t) { out.push_back(t); });
  return out;
}

std::unique_ptr<StoreView> MakeStore(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kOrdered:
      return std::make_unique<TripleStore>();
    case StorageBackend::kFlat:
      return std::make_unique<FlatTripleStore>();
  }
  return std::make_unique<TripleStore>();
}

}  // namespace wdr::rdf
