// The one row-dedup structure of every read path: DISTINCT and union
// semantics in query evaluation, the plan's HashDedup operator, and the
// answer sets of backward chaining and the Datalog routes.
#ifndef WDR_EXEC_DEDUP_TABLE_H_
#define WDR_EXEC_DEDUP_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "exec/batch.h"

namespace wdr::exec {

// Append-only set of fixed-width rows. Each distinct row is stored once,
// back to back in first-seen order, in one flat array; an open-addressing
// table with linear probing indexes them. A slot is 8 bytes: the upper 32
// bits of the row's 64-bit hash, which also pick its home slot, and the
// row's index. (Keeping the full hash doubles the slot to 16 bytes and
// made 88k-row inserts take ~40% longer.) Rows are compared in full, so
// rows colliding on the stored bits only cost a probe, never an answer.
// The slot array doubles before an insert would push it past half load,
// and nothing is allocated before the first insert, so the many
// evaluations that answer a handful of rows (or none) pay for no empty
// buckets. Width 0 (ASK, an empty projection) is a set of at most one
// row: every row is equal.
class DedupTable {
 public:
  explicit DedupTable(size_t width) : width_(width) {}

  // Distinct rows inserted so far.
  size_t size() const { return size_; }
  // Inserts that found their row already present.
  uint64_t duplicates() const { return duplicates_; }

  // The i-th distinct row (width() values), in first-seen order.
  const Value* row(size_t i) const { return rows_.data() + i * width_; }

  // Adds the width() values at `row`; true when they were not present.
  bool Insert(const Value* row) {
    if (width_ == 0) {
      if (size_ == 0) {
        size_ = 1;
        return true;
      }
      ++duplicates_;
      return false;
    }
    const uint32_t hash = static_cast<uint32_t>(Hash(row) >> 32);
    if (slots_.empty()) Rehash(kMinSlots);
    size_t i = hash & mask_;
    for (; slots_[i].row != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].hash == hash &&
          std::memcmp(this->row(slots_[i].row), row,
                      width_ * sizeof(Value)) == 0) {
        ++duplicates_;
        return false;
      }
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.size() * 2);
      i = hash & mask_;
      while (slots_[i].row != kEmpty) i = (i + 1) & mask_;
    }
    slots_[i] = Slot{hash, static_cast<uint32_t>(size_)};
    rows_.insert(rows_.end(), row, row + width_);
    ++size_;
    return true;
  }

 private:
  struct Slot {
    uint32_t hash;  // upper half of the row's 64-bit hash
    uint32_t row;   // kEmpty marks a free slot
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinSlots = 16;  // power of two

  // FNV-1a over the ids, then a splitmix avalanche so that every bit of
  // the result depends on every id.
  uint64_t Hash(const Value* row) const {
    uint64_t h = 14695981039346656037ull;
    for (size_t c = 0; c < width_; ++c) {
      h ^= row[c];
      h *= 1099511628211ull;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
  }

  // Re-slots every row by its stored hash; rows themselves never move.
  void Rehash(size_t slot_count) {
    std::vector<Slot> old(slot_count, Slot{0, kEmpty});
    old.swap(slots_);
    mask_ = slot_count - 1;
    for (const Slot& s : old) {
      if (s.row == kEmpty) continue;
      size_t i = s.hash & mask_;
      while (slots_[i].row != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  size_t width_;
  size_t size_ = 0;
  uint64_t duplicates_ = 0;
  size_t mask_ = 0;
  std::vector<Slot> slots_;
  std::vector<Value> rows_;
};

}  // namespace wdr::exec

#endif  // WDR_EXEC_DEDUP_TABLE_H_
