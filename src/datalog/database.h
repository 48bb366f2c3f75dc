#ifndef WDR_DATALOG_DATABASE_H_
#define WDR_DATALOG_DATABASE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/program.h"

namespace wdr::datalog {

using Tuple = std::vector<Sym>;

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (Sym s : t) {
      h ^= s;
      h *= 0x100000001b3ull;
    }
    return static_cast<size_t>(h);
  }
};

// One predicate's extension: a dedup set, insertion-ordered tuple storage,
// and per-column hash indexes (maintained on insert) for bound-position
// probes during joins.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity), indexes_(arity) {}

  // Returns false if the tuple was already present.
  bool Insert(const Tuple& tuple);

  bool Contains(const Tuple& tuple) const { return set_.count(tuple) > 0; }
  size_t size() const { return tuples_.size(); }
  size_t arity() const { return arity_; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  // Tuple indexes whose column `col` equals `value`.
  const std::vector<uint32_t>& Probe(size_t col, Sym value) const;

 private:
  size_t arity_;
  std::vector<Tuple> tuples_;
  std::unordered_set<Tuple, TupleHash> set_;
  // indexes_[col][value] -> positions in tuples_.
  std::vector<std::unordered_map<Sym, std::vector<uint32_t>>> indexes_;
};

// The materialized extensions of every predicate of a program.
class Database {
 public:
  explicit Database(const DlProgram& program);

  Relation& relation(PredId pred) { return relations_[pred]; }
  const Relation& relation(PredId pred) const { return relations_[pred]; }

  bool Insert(PredId pred, const Tuple& tuple) {
    return relations_[pred].Insert(tuple);
  }

  size_t TotalTuples() const;

 private:
  std::vector<Relation> relations_;
};

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_DATABASE_H_
