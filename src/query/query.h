#ifndef WDR_QUERY_QUERY_H_
#define WDR_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"

namespace wdr::query {

using rdf::TermId;

// Index of a variable within one BgpQuery's variable table.
using VarId = uint32_t;

// One position of a triple pattern: a constant term, a variable, or an
// inclusive id range. Range terms are produced only by hierarchy-aware
// (LiteMat-encoded) reformulation — "any id in the subclass closure's
// interval" — and behave like anonymous filtered positions: they never
// bind a variable and never project.
struct PatternTerm {
  enum class Kind : uint8_t { kConstant, kVariable, kRange };

  Kind kind = Kind::kConstant;
  TermId id = rdf::kNullTermId;   // kConstant value; kRange lower bound
  TermId id2 = rdf::kNullTermId;  // kRange upper bound (inclusive)
  VarId var = 0;                  // valid when kind == kVariable

  static PatternTerm Constant(TermId id) {
    PatternTerm t;
    t.kind = Kind::kConstant;
    t.id = id;
    return t;
  }
  static PatternTerm Variable(VarId var) {
    PatternTerm t;
    t.kind = Kind::kVariable;
    t.var = var;
    return t;
  }
  static PatternTerm Range(TermId lo, TermId hi) {
    PatternTerm t;
    t.kind = Kind::kRange;
    t.id = lo;
    t.id2 = hi;
    return t;
  }

  bool is_var() const { return kind == Kind::kVariable; }
  bool is_const() const { return kind == Kind::kConstant; }
  bool is_range() const { return kind == Kind::kRange; }

  friend bool operator==(const PatternTerm& a, const PatternTerm& b) {
    if (a.kind != b.kind) return false;
    if (a.is_var()) return a.var == b.var;
    if (a.is_range()) return a.id == b.id && a.id2 == b.id2;
    return a.id == b.id;
  }
};

// A SPARQL triple pattern (one atom of a BGP).
struct TriplePattern {
  PatternTerm s;
  PatternTerm p;
  PatternTerm o;

  friend bool operator==(const TriplePattern&, const TriplePattern&) = default;
};

// A basic graph pattern query (SPARQL conjunctive query): a set of triple
// patterns, a projection, and an optional set of preset variable bindings
// (used by reformulation, which may bind an answer variable to a schema
// constant in some disjuncts of the rewriting).
class BgpQuery {
 public:
  BgpQuery() = default;

  // Returns the id for variable `name`, registering it if new.
  VarId AddVar(const std::string& name);

  // Returns the id of `name` or an error if the query has no such variable.
  Result<VarId> VarByName(const std::string& name) const;

  void AddAtom(const TriplePattern& atom) { atoms_.push_back(atom); }

  // Appends `var` to the projected (answer) variables.
  void Project(VarId var) { projection_.push_back(var); }

  void SetDistinct(bool distinct) { distinct_ = distinct; }

  // Fixes `var` to the constant `value` (applies before evaluation).
  void Preset(VarId var, TermId value) { preset_[var] = value; }

  size_t var_count() const { return var_names_.size(); }
  const std::string& var_name(VarId var) const { return var_names_[var]; }
  const std::vector<TriplePattern>& atoms() const { return atoms_; }
  std::vector<TriplePattern>& mutable_atoms() { return atoms_; }
  const std::vector<VarId>& projection() const { return projection_; }
  bool distinct() const { return distinct_; }
  const std::unordered_map<VarId, TermId>& preset() const { return preset_; }

  // Projected variable names, in projection order.
  std::vector<std::string> ProjectionNames() const;

  // A canonical textual form used for de-duplicating reformulations:
  // atoms sorted, non-projected variables renamed by first occurrence.
  std::string CanonicalKey() const;

 private:
  std::vector<std::string> var_names_;
  std::unordered_map<std::string, VarId> var_index_;
  std::vector<TriplePattern> atoms_;
  std::vector<VarId> projection_;
  std::unordered_map<VarId, TermId> preset_;
  bool distinct_ = false;
};

// A union of conjunctive queries (the shape reformulation produces). All
// branches must project the same number of variables, in the same role
// order; evaluation takes the set-union of branch answers. Carries the
// query-level modifiers: ASK form, LIMIT and OFFSET.
class UnionQuery {
 public:
  UnionQuery() = default;

  static UnionQuery Single(BgpQuery q) {
    UnionQuery u;
    u.AddBranch(std::move(q));
    return u;
  }

  void AddBranch(BgpQuery q) { branches_.push_back(std::move(q)); }

  const std::vector<BgpQuery>& branches() const { return branches_; }
  size_t size() const { return branches_.size(); }

  // Values per answer row: the projection width every branch shares (0
  // for a union without branches).
  size_t width() const {
    return branches_.empty() ? 0 : branches_.front().projection().size();
  }

  // ASK form: evaluation stops at the first answer and reports a boolean
  // (a result set with one empty row, or none).
  void SetAsk(bool ask) { ask_ = ask; }
  bool ask() const { return ask_; }

  // LIMIT / OFFSET solution modifiers (applied after de-duplication).
  // kNoLimit means unlimited.
  static constexpr size_t kNoLimit = static_cast<size_t>(-1);
  void SetLimit(size_t limit) { limit_ = limit; }
  void SetOffset(size_t offset) { offset_ = offset; }
  size_t limit() const { return limit_; }
  size_t offset() const { return offset_; }

  // Total number of atoms across branches — the paper's measure of how
  // much "syntactically larger" a reformulated query is.
  size_t TotalAtoms() const;

 private:
  std::vector<BgpQuery> branches_;
  bool ask_ = false;
  size_t limit_ = kNoLimit;
  size_t offset_ = 0;
};

// Atom `index` of `q` as a query of its own: the atom's distinct variables,
// named by position ("a0", "a1", "a2") so that equal atom shapes of
// different queries share one reformulation memo entry, all projected in
// order of first occurrence (s, p, o).
BgpQuery AtomQuery(const BgpQuery& q, size_t index);

// The values one rewriting fixed: variables grounded on schema terms, e.g.
// ?c := Person for (?x rdf:type ?c). A grounded variable no longer occurs
// in the rewritten pattern.
using Presets = std::vector<std::pair<VarId, TermId>>;

// The alternatives (rewritings) of a single atom that share one triple
// pattern over the JoinOfUnions' variable space: one scan serves them all.
struct AtomScan {
  TriplePattern pattern;
  // One entry per alternative; a single empty entry when nothing was fixed.
  std::vector<Presets> presets;
};

// One atom of a BGP evaluated as the union of its alternatives, the
// rewritings of the atom.
struct UnionAtom {
  TriplePattern written;  // the atom as the query wrote it
  // The atom's distinct variables. Every alternative binds each of them,
  // through its pattern or a preset; fresh variables a rewriting introduced
  // (the _ref existentials of domain/range rules) are local to their
  // alternative and listed nowhere.
  std::vector<VarId> vars;
  std::vector<AtomScan> scans;

  // Presets summed over scans.
  size_t alternatives() const;
};

// A BGP evaluated as a join of per-atom unions (a JUCQ, the cover-based
// reformulation of Bursztyn, Goasdoué and Manolescu with one fragment per
// atom) instead of the union of every combination of its atoms'
// rewritings. In the RDFS fragment q(G∞) is the join of each atom's
// answers on G∞, and a single-atom reformulation with every variable
// projected is complete for that atom, so both forms answer alike; the
// join evaluates each atom's union once instead of once per combination.
// It holds only the unions: the written BGP (projection, presets) travels
// alongside, as the branch of the UnionQuery it came from.
class JoinOfUnions {
 public:
  // Over the variable space of `written`, the BGP whose atoms it joins.
  explicit JoinOfUnions(const BgpQuery& written)
      : var_count_(written.var_count()) {}

  // Appends the union of `atom`, the written BGP's atom atoms().size()
  // (the next one, in order): `rewriting` is
  // Reformulate(AtomQuery(written, index)). Rewriting variables map onto
  // the written query's by position; fresh ones get slots past var_count()
  // of the written query. False, adding nothing, when an alternative leaves
  // one of the atom's variables unbound: the join could not keep the
  // atom's answers then.
  bool AddAtom(const TriplePattern& atom, const UnionQuery& rewriting);

  // Variable slots: the written query's, then the fresh ones.
  size_t var_count() const { return var_count_; }
  const std::vector<UnionAtom>& atoms() const { return atoms_; }

 private:
  size_t var_count_;
  std::vector<UnionAtom> atoms_;
};

}  // namespace wdr::query

#endif  // WDR_QUERY_QUERY_H_
