#include "query/query.h"

#include <algorithm>
#include <map>

namespace wdr::query {

VarId BgpQuery::AddVar(const std::string& name) {
  auto it = var_index_.find(name);
  if (it != var_index_.end()) return it->second;
  VarId id = static_cast<VarId>(var_names_.size());
  var_names_.push_back(name);
  var_index_.emplace(name, id);
  return id;
}

Result<VarId> BgpQuery::VarByName(const std::string& name) const {
  auto it = var_index_.find(name);
  if (it == var_index_.end()) {
    return NotFoundError("no variable named '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> BgpQuery::ProjectionNames() const {
  std::vector<std::string> names;
  names.reserve(projection_.size());
  for (VarId v : projection_) names.push_back(var_names_[v]);
  return names;
}

std::string BgpQuery::CanonicalKey() const {
  // Projected variables keep their role index; every other variable is
  // renamed to its first-occurrence order so fresh-variable identity does
  // not distinguish otherwise identical rewritings.
  auto tagged = [](char tag, size_t n) {
    std::string s(1, tag);
    s += std::to_string(n);
    return s;
  };
  std::map<VarId, std::string> rename;
  for (size_t i = 0; i < projection_.size(); ++i) {
    rename[projection_[i]] = tagged('#', i);
  }
  size_t next_fresh = 0;
  auto term_key = [&](const PatternTerm& t) -> std::string {
    if (t.is_const()) return tagged('c', t.id);
    if (t.is_range()) {
      return tagged('r', t.id) + ":" + std::to_string(t.id2);
    }
    auto it = rename.find(t.var);
    if (it == rename.end()) {
      it = rename.emplace(t.var, tagged('f', next_fresh++)).first;
    }
    return it->second;
  };
  std::vector<std::string> atom_keys;
  atom_keys.reserve(atoms_.size());
  for (const TriplePattern& a : atoms_) {
    atom_keys.push_back(term_key(a.s) + " " + term_key(a.p) + " " +
                        term_key(a.o));
  }
  // Sorting atom keys canonicalizes atom order. Renaming depends on the
  // original order, so two CQs equal up to atom permutation may still get
  // different keys; the dedup is conservative (never merges distinct CQs).
  std::sort(atom_keys.begin(), atom_keys.end());
  std::string key;
  for (const std::string& a : atom_keys) {
    key += a;
    key += " . ";
  }
  std::vector<std::pair<VarId, TermId>> presets(preset_.begin(),
                                                preset_.end());
  std::sort(presets.begin(), presets.end());
  for (const auto& [var, value] : presets) {
    auto it = rename.find(var);
    std::string var_key = it == rename.end() ? tagged('v', var) : it->second;
    key += '|';
    key += var_key;
    key += '=';
    key += std::to_string(value);
  }
  return key;
}

size_t UnionQuery::TotalAtoms() const {
  size_t total = 0;
  for (const BgpQuery& q : branches_) total += q.atoms().size();
  return total;
}

namespace {

// The distinct variables of `atom` in order of first occurrence (s, p, o):
// the order AtomQuery numbers them in.
std::vector<VarId> AtomVars(const TriplePattern& atom) {
  std::vector<VarId> vars;
  for (const PatternTerm* t : {&atom.s, &atom.p, &atom.o}) {
    if (t->is_var() &&
        std::find(vars.begin(), vars.end(), t->var) == vars.end()) {
      vars.push_back(t->var);
    }
  }
  return vars;
}

}  // namespace

BgpQuery AtomQuery(const BgpQuery& q, size_t index) {
  const TriplePattern& atom = q.atoms()[index];
  const std::vector<VarId> vars = AtomVars(atom);
  BgpQuery out;
  for (size_t i = 0; i < vars.size(); ++i) {
    std::string name(1, 'a');
    name += std::to_string(i);
    out.Project(out.AddVar(name));
  }
  auto local = [&](const PatternTerm& t) {
    if (!t.is_var()) return t;
    const auto at = std::find(vars.begin(), vars.end(), t.var);
    return PatternTerm::Variable(static_cast<VarId>(at - vars.begin()));
  };
  out.AddAtom(TriplePattern{local(atom.s), local(atom.p), local(atom.o)});
  return out;
}

bool JoinOfUnions::AddAtom(const TriplePattern& atom,
                           const UnionQuery& rewriting) {
  UnionAtom unioned;
  unioned.written = atom;
  unioned.vars = AtomVars(unioned.written);
  const size_t k = unioned.vars.size();
  size_t slots = var_count_;
  for (const BgpQuery& branch : rewriting.branches()) {
    if (branch.atoms().size() != 1) return false;
    // Local ids below k are the atom's variables; the rest are fresh.
    auto global = [&](VarId v) {
      if (v < k) return unioned.vars[v];
      const VarId g = static_cast<VarId>(var_count_ + (v - k));
      slots = std::max(slots, static_cast<size_t>(g) + 1);
      return g;
    };
    auto map = [&](const PatternTerm& t) {
      return t.is_var() ? PatternTerm::Variable(global(t.var)) : t;
    };
    const TriplePattern& a = branch.atoms().front();
    const TriplePattern pattern{map(a.s), map(a.p), map(a.o)};
    std::vector<bool> bound(k, false);
    for (const PatternTerm* t : {&a.s, &a.p, &a.o}) {
      if (t->is_var() && t->var < k) bound[t->var] = true;
    }
    Presets presets;
    for (const auto& [var, value] : branch.preset()) {
      presets.emplace_back(global(var), value);
      if (var < k) bound[var] = true;
    }
    std::sort(presets.begin(), presets.end());
    if (std::find(bound.begin(), bound.end(), false) != bound.end()) {
      return false;
    }
    auto same = std::find_if(
        unioned.scans.begin(), unioned.scans.end(),
        [&](const AtomScan& scan) { return scan.pattern == pattern; });
    if (same == unioned.scans.end()) {
      unioned.scans.push_back(AtomScan{pattern, {}});
      same = unioned.scans.end() - 1;
    }
    same->presets.push_back(std::move(presets));
  }
  var_count_ = slots;
  atoms_.push_back(std::move(unioned));
  return true;
}

size_t UnionAtom::alternatives() const {
  size_t total = 0;
  for (const AtomScan& scan : scans) total += scan.presets.size();
  return total;
}

}  // namespace wdr::query
