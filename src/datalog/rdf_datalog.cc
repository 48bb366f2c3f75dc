#include "datalog/rdf_datalog.h"

#include <string>

#include "datalog/magic.h"
#include "exec/dedup_table.h"

namespace wdr::datalog {
namespace {

using query::BgpQuery;
using query::PatternTerm;
using query::TriplePattern;
using rdf::TermId;

// Builds the six RDFS rules over the reified triple predicate.
// Variable ids within each rule: S=0, P=1, O=2, C=3 (roles vary per rule).
void AddRdfsRules(DlProgram& program, PredId triple, PredId resource,
                  Sym type, Sym sco, Sym spo, Sym dom, Sym rng) {
  auto v = [](DlVarId id) { return DlTerm::Variable(id); };
  auto c = [](Sym s) { return DlTerm::Constant(s); };
  auto atom = [&](PredId pred, std::vector<DlTerm> args) {
    DlAtom a;
    a.pred = pred;
    a.args = std::move(args);
    return a;
  };
  auto rule = [&](DlAtom head, std::vector<DlAtom> body,
                  std::vector<std::string> names) {
    DlRule r;
    r.head = std::move(head);
    r.body = std::move(body);
    r.var_names = std::move(names);
    program.AddRule(std::move(r));
  };

  // rdfs9: triple(S,type,C2) :- triple(C1,sco,C2), triple(S,type,C1).
  rule(atom(triple, {v(0), c(type), v(2)}),
       {atom(triple, {v(1), c(sco), v(2)}), atom(triple, {v(0), c(type), v(1)})},
       {"S", "C1", "C2"});
  // rdfs7: triple(S,P2,O) :- triple(P1,spo,P2), triple(S,P1,O).
  rule(atom(triple, {v(0), v(2), v(3)}),
       {atom(triple, {v(1), c(spo), v(2)}), atom(triple, {v(0), v(1), v(3)})},
       {"S", "P1", "P2", "O"});
  // rdfs2: triple(S,type,C) :- triple(P,dom,C), triple(S,P,O).
  rule(atom(triple, {v(0), c(type), v(2)}),
       {atom(triple, {v(1), c(dom), v(2)}), atom(triple, {v(0), v(1), v(3)})},
       {"S", "P", "C", "O"});
  // rdfs3 (guarded): triple(O,type,C) :- triple(P,rng,C), triple(S,P,O),
  //                                      resource(O).
  rule(atom(triple, {v(3), c(type), v(2)}),
       {atom(triple, {v(1), c(rng), v(2)}), atom(triple, {v(0), v(1), v(3)}),
        atom(resource, {v(3)})},
       {"S", "P", "C", "O"});
  // rdfs11: triple(C1,sco,C3) :- triple(C1,sco,C2), triple(C2,sco,C3).
  rule(atom(triple, {v(0), c(sco), v(2)}),
       {atom(triple, {v(0), c(sco), v(1)}), atom(triple, {v(1), c(sco), v(2)})},
       {"C1", "C2", "C3"});
  // rdfs5: triple(P1,spo,P3) :- triple(P1,spo,P2), triple(P2,spo,P3).
  rule(atom(triple, {v(0), c(spo), v(2)}),
       {atom(triple, {v(0), c(spo), v(1)}), atom(triple, {v(1), c(spo), v(2)})},
       {"P1", "P2", "P3"});
}

}  // namespace

RdfDatalogTranslation TranslateGraph(const rdf::Graph& graph,
                                     const schema::Vocabulary& vocab) {
  RdfDatalogTranslation xlat;
  DlProgram& program = xlat.program;
  xlat.triple_pred = program.InternPred("triple", 3);
  xlat.resource_pred = program.InternPred("resource", 1);

  const rdf::Dictionary& dict = graph.dict();
  xlat.sym_of_term.assign(dict.size() + 1, 0);
  xlat.term_of_sym.clear();
  xlat.term_of_sym.reserve(dict.size());
  for (TermId id = 1; id <= dict.size(); ++id) {
    Sym sym = program.InternSym("t" + std::to_string(id));
    xlat.sym_of_term[id] = sym;
    if (sym >= xlat.term_of_sym.size()) xlat.term_of_sym.resize(sym + 1, 0);
    xlat.term_of_sym[sym] = id;
    if (!dict.term(id).is_literal()) {
      DlAtom fact;
      fact.pred = xlat.resource_pred;
      fact.args = {DlTerm::Constant(sym)};
      program.AddFact(std::move(fact));
    }
  }

  graph.store().Match(0, 0, 0, [&](const rdf::Triple& t) {
    DlAtom fact;
    fact.pred = xlat.triple_pred;
    fact.args = {DlTerm::Constant(xlat.sym_of_term[t.s]),
                 DlTerm::Constant(xlat.sym_of_term[t.p]),
                 DlTerm::Constant(xlat.sym_of_term[t.o])};
    program.AddFact(std::move(fact));
  });

  AddRdfsRules(program, xlat.triple_pred, xlat.resource_pred,
               xlat.sym_of_term[vocab.type], xlat.sym_of_term[vocab.sub_class_of],
               xlat.sym_of_term[vocab.sub_property_of],
               xlat.sym_of_term[vocab.domain], xlat.sym_of_term[vocab.range]);
  return xlat;
}

Result<rdf::TripleStore> MaterializeViaDatalog(const rdf::Graph& graph,
                                               const schema::Vocabulary& vocab,
                                               Strategy strategy,
                                               EvalStats* stats) {
  RdfDatalogTranslation xlat = TranslateGraph(graph, vocab);
  WDR_ASSIGN_OR_RETURN(Database db,
                       Materialize(xlat.program, strategy, stats));
  rdf::TripleStore closure;
  for (const Tuple& t : db.relation(xlat.triple_pred).tuples()) {
    closure.Insert(rdf::Triple(xlat.term_of_sym[t[0]], xlat.term_of_sym[t[1]],
                               xlat.term_of_sym[t[2]]));
  }
  return closure;
}

Result<query::ResultSet> AnswerViaDatalog(const RdfDatalogTranslation& xlat,
                                          const Database& db,
                                          const query::UnionQuery& q) {
  query::ResultSet result;
  exec::DedupTable seen(q.width());
  query::Row row;
  for (const BgpQuery& branch : q.branches()) {
    if (result.var_names.empty()) {
      result.var_names = branch.ProjectionNames();
    }
    // Translate atoms; a branch mentioning a term the graph never interned
    // can only match nothing.
    std::vector<DlAtom> body;
    bool impossible = false;
    auto translate = [&](const PatternTerm& t) -> DlTerm {
      if (t.is_var()) return DlTerm::Variable(t.var);
      if (t.id >= xlat.sym_of_term.size()) {
        impossible = true;
        return DlTerm::Constant(0);
      }
      return DlTerm::Constant(xlat.sym_of_term[t.id]);
    };
    for (const TriplePattern& atom : branch.atoms()) {
      DlAtom dl;
      dl.pred = xlat.triple_pred;
      dl.args = {translate(atom.s), translate(atom.p), translate(atom.o)};
      body.push_back(std::move(dl));
    }
    if (impossible) continue;
    // Preset bindings become equality atoms via constant substitution.
    for (DlAtom& atom : body) {
      for (DlTerm& term : atom.args) {
        if (!term.is_var) continue;
        auto it = branch.preset().find(term.id);
        if (it != branch.preset().end()) {
          term = DlTerm::Constant(xlat.sym_of_term[it->second]);
        }
      }
    }

    std::vector<DlVarId> projection(branch.projection().begin(),
                                    branch.projection().end());
    // Projected variables that are preset or absent from the body are not
    // supported by the generic Datalog query path; answer those branches by
    // substituting the preset value afterwards.
    std::vector<std::pair<size_t, rdf::TermId>> fixed;  // (column, value)
    std::vector<DlVarId> effective;
    std::vector<size_t> effective_cols;
    for (size_t i = 0; i < projection.size(); ++i) {
      auto it = branch.preset().find(projection[i]);
      if (it != branch.preset().end()) {
        fixed.emplace_back(i, it->second);
      } else {
        effective.push_back(projection[i]);
        effective_cols.push_back(i);
      }
    }
    WDR_ASSIGN_OR_RETURN(
        std::vector<Tuple> rows,
        EvaluateQuery(xlat.program, db, body, effective));
    for (const Tuple& tuple : rows) {
      row.assign(projection.size(), rdf::kNullTermId);
      for (size_t i = 0; i < effective_cols.size(); ++i) {
        row[effective_cols[i]] = xlat.term_of_sym[tuple[i]];
      }
      for (const auto& [col, value] : fixed) row[col] = value;
      if (seen.Insert(row.data())) result.rows.push_back(row);
    }
  }
  query::ApplySolutionModifiers(q, result);
  return result;
}

Result<query::ResultSet> AnswerViaMagicUnion(const RdfDatalogTranslation& xlat,
                                             const query::UnionQuery& q,
                                             EvalStats* stats) {
  query::ResultSet result;
  exec::DedupTable seen(q.width());
  query::Row row;
  for (const BgpQuery& branch : q.branches()) {
    if (result.var_names.empty()) {
      result.var_names = branch.ProjectionNames();
    }
    std::vector<DlAtom> body;
    bool impossible = false;
    auto translate = [&](const PatternTerm& t) -> DlTerm {
      if (t.is_var()) return DlTerm::Variable(t.var);
      if (t.id >= xlat.sym_of_term.size()) {
        impossible = true;
        return DlTerm::Constant(0);
      }
      return DlTerm::Constant(xlat.sym_of_term[t.id]);
    };
    for (const TriplePattern& atom : branch.atoms()) {
      DlAtom dl;
      dl.pred = xlat.triple_pred;
      dl.args = {translate(atom.s), translate(atom.p), translate(atom.o)};
      body.push_back(std::move(dl));
    }
    if (impossible) continue;
    // Preset bindings become constants, as in AnswerViaDatalog.
    for (DlAtom& atom : body) {
      for (DlTerm& term : atom.args) {
        if (!term.is_var) continue;
        auto it = branch.preset().find(term.id);
        if (it != branch.preset().end()) {
          term = DlTerm::Constant(xlat.sym_of_term[it->second]);
        }
      }
    }

    const std::vector<DlVarId> projection(branch.projection().begin(),
                                          branch.projection().end());
    std::vector<std::pair<size_t, rdf::TermId>> fixed;  // (column, value)
    std::vector<DlVarId> effective;
    std::vector<size_t> effective_cols;
    for (size_t i = 0; i < projection.size(); ++i) {
      auto it = branch.preset().find(projection[i]);
      if (it != branch.preset().end()) {
        fixed.emplace_back(i, it->second);
      } else {
        effective.push_back(projection[i]);
        effective_cols.push_back(i);
      }
    }

    // Wrap the branch in a fresh answer predicate so the magic transform
    // has an IDB query atom to adorn; its all-free query atom then asks
    // for the distinct projections.
    DlProgram program = xlat.program;
    const PredId answer =
        program.InternPred("__magic_answer", effective.size());
    DlRule rule;
    rule.head.pred = answer;
    uint32_t max_var = 0;
    for (DlVarId v : effective) {
      rule.head.args.push_back(DlTerm::Variable(v));
      if (static_cast<uint32_t>(v) > max_var) max_var = v;
    }
    for (const DlAtom& atom : body) {
      for (const DlTerm& term : atom.args) {
        if (term.is_var && term.id > max_var) max_var = term.id;
      }
    }
    rule.body = std::move(body);
    for (uint32_t v = 0; v <= max_var; ++v) {
      rule.var_names.push_back("v" + std::to_string(v));
    }
    program.AddRule(std::move(rule));

    DlAtom query_atom;
    query_atom.pred = answer;
    for (size_t i = 0; i < effective.size(); ++i) {
      query_atom.args.push_back(DlTerm::Variable(static_cast<DlVarId>(i)));
    }
    EvalStats branch_stats;
    WDR_ASSIGN_OR_RETURN(
        std::vector<Tuple> tuples,
        AnswerWithMagic(program, query_atom,
                        stats != nullptr ? &branch_stats : nullptr));
    if (stats != nullptr) {
      stats->derived_tuples += branch_stats.derived_tuples;
      stats->iterations += branch_stats.iterations;
      stats->rule_evaluations += branch_stats.rule_evaluations;
    }
    for (const Tuple& tuple : tuples) {
      row.assign(projection.size(), rdf::kNullTermId);
      for (size_t i = 0; i < effective_cols.size(); ++i) {
        row[effective_cols[i]] = xlat.term_of_sym[tuple[i]];
      }
      for (const auto& [col, value] : fixed) row[col] = value;
      if (seen.Insert(row.data())) result.rows.push_back(row);
    }
  }
  query::ApplySolutionModifiers(q, result);
  return result;
}

}  // namespace wdr::datalog
