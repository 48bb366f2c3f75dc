#include "query/sparql_parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/term_lexer.h"
#include "schema/vocabulary.h"

namespace wdr::query {
namespace {

using io::internal::Cursor;

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

class SparqlParser {
 public:
  SparqlParser(std::string_view text, rdf::Dictionary& dict)
      : cursor_(text), dict_(dict) {}

  Result<UnionQuery> Run() {
    WDR_RETURN_IF_ERROR(ParsePrologue());
    bool is_ask = false;
    if (ConsumeKeyword("SELECT")) {
      distinct_ = ConsumeKeyword("DISTINCT");
      WDR_RETURN_IF_ERROR(ParseProjection());
      if (!ConsumeKeyword("WHERE")) {
        return cursor_.Error("expected WHERE");
      }
    } else if (ConsumeKeyword("ASK")) {
      is_ask = true;
      project_all_ = true;  // branches project their own vars; collapsed
      ConsumeKeyword("WHERE");  // optional in ASK form
    } else {
      return cursor_.Error("expected SELECT or ASK");
    }
    WDR_ASSIGN_OR_RETURN(UnionQuery result, ParseGroupGraphPattern());
    result.SetAsk(is_ask);
    WDR_RETURN_IF_ERROR(ParseSolutionModifiers(result));
    cursor_.SkipWhitespaceAndComments();
    if (!cursor_.AtEnd()) {
      return cursor_.Error("trailing input after query");
    }
    return result;
  }

 private:
  Status ParsePrologue() {
    while (true) {
      cursor_.SkipWhitespaceAndComments();
      if (!ConsumeKeyword("PREFIX")) return Status::Ok();
      cursor_.SkipWhitespaceAndComments();
      std::string prefix;
      while (!cursor_.AtEnd() && cursor_.Peek() != ':') {
        if (!IsNameChar(cursor_.Peek())) break;
        prefix += cursor_.Next();
      }
      if (cursor_.Peek() != ':') {
        return cursor_.Error("expected ':' in PREFIX declaration");
      }
      cursor_.Next();
      cursor_.SkipWhitespaceAndComments();
      WDR_ASSIGN_OR_RETURN(rdf::Term iri, cursor_.ParseIriRef());
      prefixes_[prefix] = iri.lexical;
    }
  }

  Status ParseProjection() {
    cursor_.SkipWhitespaceAndComments();
    if (cursor_.Peek() == '*') {
      cursor_.Next();
      project_all_ = true;
      return Status::Ok();
    }
    while (true) {
      cursor_.SkipWhitespaceAndComments();
      if (cursor_.Peek() != '?' && cursor_.Peek() != '$') break;
      WDR_ASSIGN_OR_RETURN(std::string name, ParseVarName());
      projection_names_.push_back(name);
    }
    if (projection_names_.empty()) {
      return cursor_.Error("SELECT needs '*' or at least one variable");
    }
    return Status::Ok();
  }

  Status ParseSolutionModifiers(UnionQuery& result) {
    // LIMIT and OFFSET in either order, each at most once.
    bool saw_limit = false, saw_offset = false;
    while (true) {
      if (!saw_limit && ConsumeKeyword("LIMIT")) {
        WDR_ASSIGN_OR_RETURN(size_t n, ParseNonNegativeInteger());
        result.SetLimit(n);
        saw_limit = true;
      } else if (!saw_offset && ConsumeKeyword("OFFSET")) {
        WDR_ASSIGN_OR_RETURN(size_t n, ParseNonNegativeInteger());
        result.SetOffset(n);
        saw_offset = true;
      } else {
        return Status::Ok();
      }
    }
  }

  Result<size_t> ParseNonNegativeInteger() {
    cursor_.SkipWhitespaceAndComments();
    std::string digits;
    while (std::isdigit(static_cast<unsigned char>(cursor_.Peek()))) {
      digits += cursor_.Next();
    }
    if (digits.empty()) return cursor_.Error("expected an integer");
    return static_cast<size_t>(std::stoull(digits));
  }

  Result<std::string> ParseVarName() {
    cursor_.Next();  // '?' or '$'
    std::string name;
    while (!cursor_.AtEnd() && IsNameChar(cursor_.Peek())) {
      name += cursor_.Next();
    }
    if (name.empty()) return cursor_.Error("empty variable name");
    return name;
  }

  // Case-insensitive keyword followed by a non-name character.
  bool ConsumeKeyword(std::string_view keyword) {
    cursor_.SkipWhitespaceAndComments();
    for (size_t i = 0; i < keyword.size(); ++i) {
      char c = cursor_.PeekAt(i);
      if (std::toupper(static_cast<unsigned char>(c)) != keyword[i]) {
        return false;
      }
    }
    if (IsNameChar(cursor_.PeekAt(keyword.size()))) return false;
    for (size_t i = 0; i < keyword.size(); ++i) cursor_.Next();
    return true;
  }

  Result<UnionQuery> ParseGroupGraphPattern() {
    cursor_.SkipWhitespaceAndComments();
    if (cursor_.Peek() != '{') return cursor_.Error("expected '{'");
    cursor_.Next();
    cursor_.SkipWhitespaceAndComments();

    std::vector<BgpQuery> branches;
    if (cursor_.Peek() == '{') {
      // `{ bgp } UNION { bgp } ...`
      while (true) {
        cursor_.SkipWhitespaceAndComments();
        if (cursor_.Peek() != '{') {
          return cursor_.Error("expected '{' opening a UNION branch");
        }
        cursor_.Next();
        WDR_ASSIGN_OR_RETURN(BgpQuery branch, ParseBgp());
        cursor_.SkipWhitespaceAndComments();
        if (cursor_.Peek() != '}') {
          return cursor_.Error("expected '}' closing a UNION branch");
        }
        cursor_.Next();
        branches.push_back(std::move(branch));
        if (!ConsumeKeyword("UNION")) break;
      }
    } else {
      WDR_ASSIGN_OR_RETURN(BgpQuery bgp, ParseBgp());
      branches.push_back(std::move(bgp));
    }
    cursor_.SkipWhitespaceAndComments();
    if (cursor_.Peek() != '}') {
      return cursor_.Error("expected '}' closing WHERE");
    }
    cursor_.Next();
    // Every branch projects the same variables, so branch arities line up
    // (UnionQuery's invariant): a projected variable absent from a branch
    // is registered there and stays unbound.
    UnionQuery result;
    for (BgpQuery& branch : branches) {
      for (const std::string& name : projection_names_) {
        branch.Project(branch.AddVar(name));
      }
      result.AddBranch(std::move(branch));
    }
    return result;
  }

  Result<BgpQuery> ParseBgp() {
    BgpQuery q;
    q.SetDistinct(distinct_);
    std::vector<std::string> seen_vars;
    while (true) {
      cursor_.SkipWhitespaceAndComments();
      char c = cursor_.Peek();
      if (c == '}' || c == '\0') break;
      TriplePattern atom;
      WDR_ASSIGN_OR_RETURN(atom.s, ParsePatternTerm(q, seen_vars));
      cursor_.SkipWhitespaceAndComments();
      WDR_ASSIGN_OR_RETURN(atom.p, ParsePatternTerm(q, seen_vars));
      cursor_.SkipWhitespaceAndComments();
      WDR_ASSIGN_OR_RETURN(atom.o, ParsePatternTerm(q, seen_vars));
      q.AddAtom(atom);
      cursor_.SkipWhitespaceAndComments();
      if (cursor_.Peek() == '.') {
        cursor_.Next();
        continue;
      }
      break;
    }
    if (q.atoms().empty()) return cursor_.Error("empty graph pattern");

    // `*` (and ASK) projects every variable of every branch, in first-seen
    // order; the projection is applied once all branches have parsed.
    if (project_all_) {
      for (const std::string& name : seen_vars) {
        if (std::find(projection_names_.begin(), projection_names_.end(),
                      name) == projection_names_.end()) {
          projection_names_.push_back(name);
        }
      }
    }
    return q;
  }

  Result<PatternTerm> ParsePatternTerm(BgpQuery& q,
                                       std::vector<std::string>& seen_vars) {
    char c = cursor_.Peek();
    if (c == '?' || c == '$') {
      WDR_ASSIGN_OR_RETURN(std::string name, ParseVarName());
      size_t before = q.var_count();
      VarId v = q.AddVar(name);
      if (q.var_count() > before) seen_vars.push_back(name);
      return PatternTerm::Variable(v);
    }
    if (c == '<') {
      WDR_ASSIGN_OR_RETURN(rdf::Term term, cursor_.ParseIriRef());
      return PatternTerm::Constant(dict_.Intern(term));
    }
    if (c == '"') {
      WDR_ASSIGN_OR_RETURN(rdf::Term term, cursor_.ParseLiteral());
      return PatternTerm::Constant(dict_.Intern(term));
    }
    if (c == '_') {
      WDR_ASSIGN_OR_RETURN(rdf::Term term, cursor_.ParseBlankNode());
      return PatternTerm::Constant(dict_.Intern(term));
    }
    if (c == 'a' && !IsNameChar(cursor_.PeekAt(1)) &&
        cursor_.PeekAt(1) != ':') {
      cursor_.Next();
      return PatternTerm::Constant(dict_.InternIri(schema::iri::kType));
    }
    // Prefixed name.
    std::string prefix;
    while (!cursor_.AtEnd() && cursor_.Peek() != ':') {
      if (!IsNameChar(cursor_.Peek())) break;
      prefix += cursor_.Next();
    }
    if (cursor_.Peek() != ':') {
      return cursor_.Error("expected a term (IRI, literal, variable, 'a')");
    }
    cursor_.Next();
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return cursor_.Error("undeclared prefix '" + prefix + ":'");
    }
    std::string local;
    while (!cursor_.AtEnd() && IsNameChar(cursor_.Peek())) {
      local += cursor_.Next();
    }
    return PatternTerm::Constant(dict_.InternIri(it->second + local));
  }

  Cursor cursor_;
  rdf::Dictionary& dict_;
  std::unordered_map<std::string, std::string> prefixes_;
  std::vector<std::string> projection_names_;
  bool project_all_ = false;
  bool distinct_ = false;
};

}  // namespace

Result<UnionQuery> ParseSparql(std::string_view text, rdf::Dictionary& dict) {
  return SparqlParser(text, dict).Run();
}

}  // namespace wdr::query
