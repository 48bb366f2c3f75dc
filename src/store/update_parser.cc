#include "store/update_parser.h"

#include <cctype>
#include <memory>
#include <string>

#include "io/turtle.h"
#include "rdf/graph.h"

namespace wdr::store {
namespace {

// Case-insensitive scanner over the update request, extracting the PREFIX
// prologue and the `INSERT DATA { ... }` / `DELETE DATA { ... }` blocks.
// Block contents are handed to the Turtle parser (prefix declarations are
// prepended), each into a scratch graph of its own. Only once the whole
// request has parsed are the scratch terms re-encoded into the caller's
// dictionary, so a malformed request interns nothing.
class UpdateScanner {
 public:
  UpdateScanner(std::string_view text, rdf::Dictionary& dict)
      : text_(text), dict_(dict) {}

  Result<std::vector<UpdateOp>> Run() {
    std::vector<Block> blocks;
    while (true) {
      SkipWhitespaceAndComments();
      if (AtEnd()) break;
      if (ConsumeKeyword("PREFIX")) {
        WDR_RETURN_IF_ERROR(CollectPrefix());
        continue;
      }
      bool is_insert;
      if (ConsumeKeyword("INSERT")) {
        is_insert = true;
      } else if (ConsumeKeyword("DELETE")) {
        is_insert = false;
      } else if (Peek() == ';') {
        Next();
        continue;
      } else {
        return Error("expected INSERT DATA, DELETE DATA or PREFIX");
      }
      SkipWhitespaceAndComments();
      if (!ConsumeKeyword("DATA")) {
        return Error(
            "only INSERT DATA / DELETE DATA are supported (no WHERE "
            "templates)");
      }
      WDR_ASSIGN_OR_RETURN(std::string text, CollectBlock());
      Block& block = blocks.emplace_back();
      block.is_insert = is_insert;
      block.graph = std::make_unique<rdf::Graph>();
      WDR_RETURN_IF_ERROR(ParseBlock(text, *block.graph));
    }
    if (blocks.empty()) return Error("empty update request");
    std::vector<UpdateOp> ops;
    ops.reserve(blocks.size());
    for (const Block& block : blocks) {
      UpdateOp& op = ops.emplace_back();
      op.is_insert = block.is_insert;
      const rdf::Dictionary& terms = block.graph->dict();
      block.graph->store().Match(0, 0, 0, [&](const rdf::Triple& t) {
        op.triples.push_back(rdf::Triple(dict_.Intern(terms.term(t.s)),
                                         dict_.Intern(terms.term(t.p)),
                                         dict_.Intern(terms.term(t.o))));
      });
    }
    return ops;
  }

 private:
  // One parsed data block, its terms still in the block's own dictionary.
  struct Block {
    bool is_insert = true;
    std::unique_ptr<rdf::Graph> graph;
  };

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  char Next() {
    char c = Peek();
    if (c == '\n') ++line_;
    ++pos_;
    return c;
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Next();
      } else if (c == '#') {
        while (!AtEnd() && Peek() != '\n') Next();
      } else {
        break;
      }
    }
  }

  Status Error(const std::string& message) const {
    return ParseError("line " + std::to_string(line_) + ": " + message);
  }

  bool ConsumeKeyword(std::string_view keyword) {
    SkipWhitespaceAndComments();
    for (size_t i = 0; i < keyword.size(); ++i) {
      char c = pos_ + i < text_.size() ? text_[pos_ + i] : '\0';
      if (std::toupper(static_cast<unsigned char>(c)) != keyword[i]) {
        return false;
      }
    }
    char after =
        pos_ + keyword.size() < text_.size() ? text_[pos_ + keyword.size()] : '\0';
    if (std::isalnum(static_cast<unsigned char>(after)) || after == '_') {
      return false;
    }
    for (size_t i = 0; i < keyword.size(); ++i) Next();
    return true;
  }

  // `PREFIX p: <iri>` — collected verbatim for the Turtle parser.
  Status CollectPrefix() {
    SkipWhitespaceAndComments();
    size_t start = pos_;
    while (!AtEnd() && Peek() != '>') Next();
    if (AtEnd()) return Error("unterminated PREFIX declaration");
    Next();  // '>'
    prologue_ += "PREFIX ";
    prologue_ += std::string(text_.substr(start, pos_ - start));
    prologue_ += '\n';
    return Status::Ok();
  }

  Result<std::string> CollectBlock() {
    SkipWhitespaceAndComments();
    if (Peek() != '{') return Error("expected '{' opening the data block");
    Next();
    size_t start = pos_;
    // Data blocks contain ground triples only; literals may contain braces.
    bool in_literal = false;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '"' ) in_literal = !in_literal;
      if (c == '\\' && in_literal) {
        Next();
        if (!AtEnd()) Next();
        continue;
      }
      if (c == '}' && !in_literal) break;
      Next();
    }
    if (AtEnd()) return Error("unterminated data block");
    std::string block(text_.substr(start, pos_ - start));
    Next();  // '}'
    return block;
  }

  Status ParseBlock(const std::string& block, rdf::Graph& out) {
    // The Turtle grammar wants statements terminated with '.'; tolerate a
    // missing final dot as SPARQL UPDATE data blocks commonly omit it.
    std::string document = prologue_ + block;
    size_t end = document.find_last_not_of(" \t\r\n");
    if (end != std::string::npos && document[end] != '.') {
      document += " .";
    }
    auto parsed = io::ParseTurtle(document, out);
    if (!parsed.ok()) return parsed.status();
    return Status::Ok();
  }

  std::string_view text_;
  rdf::Dictionary& dict_;
  size_t pos_ = 0;
  size_t line_ = 1;
  std::string prologue_;
};

}  // namespace

Result<std::vector<UpdateOp>> ParseSparqlUpdate(std::string_view text,
                                                rdf::Dictionary& dict) {
  return UpdateScanner(text, dict).Run();
}

}  // namespace wdr::store
