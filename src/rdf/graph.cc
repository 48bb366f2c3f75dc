#include "rdf/graph.h"

#include <string_view>
#include <utility>
#include <vector>

namespace wdr::rdf {
namespace {

constexpr std::string_view kRdfsPrefix = "http://www.w3.org/2000/01/rdf-schema#";

}  // namespace

void Graph::SetBackend(StorageBackend backend) {
  if (backend == backend_) return;
  std::vector<Triple> triples = store_->ToVector();
  std::unique_ptr<StoreView> replacement = MakeStore(backend);
  replacement->InsertBatch(triples);
  store_ = std::move(replacement);
  backend_ = backend;
}

void Graph::ApplyPermutation(const std::vector<TermId>& perm) {
  dict_.ApplyPermutation(perm);
  std::vector<Triple> triples = store_->ToVector();
  auto remap = [&](TermId id) {
    return static_cast<size_t>(id) < perm.size() ? perm[id] : id;
  };
  for (Triple& t : triples) {
    t = Triple(remap(t.s), remap(t.p), remap(t.o));
  }
  std::unique_ptr<StoreView> replacement = MakeStore(backend_);
  replacement->InsertBatch(triples);
  store_ = std::move(replacement);
}

bool Graph::Insert(const Term& s, const Term& p, const Term& o) {
  return store_->Insert(Encode(s, p, o));
}

bool Graph::InsertIris(const std::string& s, const std::string& p,
                       const std::string& o) {
  return Insert(Term::Iri(s), Term::Iri(p), Term::Iri(o));
}

std::string Graph::Decode(const Triple& t) const {
  return dict_.term(t.s).ToNTriples() + " " + dict_.term(t.p).ToNTriples() +
         " " + dict_.term(t.o).ToNTriples() + " .";
}

GraphStats Graph::Stats() const {
  GraphStats stats;
  stats.triple_count = store_->size();
  stats.term_count = dict_.size();
  store_->Match(0, 0, 0, [&](const Triple& t) {
    const Term& p = dict_.term(t.p);
    if (p.is_iri() && p.lexical.rfind(kRdfsPrefix, 0) == 0) {
      ++stats.schema_triple_count;
    }
  });
  return stats;
}

}  // namespace wdr::rdf
