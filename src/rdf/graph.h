#ifndef WDR_RDF_GRAPH_H_
#define WDR_RDF_GRAPH_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/store_view.h"
#include "rdf/triple.h"

namespace wdr::rdf {

// Basic statistics over a graph, used by benches and the strategy advisor.
struct GraphStats {
  size_t triple_count = 0;
  size_t term_count = 0;
  size_t schema_triple_count = 0;  // triples whose property is an RDFS one
};

// An RDF graph: a dictionary plus a store of encoded triples. Both schema
// (RDFS) triples and instance triples live in the same store, as in the RDF
// standard; the schema module derives a constraint view from it.
//
// The storage engine is selected at construction (and switchable later):
// every consumer sees only the StoreView seam, so the reasoning layers are
// agnostic to the physical triple layout.
class Graph {
 public:
  explicit Graph(StorageBackend backend = StorageBackend::kOrdered)
      : backend_(backend), store_(MakeStore(backend)) {}

  // Copyable: snapshotting the base graph is how benches restore state
  // between runs. Moves are cheap.
  Graph(const Graph& other)
      : dict_(other.dict_),
        backend_(other.backend_),
        store_(other.store_->Clone()) {}
  Graph& operator=(const Graph& other) {
    if (this != &other) {
      dict_ = other.dict_;
      backend_ = other.backend_;
      store_ = other.store_->Clone();
    }
    return *this;
  }
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  StoreView& store() { return *store_; }
  const StoreView& store() const { return *store_; }

  StorageBackend backend() const { return backend_; }

  // Switches the storage engine, carrying the triples over. No-op if the
  // backend is already `backend`.
  void SetBackend(StorageBackend backend);

  // Renumbers the whole graph under an old-id -> new-id bijection: the
  // dictionary (Dictionary::ApplyPermutation) and every stored triple,
  // rebuilt into a fresh store of the same backend. This is the rebuild
  // half of the hierarchy-aware encoding (rdf/hier_encoding.h); callers
  // must remap any TermIds they hold outside the graph.
  void ApplyPermutation(const std::vector<TermId>& perm);

  // Interns the three terms without inserting, returning the encoded triple.
  Triple Encode(const Term& s, const Term& p, const Term& o) {
    return Triple(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
  }

  // Interns the three terms and inserts the triple. Returns false if the
  // triple was already present.
  bool Insert(const Term& s, const Term& p, const Term& o);

  // Convenience for all-IRI triples.
  bool InsertIris(const std::string& s, const std::string& p,
                  const std::string& o);

  bool Insert(const Triple& t) { return store_->Insert(t); }
  bool Erase(const Triple& t) { return store_->Erase(t); }
  bool Contains(const Triple& t) const { return store_->Contains(t); }

  // Batch insertion of already-encoded triples; returns the number added.
  size_t InsertBatch(std::span<const Triple> batch) {
    return store_->InsertBatch(batch);
  }

  size_t size() const { return store_->size(); }

  // Decodes `t` to N-Triples syntax ("<s> <p> <o> .").
  std::string Decode(const Triple& t) const;

  GraphStats Stats() const;

 private:
  Dictionary dict_;
  StorageBackend backend_ = StorageBackend::kOrdered;
  std::unique_ptr<StoreView> store_;
};

}  // namespace wdr::rdf

#endif  // WDR_RDF_GRAPH_H_
