#include "reasoning/saturated_graph.h"

#include <deque>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wdr::reasoning {
namespace {

using rdf::StoreView;
using rdf::Triple;
using rdf::TripleHash;

}  // namespace

SaturatedGraph::SaturatedGraph(const rdf::Graph& base,
                               const schema::Vocabulary& vocab,
                               bool enable_owl)
    : base_(base), vocab_(vocab), enable_owl_(enable_owl) {
  Rebuild();
}

SaturatedGraph::SaturatedGraph(const SaturatedGraph& other)
    : base_(other.base_),
      closure_(other.closure_->Clone()),
      vocab_(other.vocab_),
      enable_owl_(other.enable_owl_),
      stats_(other.stats_),
      initial_stats_(other.initial_stats_) {}

SaturatedGraph& SaturatedGraph::operator=(const SaturatedGraph& other) {
  if (this == &other) return *this;
  base_ = other.base_;
  closure_ = other.closure_->Clone();
  vocab_ = other.vocab_;
  enable_owl_ = other.enable_owl_;
  stats_ = other.stats_;
  initial_stats_ = other.initial_stats_;
  return *this;
}

void SaturatedGraph::Rebuild() {
  Saturator saturator(vocab_, &base_.dict(), enable_owl_);
  closure_ = rdf::MakeStore(base_.backend());
  // The store is freshly constructed (empty), so this cannot fail.
  Status status =
      saturator.SaturateInto(base_.store(), *closure_, &initial_stats_);
  (void)status;
}

size_t SaturatedGraph::Insert(const Triple& t) {
  base_.Insert(t);
  ++stats_.inserts;
  WDR_COUNTER_INC("wdr.maintenance.inserts");
  if (!closure_->Insert(t)) return 0;  // already entailed
  size_t added = 1 + Propagate(MakeEngine(), *closure_, {t});
  stats_.closure_added += added;
  WDR_COUNTER_ADD("wdr.maintenance.closure_added", added);
  return added;
}

size_t SaturatedGraph::Erase(const Triple& t) {
  if (!base_.Erase(t)) return 0;
  ++stats_.deletes;
  WDR_COUNTER_INC("wdr.maintenance.deletes");
  obs::Span span("wdr.maintenance.dred");

  const RuleEngine engine = MakeEngine();

  // Phase 1 (over-delete): collect every closure triple with a derivation
  // path through `t`. Joins run against the still-intact closure so all
  // potential consumers are visible.
  std::unordered_set<Triple, TripleHash> overdeleted;
  std::deque<Triple> frontier{t};
  overdeleted.insert(t);
  while (!frontier.empty()) {
    Triple u = frontier.front();
    frontier.pop_front();
    engine.ForEachConsequence(*closure_, u, [&](const Triple& c, RuleId) {
      if (closure_->Contains(c) && overdeleted.insert(c).second) {
        frontier.push_back(c);
      }
    });
  }

  const size_t before = closure_->size();
  for (const Triple& u : overdeleted) closure_->Erase(u);
  stats_.overdeleted += overdeleted.size();

  // Phase 2 (re-derive): over-deleted triples that are still base facts or
  // still follow from the surviving closure come back, propagating through
  // the normal insertion path. Iterate to fixpoint: a re-derived triple can
  // in turn justify another over-deleted one. Each batch of rediscovered
  // triples propagates with the same engine as the initial build.
  std::vector<Triple> candidates(overdeleted.begin(), overdeleted.end());
  size_t rederived = 0;
  // Base facts first: they are unconditionally present.
  std::vector<Triple> batch;
  for (const Triple& u : candidates) {
    if (base_.Contains(u) && closure_->Insert(u)) batch.push_back(u);
  }
  rederived += batch.size() + Propagate(engine, *closure_, std::move(batch));
  bool changed = true;
  while (changed) {
    changed = false;
    batch.clear();
    for (const Triple& u : candidates) {
      if (closure_->Contains(u)) continue;
      if (engine.IsOneStepDerivable(*closure_, u)) {
        closure_->Insert(u);
        batch.push_back(u);
      }
    }
    if (!batch.empty()) {
      rederived +=
          batch.size() + Propagate(engine, *closure_, std::move(batch));
      changed = true;
    }
  }
  stats_.rederived += rederived;

  const size_t removed = before - closure_->size();
  stats_.closure_removed += removed;
  WDR_COUNTER_ADD("wdr.maintenance.overdeleted", overdeleted.size());
  WDR_COUNTER_ADD("wdr.maintenance.rederived", rederived);
  WDR_COUNTER_ADD("wdr.maintenance.closure_removed", removed);
  span.AddAttr("overdeleted", static_cast<uint64_t>(overdeleted.size()));
  span.AddAttr("rederived", static_cast<uint64_t>(rederived));
  return removed;
}

}  // namespace wdr::reasoning
