#include "reasoning/saturation.h"

#include <deque>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wdr::reasoning {
namespace {

// Registry flush happens once per saturation run (not per derivation): the
// worklist loop pays only plain local increments.
void FlushSaturationCounters(const RuleFirings& firings, size_t derived,
                             size_t rounds) {
  WDR_COUNTER_INC("wdr.saturation.runs");
  WDR_COUNTER_ADD("wdr.saturation.derived", derived);
  WDR_COUNTER_ADD("wdr.saturation.rounds", rounds);
  for (int i = 0; i < kRuleCount; ++i) {
    if (firings.counts[static_cast<size_t>(i)] == 0) continue;
    const RuleId rule = static_cast<RuleId>(i);
    obs::MetricsRegistry::Get()
        .GetCounter(std::string("wdr.saturation.firings.") + RuleName(rule))
        .Add(firings.counts[static_cast<size_t>(i)]);
  }
}

}  // namespace

size_t Propagate(const RuleEngine& engine, rdf::StoreView& closure,
                 std::vector<rdf::Triple> delta, RuleFirings* firings,
                 size_t* rounds) {
  RuleFirings local_firings;
  size_t local_rounds = 0;
  if (firings == nullptr) firings = &local_firings;
  if (rounds == nullptr) rounds = &local_rounds;
  // Rounds are worklist generations: round 1 consumes the seed triples,
  // round k+1 consumes the triples derived during round k. The count is
  // the derivation depth of the closure (BFS levels), useful for judging
  // how recursive a schema is.
  std::deque<rdf::Triple> worklist(delta.begin(), delta.end());
  size_t added = 0;
  size_t in_round = worklist.size();  // items left in the current generation
  if (!worklist.empty()) ++*rounds;
  while (!worklist.empty()) {
    if (in_round == 0) {
      in_round = worklist.size();
      ++*rounds;
    }
    rdf::Triple t = worklist.front();
    worklist.pop_front();
    --in_round;
    engine.ForEachConsequence(closure, t,
                              [&](const rdf::Triple& c, RuleId rule) {
                                if (closure.Insert(c)) {
                                  (*firings)[rule] += 1;
                                  ++added;
                                  worklist.push_back(c);
                                }
                              });
  }
  return added;
}

Status Saturator::SaturateInto(const rdf::StoreView& base,
                               rdf::StoreView& closure,
                               SaturationStats* stats) const {
  if (closure.size() != 0) {
    return InvalidArgumentError(
        "SaturateInto requires an empty closure store, got " +
        std::to_string(closure.size()) +
        " triples (stats and the derived count would be wrong; clear the "
        "store or use a fresh one)");
  }

  static obs::Histogram& latency =
      obs::MetricsRegistry::Get().GetHistogram("wdr.saturation.build");
  obs::Span span("wdr.saturation.build", &latency);

  closure.InsertBatch(base.ToVector());
  RuleFirings firings;
  size_t rounds = 0;
  Propagate(engine_, closure, closure.ToVector(), &firings, &rounds);

  const size_t derived = closure.size() - base.size();
  FlushSaturationCounters(firings, derived, rounds);
  span.AddAttr("derived", static_cast<uint64_t>(derived));
  span.AddAttr("rounds", static_cast<uint64_t>(rounds));

  if (stats != nullptr) {
    stats->base_triples = base.size();
    stats->closure_triples = closure.size();
    stats->derived_triples = derived;
    stats->rounds = rounds;
    stats->firings = firings;
  }
  return Status::Ok();
}

rdf::TripleStore Saturator::Saturate(const rdf::StoreView& base,
                                     SaturationStats* stats) const {
  rdf::TripleStore closure;
  // A freshly constructed closure is empty, so this cannot fail.
  Status status = SaturateInto(base, closure, stats);
  (void)status;
  return closure;
}

rdf::TripleStore Saturator::SaturateGraph(const rdf::Graph& graph,
                                          const schema::Vocabulary& vocab,
                                          SaturationStats* stats) {
  Saturator saturator(vocab, &graph.dict());
  return saturator.Saturate(graph.store(), stats);
}

}  // namespace wdr::reasoning
