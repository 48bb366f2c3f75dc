#include "reasoning/saturation.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <string>
#include <thread>
#include <utility>

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

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sequential eager worklist: a derived triple enters the closure the
// moment it is derived, so later triples of the same generation already
// join against it. Cheapest per-triple bookkeeping; the reference the
// parallel path is differential-tested against.
size_t PropagateWorklist(const RuleEngine& engine, rdf::StoreView& closure,
                         std::deque<rdf::Triple> worklist,
                         RuleFirings& firings, size_t& rounds) {
  // Rounds are worklist generations: round 1 consumes the seed triples,
  // round k+1 consumes the triples derived during round k. The count is
  // the derivation depth of the closure (BFS levels), useful for judging
  // how recursive a schema is.
  size_t added = 0;
  size_t in_round = worklist.size();  // items left in the current generation
  if (!worklist.empty()) ++rounds;
  while (!worklist.empty()) {
    if (in_round == 0) {
      in_round = worklist.size();
      ++rounds;
    }
    rdf::Triple t = worklist.front();
    worklist.pop_front();
    --in_round;
    engine.ForEachConsequence(closure, t,
                              [&](const rdf::Triple& c, RuleId rule) {
                                if (closure.Insert(c)) {
                                  firings[rule] += 1;
                                  ++added;
                                  worklist.push_back(c);
                                }
                              });
  }
  return added;
}

// One derived candidate awaiting the merge; the rule is carried along so
// the merge thread can attribute the firing if the insert wins.
struct Candidate {
  rdf::Triple triple;
  RuleId rule;
};

// Parallel round-barrier propagation. Per generation: the delta is split
// into contiguous chunks, workers claim chunks via an atomic cursor and
// derive against the read-only closure into per-chunk buffers, then a
// single thread merges the buffers in chunk order. Workers only *read*
// the closure (Contains/Match), so backends need no write locks — the
// merge thread is the sole writer, after the join.
size_t PropagateParallel(const RuleEngine& engine, rdf::StoreView& closure,
                         std::vector<rdf::Triple> delta, int threads,
                         RuleFirings& firings, size_t& rounds) {
  static obs::Histogram& barrier_wait =
      obs::MetricsRegistry::Get().GetHistogram("wdr.saturation.barrier_wait");

  size_t added = 0;
  std::vector<rdf::Triple> next_delta;
  while (!delta.empty()) {
    ++rounds;
    const size_t n = delta.size();
    // A few chunks per worker so a skewed chunk (one schema triple can fan
    // out to thousands of consequences) does not serialize the round.
    const size_t target_chunks = static_cast<size_t>(threads) * 4;
    const size_t chunk_size = std::max<size_t>(1, (n + target_chunks - 1) /
                                                      target_chunks);
    const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
    const int workers =
        static_cast<int>(std::min<size_t>(static_cast<size_t>(threads),
                                          num_chunks));

    std::vector<std::vector<Candidate>> chunk_out(num_chunks);
    std::atomic<size_t> next_chunk{0};
    std::vector<uint64_t> busy_nanos(static_cast<size_t>(workers), 0);

    // Worker threads are fresh std::threads with empty trace TLS: adopt
    // the dispatching thread's context so their spans attach to the
    // enclosing saturation/query span instead of becoming orphan roots.
    const obs::TraceContext trace_context = obs::CurrentTraceContext();

    auto work = [&](int worker_id) {
      obs::TraceContextScope trace_scope(trace_context);
      obs::Span worker_span("wdr.saturation.worker");
      worker_span.AddAttr("worker", static_cast<uint64_t>(worker_id));
      const uint64_t start = NowNanos();
      size_t derived = 0;
      for (;;) {
        const size_t i = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (i >= num_chunks) break;
        std::vector<Candidate>& sink = chunk_out[i];
        const size_t lo = i * chunk_size;
        const size_t hi = std::min(n, lo + chunk_size);
        for (size_t j = lo; j < hi; ++j) {
          engine.ForEachConsequence(
              closure, delta[j], [&](const rdf::Triple& c, RuleId rule) {
                // Pre-filter against the (frozen) closure so the merge
                // only sees genuinely new candidates plus same-round
                // duplicates.
                if (!closure.Contains(c)) sink.push_back({c, rule});
              });
        }
        derived += sink.size();
      }
      busy_nanos[static_cast<size_t>(worker_id)] = NowNanos() - start;
      if (derived != 0) {
        obs::MetricsRegistry::Get()
            .GetCounter("wdr.saturation.worker." +
                        std::to_string(worker_id) + ".derived")
            .Add(derived);
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers) - 1);
    for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
    work(0);
    for (std::thread& th : pool) th.join();

    // Barrier wait per worker: how long each one idled while the slowest
    // finished its chunks. Large values mean skewed chunks.
    const uint64_t slowest =
        *std::max_element(busy_nanos.begin(), busy_nanos.end());
    for (uint64_t busy : busy_nanos) barrier_wait.RecordNanos(slowest - busy);

    // Single-threaded merge, in chunk order. Chunks are contiguous slices
    // of the delta, so the concatenated candidate stream — and therefore
    // the insert order, the firing attribution and the next delta — is
    // identical for every thread count.
    next_delta.clear();
    for (std::vector<Candidate>& out : chunk_out) {
      for (const Candidate& cand : out) {
        if (closure.Insert(cand.triple)) {
          firings[cand.rule] += 1;
          ++added;
          next_delta.push_back(cand.triple);
        }
      }
    }
    delta.swap(next_delta);
  }
  return added;
}

}  // namespace

size_t PropagateRounds(const RuleEngine& engine, rdf::StoreView& closure,
                       std::vector<rdf::Triple> delta,
                       const SaturationOptions& options, RuleFirings* firings,
                       size_t* rounds) {
  RuleFirings local_firings;
  size_t local_rounds = 0;
  size_t added;
  if (options.threads <= 1) {
    added = PropagateWorklist(
        engine, closure,
        std::deque<rdf::Triple>(delta.begin(), delta.end()), local_firings,
        local_rounds);
  } else {
    added = PropagateParallel(engine, closure, std::move(delta),
                              options.threads, local_firings, local_rounds);
  }
  if (firings != nullptr) {
    for (int i = 0; i < kRuleCount; ++i) {
      firings->counts[static_cast<size_t>(i)] +=
          local_firings.counts[static_cast<size_t>(i)];
    }
  }
  if (rounds != nullptr) *rounds += local_rounds;
  return added;
}

Status Saturator::SaturateInto(const rdf::StoreView& base,
                               rdf::StoreView& closure,
                               const SaturationOptions& options,
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
  PropagateRounds(engine_, closure, closure.ToVector(), options, &firings,
                  &rounds);

  const size_t derived = closure.size() - base.size();
  FlushSaturationCounters(firings, derived, rounds);
  span.AddAttr("derived", static_cast<uint64_t>(derived));
  span.AddAttr("rounds", static_cast<uint64_t>(rounds));
  span.AddAttr("threads",
               static_cast<uint64_t>(options.threads < 1 ? 1
                                                         : options.threads));

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
                                     SaturationStats* stats,
                                     const SaturationOptions& options) const {
  rdf::TripleStore closure;
  // A freshly constructed closure is empty, so this cannot fail.
  Status status = SaturateInto(base, closure, options, stats);
  (void)status;
  return closure;
}

rdf::TripleStore Saturator::SaturateGraph(const rdf::Graph& graph,
                                          const schema::Vocabulary& vocab,
                                          SaturationStats* stats,
                                          const SaturationOptions& options) {
  Saturator saturator(vocab, &graph.dict());
  return saturator.Saturate(graph.store(), stats, options);
}

}  // namespace wdr::reasoning
