#include "query/evaluator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "exec/dedup_table.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "exec/source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/dictionary.h"

namespace wdr::query {
namespace {

using rdf::kNullTermId;
using rdf::StoreView;
using rdf::Triple;
using rdf::UnionStore;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Cooperative-cancellation probe built from EvaluatorOptions::cancel /
// deadline_nanos. The flag costs one relaxed load per probe; the deadline
// clock is only read every kClockStride probes (a syscall-adjacent clock
// read per enumerated triple would dominate small scans). The flag may be
// raised from another thread; the probe itself belongs to one evaluation.
class CancelProbe {
 public:
  CancelProbe() = default;
  explicit CancelProbe(const EvaluatorOptions& options)
      : cancel_(options.cancel), deadline_(options.deadline_nanos) {}

  bool enabled() const { return cancel_ != nullptr || deadline_ != 0; }

  // True once the flag has been raised or the deadline has passed; sticky.
  bool Expired() {
    if (expired_) return true;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      expired_ = true;
    } else if (deadline_ != 0 && (++ticks_ & (kClockStride - 1)) == 0 &&
               NowNanos() >= deadline_) {
      expired_ = true;
    }
    return expired_;
  }

 private:
  static constexpr uint64_t kClockStride = 4096;  // power of two
  const std::atomic<bool>* cancel_ = nullptr;
  uint64_t deadline_ = 0;
  uint64_t ticks_ = 0;
  bool expired_ = false;
};

// Per-atom operator statistics gathered during a profiled join. Indexed by
// atom position in the query, not by join order, so the profile tree reads
// in the order the query was written. Timing is one interval per atom
// activation (raw clock reads accumulated into `nanos`, not a Timer object
// per Match call); `nanos` is INCLUSIVE — an atom's time contains the time
// of every operator nested under it, so a parent's time is never smaller
// than a child's.
struct AtomStats {
  uint64_t scans = 0;    // live cursor opens (scan-cache replays open none)
  uint64_t triples = 0;  // triples enumerated (from the store or the cache)
  uint64_t rows = 0;     // bindings successfully extended
  uint64_t nanos = 0;    // inclusive: contains nested operators' time
};

// Cross-branch scan-signature cache, shared by every branch of one union
// evaluation. Reformulated UCQs are grids of structurally similar BGPs,
// so the same resolved (s,p,o) scans — leading atoms shared verbatim
// between branches, and fully-ground or bound inner probes re-resolved to
// the same ids — recur dozens of times; the cache replays a completed scan
// as a flat vector instead of re-opening store cursors. Replayed sequences
// are the exact triple order the live cursor produced, so answers are
// bit-identical with the cache on or off.
//
// Concurrency: lookups take a shared lock, insertions a unique lock.
// Entries are never erased while the evaluation runs, so replay pointers
// stay valid after the lock is released (values are heap vectors behind
// stable unique_ptrs). If a signature is already present when a scan is
// recorded, the first insert wins and the duplicate is dropped.
class ScanCache {
 public:
  // Per-signature cap: scans longer than this are marked oversized and
  // always stream live, so one unselective pattern cannot pin a large
  // slice of the store.
  static constexpr size_t kMaxCachedTriples = 1 << 16;
  // Caps on distinct signatures and on total cached triples (inner atoms
  // resolve against every outer binding, so the key space can be large).
  static constexpr size_t kMaxEntries = 1 << 16;
  static constexpr size_t kMaxTotalTriples = 1 << 22;

  struct Lookup {
    const std::vector<Triple>* triples = nullptr;  // replay on hit
    bool oversized = false;  // known too big: stream live, skip the tee
  };

  Lookup Find(const Triple& key) {
    {
      std::shared_lock<std::shared_mutex> lock(mutex_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        if (it->second == nullptr) {
          misses_.fetch_add(1, std::memory_order_relaxed);
          return {nullptr, true};
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return {it->second.get(), false};
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return {nullptr, false};
  }

  // Records the completed scan for `key`, consuming `*triples` (the
  // caller's tee buffer is moved from, not copied); `triples == nullptr`
  // records an oversized marker instead. Returns the sequence now cached
  // under `key` — the one just stored, or an earlier winner's identical
  // copy — so the caller can replay it; nullptr when only a marker is (or
  // could be) recorded, in which case the caller's buffer was not consumed.
  const std::vector<Triple>* Insert(const Triple& key,
                                    std::vector<Triple>* triples) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (triples != nullptr &&
        total_triples_ + triples->size() > kMaxTotalTriples) {
      triples = nullptr;  // budget exhausted: degrade to a marker
    }
    auto it = map_.find(key);
    if (it == map_.end()) {
      if (map_.size() >= kMaxEntries) return nullptr;
      it = map_.try_emplace(key).first;
      if (triples != nullptr) {
        total_triples_ += triples->size();
        it->second =
            std::make_unique<std::vector<Triple>>(std::move(*triples));
      }
    }
    return it->second.get();
  }

  // Memoized greedy-ordering cardinality estimate for `key`, true on hit.
  // On the ordered store EstimateCount is itself a capped scan, and the
  // greedy pass re-estimates the same resolved pattern for every binding
  // of every branch (e.g. (?y type C) once per outer ?x) — the memo makes
  // each distinct estimate one probe per union evaluation. Estimates are
  // deterministic store functions, so memoization cannot change the join
  // order a branch picks.
  bool FindEstimate(const Triple& key, size_t* count) {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = estimates_.find(key);
    if (it == estimates_.end()) return false;
    *count = it->second;
    return true;
  }

  void InsertEstimate(const Triple& key, size_t count) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (estimates_.size() >= kMaxEntries) return;
    estimates_.emplace(key, count);
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  void FlushCounters() const {
    WDR_COUNTER_ADD("wdr.query.scan_cache.hits", hits());
    WDR_COUNTER_ADD("wdr.query.scan_cache.misses", misses());
  }

 private:
  std::shared_mutex mutex_;
  std::unordered_map<Triple, std::unique_ptr<std::vector<Triple>>,
                     rdf::TripleHash>
      map_;
  std::unordered_map<Triple, size_t, rdf::TripleHash> estimates_;
  size_t total_triples_ = 0;  // guarded by mutex_
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

// Resolves a pattern position under the current bindings: a constant, a
// bound variable's value, or 0 (wildcard) for an unbound variable.
TermId Resolve(const PatternTerm& t, const std::vector<TermId>& bindings) {
  if (t.is_const()) return t.id;
  return bindings[t.var];
}

// Range-aware resolution: a constant or bound variable pins a point, an
// unbound variable is unconstrained, and a range term carries its own
// inclusive bounds into the scan plan.
rdf::TermRange ResolveRange(const PatternTerm& t,
                            const std::vector<TermId>& bindings) {
  if (t.is_const()) return rdf::TermRange::Point(t.id);
  if (t.is_range()) return rdf::TermRange{t.id, t.id2};
  return rdf::TermRange::Pattern(bindings[t.var]);
}

bool HasRangeTerm(const TriplePattern& a) {
  return a.s.is_range() || a.p.is_range() || a.o.is_range();
}

// Matches one position of a pattern against a triple's `value`, binding an
// unbound variable (recorded in `bound_here` for undo) and enforcing
// repeated-variable consistency (e.g. ?x ?p ?x). Range terms never bind:
// the scan plan already guarantees the value lies inside the range.
bool TryBind(const PatternTerm& term, TermId value,
             std::vector<TermId>& bindings, VarId (&bound_here)[3],
             size_t& bound_count) {
  if (term.is_const()) return term.id == value;
  if (term.is_range()) return true;
  TermId& slot = bindings[term.var];
  if (slot == kNullTermId) {
    slot = value;
    bound_here[bound_count++] = term.var;
    return true;
  }
  return slot == value;
}

// Recursive bound-first join over the atoms of `q`. Store is any type
// with the StoreView Match/EstimateCount surface (the storage seam itself
// or the federation's UnionStore).
template <typename Store>
class BgpJoin {
 public:
  BgpJoin(const Store& store, const BgpQuery& q, bool greedy = true)
      : store_(store),
        q_(q),
        greedy_(greedy),
        bindings_(q.var_count(), kNullTermId) {
    for (const auto& [var, value] : q.preset()) bindings_[var] = value;
  }

  // Runs the join; `emit` returns false to stop enumeration early (used
  // by ASK and LIMIT, where computing further solutions is wasted work).
  template <typename EmitFn>
  void Run(EmitFn&& emit) {
    remaining_.resize(q_.atoms().size());
    for (size_t i = 0; i < remaining_.size(); ++i) remaining_[i] = i;
    // One tee buffer per join depth: a nested activation must not clobber
    // the buffer its parent is still filling.
    if (cache_ != nullptr) scratch_.resize(q_.atoms().size());
    Recurse(emit);
  }

  // Enables per-atom stats collection; `stats` must outlive Run() and have
  // one entry per query atom.
  void set_stats(std::vector<AtomStats>* stats) { stats_ = stats; }

  // Shares `cache` (may be null) across this join's scans; see ScanCache.
  // `eager` selects materialize-first misses: the scan is completed into
  // the tee and published BEFORE its triples are processed, so concurrent
  // branches hit the entry after one scan's latency instead of a whole
  // subtree's, and even the publishing branch joins from the flat copy
  // rather than a live cursor. Bounded queries (ASK / LIMIT) pass eager =
  // false: they may stop mid-scan, and pre-reading a scan to completion
  // would do work their early-cancellation exists to avoid.
  void set_scan_cache(ScanCache* cache, bool eager = true) {
    cache_ = cache;
    eager_cache_ = eager;
  }

  // Attaches a cooperative-cancellation probe (may be null); checked per
  // enumerated triple, so a cancelled join stops mid-scan. `probe` must
  // outlive Run().
  void set_cancel(CancelProbe* probe) { cancel_probe_ = probe; }

  const std::vector<TermId>& bindings() const { return bindings_; }

 private:
  template <typename EmitFn>
  void Recurse(EmitFn&& emit) {
    if (stopped_) return;
    if (remaining_.empty()) {
      if (!internal_emit(emit)) stopped_ = true;
      return;
    }
    const size_t depth = q_.atoms().size() - remaining_.size();
    // Pick the cheapest atom under current bindings (or the first
    // remaining one when greedy ordering is disabled). A single remaining
    // atom needs no cost-estimation pass: it is the choice either way, and
    // leaf-level recursion is the hottest path of the join.
    size_t best_pos = 0;
    if (greedy_ && remaining_.size() > 1) {
      size_t best_cost = SIZE_MAX;
      for (size_t i = 0; i < remaining_.size(); ++i) {
        const TriplePattern& a = q_.atoms()[remaining_[i]];
        // Range atoms bypass the Triple-keyed estimate memo: their key
        // space is bound pairs, not points.
        size_t cost =
            HasRangeTerm(a)
                ? store_.EstimateCountRange(rdf::PlanRangeScan(
                      ResolveRange(a.s, bindings_),
                      ResolveRange(a.p, bindings_),
                      ResolveRange(a.o, bindings_)))
                : EstimateCost(Resolve(a.s, bindings_),
                               Resolve(a.p, bindings_),
                               Resolve(a.o, bindings_));
        if (cost < best_cost) {
          best_cost = cost;
          best_pos = i;
        }
      }
    }
    size_t atom_index = remaining_[best_pos];
    remaining_.erase(remaining_.begin() + best_pos);
    const TriplePattern& atom = q_.atoms()[atom_index];

    AtomStats* as = stats_ ? &(*stats_)[atom_index] : nullptr;
    auto process = [&](const Triple& t) {
      if (cancel_probe_ != nullptr && cancel_probe_->Expired()) {
        stopped_ = true;
        return false;
      }
      if (as) ++as->triples;
      // At most three variables bind per triple, so the undo log is a
      // fixed array, not an allocation.
      VarId bound_here[3];
      size_t bound_count = 0;
      bool ok = TryBind(atom.s, t.s, bindings_, bound_here, bound_count) &&
                TryBind(atom.p, t.p, bindings_, bound_here, bound_count) &&
                TryBind(atom.o, t.o, bindings_, bound_here, bound_count);
      if (ok) {
        if (as) ++as->rows;
        Recurse(emit);
      }
      while (bound_count > 0) {
        bindings_[bound_here[--bound_count]] = kNullTermId;
      }
      return !stopped_;
    };
    auto match = [&] {
      if (HasRangeTerm(atom)) {
        // Range scans skip the scan cache (its Triple keys cannot carry
        // range bounds); they are single contiguous index scans already.
        if (as) ++as->scans;
        store_.MatchPlan(
            rdf::PlanRangeScan(ResolveRange(atom.s, bindings_),
                               ResolveRange(atom.p, bindings_),
                               ResolveRange(atom.o, bindings_)),
            process);
        return;
      }
      Match(depth, Resolve(atom.s, bindings_), Resolve(atom.p, bindings_),
            Resolve(atom.o, bindings_), as, process);
    };
    if (as) {
      const uint64_t start = NowNanos();
      match();
      as->nanos += NowNanos() - start;
    } else {
      match();
    }

    remaining_.insert(remaining_.begin() + best_pos, atom_index);
  }

  // One cardinality estimate for the greedy ordering pass, memoized in
  // the shared cache when one is attached (a cached scan's length is the
  // exact count, which the estimate approximates — but the memo stores
  // the store's own estimate so ordering is identical with and without
  // the cache).
  size_t EstimateCost(TermId s, TermId p, TermId o) {
    if (cache_ == nullptr || (s | p | o) == 0) {
      return store_.EstimateCount(s, p, o);
    }
    const Triple key(s, p, o);
    size_t cost = 0;
    if (cache_->FindEstimate(key, &cost)) return cost;
    cost = store_.EstimateCount(s, p, o);
    cache_->InsertEstimate(key, cost);
    return cost;
  }

  // One pattern scan, through the shared scan cache when one is attached:
  // replay a memoized sequence, or tee the live scan into a depth-local
  // buffer and memoize it if it ran to completion within the size cap.
  template <typename ProcessFn>
  void Match(size_t depth, TermId s, TermId p, TermId o, AtomStats* as,
             ProcessFn&& process) {
    if (cache_ == nullptr || (s | p | o) == 0) {
      if (as) ++as->scans;
      store_.Match(s, p, o, process);
      return;
    }
    const Triple key(s, p, o);
    const ScanCache::Lookup found = cache_->Find(key);
    if (found.triples != nullptr) {
      for (const Triple& t : *found.triples) {
        if (!process(t)) return;
      }
      return;
    }
    if (as) ++as->scans;
    if (found.oversized) {
      store_.Match(s, p, o, process);
      return;
    }
    std::vector<Triple>& tee = scratch_[depth];
    tee.clear();
    if (eager_cache_) {
      // Materialize-first: read the whole scan, publish, then process the
      // flat copy (the winner's copy on an insert race — identical bytes).
      bool oversized = false;
      store_.Match(s, p, o, [&](const Triple& t) {
        if (tee.size() >= ScanCache::kMaxCachedTriples) {
          oversized = true;
          return false;
        }
        tee.push_back(t);
        return true;
      });
      if (oversized) {
        cache_->Insert(key, nullptr);  // marker: always stream live
        store_.Match(s, p, o, process);
        return;
      }
      const std::vector<Triple>* stored = cache_->Insert(key, &tee);
      for (const Triple& t : stored != nullptr ? *stored : tee) {
        if (!process(t)) return;
      }
      return;
    }
    // Lazy: tee alongside processing so an early stop aborts the scan too.
    bool completed = true;
    bool oversized = false;
    store_.Match(s, p, o, [&](const Triple& t) {
      if (!oversized) {
        if (tee.size() < ScanCache::kMaxCachedTriples) {
          tee.push_back(t);
        } else {
          oversized = true;
        }
      }
      const bool keep_going = process(t);
      // An early-stopped scan is a prefix, not the sequence: uncacheable.
      if (!keep_going) completed = false;
      return keep_going;
    });
    if (completed) cache_->Insert(key, oversized ? nullptr : &tee);
  }

  // Adapts emit callbacks returning void (never stop) or bool.
  template <typename EmitFn>
  bool internal_emit(EmitFn&& emit) {
    if constexpr (std::is_void_v<decltype(emit(bindings_))>) {
      emit(bindings_);
      return true;
    } else {
      return emit(bindings_);
    }
  }

  const Store& store_;
  const BgpQuery& q_;
  bool greedy_;
  bool stopped_ = false;
  std::vector<TermId> bindings_;
  std::vector<size_t> remaining_;
  std::vector<AtomStats>* stats_ = nullptr;  // not owned; null = no profiling
  CancelProbe* cancel_probe_ = nullptr;      // not owned; null = no deadline
  ScanCache* cache_ = nullptr;               // not owned; null = no caching
  bool eager_cache_ = true;                  // see set_scan_cache
  std::vector<std::vector<Triple>> scratch_;  // per-depth tee buffers
};

// Short human label for a term: the IRI fragment / last path segment, or
// the raw id when no dictionary is available.
std::string TermLabel(const rdf::Dictionary* dict, TermId id) {
  if (dict == nullptr || !dict->Contains(id)) {
    return "#" + std::to_string(id);
  }
  const std::string& lex = dict->term(id).lexical;
  size_t pos = lex.find_last_of("/#");
  if (pos != std::string::npos && pos + 1 < lex.size()) {
    return lex.substr(pos + 1);
  }
  return lex;
}

std::string PatternTermLabel(const BgpQuery& q, const rdf::Dictionary* dict,
                             const PatternTerm& t) {
  if (t.is_const()) return TermLabel(dict, t.id);
  if (t.is_range()) {
    return "[" + TermLabel(dict, t.id) + ".." + TermLabel(dict, t.id2) + "]";
  }
  return "?" + q.var_name(t.var);
}

std::string AtomLabel(const BgpQuery& q, const rdf::Dictionary* dict,
                      const TriplePattern& a) {
  return "scan(" + PatternTermLabel(q, dict, a.s) + " " +
         PatternTermLabel(q, dict, a.p) + " " +
         PatternTermLabel(q, dict, a.o) + ")";
}

// Copies per-atom join stats into `parent` as one child per atom, in
// written query order. Per-atom seconds are inclusive (see AtomStats).
void FillAtomProfile(obs::ProfileNode& parent, const BgpQuery& q,
                     const rdf::Dictionary* dict,
                     const std::vector<AtomStats>& stats) {
  for (size_t i = 0; i < q.atoms().size(); ++i) {
    obs::ProfileNode& child = parent.AddChild(AtomLabel(q, dict, q.atoms()[i]));
    child.rows = stats[i].rows;
    child.triples = stats[i].triples;
    child.scans = stats[i].scans;
    child.seconds = static_cast<double>(stats[i].nanos) * 1e-9;
  }
}

// ---------------------------------------------------------------------------
// Plan-mode evaluation: compile a BGP into the shared wdr::exec IR and run
// it batch-at-a-time. The legacy recursive join above stays selectable
// (EvaluatorOptions::plan = false, the default) for differential testing.
// ---------------------------------------------------------------------------

// TupleSource over a triple-store-shaped Store, routed through the union
// evaluation's ScanCache when one is attached: resolved (s,p,o) scans are
// replayed from the memoized flat vectors exactly as the legacy join's
// Match does (same keys, same eager/lazy split, same oversized markers).
// One instance serves one executor.
template <typename Store>
class CachedStoreSource final : public exec::TupleSource {
 public:
  CachedStoreSource(const Store& store, ScanCache* cache, bool eager)
      : store_(&store), cache_(cache), eager_(eager) {}

  size_t arity() const override { return 3; }

  bool Scan(const exec::Value* values, const uint8_t* bound,
            exec::FunctionRef<bool(const exec::Value*)> fn) const override {
    const TermId s = bound[0] ? values[0] : kNullTermId;
    const TermId p = bound[1] ? values[1] : kNullTermId;
    const TermId o = bound[2] ? values[2] : kNullTermId;
    bool keep = true;
    auto process = [&](const Triple& t) {
      exec::Value row[3] = {t.s, t.p, t.o};
      keep = fn(row);
      return keep;
    };
    if (cache_ == nullptr || (s | p | o) == 0) {
      store_->Match(s, p, o, process);
      return keep;
    }
    const Triple key(s, p, o);
    const ScanCache::Lookup found = cache_->Find(key);
    if (found.triples != nullptr) {
      for (const Triple& t : *found.triples) {
        if (!process(t)) return keep;
      }
      return keep;
    }
    if (found.oversized) {
      store_->Match(s, p, o, process);
      return keep;
    }
    // Pipelined operators nest scans (an outer scan callback drives inner
    // probes), so tee buffers are a per-activation stack, not one scratch.
    if (depth_ >= pool_.size()) pool_.emplace_back();
    std::vector<Triple>& tee = pool_[depth_++];
    tee.clear();
    if (eager_) {
      bool oversized = false;
      store_->Match(s, p, o, [&](const Triple& t) {
        if (tee.size() >= ScanCache::kMaxCachedTriples) {
          oversized = true;
          return false;
        }
        tee.push_back(t);
        return true;
      });
      if (oversized) {
        cache_->Insert(key, nullptr);
        store_->Match(s, p, o, process);
      } else {
        const std::vector<Triple>* stored = cache_->Insert(key, &tee);
        for (const Triple& t : stored != nullptr ? *stored : tee) {
          if (!process(t)) break;
        }
      }
    } else {
      bool completed = true;
      bool oversized = false;
      store_->Match(s, p, o, [&](const Triple& t) {
        if (!oversized) {
          if (tee.size() < ScanCache::kMaxCachedTriples) {
            tee.push_back(t);
          } else {
            oversized = true;
          }
        }
        const bool keep_going = process(t);
        if (!keep_going) completed = false;
        return keep_going;
      });
      if (completed) cache_->Insert(key, oversized ? nullptr : &tee);
    }
    --depth_;
    return keep;
  }

  // Range scans bypass the ScanCache entirely (its Triple keys cannot
  // carry interval bounds) and go straight to the store's range window.
  bool ScanRange(const exec::Value* values, const exec::Value* values_hi,
                 const uint8_t* bound,
                 exec::FunctionRef<bool(const exec::Value*)> fn)
      const override {
    bool keep = true;
    store_->MatchPlan(RangePlan(values, values_hi, bound),
                      [&](const Triple& t) {
                        exec::Value row[3] = {t.s, t.p, t.o};
                        keep = fn(row);
                        return keep;
                      });
    return keep;
  }

 private:
  static rdf::ScanPlan RangePlan(const exec::Value* values,
                                 const exec::Value* values_hi,
                                 const uint8_t* bound) {
    auto range = [&](size_t i) {
      if (bound[i] == exec::TupleSource::kPoint) {
        return rdf::TermRange::Point(values[i]);
      }
      if (bound[i] == exec::TupleSource::kRange) {
        return rdf::TermRange{values[i], values_hi[i]};
      }
      return rdf::TermRange::Any();
    };
    return rdf::PlanRangeScan(range(0), range(1), range(2));
  }

  const Store* store_;  // not owned
  ScanCache* cache_;    // not owned; null = no caching
  bool eager_;
  mutable std::vector<std::vector<Triple>> pool_;  // per-nesting tee buffers
  mutable size_t depth_ = 0;
};

exec::ConjunctiveSpec SpecFromBgp(const BgpQuery& q,
                                  const rdf::Dictionary* dict) {
  exec::ConjunctiveSpec spec;
  auto term = [](const PatternTerm& t) {
    if (t.is_const()) return exec::AtomTerm::Const(t.id);
    if (t.is_range()) return exec::AtomTerm::Range(t.id, t.id2);
    return exec::AtomTerm::Var(t.var);
  };
  for (const TriplePattern& atom : q.atoms()) {
    exec::PlanConjunct conjunct;
    conjunct.source = 0;
    conjunct.terms = {term(atom.s), term(atom.p), term(atom.o)};
    conjunct.label = AtomLabel(q, dict, atom);
    spec.conjuncts.push_back(std::move(conjunct));
  }
  for (const auto& [var, value] : q.preset()) {
    spec.presets.emplace_back(var, value);
  }
  for (VarId v : q.projection()) spec.projection.push_back(v);
  return spec;
}

// Compiles one BGP. `stats` non-null selects the cost-based planner
// (order + join algorithm from per-predicate statistics); null degrades
// to the greedy bound-first order over the store's own estimates with
// nested loops only — the fallback for empty or stale statistics.
template <typename Store>
exec::CompiledPlan PlanBgpBranch(const Store& store, const BgpQuery& q,
                                 const EvaluatorOptions& options,
                                 const exec::Statistics* stats) {
  const exec::ConjunctiveSpec spec = SpecFromBgp(q, options.dict);
  exec::PlannerOptions popts;
  popts.hash_joins = options.hash_joins;
  std::optional<exec::StatisticsEstimator> stats_est;
  std::optional<exec::StoreEstimator<Store>> store_est;
  if (stats != nullptr) {
    stats_est.emplace(*stats);
    popts.estimator = &*stats_est;
    popts.cost_based = true;
  } else {
    store_est.emplace(store);
    popts.estimator = &*store_est;
    popts.cost_based = false;
  }
  return exec::PlanConjunctive(spec, popts);
}

// Usable statistics or null: null (or empty, or out of sync with the live
// store size) means the planner must degrade. Locally-built statistics
// are fresh by construction and skip the size check (a federation
// UnionStore's size() counts duplicates per member, which its Match
// stream legitimately dedups).
template <typename Store>
const exec::Statistics* UsableStats(const Store& store,
                                    const EvaluatorOptions& options,
                                    std::optional<exec::Statistics>& local) {
  if (options.stats != nullptr) {
    if (options.stats->empty() ||
        options.stats->total_triples() != store.size()) {
      return nullptr;  // stale or empty: degrade
    }
    return options.stats;
  }
  local.emplace(exec::Statistics::Build(store));
  return local->empty() ? nullptr : &*local;
}

// Caps row-buffer pre-reservation from a cardinality estimate: estimates
// are approximations, and an estimate gone wild must not reserve gigabytes.
constexpr size_t kMaxReserveRows = size_t{1} << 20;

size_t ReserveHint(double est_rows) {
  if (est_rows < 0) return 0;
  return std::min(static_cast<size_t>(est_rows) + 1, kMaxReserveRows);
}

// Runs a compiled branch plan, streaming projected rows to
// `emit(Row&) -> bool` through `scratch`. `profile`, when non-null,
// receives the operator tree with estimated vs. actual cardinalities.
template <typename Store, typename EmitFn>
void ExecutePlannedBranch(const Store& store, const exec::CompiledPlan& plan,
                          const EvaluatorOptions& options, ScanCache* cache,
                          bool eager, obs::ProfileNode* profile, Row& scratch,
                          EmitFn&& emit) {
  CachedStoreSource<Store> source(store, cache, eager);
  const std::vector<const exec::TupleSource*> sources = {&source};
  exec::ExecOptions eopts;
  eopts.batch_rows = options.batch_rows;
  exec::Run(
      *plan.root, sources, eopts,
      [&](const exec::Value* row, size_t width) {
        scratch.assign(row, row + width);
        return emit(scratch);
      },
      profile);
}

// Publishes the rows a dedup table dropped as duplicates: one counter add
// per table and evaluation, never one per row.
void RecordDuplicates(uint64_t duplicates, const EvaluatorOptions& options) {
  WDR_COUNTER_ADD("wdr.query.duplicate_rows", duplicates);
  if (options.collect != nullptr) {
    options.collect->duplicate_rows += duplicates;
  }
}

Row ProjectRow(const BgpQuery& q, const std::vector<TermId>& bindings) {
  Row row;
  row.reserve(q.projection().size());
  for (VarId v : q.projection()) row.push_back(bindings[v]);
  return row;
}

// Projects into a caller-owned scratch row. Deduplicating emission paths
// reuse one scratch across all emissions: on reformulated unions the vast
// majority of emissions are duplicates of an already-seen row, and probing
// the dedup table with the scratch makes the duplicate case allocation-free
// (the row is only copied out when it is genuinely new).
void ProjectRowInto(const BgpQuery& q, const std::vector<TermId>& bindings,
                    Row& row) {
  row.clear();
  for (VarId v : q.projection()) row.push_back(bindings[v]);
}

template <typename Store>
ResultSet EvaluateBgp(const Store& store, const BgpQuery& q,
                      const EvaluatorOptions& options,
                      obs::ProfileNode* profile = nullptr) {
  WDR_COUNTER_INC("wdr.query.bgp_evals");
  const rdf::Dictionary* dict = options.dict;
  ResultSet result;
  result.var_names = q.ProjectionNames();
  const uint64_t start = NowNanos();
  // Plan-path executors probe per emitted row (the batch pipeline has no
  // per-triple hook); the legacy join probes per enumerated triple.
  CancelProbe probe(options);

  if (options.plan) {
    std::optional<exec::Statistics> local_stats;
    const exec::Statistics* stats = UsableStats(store, options, local_stats);
    exec::CompiledPlan plan = PlanBgpBranch(store, q, options, stats);
    if (plan.root != nullptr) {
      result.rows.reserve(ReserveHint(plan.est_rows));
      Row scratch;
      if (q.distinct()) {
        exec::DedupTable seen(q.projection().size());
        ExecutePlannedBranch(store, plan, options, /*cache=*/nullptr,
                             /*eager=*/true, profile, scratch, [&](Row& row) {
                               if (seen.Insert(row.data())) {
                                 result.rows.push_back(row);
                               }
                               return !probe.Expired();
                             });
        RecordDuplicates(seen.duplicates(), options);
      } else {
        ExecutePlannedBranch(store, plan, options, /*cache=*/nullptr,
                             /*eager=*/true, profile, scratch, [&](Row& row) {
                               result.rows.push_back(row);
                               return !probe.Expired();
                             });
      }
      if (profile != nullptr) {
        profile->rows += result.rows.size();
        profile->seconds += static_cast<double>(NowNanos() - start) * 1e-9;
      }
      return result;
    }
  }

  std::vector<AtomStats> stats;
  BgpJoin<Store> join(store, q, options.greedy_join_order);
  if (probe.enabled()) join.set_cancel(&probe);
  if (profile != nullptr) {
    stats.resize(q.atoms().size());
    join.set_stats(&stats);
  }
  if (q.distinct()) {
    exec::DedupTable seen(q.projection().size());
    Row scratch;
    join.Run([&](const std::vector<TermId>& bindings) {
      ProjectRowInto(q, bindings, scratch);
      if (seen.Insert(scratch.data())) result.rows.push_back(scratch);
    });
    RecordDuplicates(seen.duplicates(), options);
  } else {
    join.Run([&](const std::vector<TermId>& bindings) {
      result.rows.push_back(ProjectRow(q, bindings));
    });
  }
  if (profile != nullptr) {
    profile->rows += result.rows.size();
    profile->seconds += static_cast<double>(NowNanos() - start) * 1e-9;
    FillAtomProfile(*profile, q, dict, stats);
  }
  return result;
}

// Distinct rows needed before enumeration may stop: one for ASK,
// offset + limit when a LIMIT is set, otherwise unbounded.
size_t MaxRowsNeeded(const UnionQuery& q) {
  if (q.ask()) return 1;
  if (q.limit() == UnionQuery::kNoLimit) return SIZE_MAX;
  size_t cap = q.offset() + q.limit();
  return cap < q.limit() ? SIZE_MAX : cap;  // overflow guard
}

// Detailed per-branch profile children are capped: reformulated unions can
// carry hundreds of disjuncts, and a screenful of identical-shape branches
// hides the signal. Branches past the cap fold into one aggregate node.
constexpr size_t kMaxProfiledBranches = 8;

// What the branch loop hands the join of one branch.
struct BranchRun {
  size_t index = 0;
  // The branch's profile node (null when not profiling). Past
  // kMaxProfiledBranches it is the shared overflow node, and `aggregate`
  // asks the join to add scan and triple totals to it, nothing more.
  obs::ProfileNode* node = nullptr;
  bool aggregate = false;
  bool eager = false;                // every answer wanted: no ASK or LIMIT
  CancelProbe* cancel = nullptr;     // null = no deadline
  std::vector<Row>* rows = nullptr;  // answers so far, for reserve hints
};

// Union evaluation: branches in order, one dedup table across all of them,
// early break once the row budget is met. Every branch projects the same
// number of variables (UnionQuery's invariant), so one width keys them all.
// `join(branch, run, emit)` evaluates one branch, passing each projected
// row to `emit(Row&)`, which returns false once enumeration may stop.
template <typename JoinFn>
ResultSet EvaluateBranches(const UnionQuery& q,
                           const EvaluatorOptions& options,
                           obs::ProfileNode* profile, JoinFn&& join) {
  ResultSet result;
  const size_t max_rows = MaxRowsNeeded(q);
  exec::DedupTable seen(q.width());
  CancelProbe probe(options);
  obs::ProfileNode* overflow = nullptr;
  size_t overflow_branches = 0;
  for (size_t b = 0; b < q.branches().size(); ++b) {
    const BgpQuery& branch = q.branches()[b];
    if (result.var_names.empty()) {
      result.var_names = branch.ProjectionNames();
    }
    if (result.rows.size() >= max_rows) break;
    if (probe.enabled() && probe.Expired()) break;
    const size_t rows_before = result.rows.size();
    obs::Span branch_span("wdr.query.branch");
    branch_span.AddAttr("branch", static_cast<uint64_t>(b));
    if (options.collect != nullptr) ++options.collect->branches;
    BranchRun run;
    run.index = b;
    run.eager = max_rows == SIZE_MAX;
    run.cancel = probe.enabled() ? &probe : nullptr;
    run.rows = &result.rows;
    if (profile != nullptr) {
      if (b < kMaxProfiledBranches) {
        run.node = &profile->AddChild("branch " + std::to_string(b));
      } else {
        if (overflow == nullptr) overflow = &profile->AddChild("");
        run.node = overflow;
        run.aggregate = true;
        ++overflow_branches;
      }
    }
    const uint64_t branch_start = NowNanos();
    auto emit = [&](Row& row) {
      if (seen.Insert(row.data())) result.rows.push_back(row);
      return result.rows.size() < max_rows && !probe.Expired();
    };
    join(branch, run, emit);
    if (run.node != nullptr) {
      run.node->rows += result.rows.size() - rows_before;
      run.node->seconds +=
          static_cast<double>(NowNanos() - branch_start) * 1e-9;
    }
  }
  if (overflow != nullptr) {
    overflow->label =
        "(+" + std::to_string(overflow_branches) + " more branches)";
  }
  RecordDuplicates(seen.duplicates(), options);
  return result;
}

// A UCQ's branches, each through the plan route or the legacy join.
template <typename Store>
ResultSet EvaluateUnionSequential(const Store& store, const UnionQuery& q,
                                  const EvaluatorOptions& options,
                                  ScanCache* cache,
                                  const exec::Statistics* plan_stats,
                                  obs::ProfileNode* profile,
                                  const rdf::Dictionary* dict) {
  Row scratch;
  auto join_branch = [&](const BgpQuery& branch, const BranchRun& run,
                         auto& emit) {
    if (options.plan) {
      exec::CompiledPlan plan =
          PlanBgpBranch(store, branch, options, plan_stats);
      if (options.collect != nullptr && plan.est_rows >= 0) {
        EvalStats& collect = *options.collect;
        collect.est_rows =
            (collect.est_rows < 0 ? 0 : collect.est_rows) + plan.est_rows;
      }
      // Pre-reserve the result buffer from the planner's estimate instead
      // of growing from empty.
      const size_t hint = ReserveHint(plan.est_rows);
      if (run.rows->size() + hint > run.rows->capacity()) {
        run.rows->reserve(run.rows->size() + hint);
      }
      // Detailed plan children only for individually-profiled branches;
      // overflow branches aggregate scan/triple totals below.
      obs::ProfileNode scratch_profile;
      obs::ProfileNode* plan_profile =
          run.aggregate ? &scratch_profile : run.node;
      ExecutePlannedBranch(store, plan, options, cache, run.eager,
                           plan_profile, scratch, emit);
      if (run.aggregate) {
        run.node->scans += scratch_profile.TotalScans();
        run.node->triples += scratch_profile.TotalTriples();
      }
      return;
    }
    BgpJoin<Store> join(store, branch, options.greedy_join_order);
    join.set_scan_cache(cache, run.eager);
    if (run.cancel != nullptr) join.set_cancel(run.cancel);
    std::vector<AtomStats> stats;
    if (run.node != nullptr) {
      stats.resize(branch.atoms().size());
      join.set_stats(&stats);
    }
    join.Run([&](const std::vector<TermId>& bindings) {
      ProjectRowInto(branch, bindings, scratch);
      return emit(scratch);
    });
    if (run.node == nullptr) return;
    if (run.aggregate) {
      for (const AtomStats& as : stats) {
        run.node->scans += as.scans;
        run.node->triples += as.triples;
      }
    } else {
      FillAtomProfile(*run.node, branch, dict, stats);
    }
  };
  return EvaluateBranches(q, options, profile, join_branch);
}

template <typename Store>
ResultSet EvaluateUnionQuery(const Store& store, const UnionQuery& q,
                             const EvaluatorOptions& options,
                             obs::ProfileNode* profile = nullptr,
                             const rdf::Dictionary* dict = nullptr) {
  WDR_COUNTER_INC("wdr.query.union_evals");
  if (q.branches().empty()) return ResultSet{};

  // The cache pays off through cross-branch sharing; a single-branch
  // union has nothing to share with.
  std::optional<ScanCache> cache;
  if (options.scan_cache && q.branches().size() >= 2) cache.emplace();
  ScanCache* cache_ptr = cache.has_value() ? &*cache : nullptr;

  // Plan-mode statistics: one build (or one staleness check of the
  // caller's) per union evaluation, shared read-only by every branch.
  // Null keeps the planner on its degraded bound-first path.
  std::optional<exec::Statistics> local_stats;
  const exec::Statistics* plan_stats =
      options.plan ? UsableStats(store, options, local_stats) : nullptr;

  const uint64_t start = NowNanos();
  ResultSet result = EvaluateUnionSequential(store, q, options, cache_ptr,
                                             plan_stats, profile, dict);
  if (profile != nullptr) {
    profile->rows += result.rows.size();
    profile->seconds += static_cast<double>(NowNanos() - start) * 1e-9;
    if (cache_ptr != nullptr) {
      profile->AddChild("scan_cache (" + std::to_string(cache_ptr->hits()) +
                        " hits, " + std::to_string(cache_ptr->misses()) +
                        " misses)");
    }
  }
  if (cache_ptr != nullptr) {
    cache_ptr->FlushCounters();
    if (options.collect != nullptr) {
      options.collect->scan_cache_hits += cache_ptr->hits();
      options.collect->scan_cache_misses += cache_ptr->misses();
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// JUCQ evaluation: a reformulated BGP as a join of per-atom unions.
// ---------------------------------------------------------------------------

// Per-union-atom statistics of one profiled JUCQ join, indexed by written
// atom position. `rows` counts the distinct bindings passed to the rest of
// the join.
struct UnionAtomStats : AtomStats {
  uint64_t probes = 0;  // existence probes
};

// Recursive join over the union atoms of one JoinOfUnions. An atom's
// alternatives that differ only in presets share one scan. At each step the
// join takes, in this order:
//   - a dead atom: one whose still-unbound variables are neither projected
//     nor used by a remaining atom. It only filters, so it is probed for
//     existence (its scans in turn, stopping at the first match) and the
//     join goes on once. Answers are de-duplicated at the end, so the
//     multiplicity a full enumeration would add is never needed;
//   - else, an atom sharing a bound variable, the cheapest under the
//     current bindings (sum of its scans' estimates) when several do;
//   - else, the atom with the smallest union estimate, computed once per
//     evaluation.
// A live atom enumerates every alternative and passes each distinct
// binding of its unbound variables on once, so bindings that several
// alternatives (or several fresh-variable values) share do not repeat the
// rest of the join.
class UnionAtomJoin {
 public:
  // `written` is the BGP whose atoms `q` joins (projection, presets).
  // `eager`: the evaluation wants every answer (no ASK or LIMIT), so live
  // atoms read each scan whole before joining from it.
  UnionAtomJoin(const StoreView& store, const BgpQuery& written,
                const JoinOfUnions& q, bool greedy, bool eager,
                CancelProbe* cancel)
      : store_(store),
        q_(q),
        greedy_(greedy),
        eager_(eager),
        cancel_(cancel),
        bindings_(q.var_count(), kNullTermId),
        projected_(q.var_count(), false),
        uses_(q.var_count(), 0),
        union_estimates_(q.atoms().size(), SIZE_MAX) {
    for (const auto& [var, value] : written.preset()) {
      bindings_[var] = value;
    }
    for (VarId v : written.projection()) projected_[v] = true;
    for (const UnionAtom& atom : q.atoms()) {
      for (VarId v : atom.vars) ++uses_[v];
    }
  }

  // Runs the join; `emit(bindings)` returns false to stop enumeration.
  template <typename EmitFn>
  void Run(EmitFn&& emit) {
    initial_ = bindings_;
    remaining_.resize(q_.atoms().size());
    for (size_t i = 0; i < remaining_.size(); ++i) remaining_[i] = i;
    // One scan copy per join depth: a nested activation must not clobber
    // (or reallocate) the copy its parent is still joining from.
    if (eager_) buffers_.resize(q_.atoms().size());
    Recurse(emit);
  }

  // Enables per-atom stats; `stats` must have one entry per atom.
  void set_stats(std::vector<UnionAtomStats>* stats) { stats_ = stats; }

  // Bindings live atoms dropped as already passed on.
  uint64_t duplicates() const { return duplicates_; }

 private:
  template <typename EmitFn>
  void Recurse(EmitFn&& emit) {
    if (stopped_) return;
    if (remaining_.empty()) {
      if (!emit(bindings_)) stopped_ = true;
      return;
    }
    const size_t pos = PickAtom();
    const size_t index = remaining_[pos];
    remaining_.erase(remaining_.begin() + pos);
    for (VarId v : q_.atoms()[index].vars) --uses_[v];
    UnionAtomStats* as = stats_ != nullptr ? &(*stats_)[index] : nullptr;
    const uint64_t start = as != nullptr ? NowNanos() : 0;
    if (Dead(index, /*pending=*/false)) {
      Probe(index, as, emit);
    } else {
      Expand(index, as, emit);
    }
    if (as != nullptr) as->nanos += NowNanos() - start;
    for (VarId v : q_.atoms()[index].vars) ++uses_[v];
    remaining_.insert(remaining_.begin() + pos, index);
  }

  // True when no unbound variable of atom `index` is projected or used by
  // another remaining atom. `pending`: the atom is still in remaining_ and
  // so counts once in uses_ itself.
  bool Dead(size_t index, bool pending) const {
    const uint32_t self = pending ? 1 : 0;
    for (VarId v : q_.atoms()[index].vars) {
      if (bindings_[v] == kNullTermId && (projected_[v] || uses_[v] > self)) {
        return false;
      }
    }
    return true;
  }

  size_t PickAtom() {
    for (size_t pos = 0; pos < remaining_.size(); ++pos) {
      if (Dead(remaining_[pos], /*pending=*/true)) return pos;
    }
    if (!greedy_ || remaining_.size() == 1) return 0;
    size_t connected = 0;
    size_t last_connected = 0;
    for (size_t pos = 0; pos < remaining_.size(); ++pos) {
      if (Connected(remaining_[pos])) {
        ++connected;
        last_connected = pos;
      }
    }
    if (connected == 1) return last_connected;
    size_t best_pos = 0;
    size_t best_cost = SIZE_MAX;
    for (size_t pos = 0; pos < remaining_.size(); ++pos) {
      const size_t index = remaining_[pos];
      if (connected > 0 && !Connected(index)) continue;
      const size_t cost = connected > 0 ? Estimate(index, bindings_)
                                        : UnionEstimate(index);
      if (cost < best_cost || best_cost == SIZE_MAX) {
        best_cost = cost;
        best_pos = pos;
      }
    }
    return best_pos;
  }

  bool Connected(size_t index) const {
    for (VarId v : q_.atoms()[index].vars) {
      if (bindings_[v] != kNullTermId) return true;
    }
    return false;
  }

  static bool Compatible(const Presets& presets,
                         const std::vector<TermId>& bindings) {
    for (const auto& [var, value] : presets) {
      if (bindings[var] != kNullTermId && bindings[var] != value) return false;
    }
    return true;
  }

  // True when some alternative of `scan` agrees with `bindings`.
  static bool AnyCompatible(const AtomScan& scan,
                            const std::vector<TermId>& bindings) {
    for (const Presets& presets : scan.presets) {
      if (Compatible(presets, bindings)) return true;
    }
    return false;
  }

  // Sum of the scans' store estimates under `bindings`; a scan none of
  // whose alternatives agrees with them contributes nothing.
  size_t Estimate(size_t index, const std::vector<TermId>& bindings) const {
    size_t total = 0;
    for (const AtomScan& scan : q_.atoms()[index].scans) {
      if (!AnyCompatible(scan, bindings)) continue;
      const TriplePattern& a = scan.pattern;
      total += HasRangeTerm(a)
                   ? store_.EstimateCountRange(rdf::PlanRangeScan(
                         ResolveRange(a.s, bindings),
                         ResolveRange(a.p, bindings),
                         ResolveRange(a.o, bindings)))
                   : store_.EstimateCount(Resolve(a.s, bindings),
                                          Resolve(a.p, bindings),
                                          Resolve(a.o, bindings));
    }
    return total;
  }

  // The union's estimated size before any join binding: once per atom and
  // evaluation.
  size_t UnionEstimate(size_t index) {
    size_t& estimate = union_estimates_[index];
    if (estimate == SIZE_MAX) estimate = Estimate(index, initial_);
    return estimate;
  }

  // Enumerates the alternatives of `scan` consistent with the current
  // bindings: one walk of the pattern, then each agreeing alternative per
  // triple. Around each call of `fn()` the triple's unbound positions and
  // the alternative's presets are bound; `fn` returns false to stop the
  // walk. Cancellation is probed per enumerated triple and sets stopped_.
  template <typename Fn>
  void ForEachMatch(const AtomScan& scan, UnionAtomStats* as, Fn&& fn,
                    bool buffered = false) {
    if (!AnyCompatible(scan, bindings_)) return;
    const TriplePattern& a = scan.pattern;
    // With presets bound per alternative: false once `fn` asks to stop.
    auto each_alternative = [&] {
      for (const Presets& presets : scan.presets) {
        VarId preset_here[3];
        size_t preset_count = 0;
        bool agree = true;
        for (const auto& [var, value] : presets) {
          TermId& slot = bindings_[var];
          if (slot == kNullTermId) {
            slot = value;
            preset_here[preset_count++] = var;
          } else if (slot != value) {
            agree = false;
            break;
          }
        }
        const bool keep = !agree || fn();
        while (preset_count > 0) {
          bindings_[preset_here[--preset_count]] = kNullTermId;
        }
        if (!keep) return false;
      }
      return true;
    };
    auto process = [&](const Triple& t) {
      if (cancel_ != nullptr && cancel_->Expired()) {
        stopped_ = true;
        return false;
      }
      if (as != nullptr) ++as->triples;
      VarId bound_here[3];
      size_t bound_count = 0;
      bool keep = true;
      if (TryBind(a.s, t.s, bindings_, bound_here, bound_count) &&
          TryBind(a.p, t.p, bindings_, bound_here, bound_count) &&
          TryBind(a.o, t.o, bindings_, bound_here, bound_count)) {
        keep = each_alternative();
      }
      while (bound_count > 0) {
        bindings_[bound_here[--bound_count]] = kNullTermId;
      }
      return keep && !stopped_;
    };
    auto walk = [&](auto&& sink) {
      if (as != nullptr) ++as->scans;
      if (HasRangeTerm(a)) {
        store_.MatchPlan(
            rdf::PlanRangeScan(ResolveRange(a.s, bindings_),
                               ResolveRange(a.p, bindings_),
                               ResolveRange(a.o, bindings_)),
            sink);
      } else {
        store_.Match(Resolve(a.s, bindings_), Resolve(a.p, bindings_),
                     Resolve(a.o, bindings_), sink);
      }
    };
    if (buffered) {
      // Read the whole scan, then join from the flat copy: the join's
      // hash probes no longer interleave with the index walk.
      std::vector<Triple>& buffer =
          buffers_[q_.atoms().size() - remaining_.size() - 1];
      buffer.clear();
      walk([&](const Triple& t) {
        if (cancel_ != nullptr && cancel_->Expired()) {
          stopped_ = true;
          return false;
        }
        buffer.push_back(t);
        return true;
      });
      for (const Triple& t : buffer) {
        if (stopped_ || !process(t)) break;
      }
    } else {
      walk(process);
    }
  }

  // A live atom: every alternative, each distinct binding of the atom's
  // unbound variables passed on once.
  template <typename EmitFn>
  void Expand(size_t index, UnionAtomStats* as, EmitFn&& emit) {
    const UnionAtom& atom = q_.atoms()[index];
    VarId unbound[3];
    size_t width = 0;
    for (VarId v : atom.vars) {
      if (bindings_[v] == kNullTermId) unbound[width++] = v;
    }
    // One alternative without existentials or ranges maps store triples
    // one-to-one onto bindings: nothing to de-duplicate. Neither is there
    // for the last atom, whose bindings go straight to the answer table.
    const AtomScan& first = atom.scans.front();
    const bool may_repeat =
        atom.scans.size() > 1 || first.presets.size() > 1 ||
        HasRangeTerm(first.pattern) ||
        VarCount(first.pattern) >
            atom.vars.size() - first.presets.front().size();
    std::optional<exec::DedupTable> seen;
    if (may_repeat && !remaining_.empty()) seen.emplace(width);
    exec::Value key[3];
    for (const AtomScan& scan : atom.scans) {
      if (stopped_) return;
      ForEachMatch(scan, as, [&] {
        if (seen.has_value()) {
          for (size_t i = 0; i < width; ++i) key[i] = bindings_[unbound[i]];
          if (!seen->Insert(key)) {
            ++duplicates_;
            return true;
          }
        }
        if (as != nullptr) ++as->rows;
        Recurse(emit);
        return !stopped_;
      }, /*buffered=*/eager_);
    }
  }

  // Distinct variable positions of a pattern (fresh ones included).
  static size_t VarCount(const TriplePattern& a) {
    size_t n = 0;
    VarId seen[3];
    for (const PatternTerm* t : {&a.s, &a.p, &a.o}) {
      if (t->is_var() && std::find(seen, seen + n, t->var) == seen + n) {
        seen[n++] = t->var;
      }
    }
    return n;
  }

  // A dead atom: continue once if any alternative matches.
  template <typename EmitFn>
  void Probe(size_t index, UnionAtomStats* as, EmitFn&& emit) {
    if (as != nullptr) ++as->probes;
    bool found = false;
    for (const AtomScan& scan : q_.atoms()[index].scans) {
      ForEachMatch(scan, as, [&] {
        found = true;
        return false;
      });
      if (found || stopped_) break;
    }
    if (stopped_ || !found) return;
    if (as != nullptr) ++as->rows;
    Recurse(emit);
  }

  const StoreView& store_;
  const JoinOfUnions& q_;
  bool greedy_;
  bool eager_;
  CancelProbe* cancel_;  // not owned; null = no deadline
  bool stopped_ = false;
  std::vector<TermId> bindings_;
  std::vector<TermId> initial_;  // bindings_ before the first atom
  std::vector<bool> projected_;
  std::vector<uint32_t> uses_;  // remaining atoms using each variable
  std::vector<size_t> remaining_;
  std::vector<size_t> union_estimates_;  // SIZE_MAX = not computed yet
  std::vector<UnionAtomStats>* stats_ = nullptr;  // not owned; null = off
  uint64_t duplicates_ = 0;
  std::vector<std::vector<Triple>> buffers_;  // per-depth scan copies
};

std::string UnionAtomLabel(const BgpQuery& q, const rdf::Dictionary* dict,
                           const UnionAtom& atom,
                           const UnionAtomStats& stats) {
  std::string label = "union(" + PatternTermLabel(q, dict, atom.written.s) +
                      " " + PatternTermLabel(q, dict, atom.written.p) + " " +
                      PatternTermLabel(q, dict, atom.written.o) + ") [" +
                      std::to_string(atom.alternatives()) + " alternatives";
  if (stats.probes > 0) {
    label += ", " + std::to_string(stats.probes) + " probes";
  }
  return label + "]";
}

// The branches of `q` in EvaluateBranches' loop, branch b evaluated as the
// join of unions joins[b].
ResultSet EvaluateJucq(const StoreView& store, const UnionQuery& q,
                       const std::vector<JoinOfUnions>& joins,
                       const EvaluatorOptions& options,
                       obs::ProfileNode* profile) {
  WDR_COUNTER_INC("wdr.query.union_evals");
  const uint64_t start = NowNanos();
  uint64_t atom_duplicates = 0;
  Row scratch;
  auto join_branch = [&](const BgpQuery& branch, const BranchRun& run,
                         auto& emit) {
    const JoinOfUnions& unions = joins[run.index];
    UnionAtomJoin join(store, branch, unions, options.greedy_join_order,
                       run.eager, run.cancel);
    std::vector<UnionAtomStats> stats;
    if (run.node != nullptr) {
      stats.resize(unions.atoms().size());
      join.set_stats(&stats);
    }
    join.Run([&](const std::vector<TermId>& bindings) {
      ProjectRowInto(branch, bindings, scratch);
      return emit(scratch);
    });
    atom_duplicates += join.duplicates();
    if (run.node == nullptr) return;
    for (size_t i = 0; i < stats.size(); ++i) {
      if (run.aggregate) {
        run.node->scans += stats[i].scans;
        run.node->triples += stats[i].triples;
        continue;
      }
      obs::ProfileNode& child = run.node->AddChild(
          UnionAtomLabel(branch, options.dict, unions.atoms()[i], stats[i]));
      child.rows = stats[i].rows;
      child.triples = stats[i].triples;
      child.scans = stats[i].scans;
      child.seconds = static_cast<double>(stats[i].nanos) * 1e-9;
    }
  };
  ResultSet result = EvaluateBranches(q, options, profile, join_branch);
  if (atom_duplicates > 0) RecordDuplicates(atom_duplicates, options);
  if (profile != nullptr) {
    profile->rows += result.rows.size();
    profile->seconds += static_cast<double>(NowNanos() - start) * 1e-9;
  }
  return result;
}

}  // namespace

void ApplySolutionModifiers(const UnionQuery& q, ResultSet& result) {
  if (q.ask()) {
    bool any = !result.rows.empty();
    result.var_names.clear();
    result.rows.clear();
    if (any) result.rows.push_back({});
    return;
  }
  if (q.offset() > 0) {
    size_t drop = std::min(q.offset(), result.rows.size());
    result.rows.erase(result.rows.begin(), result.rows.begin() + drop);
  }
  if (q.limit() != UnionQuery::kNoLimit && result.rows.size() > q.limit()) {
    result.rows.resize(q.limit());
  }
}

void ResultSet::Normalize(bool dedup) {
  std::sort(rows.begin(), rows.end());
  if (dedup) rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
}

ResultSet Evaluator::Evaluate(const BgpQuery& q,
                              obs::ProfileNode* profile) const {
  ResultSet result = EvaluateBgp(*store_, q, options_, profile);
  WDR_COUNTER_ADD("wdr.query.rows", result.rows.size());
  return result;
}

ResultSet Evaluator::Evaluate(const UnionQuery& q,
                              obs::ProfileNode* profile) const {
  ResultSet result =
      EvaluateUnionQuery(*store_, q, options_, profile, options_.dict);
  ApplySolutionModifiers(q, result);
  WDR_COUNTER_ADD("wdr.query.rows", result.rows.size());
  return result;
}

ResultSet Evaluator::Evaluate(const UnionQuery& q,
                              const std::vector<JoinOfUnions>& joins,
                              obs::ProfileNode* profile) const {
  ResultSet result = EvaluateJucq(*store_, q, joins, options_, profile);
  ApplySolutionModifiers(q, result);
  WDR_COUNTER_ADD("wdr.query.rows", result.rows.size());
  return result;
}

ResultSet FederatedEvaluator::Evaluate(const BgpQuery& q,
                                       obs::ProfileNode* profile) const {
  ResultSet result = EvaluateBgp(*store_, q, options_, profile);
  WDR_COUNTER_ADD("wdr.query.rows", result.rows.size());
  return result;
}

ResultSet FederatedEvaluator::Evaluate(const UnionQuery& q,
                                       obs::ProfileNode* profile) const {
  ResultSet result =
      EvaluateUnionQuery(*store_, q, options_, profile, options_.dict);
  ApplySolutionModifiers(q, result);
  WDR_COUNTER_ADD("wdr.query.rows", result.rows.size());
  return result;
}

size_t Evaluator::CountAnswers(const BgpQuery& q) const {
  WDR_COUNTER_INC("wdr.query.bgp_evals");
  if (options_.plan) {
    // Counts stream through the executor; DISTINCT runs through the
    // plan's own HashDedup operator instead of a driver-side seen-set.
    std::optional<exec::Statistics> local_stats;
    const exec::Statistics* stats =
        UsableStats(*store_, options_, local_stats);
    exec::ConjunctiveSpec spec = SpecFromBgp(q, options_.dict);
    spec.distinct = q.distinct();
    exec::PlannerOptions popts;
    popts.hash_joins = options_.hash_joins;
    std::optional<exec::StatisticsEstimator> stats_est;
    std::optional<exec::StoreEstimator<rdf::StoreView>> store_est;
    if (stats != nullptr) {
      stats_est.emplace(*stats);
      popts.estimator = &*stats_est;
    } else {
      store_est.emplace(*store_);
      popts.estimator = &*store_est;
      popts.cost_based = false;
    }
    exec::CompiledPlan plan = exec::PlanConjunctive(spec, popts);
    if (plan.root != nullptr) {
      CachedStoreSource<rdf::StoreView> source(*store_, nullptr, true);
      const std::vector<const exec::TupleSource*> sources = {&source};
      exec::ExecOptions eopts;
      eopts.batch_rows = options_.batch_rows;
      size_t count = 0;
      exec::Run(*plan.root, sources, eopts,
                [&](const exec::Value*, size_t) {
                  ++count;
                  return true;
                });
      WDR_COUNTER_ADD("wdr.query.rows", count);
      return count;
    }
  }
  BgpJoin<rdf::StoreView> join(*store_, q, options_.greedy_join_order);
  size_t count = 0;
  if (q.distinct()) {
    // DISTINCT still needs the set of projected rows, but never a
    // ResultSet: rows live only inside the dedup table.
    exec::DedupTable seen(q.projection().size());
    Row scratch;
    join.Run([&](const std::vector<TermId>& bindings) {
      ProjectRowInto(q, bindings, scratch);
      seen.Insert(scratch.data());
    });
    count = seen.size();
    RecordDuplicates(seen.duplicates(), options_);
  } else {
    // Non-distinct counting needs no projection at all.
    join.Run([&](const std::vector<TermId>&) { ++count; });
  }
  WDR_COUNTER_ADD("wdr.query.rows", count);
  return count;
}

}  // namespace wdr::query
