#ifndef WDR_SERVER_SNAPSHOT_STORE_H_
#define WDR_SERVER_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/reasoning_store.h"

namespace wdr::server {

// Snapshot-isolated multi-reader / single-writer wrapper around
// ReasoningStore: the concurrency core of the query server.
//
// Design: LEFT-RIGHT REPLICATION. Two complete ReasoningStore sides; an
// atomic `published_` index names the side readers enter. The writer
// applies every batch twice:
//
//   1. unique-lock the SPARE side's gate (no readers there — they are all
//      on the published side), apply the batch, Warm() the default read
//      path's lazy caches, stamp the side with the new epoch. A batch that
//      fails (a parse error) mutated nothing: the writer returns the error
//      here, with no publish, no new epoch and no catch-up;
//   2. publish: epoch_++ and published_ = spare (new readers now land on
//      the fresh side);
//   3. unique-lock the OLD side's gate — this WAITS for the readers still
//      draining there — then apply the same batch and Warm(), bringing it
//      up to the same epoch, ready to serve as the next spare.
//
// A reader shared-locks the published side's gate for its whole read. The
// one race — writer publishes between the reader's load of `published_`
// and its lock — is benign: the reader then holds the OLD side, whose
// gate the writer is queued behind in step 3, so the reader still sees a
// complete, consistent epoch (just the previous one). Every observed
// answer set therefore equals the closure of SOME epoch, never a torn
// mix — which is exactly what the snapshot test asserts.
//
// Within a side, concurrency follows the ReasoningStore Prepare/Execute
// contract: Prepare (and row decoding) touches the shared dictionary and
// lazy caches, so it is serialized per side under `prepare_mu`; Execute
// is const and id-pure, so any number run concurrently under the shared
// gate. Prepares are frozen (ReadOptions::frozen): only the writer's
// Warm() rebuilds the encoding. Planner statistics that Warm() skipped
// (a plan=1 or mode=auto session on a legacy-join store) are built by the
// first Prepare that needs them, under `prepare_mu`. That is race-free:
// the statistics caches are touched only by Prepares (under
// `prepare_mu`) and by the writer (under the unique gate), and an Execute
// reads them only through the pointer a Prepare of the same epoch handed
// out, which no later Prepare of that epoch moves.
class SnapshotStore {
 public:
  explicit SnapshotStore(store::ReasoningStoreOptions options = {});

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // --- Writer API (internally serialized; each call is one epoch) -------

  Result<size_t> LoadTurtle(std::string_view text);
  Result<store::UpdateInfo> Update(std::string_view sparql_update);

  // --- Reader API (any thread, any number concurrently) -----------------

  // One session-held cache of PreparedQuery plans, keyed by query text +
  // resolved read settings, valid for one (side, epoch) pair — reusing a
  // plan skips parse + rewrite for repeated queries, the common shape of
  // a client session. Owned by one session thread; NOT thread-safe.
  class PlanCache {
   public:
    explicit PlanCache(size_t capacity = 32) : capacity_(capacity) {}
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

   private:
    friend class SnapshotStore;
    struct Entry {
      std::string key;  // query text + '\0' + settings fingerprint
      uint32_t side = 0;
      uint64_t epoch = 0;
      store::PreparedQuery prepared;
    };
    // Tiny LRU: a session re-issues a handful of distinct queries.
    std::list<Entry> entries_;
    size_t capacity_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
  };

  // One consistent read: every row decoded against the same epoch its
  // ids came from.
  struct ReadResult {
    uint64_t epoch = 0;
    std::vector<std::string> var_names;
    std::vector<std::vector<std::string>> rows;  // decoded terms
    size_t row_count = 0;
    store::QueryInfo info;
  };

  // Evaluates `sparql` against the currently published epoch under the
  // session's settings. `options.frozen` is forced on; `cache`, when
  // non-null, is consulted and filled. `decode` off skips row decoding
  // (row_count still set) for counting clients.
  Result<ReadResult> Query(std::string_view sparql,
                           const store::ReadOptions& options,
                           PlanCache* cache = nullptr, bool decode = true);

  // --- Introspection ----------------------------------------------------

  // Epoch of the currently published side (0 until the first write).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  // Base-graph size of the published side (approximate under concurrent
  // writes, exact when quiescent).
  size_t size() const;
  store::ReasoningMode mode() const { return sides_[0].store.mode(); }
  rdf::StorageBackend backend() const { return sides_[0].store.backend(); }

  // Last kAuto routing decision on the published side (the side queries
  // run on), or nullopt before any auto-routed query. Thread-safe.
  std::optional<analysis::RouteDecision> LastAutoDecision() const {
    return sides_[published_.load(std::memory_order_acquire)]
        .store.LastAutoDecision();
  }

  // Test hook: the published side's underlying StoreView (epoch-pin and
  // compaction-deferral assertions).
  const rdf::StoreView& published_store_view() const;
  // Test hook: terms interned on side `side` (0 or 1); exact when no write
  // is in flight.
  size_t dictionary_size(uint32_t side) const {
    return sides_[side].store.graph().dict().size();
  }

 private:
  struct Side {
    store::ReasoningStore store;
    // Readers shared-lock for the whole read; the writer unique-locks to
    // mutate. See class comment.
    std::shared_mutex gate;
    // Serializes dictionary/cache access within the side (Prepare + row
    // decoding) among readers.
    std::mutex prepare_mu;
    // Epoch this side's contents represent; written only under a unique
    // gate, read under at least a shared gate.
    uint64_t epoch = 0;

    explicit Side(const store::ReasoningStoreOptions& options)
        : store(options) {}
  };

  // Applies `apply` to both sides in the left-right order; returns the
  // spare-side application's result (both must agree). An error from the
  // spare side is returned at once, before anything is published.
  template <typename Fn>
  auto Write(Fn&& apply)
      -> decltype(apply(std::declval<store::ReasoningStore&>()));

  Side sides_[2];
  std::atomic<uint32_t> published_{0};
  std::atomic<uint64_t> epoch_{0};
  // Serializes writers (Update/LoadTurtle callers need no external lock).
  std::mutex writer_mu_;
};

}  // namespace wdr::server

#endif  // WDR_SERVER_SNAPSHOT_STORE_H_
