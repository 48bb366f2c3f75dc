#include "server/snapshot_store.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/metrics.h"

namespace wdr::server {
namespace {

// Settings fingerprint for plan-cache keys: every ReadOptions field that
// changes what Prepare produces (cancellation fields do not — they are
// patched into the cached plan per execution).
std::string SettingsKey(const store::ReadOptions& options) {
  std::string key;
  key += options.mode.has_value()
             ? store::ReasoningModeName(*options.mode)
             : "-";
  key += '|';
  key += options.plan.has_value() ? (*options.plan ? '1' : '0') : '-';
  key += options.encoding.has_value() ? (*options.encoding ? '1' : '0') : '-';
  return key;
}

}  // namespace

SnapshotStore::SnapshotStore(store::ReasoningStoreOptions options)
    : sides_{Side(options), Side(options)} {}

template <typename Fn>
auto SnapshotStore::Write(Fn&& apply)
    -> decltype(apply(std::declval<store::ReasoningStore&>())) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  const uint32_t published = published_.load(std::memory_order_relaxed);
  Side& spare = sides_[1 - published];
  Side& retired = sides_[published];
  const uint64_t next_epoch = epoch_.load(std::memory_order_relaxed) + 1;

  // Step 1: bring the spare side (no readers: they are all on the
  // published side) to the new epoch, caches warm. A failed batch stops
  // here: Update and LoadTurtle parse in full before they mutate, so the
  // spare side still holds the published epoch's contents (plus any terms
  // the failed parse interned; ids are side-local, never compared across
  // sides) and nothing is published or replayed.
  auto result = [&] {
    std::unique_lock<std::shared_mutex> gate(spare.gate);
    auto r = apply(spare.store);
    if (!r.ok()) return r;
    spare.store.Warm();
    spare.epoch = next_epoch;
    return r;
  }();
  if (!result.ok()) return result;

  // Step 2: publish. Readers arriving from here on land on the fresh
  // side; release ordering pairs with the readers' acquire loads.
  epoch_.store(next_epoch, std::memory_order_release);
  published_.store(1 - published, std::memory_order_release);

  // Step 3: drain and catch up the retired side. The unique lock waits
  // for every reader still holding the old epoch, then replays the same
  // batch so both sides agree again.
  {
    std::unique_lock<std::shared_mutex> gate(retired.gate);
    obs::MetricsRegistry::Get()
        .GetCounter("wdr.server.store.catchup_batches")
        .Add(1);
    apply(retired.store);
    retired.store.Warm();
    retired.epoch = next_epoch;
  }
  return result;
}

Result<size_t> SnapshotStore::LoadTurtle(std::string_view text) {
  return Write([&](store::ReasoningStore& s) { return s.LoadTurtle(text); });
}

Result<store::UpdateInfo> SnapshotStore::Update(
    std::string_view sparql_update) {
  return Write(
      [&](store::ReasoningStore& s) { return s.Update(sparql_update); });
}

Result<SnapshotStore::ReadResult> SnapshotStore::Query(
    std::string_view sparql, const store::ReadOptions& options,
    PlanCache* cache, bool decode) {
  // Enter the published side. The benign race — a publish between this
  // load and the lock — leaves us shared-locking the retired side, which
  // still holds the complete previous epoch (the writer is queued behind
  // our lock before touching it). Either way: one consistent epoch.
  const uint32_t side_index = published_.load(std::memory_order_acquire);
  Side& side = sides_[side_index];
  std::shared_lock<std::shared_mutex> gate(side.gate);

  ReadResult out;
  out.epoch = side.epoch;

  store::ReadOptions ropts = options;
  // Frozen: the writer's Warm() alone refreshes the encoding; statistics
  // a read needs beyond Warm()'s fill in on first use under prepare_mu.
  ropts.frozen = true;

  // Resolve a prepared plan: session cache hit, or a frozen Prepare under
  // the side's dictionary lock. Cache entries are (side, epoch)-scoped;
  // per-query cancellation fields are patched in either way.
  store::PreparedQuery* prepared = nullptr;
  store::PreparedQuery fresh;
  if (cache != nullptr && cache->capacity_ == 0) {
    cache = nullptr;  // capacity 0 disables caching; the LRU needs >= 1 slot
  }
  if (cache != nullptr) {
    std::string key(sparql);
    key += '\0';
    key += SettingsKey(ropts);
    auto it = std::find_if(
        cache->entries_.begin(), cache->entries_.end(),
        [&](const PlanCache::Entry& e) {
          return e.side == side_index && e.epoch == side.epoch &&
                 e.key == key;
        });
    if (it != cache->entries_.end()) {
      ++cache->hits_;
      cache->entries_.splice(cache->entries_.begin(), cache->entries_,
                             it);  // LRU bump
    } else {
      ++cache->misses_;
      Result<store::PreparedQuery> prepared_or = [&] {
        std::lock_guard<std::mutex> dict_lock(side.prepare_mu);
        return side.store.Prepare(sparql, ropts);
      }();
      if (!prepared_or.ok()) return prepared_or.status();
      cache->entries_.push_front(PlanCache::Entry{
          std::move(key), side_index, side.epoch,
          std::move(prepared_or).value()});
      if (cache->entries_.size() > cache->capacity_) {
        cache->entries_.pop_back();
      }
      it = cache->entries_.begin();
    }
    prepared = &it->prepared;
    prepared->eval.cancel = options.cancel;
    prepared->eval.deadline_nanos = options.deadline_nanos;
  } else {
    Result<store::PreparedQuery> prepared_or = [&] {
      std::lock_guard<std::mutex> dict_lock(side.prepare_mu);
      return side.store.Prepare(sparql, ropts);
    }();
    if (!prepared_or.ok()) return prepared_or.status();
    fresh = std::move(prepared_or).value();
    prepared = &fresh;
  }

  Result<query::ResultSet> result = side.store.Execute(*prepared, &out.info);
  if (!result.ok()) return result.status();

  out.var_names = result.value().var_names;
  out.row_count = result.value().rows.size();
  if (decode && !result.value().rows.empty()) {
    // Decoding renders ids through the side's dictionary — shared mutable
    // state, same lock as Prepare.
    std::lock_guard<std::mutex> dict_lock(side.prepare_mu);
    out.rows.reserve(out.row_count);
    for (const query::Row& row : result.value().rows) {
      out.rows.push_back(side.store.DecodeRow(row));
    }
  }
  return out;
}

size_t SnapshotStore::size() const {
  return sides_[published_.load(std::memory_order_acquire)].store.size();
}

const rdf::StoreView& SnapshotStore::published_store_view() const {
  return sides_[published_.load(std::memory_order_acquire)]
      .store.graph()
      .store();
}

}  // namespace wdr::server
