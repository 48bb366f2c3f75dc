#include "exec/executor.h"

#include <chrono>
#include <cstdint>
#include <functional>

#include "exec/dedup_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wdr::exec {
namespace {

// Batch-level sink between operators. Returns false to stop the producer.
using BatchSink = std::function<bool(Batch&)>;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// A ScanPattern lowered against a concrete source arity: constants baked
// into the pattern buffer, input/output positions split out, and repeated
// output columns turned into tuple-level equality checks.
struct CompiledScan {
  std::vector<Value> values;
  std::vector<Value> values_hi;  // kRange upper bounds (parallel to values)
  std::vector<uint8_t> bound;
  bool has_range = false;  // any bound[i] == TupleSource::kRange
  std::vector<std::pair<uint32_t, ColId>> inputs;      // src pos ← input col
  std::vector<std::pair<ColId, uint32_t>> outputs;     // out col ← src pos
  std::vector<std::pair<uint32_t, uint32_t>> repeats;  // tuple[a] == tuple[b]
  const std::vector<std::pair<ColId, Value>>* presets = nullptr;

  // Routes through the range entry point only when a range is present, so
  // point-only plans keep the exact pre-range call path.
  bool Scan(const TupleSource& src,
            FunctionRef<bool(const Value*)> fn) const {
    if (has_range) {
      return src.ScanRange(values.data(), values_hi.data(), bound.data(), fn);
    }
    return src.Scan(values.data(), bound.data(), fn);
  }
};

CompiledScan CompileScan(const ScanPattern& scan) {
  CompiledScan c;
  c.presets = &scan.presets;
  const size_t arity = scan.slots.size();
  c.values.assign(arity, 0);
  c.values_hi.assign(arity, 0);
  c.bound.assign(arity, 0);
  // First source position already bound to each output column, to catch a
  // variable repeated inside one atom.
  std::vector<std::pair<ColId, uint32_t>> first_pos;
  for (uint32_t i = 0; i < arity; ++i) {
    const Slot& slot = scan.slots[i];
    switch (slot.kind) {
      case Slot::Kind::kConst:
        c.values[i] = slot.value;
        c.bound[i] = 1;
        break;
      case Slot::Kind::kInput:
        c.bound[i] = 1;
        c.inputs.emplace_back(i, slot.col);
        break;
      case Slot::Kind::kOutput: {
        bool seen = false;
        for (const auto& [col, pos] : first_pos) {
          if (col == slot.col) {
            c.repeats.emplace_back(pos, i);
            seen = true;
            break;
          }
        }
        if (!seen) {
          first_pos.emplace_back(slot.col, i);
          c.outputs.emplace_back(slot.col, i);
        }
        break;
      }
      case Slot::Kind::kRange:
        c.values[i] = slot.value;
        c.values_hi[i] = slot.value2;
        c.bound[i] = TupleSource::kRange;
        c.has_range = true;
        break;
    }
  }
  return c;
}

class Executor {
 public:
  Executor(const std::vector<const TupleSource*>& sources,
           const ExecOptions& options)
      : sources_(sources),
        batch_rows_(options.batch_rows == 0 ? 1 : options.batch_rows) {}

  uint64_t scans = 0;
  uint64_t triples = 0;
  uint64_t batches = 0;
  uint64_t hash_build_rows = 0;

  bool RunNode(const PlanNode& node, obs::ProfileNode* profile,
               const BatchSink& sink) {
    obs::ProfileNode* stats = nullptr;
    if (profile != nullptr) {
      stats = &profile->AddChild(node.label.empty() ? OpKindName(node.kind)
                                                    : node.label);
      stats->est_rows = node.est_rows;
    }
    switch (node.kind) {
      case OpKind::kIndexScan:
        return RunScan(node, stats, sink);
      case OpKind::kBoundNestedLoopJoin:
        return RunBoundLoop(node, stats, sink);
      case OpKind::kHashJoin:
        return RunHashJoin(node, stats, sink);
      case OpKind::kProject:
        return RunProject(node, stats, sink);
      case OpKind::kHashDedup:
        return RunDedup(node, stats, sink);
      case OpKind::kLimit:
        return RunLimit(node, stats, sink);
    }
    return true;
  }

 private:
  // Pushes a (possibly partial) batch downstream and resets it. Returns
  // false when the consumer wants no more rows.
  bool Flush(Batch& out, obs::ProfileNode* stats, const BatchSink& sink) {
    if (out.empty()) return true;
    if (stats != nullptr) stats->rows += out.rows();
    ++batches;
    const bool keep = sink(out);
    out.Clear();
    return keep;
  }

  bool RunScan(const PlanNode& node, obs::ProfileNode* stats,
               const BatchSink& sink) {
    const TupleSource& src = *sources_[node.source];
    Batch out(node.width, batch_rows_);
    bool keep = true;
    const CompiledScan c = CompileScan(node.scan);
    ++scans;
    if (stats != nullptr) ++stats->scans;
    c.Scan(src, [&](const Value* tuple) {
      ++triples;
      if (stats != nullptr) ++stats->triples;
      for (const auto& [a, b] : c.repeats) {
        if (tuple[a] != tuple[b]) return true;
      }
      const size_t r = out.rows();
      for (const auto& [col, pos] : c.outputs) out.at(col, r) = tuple[pos];
      for (const auto& [col, v] : *c.presets) out.at(col, r) = v;
      out.set_rows(r + 1);
      if (out.full()) keep = Flush(out, stats, sink);
      return keep;
    });
    if (keep) keep = Flush(out, stats, sink);
    return keep;
  }

  bool RunBoundLoop(const PlanNode& node, obs::ProfileNode* stats,
                    const BatchSink& sink) {
    const TupleSource& src = *sources_[node.source];
    const size_t in_width = node.children[0]->width;
    CompiledScan c = CompileScan(node.scan);

    Batch out(node.width, batch_rows_);
    bool keep = true;  // declared before the lambda below runs inside RunNode
    RunNode(*node.children[0], stats, [&](Batch& in) {
      for (size_t r = 0; r < in.rows(); ++r) {
        for (const auto& [pos, col] : c.inputs) {
          c.values[pos] = in.at(col, r);
        }
        ++scans;
        if (stats != nullptr) ++stats->scans;
        c.Scan(src, [&](const Value* tuple) {
          ++triples;
          if (stats != nullptr) ++stats->triples;
          for (const auto& [a, b] : c.repeats) {
            if (tuple[a] != tuple[b]) return true;
          }
          const size_t o = out.rows();
          for (size_t col = 0; col < in_width; ++col) {
            out.at(col, o) = in.at(col, r);
          }
          for (const auto& [col, pos] : c.outputs) {
            out.at(col, o) = tuple[pos];
          }
          for (const auto& [col, v] : *c.presets) out.at(col, o) = v;
          out.set_rows(o + 1);
          if (out.full()) keep = Flush(out, stats, sink);
          return keep;
        });
        if (!keep) return false;
      }
      return true;
    });
    if (keep) keep = Flush(out, stats, sink);
    return keep;
  }

  bool RunHashJoin(const PlanNode& node, obs::ProfileNode* stats,
                   const BatchSink& sink) {
    const PlanNode& probe = *node.children[0];
    const PlanNode& build = *node.children[1];
    const size_t build_width = build.width;
    const size_t probe_width = probe.width;

    // Row-major build-side row store plus per-row hashes; the bucket index
    // is a flat chained hash table (heads/next arrays, no per-bucket heap
    // allocation) built once after the build side drains. Chains are
    // filled in reverse so each bucket lists rows in insertion order —
    // probe output order is deterministic — and entries are verified
    // against the probe key (the table is keyed by hash only).
    std::vector<Value> build_rows;
    std::vector<uint64_t> hashes;
    if (build.est_rows >= 0) {
      const size_t hint = static_cast<size_t>(build.est_rows) + 1;
      build_rows.reserve(hint * build_width);
      hashes.reserve(hint);
    }
    RunNode(build, stats, [&](Batch& in) {
      for (size_t r = 0; r < in.rows(); ++r) {
        for (size_t col = 0; col < build_width; ++col) {
          build_rows.push_back(in.at(col, r));
        }
        uint64_t h = 0xcbf29ce484222325ull;
        for (const auto& [pcol, bcol] : node.keys) {
          (void)pcol;
          h = Mix(h, in.at(bcol, r));
        }
        hashes.push_back(h);
        ++hash_build_rows;
      }
      return true;
    });

    const size_t n = hashes.size();
    if (n == 0) return true;  // no matches possible; skip the probe
    size_t bucket_count = 16;
    while (bucket_count < n * 2) bucket_count <<= 1;
    const uint64_t mask = bucket_count - 1;
    std::vector<int64_t> heads(bucket_count, -1);
    std::vector<int64_t> chain(n, -1);
    for (size_t i = n; i-- > 0;) {
      const size_t b = static_cast<size_t>(hashes[i] & mask);
      chain[i] = heads[b];
      heads[b] = static_cast<int64_t>(i);
    }

    Batch out(node.width, batch_rows_);
    bool keep = RunNode(probe, stats, [&](Batch& in) {
      for (size_t r = 0; r < in.rows(); ++r) {
        uint64_t h = 0xcbf29ce484222325ull;
        for (const auto& [pcol, bcol] : node.keys) {
          (void)bcol;
          h = Mix(h, in.at(pcol, r));
        }
        for (int64_t idx = heads[static_cast<size_t>(h & mask)]; idx >= 0;
             idx = chain[static_cast<size_t>(idx)]) {
          if (hashes[static_cast<size_t>(idx)] != h) continue;
          const Value* brow =
              build_rows.data() + static_cast<size_t>(idx) * build_width;
          bool match = true;
          for (const auto& [pcol, bcol] : node.keys) {
            if (in.at(pcol, r) != brow[bcol]) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          const size_t o = out.rows();
          for (size_t col = 0; col < probe_width; ++col) {
            out.at(col, o) = in.at(col, r);
          }
          for (size_t i = 0; i < node.payload.size(); ++i) {
            out.at(probe_width + i, o) = brow[node.payload[i]];
          }
          out.set_rows(o + 1);
          if (out.full()) {
            if (!Flush(out, stats, sink)) return false;
          }
        }
      }
      return true;
    });
    if (keep) keep = Flush(out, stats, sink);
    return keep;
  }

  bool RunProject(const PlanNode& node, obs::ProfileNode* stats,
                  const BatchSink& sink) {
    Batch out(node.width, batch_rows_);
    bool keep = RunNode(*node.children[0], stats, [&](Batch& in) {
      for (size_t r = 0; r < in.rows(); ++r) {
        const size_t o = out.rows();
        for (size_t i = 0; i < node.cols.size(); ++i) {
          out.at(i, o) = node.cols[i] == kNoColumn ? 0 : in.at(node.cols[i], r);
        }
        out.set_rows(o + 1);
        if (out.full()) {
          if (!Flush(out, stats, sink)) return false;
        }
      }
      return true;
    });
    if (keep) keep = Flush(out, stats, sink);
    return keep;
  }

  bool RunDedup(const PlanNode& node, obs::ProfileNode* stats,
                const BatchSink& sink) {
    const size_t width = node.width;
    DedupTable seen(width);
    std::vector<Value> row(width);
    Batch out(width, batch_rows_);
    bool keep = RunNode(*node.children[0], stats, [&](Batch& in) {
      for (size_t r = 0; r < in.rows(); ++r) {
        for (size_t col = 0; col < width; ++col) row[col] = in.at(col, r);
        if (!seen.Insert(row.data())) continue;
        const size_t o = out.rows();
        for (size_t col = 0; col < width; ++col) out.at(col, o) = row[col];
        out.set_rows(o + 1);
        if (out.full()) {
          if (!Flush(out, stats, sink)) return false;
        }
      }
      return true;
    });
    if (keep) keep = Flush(out, stats, sink);
    return keep;
  }

  bool RunLimit(const PlanNode& node, obs::ProfileNode* stats,
                const BatchSink& sink) {
    size_t skipped = 0;
    size_t emitted = 0;
    bool sink_stop = false;
    Batch out(node.width, batch_rows_);
    RunNode(*node.children[0], stats, [&](Batch& in) {
      for (size_t r = 0; r < in.rows(); ++r) {
        if (skipped < node.offset) {
          ++skipped;
          continue;
        }
        if (emitted >= node.limit) return false;
        const size_t o = out.rows();
        for (size_t col = 0; col < node.width; ++col) {
          out.at(col, o) = in.at(col, r);
        }
        out.set_rows(o + 1);
        ++emitted;
        if (out.full()) {
          if (!Flush(out, stats, sink)) {
            sink_stop = true;
            return false;
          }
        }
        if (emitted >= node.limit) return false;
      }
      return true;
    });
    if (!sink_stop && !Flush(out, stats, sink)) sink_stop = true;
    return !sink_stop;
  }

  const std::vector<const TupleSource*>& sources_;
  const size_t batch_rows_;
};

}  // namespace

bool Run(const PlanNode& plan, const std::vector<const TupleSource*>& sources,
         const ExecOptions& options, RowSink emit, obs::ProfileNode* profile) {
  const auto start = std::chrono::steady_clock::now();
  // Operator-level trace scope: inert unless tracing is on; parents to the
  // enclosing branch span.
  obs::Span span("wdr.exec.run");
  Executor executor(sources, options);
  uint64_t rows = 0;
  std::vector<Value> row(plan.width);
  const bool ok = executor.RunNode(plan, profile, [&](Batch& batch) {
    for (size_t r = 0; r < batch.rows(); ++r) {
      for (size_t col = 0; col < batch.width(); ++col) {
        row[col] = batch.at(col, r);
      }
      ++rows;
      if (!emit(row.data(), row.size())) return false;
    }
    return true;
  });
  if (profile != nullptr && !profile->children.empty()) {
    profile->children.back()->seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  span.AddAttr("rows", rows);
  WDR_COUNTER_ADD("wdr.exec.rows", rows);
  WDR_COUNTER_ADD("wdr.exec.batches", executor.batches);
  WDR_COUNTER_ADD("wdr.exec.scans", executor.scans);
  WDR_COUNTER_ADD("wdr.exec.triples", executor.triples);
  WDR_COUNTER_ADD("wdr.exec.hash_build_rows", executor.hash_build_rows);
  return ok;
}

}  // namespace wdr::exec
