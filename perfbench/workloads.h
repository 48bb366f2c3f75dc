// The three workloads and the traced per-layer run.
#ifndef WDR_PERFBENCH_WORKLOADS_H_
#define WDR_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"

namespace wdr::perfbench {

// Fig. 3 workloads (fig3-sat, fig3-ref): ReasoningStore in `mode`.
Report RunFig3(const Args& args, store::ReasoningMode mode);

// server-mix: 3 reader and 1 writer socket clients against an in-process
// server::Server over a SnapshotStore in the server's default mode.
Report RunServerMix(const Args& args);

// The traced run of any workload: per-layer timings and counter deltas.
Report RunLayers(const Args& args);

// What a workload measured, one entry per sample.
struct Samples {
  std::vector<double> setup_s;    // fresh set-ups
  std::vector<double> pass_ms;    // read passes
  std::vector<double> lookup_ms;  // point lookups of a pass, summed
  std::vector<double> query_ms;   // selective passes (fig3), requests
                                  // (server-mix)
  std::vector<double> write_ms;   // instance writes
  std::vector<double> schema_ms;  // schema writes
  // Completed operations per second in each of kWindows equal windows of
  // the measured time.
  std::vector<double> window_ops_per_s;
};

// Windows of measured time that ops_per_s is taken over.
inline constexpr int kWindows = 10;

// Adds the end-to-end metrics every workload reports; `peak_rss_mb` is
// the peak resident set at the end of the timed loop. Every time is the
// median of its samples, and ops_per_s the median of the windows' rates.
// The host's speed drifts in stretches from under a second to minutes; in
// runs made while it held still, the medians were the steadiest figures
// (a spread of 0.01-0.08 of the median across seeds, against 0.03-0.08
// for the p90 and 0.07-0.19 for the fastest sample). The provenance line
// has each series' tail (p90 from 100 samples on, else p75, so that ten
// samples lie beyond it) and its fastest sample.
void AddEndToEnd(const Samples& samples, double peak_rss_mb, Report& report);

// Store options with every setting the environment could change (WDR_MODE,
// WDR_ENCODING, WDR_PLAN) pinned: `mode`, no hierarchy encoding, the
// legacy evaluator.
store::ReasoningStoreOptions PinnedOptions(store::ReasoningMode mode);

// A store in `mode` loaded with the inputs, after instance write 0, with
// every lazy cache warm. Null (with a message on stderr) on failure.
std::unique_ptr<store::ReasoningStore> BuildStore(const Inputs& inputs,
                                                  store::ReasoningMode mode);

// A served store: a SnapshotStore in `mode` loaded with the inputs, after
// instance write 0, and a started server::Server in front of it. Exits
// through Fatal on failure.
struct Served {
  std::unique_ptr<server::SnapshotStore> store;
  std::unique_ptr<server::Server> server;
};
Served Serve(const Inputs& inputs, store::ReasoningMode mode);

// The value of `key` in a response head such as "rows=3 epoch=7", or -1.
long long HeadValue(const std::string& head, const std::string& key);

// Row count of `text` on `store`, or -1 when the query fails.
long long CountAnswers(store::ReasoningStore& store, const std::string& text);

}  // namespace wdr::perfbench

#endif  // WDR_PERFBENCH_WORKLOADS_H_
