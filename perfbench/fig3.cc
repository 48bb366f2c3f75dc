// fig3-sat and fig3-ref: the Fig. 3 Q1-Q10 workload with writes, run in
// process through ReasoningStore in one reasoning mode.
//
// The run is cut into kBlocks blocks. Each block sets up a fresh store
// (setup_s), then fills most of its time with closed-loop rounds, each
//   1. a Q1-Q10 pass (mix_*, and lookup_* over Q2, Q4, Q7, Q9),
//   2. a selective pass with fresh constants, the one server-mix readers
//      send (query_*), which shares no prepare work with earlier ones,
//   3. one instance write (write_*),
// and its last twentieth with schema writes back to back (schema_write_*).
// A schema write invalidates the rewrite memo and the statistics; the
// next block's fresh store starts warm again.
#include <malloc.h>

#include "workloads.h"

namespace wdr::perfbench {

namespace {

// The speed of a time-shared host drifts in stretches of seconds, so set-
// ups and schema writes are spread over many short stretches of the run
// rather than a few long ones. Each stretch starts when the one before it
// has ended and lasts its full share of the block, so every run spends
// the same time on each kind of operation. Schema writes take about 2-3 ms
// in process, so a twentieth of the run gives them hundreds of samples.
constexpr int kBlocks = kWindows;  // each block is one window of ops_per_s
constexpr double kSchemaShare = 0.05;

bool WriteApplied(const Result<store::UpdateInfo>& result, size_t triples) {
  return result.ok() && result.value().inserted == triples &&
         result.value().deleted == triples;
}

}  // namespace

Report RunFig3(const Args& args, store::ReasoningMode mode) {
  const store::ReasoningMode other =
      mode == store::ReasoningMode::kSaturation
          ? store::ReasoningMode::kReformulation
          : store::ReasoningMode::kSaturation;

  // One set-up on a fresh store, after the previous one is gone: load,
  // closure (when saturating), first write, Warm() and one untimed pass.
  // The inputs are generated once, outside the timed set-ups: they are
  // the benchmark's, not the program's. The first set-up's answer counts
  // are the reference of every timed query, and every later set-up must
  // answer alike.
  const Inputs inputs = MakeInputs(args.seed);
  Samples samples;
  std::unique_ptr<store::ReasoningStore> timed;
  std::vector<long long> expected;
  auto set_up = [&] {
    timed.reset();
    // Freed memory goes back to the system, so that each set-up, like the
    // first, faults its memory in and peak_rss_mb does not grow with them.
    malloc_trim(0);
    Timer setup;
    timed = BuildStore(inputs, mode);
    if (timed == nullptr) Fatal("set-up failed");
    std::vector<long long> counts;
    for (const std::string& q : inputs.fig3_queries) {
      counts.push_back(CountAnswers(*timed, q));
    }
    samples.setup_s.push_back(setup.ElapsedSeconds());
    if (expected.empty()) {
      expected = counts;
    } else if (counts != expected) {
      Fatal("set-up answers changed between set-ups");
    }
  };
  set_up();

  // Answer gate: the other reasoning mode must agree on every query (the
  // paper's invariant q(G∞) = q_ref(G)).
  std::unique_ptr<store::ReasoningStore> reference = BuildStore(inputs, other);
  if (reference == nullptr) Fatal("reference set-up failed");
  for (size_t i = 0; i < expected.size(); ++i) {
    const long long want = CountAnswers(*reference, inputs.fig3_queries[i]);
    if (expected[i] < 0 || want != expected[i]) {
      Fatal(inputs.fig3_names[i] + ": " + std::to_string(expected[i]) +
            " answers in " + store::ReasoningModeName(mode) + ", " +
            std::to_string(want) + " in " + store::ReasoningModeName(other));
    }
  }

  Report report;
  const store::ReasoningStore& saturated =
      mode == store::ReasoningMode::kSaturation ? *timed : *reference;
  report.Note("base_triples", static_cast<double>(saturated.size()));
  report.Note("closure_triples",
              static_cast<double>(saturated.effective_size()));

  std::vector<std::pair<std::string, long long>> selective;
  Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
  const std::vector<Selective> queries = Fig3Pass(inputs);
  auto pass = [&] {
    double lookup = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      Timer one;
      const long long got = CountAnswers(*timed, queries[i].text);
      if (queries[i].lookup) lookup += ElapsedMillis(one);
      ++report.attempted;
      if (got != expected[i]) ++report.failed;
    }
    samples.lookup_ms.push_back(lookup);
  };
  const double block = args.seconds / kBlocks;
  for (int b = 0; b < kBlocks; ++b) {
    if (b > 0) set_up();
    const uint64_t block_ops = report.attempted;
    uint64_t write_n = 1;   // the set-up made write 0
    uint64_t schema_n = 0;  // write 0 only inserts: untimed
    Timer rounds;
    while (rounds.ElapsedSeconds() < block * (1 - kSchemaShare)) {
      Timer whole;
      pass();
      samples.pass_ms.push_back(ElapsedMillis(whole));

      double selective_ms = 0;
      for (Selective& request : DrawSelectivePass(inputs, rng)) {
        Timer one;
        const long long got = CountAnswers(*timed, request.text);
        selective_ms += ElapsedMillis(one);
        ++report.attempted;
        selective.emplace_back(std::move(request.text), got);
      }
      samples.query_ms.push_back(selective_ms);

      Timer write;
      const auto written = timed->Update(InstanceWrite(write_n++));
      samples.write_ms.push_back(ElapsedMillis(write));
      ++report.attempted;
      if (!WriteApplied(written, kWriteTriples)) ++report.failed;
    }
    Timer schema;
    while (schema.ElapsedSeconds() < block * kSchemaShare) {
      Timer write;
      const auto written = timed->Update(SchemaWrite(inputs, schema_n));
      if (schema_n++ > 0) samples.schema_ms.push_back(ElapsedMillis(write));
      ++report.attempted;
      if (!written.ok()) ++report.failed;
    }
    samples.window_ops_per_s.push_back(
        static_cast<double>(report.attempted - block_ops) /
        rounds.ElapsedSeconds());
  }
  const double peak_rss_mb = PeakRssMb();

  // Selective answers never change under the writes (they touch only
  // fresh individuals and fresh constraints), so the reference store
  // checks them after the clock stops.
  for (const auto& [text, got] : selective) {
    if (got < 0 || got != CountAnswers(*reference, text)) ++report.failed;
  }

  AddEndToEnd(samples, peak_rss_mb, report);
  return report;
}

}  // namespace wdr::perfbench
