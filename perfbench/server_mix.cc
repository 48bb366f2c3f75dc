// server-mix: an in-process server::Server on loopback over a
// SnapshotStore in the server's default reasoning mode (saturation,
// pinned so the environment cannot change it), driven by three
// reader connections and one writer connection, each a closed loop
// through the library's server::Client (4 connections on a 4-core host).
//
// Readers repeat a selective pass (DrawSelectivePass: a department
// roster and four point lookups) with constants drawn from pools far
// larger than the per-session plan cache and the rewrite memo, so
// requests share no prepare work. The writer sends instance writes in the
// first half of each block of the run and schema writes in the second, so
// each kind gets 80-130 samples at the wire's pace. The benchmark
// sets no socket options: it measures the protocol as shipped.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "server/client.h"
#include "workloads.h"

namespace wdr::perfbench {
namespace {

constexpr int kReaders = 3;
// Fresh set-ups per run, half before the timed loop and half after it,
// so that they sample two stretches of a time-shared host; setup_s is
// their median.
constexpr int kSetups = 8;
// The writer's schedule: kBlocks blocks, each a stretch of instance
// writes followed by a stretch of schema writes (kSchemaShare of the
// block), so that both kinds span the whole run. Each stretch lasts its
// full share, so every run spends the same time on each kind.
constexpr int kBlocks = 3;
constexpr double kSchemaShare = 0.5;

struct ReaderLog {
  std::vector<double> request_ms;
  std::vector<double> done_s;  // completion times on the run's clock
  std::vector<double> pass_ms;
  std::vector<double> lookup_ms;
  // Text and rows= of every answered request.
  std::vector<std::pair<std::string, long long>> answers;
  uint64_t failed = 0;  // requests without an OK answer
};

struct WriterLog {
  std::vector<double> write_ms;
  std::vector<double> done_s;  // completion times on the run's clock
  std::vector<double> schema_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void Read(int port, const Inputs& inputs, uint64_t seed, const Timer& run,
          const std::atomic<bool>& stop, ReaderLog* log) {
  server::Client client;
  if (!client.Connect(port).ok()) {
    ++log->failed;
    return;
  }
  Rng rng(seed);
  while (!stop.load(std::memory_order_acquire)) {
    double lookup = 0;
    Timer pass;
    for (Selective& request : DrawSelectivePass(inputs, rng)) {
      Timer one;
      auto response = client.Query(request.text);
      const double ms = ElapsedMillis(one);
      log->request_ms.push_back(ms);
      log->done_s.push_back(run.ElapsedSeconds());
      if (request.lookup) lookup += ms;
      if (!response.ok() || !response.value().ok) {
        ++log->failed;
        return;  // the session is gone or desynchronized
      }
      log->answers.emplace_back(std::move(request.text),
                                HeadValue(response.value().head, "rows"));
    }
    log->pass_ms.push_back(ElapsedMillis(pass));
    log->lookup_ms.push_back(lookup);
  }
}

// Instance writes, then schema writes, in each of kBlocks blocks of the
// run.
void Write(int port, const Inputs& inputs, double seconds, const Timer& run,
           const std::atomic<bool>& stop, WriterLog* log) {
  server::Client client;
  if (!client.Connect(port).ok()) {
    ++log->failed;
    return;
  }
  uint64_t write_n = 1;
  uint64_t schema_n = 0;  // write 0 only inserts: untimed
  // One write; false when the session is gone or desynchronized.
  auto write = [&](bool schema) {
    const std::string text = schema ? SchemaWrite(inputs, schema_n)
                                    : InstanceWrite(write_n++);
    Timer one;
    auto response = client.Update(text);
    const double ms = ElapsedMillis(one);
    log->done_s.push_back(run.ElapsedSeconds());
    ++log->attempted;
    if (!response.ok() || !response.value().ok) {
      ++log->failed;
      return false;
    }
    const std::string& head = response.value().head;
    if (schema) {
      if (schema_n++ > 0) log->schema_ms.push_back(ms);
    } else {
      log->write_ms.push_back(ms);
      if (HeadValue(head, "inserted") !=
              static_cast<long long>(kWriteTriples) ||
          HeadValue(head, "deleted") != static_cast<long long>(kWriteTriples)) {
        ++log->failed;
      }
    }
    return true;
  };
  const double block = seconds / kBlocks;
  for (int b = 0; b < kBlocks; ++b) {
    for (bool schema : {false, true}) {
      const double stretch = block * (schema ? kSchemaShare : 1 - kSchemaShare);
      Timer phase;
      while (phase.ElapsedSeconds() < stretch) {
        if (stop.load(std::memory_order_acquire) || !write(schema)) return;
      }
    }
  }
}

}  // namespace

Report RunServerMix(const Args& args) {
  // One set-up on a fresh store: load and saturate both snapshot sides,
  // first write, start the server, one untimed pass. The inputs are
  // generated once, outside the timed set-ups.
  const Inputs inputs = MakeInputs(args.seed);
  Samples samples;
  auto set_up = [&] {
    Timer setup;
    Served served = Serve(inputs, store::ReasoningMode::kSaturation);
    Rng warm(args.seed);
    for (const Selective& request : DrawSelectivePass(inputs, warm)) {
      if (!served.store->Query(request.text, {}).ok()) Fatal("warm-up failed");
    }
    samples.setup_s.push_back(setup.ElapsedSeconds());
    return served;
  };
  // The last set-up before the loop is the one the clients use.
  Served served;
  for (int i = 0; i < kSetups / 2; ++i) {
    served.server.reset();  // stop the server before its store goes
    served.store.reset();
    served = set_up();
  }

  // Answer gate: Q1-Q10 on the served store must match reformulation.
  std::unique_ptr<store::ReasoningStore> reference =
      BuildStore(inputs, store::ReasoningMode::kReformulation);
  if (reference == nullptr) Fatal("reference set-up failed");
  for (size_t i = 0; i < inputs.fig3_queries.size(); ++i) {
    auto served_answer = served.store->Query(inputs.fig3_queries[i], {},
                                             nullptr, /*decode=*/false);
    const long long want = CountAnswers(*reference, inputs.fig3_queries[i]);
    if (!served_answer.ok() ||
        static_cast<long long>(served_answer.value().row_count) != want) {
      Fatal(inputs.fig3_names[i] + ": served and reformulated answers differ");
    }
  }

  Report report;
  auto closure = served.store->Query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }", {},
                                     nullptr, /*decode=*/false);
  report.Note("base_triples", static_cast<double>(served.store->size()));
  report.Note("closure_triples",
              closure.ok() ? static_cast<double>(closure.value().row_count)
                           : -1.0);

  std::atomic<bool> stop{false};
  std::vector<ReaderLog> readers(kReaders);
  WriterLog writer;
  const int port = served.server->port();
  std::vector<std::thread> threads;
  Timer run;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(Read, port, std::cref(inputs),
                         args.seed * 0x9e3779b97f4a7c15ull + 17 + r,
                         std::cref(run), std::cref(stop), &readers[r]);
  }
  threads.emplace_back(Write, port, std::cref(inputs), args.seconds,
                       std::cref(run), std::cref(stop), &writer);
  while (run.ElapsedSeconds() < args.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double peak_rss_mb = PeakRssMb();
  served.server->Stop();
  served.server.reset();
  served.store.reset();
  // The other half of the set-ups, each torn down at once.
  for (int i = kSetups / 2; i < kSetups; ++i) {
    malloc_trim(0);  // each set-up, like the first, faults its memory in
    set_up();
  }

  // The rate of each window of the run: completions between the first
  // completion at or after its start and the first at or after its end,
  // over the time between those two. Completions after the run's end are
  // not counted.
  std::vector<double> done = writer.done_s;
  for (const ReaderLog& log : readers) {
    done.insert(done.end(), log.done_s.begin(), log.done_s.end());
  }
  std::sort(done.begin(), done.end());
  done.erase(std::lower_bound(done.begin(), done.end(), args.seconds),
             done.end());
  auto first_at = [&](double t) {
    return static_cast<size_t>(
        std::lower_bound(done.begin(), done.end(), t) - done.begin());
  };
  for (int w = 0; w < kWindows; ++w) {
    const size_t from = first_at(args.seconds * w / kWindows);
    const size_t to = w + 1 < kWindows
                          ? first_at(args.seconds * (w + 1) / kWindows)
                          : done.size() - 1;
    if (to < done.size() && to > from) {
      samples.window_ops_per_s.push_back(static_cast<double>(to - from) /
                                         (done[to] - done[from]));
    }
  }

  report.attempted = writer.attempted;
  report.failed = writer.failed;
  samples.write_ms = std::move(writer.write_ms);
  samples.schema_ms = std::move(writer.schema_ms);
  for (ReaderLog& log : readers) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(samples.query_ms, log.request_ms);
    append(samples.pass_ms, log.pass_ms);
    append(samples.lookup_ms, log.lookup_ms);
    report.attempted += log.answers.size() + log.failed;
    report.failed += log.failed;
    // Reads touch only generated constants, which writes never change.
    for (const auto& [text, rows] : log.answers) {
      if (rows < 0 || rows != CountAnswers(*reference, text)) ++report.failed;
    }
  }
  AddEndToEnd(samples, peak_rss_mb, report);
  return report;
}

}  // namespace wdr::perfbench
