// wdr benchmark program:
//   wdr_perfbench --workload fig3-sat|fig3-ref|server-mix --seed N
//                 --seconds S --trace 0|1
// With --trace 0 it reports the end-to-end metrics of the workload, with
// --trace 1 the per-layer metrics of the traced run. The last line of
// standard output is the result object; the exit status is 1 when any
// answer was wrong or any operation failed.
#include <cstdlib>

#include "workloads.h"

int main(int argc, char** argv) {
  using namespace wdr::perfbench;
  // The library reads its defaults from these once, on first use; the
  // benchmark measures the shipped defaults whatever the environment says.
  for (const char* name : {"WDR_MODE", "WDR_ENCODING", "WDR_PLAN"}) {
    unsetenv(name);
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Report report;
  if (args.workload != "fig3-sat" && args.workload != "fig3-ref" &&
      args.workload != "server-mix") {
    Fatal("unknown workload " + args.workload);
  }
  if (args.trace) {
    report = RunLayers(args);
  } else if (args.workload == "server-mix") {
    report = RunServerMix(args);
  } else {
    report = RunFig3(args, args.workload == "fig3-sat"
                               ? wdr::store::ReasoningMode::kSaturation
                               : wdr::store::ReasoningMode::kReformulation);
  }
  PrintReport(report, args);
  return report.failed == 0 ? 0 : 1;
}
