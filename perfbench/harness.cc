#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace wdr::perfbench {
namespace {

// Shortest text that reads back as exactly `value` (all its digits).
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "null";
  return std::string(buffer, end);
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

// JSON string literal for `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      args->seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      args->seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      args->trace = number == 1;
    } else {
      std::fprintf(stderr, "bad flag %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr,
                 "usage: wdr_perfbench --workload W [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
  }
  return have_workload;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

void Report::Note(std::string key, double value) {
  provenance.emplace_back(std::move(key), FormatNumber(value));
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "wdr_perfbench: %s\n", message.c_str());
  std::exit(1);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintReport(const Report& report, const Args& args) {
  std::printf("%-36s %16s %-12s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : report.metrics) {
    std::printf("%-36s %16.6g %-12s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }

  std::string provenance = "{\"workload\":" + JsonString(args.workload) +
                           ",\"seed\":" + std::to_string(args.seed) +
                           ",\"seconds\":" + FormatNumber(args.seconds) +
                           ",\"trace\":" + (args.trace ? "1" : "0") +
                           ",\"nproc\":" +
                           std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, value] : report.provenance) {
    provenance += ',';
    provenance += JsonString(key);
    provenance += ':';
    provenance += value;
  }
  provenance += ",\"samples\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    if (i > 0) provenance += ",";
    provenance += JsonString(report.metrics[i].name) + ":" +
                  std::to_string(report.metrics[i].samples);
  }
  provenance += "}}";
  std::printf("provenance %s\n", provenance.c_str());

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string line = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) line += ",";
    line += JsonString(m.name) + ":{\"value\":" + FormatNumber(m.value) +
            ",\"unit\":" + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace wdr::perfbench
