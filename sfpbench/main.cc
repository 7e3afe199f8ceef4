// sfpbench — the end-to-end benchmark of SfpSystem.
//
//   sfpbench --workload serve_steady|churn_mixed --seed N
//            --seconds S --trace 0|1
//
// Prints a host stamp, the metrics by name with their units, operation
// accounting and any failed output check, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set plus every end-to-end metric of the traced run as
// "traced.<name>" (its difference from an untraced run of the same
// seed is the tracing overhead). Exits 1 when an output check fails.
// README.md in this directory lists every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"

namespace {

using sfpbench::Metric;
using sfpbench::Report;
using sfpbench::RunOptions;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "sfpbench: %s\nusage: sfpbench --workload serve_steady|churn_mixed "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (options.workload != "serve_steady" && options.workload != "churn_mixed") {
    Usage(("unknown workload " + options.workload).c_str());
  }
  options.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return options;
}

std::string ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return {};
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintTable(const char* title, const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-34s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "sfpbench: refusing to run a %s build without NDEBUG; assert-enabled code "
               "times differently\n",
               SFPBENCH_BUILD_TYPE);
  return 2;
#endif
  const RunOptions options = ParseArgs(argc, argv);
  sfp::SetLogLevel(sfp::LogLevel::kError);

  std::printf("host: {\"nproc\": %d, \"cpu\": %s, \"build_type\": %s, \"workload\": %s, "
              "\"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
              options.nproc, JsonString(ProcField("/proc/cpuinfo", "model name")).c_str(),
              JsonString(SFPBENCH_BUILD_TYPE).c_str(), JsonString(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed), JsonNumber(options.seconds).c_str(),
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    if (options.workload == "serve_steady") {
      sfpbench::RunServeSteady(options, report);
    } else {
      sfpbench::RunChurnMixed(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfpbench: %s aborted: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  // VmHWM is "<n> kB".
  const double peak_kib = std::atof(ProcField("/proc/self/status", "VmHWM").c_str());
  report.E2e("peak_rss_mb", peak_kib / 1024.0, "MiB");

  PrintTable(options.trace ? "end-to-end (traced run)" : "end-to-end", report.end_to_end);
  std::map<std::string, Metric> printed;
  if (options.trace) {
    PrintTable("per-layer", report.per_layer);
    printed = report.per_layer;
    for (const auto& [name, metric] : report.end_to_end) printed["traced." + name] = metric;
  } else {
    printed = report.end_to_end;
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::printf("operations\n");
  for (const auto& [klass, count] : report.ops) {
    std::printf("  %-12s attempted %lld failed %lld\n", klass.c_str(),
                static_cast<long long>(count.attempted), static_cast<long long>(count.failed));
    attempted += count.attempted;
    failed += count.failed;
  }
  for (const auto& [reason, count] : report.refusals) {
    std::printf("  refused      %lld (%s)\n", static_cast<long long>(count), reason.c_str());
  }
  for (const auto& note : report.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& error : report.errors) std::printf("CHECK FAILED: %s\n", error.c_str());
  const bool correct = report.errors.empty();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : printed) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
