// cvewb-bench -- the cvewb performance benchmark.
//
//   cvewb-bench run --workload NAME --seed S [--seconds N] [--trace 0|1]
//                   [--trace-out FILE] [--out LEDGER] [--commit LABEL]
//                   [--work-dir DIR] [--smoke]
//       Run one workload.  Untraced runs print every end-to-end metric,
//       traced runs (--trace 1 or --trace-out) every per-layer metric and a
//       Chrome trace-event span file.  The last line of stdout is one JSON
//       object: {"correct", "attempted", "failed", "metrics"}.  Exit 0 when
//       every correctness check passed, 1 when one failed, 2 on a usage
//       error, 3 when the run could not complete.
//
//   cvewb-bench compare [--bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl
//       Paired verdict per (workload, end-to-end metric) from two ledgers
//       written with --out (see compare.cpp).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>

#include "harness.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using namespace cvewb;
using namespace cvewb::bench;

constexpr std::uint64_t kMaxSeconds = 3600;

int usage() {
  std::cerr << "usage: cvewb-bench run --workload NAME --seed S [--seconds N] [--trace 0|1]\n"
               "                       [--trace-out FILE] [--out LEDGER] [--commit LABEL]\n"
               "                       [--work-dir DIR] [--smoke]\n"
               "       cvewb-bench compare [--bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl\n"
               "workloads: study_batch delay_sweep store_read service_mixed\n";
  return 2;
}

int bad_value(std::string_view flag, const char* got) {
  std::cerr << "cvewb-bench: bad value for " << flag << ": '" << (got == nullptr ? "" : got)
            << "'\n";
  return 2;
}

/// Shortest text that reads back as the same double.
std::string number_text(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<unsigned>(online) : 1u;
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void append_ledger(const RunOptions& options, const Result& result,
                   const std::vector<const MetricSpec*>& printed) {
  std::ofstream out(options.out, std::ios::app);
  for (const MetricSpec* spec : printed) {
    const auto it = result.values.find(spec->name);
    const double value = it == result.values.end() ? 0.0 : it->second.value;
    out << "{\"workload\": " << util::Json(options.workload).dump()
        << ", \"metric\": " << util::Json(std::string(spec->name)).dump()
        << ", \"value\": " << number_text(value)
        << ", \"unit\": " << util::Json(std::string(spec->unit)).dump()
        << ", \"cores\": " << options.cores << ", \"scale\": " << number_text(result.scale)
        << ", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
        << ", \"commit\": " << util::Json(options.commit).dump()
        << ", \"trace\": " << (options.trace ? 1 : 0) << "}\n";
  }
}

int run_main(int argc, char** argv) {
  RunOptions options;
  std::filesystem::path work_root = ".bench_build/work";
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&] { return value != nullptr ? (++i, true) : false; };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload") {
      if (!take()) return bad_value(arg, value);
      options.workload = value;
    } else if (arg == "--seed") {
      if (!take() || !util::parse_u64(value, options.seed)) return bad_value(arg, value);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!take() || !util::parse_u64(value, options.seconds) || options.seconds == 0 ||
          options.seconds > kMaxSeconds) {
        return bad_value(arg, value);
      }
    } else if (arg == "--trace") {
      std::uint64_t trace = 0;
      if (!take() || !util::parse_u64(value, trace) || trace > 1) return bad_value(arg, value);
      options.trace = options.trace || trace == 1;
    } else if (arg == "--trace-out") {
      if (!take() || *value == '\0') return bad_value(arg, value);
      options.trace_out = value;
      options.trace = true;
    } else if (arg == "--out") {
      if (!take() || *value == '\0') return bad_value(arg, value);
      options.out = value;
    } else if (arg == "--commit") {
      if (!take()) return bad_value(arg, value);
      options.commit = value;
    } else if (arg == "--work-dir") {
      if (!take() || *value == '\0') return bad_value(arg, value);
      work_root = value;
    } else {
      std::cerr << "cvewb-bench: unknown argument '" << arg << "'\n";
      return usage();
    }
  }
  using Workload = Result (*)(const RunOptions&, SpanLog*);
  Workload workload = nullptr;
  if (options.workload == "study_batch") workload = run_study_batch;
  if (options.workload == "delay_sweep") workload = run_delay_sweep;
  if (options.workload == "store_read") workload = run_store_read;
  if (options.workload == "service_mixed") workload = run_service_mixed;
  if (workload == nullptr || !have_seed) return usage();

  options.cores = usable_cores();
  options.threads = std::min(options.cores, 4u);
  ScratchDir scratch{work_root / ("run-" + std::to_string(::getpid()))};
  std::filesystem::remove_all(scratch.path);
  std::filesystem::create_directories(scratch.path);
  options.work_dir = scratch.path;
  if (options.trace && options.trace_out.empty()) {
    options.trace_out = work_root / ("trace-" + options.workload + "-" +
                                     std::to_string(options.seed) + ".json");
  }

  SpanLog span_log;
  Result result;
  try {
    result = workload(options, options.trace ? &span_log : nullptr);
  } catch (const std::exception& error) {
    std::cerr << "cvewb-bench: " << options.workload << " did not complete: " << error.what()
              << "\n";
    return 3;
  }
  if (options.trace) {
    if (span_log.write_chrome_trace(options.trace_out)) {
      std::cerr << "cvewb-bench: spans written to " << options.trace_out.string() << "\n";
    } else {
      result.check(false, "could not write span file " + options.trace_out.string());
    }
  }

  std::vector<const MetricSpec*> printed;
  for (const MetricSpec& spec : metric_catalogue()) {
    if (spec.end_to_end == options.trace) continue;
    if (spec.end_to_end && result.values.find(spec.name) == result.values.end()) {
      result.check(false, "end-to-end metric " + std::string(spec.name) + " was not measured");
    }
    printed.push_back(&spec);
  }

  std::cout << options.workload << " seed " << options.seed << " (" << options.seconds
            << " s measured, " << options.cores << " cores, scale " << result.scale
            << (options.trace ? ", traced" : "") << ")\n";
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    const MetricSpec& spec = *printed[i];
    const auto it = result.values.find(spec.name);
    const Result::Value value = it == result.values.end() ? Result::Value{} : it->second;
    char line[160];
    std::snprintf(line, sizeof line, "  %-38s %14.6g %-6s n=%llu\n", std::string(spec.name).c_str(),
                  value.value, std::string(spec.unit).c_str(),
                  static_cast<unsigned long long>(value.samples));
    std::cout << line;
    if (i > 0) json += ", ";
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + number_text(value.value) +
            ", \"unit\": \"" + std::string(spec.unit) + "\"}";
  }
  json += "}}";
  for (const std::string& failure : result.check_failures) {
    std::cerr << "cvewb-bench: CHECK FAILED: " << failure << "\n";
  }
  if (!options.out.empty()) append_ledger(options, result, printed);
  std::cout << json << std::endl;
  return result.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  if (command == "run") return run_main(argc, argv);
  if (command == "compare") return compare_main(argc, argv);
  return usage();
}
