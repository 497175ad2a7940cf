// cvewb-bench harness: run options, samples, results, and the span log.
//
// The benchmark measures every layer from outside: it times calls into
// the layers' public functions and records its own spans around them.
// Nothing in src/ is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/study.h"

namespace cvewb::bench {

using Clock = std::chrono::steady_clock;

inline constexpr double kMiB = 1024.0 * 1024.0;

double seconds_between(Clock::time_point from, Clock::time_point to);

/// Options of one `cvewb-bench run`.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 15;  // length of the measured phase
  bool trace = false;          // per-layer run: spans on, per-layer metrics out
  bool smoke = false;          // tiny inputs, for the ctest smoke suite
  std::filesystem::path work_dir;   // per-run scratch (stores, caches)
  std::filesystem::path trace_out;  // Chrome trace-event file (trace runs)
  std::filesystem::path out;        // ledger rows appended here (optional)
  std::string commit;               // ledger label for `out`
  unsigned cores = 1;               // CPUs this process may run on
  unsigned threads = 1;             // study worker threads: min(cores, 4)
};

/// A sample set with nearest-rank percentiles.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, p in (0, 100]; 0 for an empty set.
  double percentile(double p) const;
  double median() const { return percentile(50); }
  double sum() const;
  double mean() const { return empty() ? 0.0 : sum() / static_cast<double>(size()); }

 private:
  std::vector<double> values_;
};

/// Metric catalogue: every metric BENCHMARK.json names, with its unit.
/// End-to-end metrics are printed by untraced runs, per-layer metrics by
/// traced runs (0 where the workload does not exercise the layer).
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  bool end_to_end;
};
const std::vector<MetricSpec>& metric_catalogue();

/// The outcome of one workload run.
struct Result {
  double scale = 0;  // event_scale of the workload's studies (ledger column)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  struct Value {
    double value = 0;
    std::uint64_t samples = 0;
  };
  std::map<std::string, Value, std::less<>> values;

  void set(std::string_view name, double value, std::uint64_t samples = 1);
  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, std::string what);
  bool correct() const { return check_failures.empty(); }
};

/// Spans the benchmark records around its own calls into each layer.
/// Single-threaded: only the benchmark's driving thread records.  Kept in
/// memory and written as Chrome trace-event JSON at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    std::int64_t parent = -1;   // index of the enclosing span, -1 = root
    std::uint64_t request = 0;  // request id shared by one request's spans
    std::uint32_t lane = 1;     // trace-viewer row (overlapping spans differ)
  };

  /// Open a span nested in the innermost open one; returns its index.
  std::size_t open(std::string name, std::uint64_t request = 0);
  void close(std::size_t index);
  /// Record an already-finished span -- one timed from a due time, or
  /// overlapping others -- as a child of the innermost open span.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t request = 0, std::uint32_t lane = 1);

  /// Durations, in seconds, of every closed span called `name`.
  Samples seconds_of(std::string_view name) const;
  bool write_chrome_trace(const std::filesystem::path& path) const;

 private:
  std::uint64_t to_us(Clock::time_point t) const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null log makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, std::uint64_t request = 0)
      : log_(log), index_(log == nullptr ? 0 : log->open(std::move(name), request)) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Process resident-set high-water so far, in MiB.
double peak_rss_mb();

/// How many times set-up runs; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Traced runs trace every other block of `block` operations, so
/// `obs.overhead_pct` compares two interleaved halves that see the same
/// inputs (a block is one pass over a workload's query mix).
inline bool traced_op(const RunOptions& options, std::uint64_t i, std::uint64_t block) {
  return options.trace && (i / block) % 2 == 1;
}

/// The fastest repetition of each distinct operation in a run.  The host
/// this benchmark runs on is shared: its speed swings by tens of percent
/// over seconds, and a query repeated a few times in one run is usually
/// timed at least once at full speed.  The best repetition of each query,
/// summarized over the whole mix, is what the code costs; the median or
/// mean of all repetitions also measures how busy the neighbours were.
class BestTimes {
 public:
  void add(std::uint64_t op, double seconds);
  std::size_t size() const { return best_.size(); }
  /// Geometric mean of the best times, so a 4 ms and a 40 us query weigh
  /// the same in it; 0 when nothing ran.
  double geomean() const;

 private:
  std::map<std::uint64_t, double> best_;
};

/// The measured phase as a closed loop: `op(i, traced)` runs back to back
/// until `options.seconds` have elapsed (at least once) and returns its
/// latency in seconds, or a negative value when the operation failed.
/// Operations i and i + period are repetitions of the same operation.
struct LoopStats {
  Samples latency_s;   // every successful operation
  BestTimes best_s;    // each distinct operation's fastest repetition
  Samples untraced_s;  // traced runs: the untraced blocks
  Samples traced_s;    // traced runs: the traced blocks
};
inline constexpr std::uint64_t kNeverRepeats = UINT64_MAX;
template <typename Op>
LoopStats closed_loop(const RunOptions& options, Result& result, std::uint64_t block,
                      std::uint64_t period, Op&& op) {
  LoopStats stats;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (i > 0 && seconds_between(start, Clock::now()) >= static_cast<double>(options.seconds)) {
      break;
    }
    const bool traced = traced_op(options, i, block);
    ++result.attempted;
    const double latency = op(i, traced);
    if (latency < 0) {
      ++result.failed;
      continue;
    }
    stats.latency_s.add(latency);
    stats.best_s.add(i % period, latency);
    (traced ? stats.traced_s : stats.untraced_s).add(latency);
  }
  return stats;
}

/// The latency metrics every workload reports from its measured phase.
void report_latency(Result& result, const LoopStats& stats);
void report_overhead(Result& result, const LoopStats& stats);

/// Run `setup` kSetupRepeats times and record the median as setup_s.
/// `reset` undoes the previous repetition, untimed, before each repeat.
/// setup_rss_mb is the process high-water after the first pass: the memory
/// one set-up needs in a fresh process.  (The whole run's high-water,
/// mem.peak_rss_mb, also carries allocator retention across operations and
/// varies too much from run to run to hold a bound.)
template <typename Setup, typename Reset>
void timed_setup(Result& result, SpanLog* log, Setup&& setup, Reset&& reset) {
  Samples setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) reset();
    SpanScope span(log, "setup");
    const auto start = Clock::now();
    setup();
    setup_s.add(seconds_between(start, Clock::now()));
    if (i == 0) result.set("setup_rss_mb", peak_rss_mb());
  }
  result.set("setup_s", setup_s.median(), setup_s.size());
}

/// A study of `scale` at `seed` on options.threads workers; every other
/// setting is run_study's default (stage DAG on, pristine capture).
pipeline::StudyConfig study_config(const RunOptions& options, double scale, std::uint64_t seed);

/// Per-layer numbers of run_study, read from the pipeline's own
/// instrumentation: an obs::Observability attached to each profiled study
/// yields its phase_us/* stage times, its ids/match_corpus span, pool/*
/// and lock/* counters, and cache/* lookups.  Each metric is the median
/// over the profiled studies.
class StudyProfile {
 public:
  struct Run {
    pipeline::StudyResult result;
    double wall_s = 0;
  };
  /// run_study(config), timed.  With `log` set (a traced run) the study is
  /// profiled: an Observability is attached, its numbers are recorded, and
  /// its phase, match, and cache spans are copied into `log` as children
  /// of the innermost open span.
  Run run(pipeline::StudyConfig config, SpanLog* log);

  /// Median seconds of a stage ("traffic", "faults", "match", ...); 0 when
  /// no profiled study ran it.
  double stage_median(std::string_view stage) const;

  /// Stage times, traffic.sessions, and trace.stage_coverage (the share of
  /// the study's wall time the union of its stage spans covers).
  void report_stages(Result& result) const;
  /// Pool wait and busy share, pool-queue lock blocking, stage overlap,
  /// and the cache hit ratio.
  void report_execution(Result& result) const;

 private:
  std::map<std::string, Samples, std::less<>> stage_s_;
  Samples sessions_;
  Samples coverage_;
  Samples task_wait_us_mean_;
  Samples busy_fraction_;
  Samples queue_blocked_us_;
  Samples overlap_ratio_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

std::uint64_t directory_bytes(const std::filesystem::path& dir);
/// SHA-256 of the canonical StudyResult encoding (the daemon's job digest).
std::string study_digest(const pipeline::StudyResult& result);

Result run_study_batch(const RunOptions& options, SpanLog* log);
Result run_delay_sweep(const RunOptions& options, SpanLog* log);
Result run_store_read(const RunOptions& options, SpanLog* log);
Result run_service_mixed(const RunOptions& options, SpanLog* log);

/// `cvewb-bench compare`: the paired-runs verdict per (workload, metric).
int compare_main(int argc, char** argv);

}  // namespace cvewb::bench
