#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <utility>

#include "cache/serialize.h"
#include "obs/memory.h"
#include "pipeline/study.h"
#include "util/json.h"
#include "util/sha256.h"

namespace cvewb::bench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[index - 1];
}

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

void BestTimes::add(std::uint64_t op, double seconds) {
  const auto [it, inserted] = best_.emplace(op, seconds);
  if (!inserted) it->second = std::min(it->second, seconds);
}

double BestTimes::geomean() const {
  if (best_.empty()) return 0.0;
  double log_sum = 0;
  for (const auto& [op, seconds] : best_) log_sum += std::log(seconds);
  return std::exp(log_sum / static_cast<double>(best_.size()));
}

const std::vector<MetricSpec>& metric_catalogue() {
  static const std::vector<MetricSpec> catalogue = {
      // End to end: what the researcher, analyst, or service client sees.
      {"setup_s", "s", true},
      {"setup_rss_mb", "MB", true},
      {"latency_ms_best_geomean", "ms", true},
      // telescope, traffic
      {"telescope.build_s", "s", false},
      {"traffic.generate_s", "s", false},
      {"traffic.sessions", "count", false},
      // faults
      {"faults.inject_s", "s", false},
      // ids, pipeline
      {"ids.ruleset_s", "s", false},
      {"ids.match_s", "s", false},
      {"pipeline.reconstruct_s", "s", false},
      {"pipeline.unique_ips_s", "s", false},
      {"pipeline.overlap_ratio", "ratio", false},
      // lifecycle
      {"lifecycle.analyze_s", "s", false},
      // util: pool and stage DAG
      {"pool.task_wait_us_mean", "us", false},
      {"pool.busy_fraction", "ratio", false},
      {"lock.pool_queue.blocked_us", "us", false},
      // cache
      {"cache.traffic.encode_s", "s", false},
      {"cache.traffic.decode_s", "s", false},
      {"cache.traffic.hash_s", "s", false},
      {"cache.faults.encode_s", "s", false},
      {"cache.faults.decode_s", "s", false},
      {"cache.faults.hash_s", "s", false},
      {"cache.match.encode_s", "s", false},
      {"cache.match.decode_s", "s", false},
      {"cache.match.hash_s", "s", false},
      {"cache.reconstruct.encode_s", "s", false},
      {"cache.reconstruct.decode_s", "s", false},
      {"cache.reconstruct.hash_s", "s", false},
      {"cache.put_s", "s", false},
      {"cache.get_s", "s", false},
      {"cache.hit_ratio", "ratio", false},
      {"cache.traffic.hit_over_recompute", "ratio", false},
      {"cache.faults.hit_over_recompute", "ratio", false},
      {"cache.match.hit_over_recompute", "ratio", false},
      {"cache.disk_mb", "MB", false},
      // store, write path
      {"store.ingest_s", "s", false},
      {"store.ingest_rows_per_s", "1/s", false},
      {"store.checkpoint_s", "s", false},
      {"store.compact_s", "s", false},
      {"store.bytes_per_row", "B", false},
      {"store.disk_mb", "MB", false},
      // store, read path
      {"store.query_us_p50.events_by_cve", "us", false},
      {"store.query_us_p50.events_by_week", "us", false},
      {"store.query_us_p50.events_by_sid_week", "us", false},
      {"store.query_us_p50.sessions_by_src", "us", false},
      {"store.query_us_p50.sessions_by_day", "us", false},
      {"store.query_us_p99", "us", false},
      {"store.scanned_per_match", "ratio", false},
      {"store.postings_per_query", "count", false},
      // daemon
      {"daemon.wire_us_p50", "us", false},
      {"daemon.store_query_us_p99", "us", false},
      {"daemon.job_wait_ms_p50", "ms", false},
      {"daemon.job_run_ms_p50", "ms", false},
      {"daemon.submit_to_digest_s_p50", "s", false},
      {"daemon.rejected", "count", false},
      // process memory over the whole run (allocator retention included)
      {"mem.peak_rss_mb", "MB", false},
      // client: the median and the mean operation latency (the mean
      // carries the tail's mass: write stalls, cold cache runs), the
      // reader's tail beside the writes (service_mixed), and how late the
      // open-loop submissions went out (validity of the run)
      {"client.latency_ms_p50", "ms", false},
      {"client.latency_ms_mean", "ms", false},
      {"client.query_ms_p99", "ms", false},
      {"client.late_ms_max", "ms", false},
      {"obs.overhead_pct", "%", false},
      {"trace.stage_coverage", "ratio", false},
  };
  return catalogue;
}

void Result::set(std::string_view name, double value, std::uint64_t samples) {
  values[std::string(name)] = Value{value, samples};
}

void Result::check(bool ok, std::string what) {
  if (!ok) check_failures.push_back(std::move(what));
}

std::uint64_t SpanLog::to_us(Clock::time_point t) const {
  if (t < epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count());
}

std::size_t SpanLog::open(std::string name, std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.start_us = to_us(Clock::now());
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.request = request;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_us = to_us(Clock::now());
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
}

void SpanLog::add(std::string name, Clock::time_point start, Clock::time_point end,
                  std::uint64_t request, std::uint32_t lane) {
  Span span;
  span.name = std::move(name);
  span.start_us = to_us(start);
  span.end_us = to_us(end);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.request = request;
  span.lane = lane;
  spans_.push_back(std::move(span));
}

Samples SpanLog::seconds_of(std::string_view name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_us >= span.start_us) {
      out.add(static_cast<double>(span.end_us - span.start_us) / 1e6);
    }
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::filesystem::path& path) const {
  util::Json events{util::JsonArray{}};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    util::Json event;
    event.set("name", util::Json(span.name));
    event.set("ph", util::Json("X"));
    event.set("ts", util::Json(static_cast<std::int64_t>(span.start_us)));
    const std::uint64_t dur_us = span.end_us >= span.start_us ? span.end_us - span.start_us : 0;
    event.set("dur", util::Json(static_cast<std::int64_t>(dur_us)));
    event.set("pid", util::Json(1));
    event.set("tid", util::Json(static_cast<std::int64_t>(span.lane)));
    util::Json args;
    args.set("id", util::Json(static_cast<std::int64_t>(i)));
    args.set("parent", util::Json(span.parent));
    args.set("request", util::Json(static_cast<std::int64_t>(span.request)));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  util::Json doc;
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", util::Json("ms"));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

void report_latency(Result& result, const LoopStats& stats) {
  const Samples& latency_s = stats.latency_s;
  result.set("latency_ms_best_geomean", stats.best_s.geomean() * 1e3, stats.best_s.size());
  result.set("client.latency_ms_p50", latency_s.median() * 1e3, latency_s.size());
  result.set("client.latency_ms_mean", latency_s.mean() * 1e3, latency_s.size());
  result.set("mem.peak_rss_mb", peak_rss_mb());
}

void report_overhead(Result& result, const LoopStats& stats) {
  if (stats.untraced_s.empty() || stats.traced_s.empty()) return;
  result.set("obs.overhead_pct", (stats.traced_s.median() / stats.untraced_s.median() - 1) * 100,
             stats.traced_s.size());
}

std::uint64_t directory_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const auto size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

double peak_rss_mb() {
  return static_cast<double>(obs::sample_memory().peak_rss_bytes) / kMiB;
}

std::string study_digest(const pipeline::StudyResult& result) {
  return util::sha256_hex(cache::encode_study_result(result));
}

}  // namespace cvewb::bench
