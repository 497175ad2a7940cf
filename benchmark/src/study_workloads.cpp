// The study workloads: a researcher's batch rerun (study_batch) and the
// paper's deployment-delay ablation as users run it (delay_sweep).
#include <algorithm>
#include <filesystem>
#include <optional>

#include "cache/key.h"
#include "cache/serialize.h"
#include "cache/store.h"
#include "data/appendix_e.h"
#include "harness.h"
#include "ids/rule_gen.h"
#include "obs/observability.h"
#include "util/sha256.h"

namespace cvewb::bench {

namespace {

constexpr std::uint64_t kBatchSeeds = 20;  // study_batch cycles seeds S..S+19
constexpr std::uint64_t kDelays = 12;      // delay_sweep: delays 0..11 days per seed

/// The top-level stages of run_study ("telescope" nests inside "traffic").
constexpr const char* kTopStages[] = {"traffic",     "faults",  "ruleset",
                                      "reconstruct", "analyze", "unique_ips"};

/// Share of [begin, end) covered by the union of `spans` (start, end pairs).
double union_coverage(std::vector<std::pair<std::uint64_t, std::uint64_t>> spans,
                      std::uint64_t begin, std::uint64_t end) {
  if (end <= begin) return 0.0;
  std::sort(spans.begin(), spans.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = begin;
  for (auto [from, to] : spans) {
    from = std::max(from, reach);
    to = std::min(to, end);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(end - begin);
}

/// The §5 fn. 2 ablation's degraded capture: 10% session loss, a 512-byte
/// snaplen, 1% duplication.
faults::FaultPlan sweep_faults() {
  faults::FaultPlan plan;
  plan.session_loss_rate = 0.10;
  plan.snaplen = 512;
  plan.duplication_rate = 0.01;
  return plan;
}

/// Reads sweep point 0's artifacts back out of the workload's own stage
/// cache -- the keys chain on artifact digests exactly as cache/key.h
/// documents -- and times each through CacheStore::get, its decoder, its
/// encoder, a SHA-256, and a CacheStore::put into `probe_dir`.  This is
/// the work a hit or a miss adds to a stage.
void codec_probe(const pipeline::StudyConfig& config, const std::filesystem::path& cache_dir,
                 const std::filesystem::path& probe_dir, const StudyProfile& recompute,
                 SpanLog& log, Result& result) {
  cache::CacheStore cached(cache_dir);
  cache::CacheStore probe(probe_dir);
  const ids::RuleSet ruleset = ids::generate_study_ruleset();
  const std::string ruleset_digest = util::sha256_hex(ruleset.serialize());

  /// One artifact: get, decode, re-encode, hash, put.  Returns the digest
  /// get() validated (the next stage's key chains on it).
  const auto time_stage = [&](const std::string& stage, const std::string& key,
                              const auto& round_trip) {
    const std::string prefix = "cache." + stage;
    std::string digest;
    std::optional<std::string> blob;
    {
      SpanScope span(&log, prefix + ".get");
      blob = cached.get(key, stage, &digest);
    }
    if (!blob) {
      result.check(false, "cache probe: the " + stage + " artifact is not in the stage cache");
      return digest;
    }
    const std::string encoded = round_trip(*blob, prefix);
    {
      SpanScope span(&log, prefix + ".hash");
      (void)util::sha256_hex(encoded);
    }
    {
      SpanScope span(&log, prefix + ".put");
      result.check(probe.put(key, encoded, stage), "cache probe: put of the " + stage + " artifact");
    }
    result.check(encoded == *blob, "cache probe: the " + stage + " artifact did not round-trip");
    return digest;
  };
  /// decode, then encode the decoded value, each in its own span.
  const auto codec = [&log](const std::string& prefix, const auto& decode, const auto& encode) {
    std::string encoded;
    auto decoded = [&] {
      SpanScope span(&log, prefix + ".decode");
      return decode();
    }();
    if (decoded) {
      SpanScope span(&log, prefix + ".encode");
      encoded = encode(*decoded);
    }
    return encoded;
  };

  const std::string corpus_digest = time_stage(
      "traffic", cache::traffic_stage_key(config), [&](std::string_view blob, const auto& prefix) {
        return codec(prefix, [&] { return cache::decode_traffic(blob); },
                     [](const auto& traffic) { return cache::encode_traffic(traffic); });
      });
  const std::string faulted_digest =
      time_stage("faults", cache::faults_stage_key(config, corpus_digest),
                 [&](std::string_view blob, const auto& prefix) {
                   return codec(prefix, [&] { return cache::decode_faulted(blob); },
                                [](const auto& faulted) {
                                  return cache::encode_faulted(faulted.traffic, faulted.log);
                                });
                 });
  // The match vector has one entry per session the hygiene pass kept.
  std::optional<std::size_t> match_rows;
  (void)time_stage("reconstruct",
                   cache::reconstruct_stage_key(config.reconstruct, faulted_digest, ruleset_digest),
                   [&](std::string_view blob, const auto& prefix) {
                     return codec(prefix, [&] { return cache::decode_reconstruction(blob); },
                                  [&](const auto& rec) {
                                    match_rows =
                                        rec.sessions_scanned - rec.quality.duplicates_removed;
                                    return cache::encode_reconstruction(rec);
                                  });
                   });
  if (match_rows) {
    (void)time_stage("ids", cache::ids_stage_key(config.reconstruct, faulted_digest, ruleset_digest),
                     [&](std::string_view blob, const auto& prefix) {
                       return codec(
                           prefix,
                           [&] { return cache::decode_matches(blob, ruleset.rules(), *match_rows); },
                           [&](const auto& matches) {
                             return cache::encode_matches(matches, ruleset.rules());
                           });
                     });
  }

  double put_s = 0;
  double get_s = 0;
  // The pipeline's cache stage for IDS matching is called "ids"; its
  // metrics are named after the layer's output, the match vector.
  for (const auto& [stage, name] : {std::pair{"traffic", "traffic"}, {"faults", "faults"},
                                    {"ids", "match"}, {"reconstruct", "reconstruct"}}) {
    const std::string prefix = std::string("cache.") + stage;
    for (const char* step : {"encode", "decode", "hash"}) {
      result.set(std::string("cache.") + name + "." + step + "_s",
                 log.seconds_of(prefix + "." + step).median());
    }
    put_s += log.seconds_of(prefix + ".put").median();
    get_s += log.seconds_of(prefix + ".get").median();
  }
  result.set("cache.put_s", put_s);
  result.set("cache.get_s", get_s);
  // A hit costs get + decode; a miss recomputes the stage (timed in the
  // cache-off studies).  Above 1 the cache does not pay for that stage.
  const auto hit_over = [&](const char* stage, double recompute_s) {
    const std::string prefix = std::string("cache.") + stage;
    const double hit_s =
        log.seconds_of(prefix + ".get").median() + log.seconds_of(prefix + ".decode").median();
    return recompute_s > 0 ? hit_s / recompute_s : 0.0;
  };
  result.set("cache.traffic.hit_over_recompute",
             hit_over("traffic", recompute.stage_median("traffic")));
  result.set("cache.faults.hit_over_recompute", hit_over("faults", recompute.stage_median("faults")));
  result.set("cache.match.hit_over_recompute", hit_over("ids", recompute.stage_median("match")));
}

}  // namespace

StudyProfile::Run StudyProfile::run(pipeline::StudyConfig config, SpanLog* log) {
  if (log == nullptr) {
    const auto start = Clock::now();
    Run out{pipeline::run_study(config), 0};
    out.wall_s = seconds_between(start, Clock::now());
    return out;
  }
  obs::Observability observability;
  config.observability = &observability;
  const auto start = Clock::now();
  const std::uint64_t start_us = observability.tracer.now_us();
  Run out{pipeline::run_study(config), 0};
  const std::uint64_t end_us = observability.tracer.now_us();
  out.wall_s = seconds_between(start, Clock::now());

  const obs::MetricsSnapshot snap = observability.metrics.snapshot();
  const auto counter = [&snap](const std::string& name) -> std::optional<double> {
    const auto it = snap.counters.find(name);
    if (it == snap.counters.end()) return std::nullopt;
    return static_cast<double>(it->second);
  };
  const auto phase_s = [&](const char* stage) -> std::optional<double> {
    const auto us = counter(std::string("phase_us/") + stage);
    if (!us) return std::nullopt;
    return *us / 1e6;
  };
  for (const char* stage : kTopStages) {
    if (const auto s = phase_s(stage)) stage_s_[stage].add(*s);
  }
  // The telescope is built only when traffic is generated, not on a hit.
  if (const auto telescope = phase_s("telescope")) {
    stage_s_["telescope"].add(*telescope);
    stage_s_["generate"].add(*phase_s("traffic") - *telescope);
  }
  sessions_.add(static_cast<double>(out.result.fault_log.sessions_in));

  std::vector<std::pair<std::uint64_t, std::uint64_t>> stage_spans;
  double match_us = 0;
  bool matched = false;
  const auto origin = Clock::now() - std::chrono::microseconds(observability.tracer.now_us());
  for (const obs::TraceEvent& event : observability.tracer.events()) {
    const std::string_view name = event.name;
    const bool phase = name.rfind("phase/", 0) == 0;
    if (phase && std::find_if(std::begin(kTopStages), std::end(kTopStages), [&](const char* s) {
                   return name.substr(6) == s;
                 }) != std::end(kTopStages)) {
      stage_spans.emplace_back(event.ts_us, event.ts_us + event.dur_us);
    }
    if (name == "ids/match_corpus") {
      match_us += static_cast<double>(event.dur_us);
      matched = true;
    }
    if (phase || name == "ids/match_corpus" || name.rfind("cache/", 0) == 0) {
      log->add(event.name, origin + std::chrono::microseconds(event.ts_us),
               origin + std::chrono::microseconds(event.ts_us + event.dur_us), 0, 10 + event.tid);
    }
  }
  if (matched) stage_s_["match"].add(match_us / 1e6);
  coverage_.add(union_coverage(std::move(stage_spans), start_us, end_us));

  const double wall_us = static_cast<double>(end_us - start_us);
  if (const auto tasks = counter("pool/tasks_completed"); tasks && *tasks > 0) {
    task_wait_us_mean_.add(counter("pool/task_wait_us").value_or(0) / *tasks);
  }
  if (const auto it = snap.gauges.find("pool/workers"); it != snap.gauges.end() && wall_us > 0) {
    busy_fraction_.add(counter("pool/task_run_us").value_or(0) /
                       (static_cast<double>(std::max<std::int64_t>(1, it->second.value)) * wall_us));
  }
  const auto blocked = snap.histograms.find("lock/pool/queue/blocked_us");
  queue_blocked_us_.add(blocked == snap.histograms.end() ? 0.0
                                                         : static_cast<double>(blocked->second.sum));
  double stage_us = 0;
  for (const char* stage : kTopStages) {
    stage_us += counter(std::string("phase_us/") + stage).value_or(0);
  }
  if (wall_us > 0) overlap_ratio_.add(stage_us / wall_us);
  cache_hits_ += static_cast<std::uint64_t>(counter("cache/hit").value_or(0));
  cache_misses_ += static_cast<std::uint64_t>(counter("cache/miss").value_or(0));
  return out;
}

double StudyProfile::stage_median(std::string_view stage) const {
  const auto it = stage_s_.find(stage);
  return it == stage_s_.end() ? 0.0 : it->second.median();
}

void StudyProfile::report_stages(Result& result) const {
  static constexpr std::pair<const char*, const char*> kStageMetrics[] = {
      {"telescope.build_s", "telescope"},      {"traffic.generate_s", "generate"},
      {"faults.inject_s", "faults"},           {"ids.ruleset_s", "ruleset"},
      {"ids.match_s", "match"},                {"pipeline.reconstruct_s", "reconstruct"},
      {"pipeline.unique_ips_s", "unique_ips"}, {"lifecycle.analyze_s", "analyze"},
  };
  for (const auto& [metric, stage] : kStageMetrics) {
    const auto it = stage_s_.find(stage);
    if (it != stage_s_.end()) result.set(metric, it->second.median(), it->second.size());
  }
  result.set("traffic.sessions", sessions_.median(), sessions_.size());
  result.set("trace.stage_coverage", coverage_.median(), coverage_.size());
}

void StudyProfile::report_execution(Result& result) const {
  result.set("pool.task_wait_us_mean", task_wait_us_mean_.median(), task_wait_us_mean_.size());
  result.set("pool.busy_fraction", busy_fraction_.median(), busy_fraction_.size());
  result.set("lock.pool_queue.blocked_us", queue_blocked_us_.median(), queue_blocked_us_.size());
  result.set("pipeline.overlap_ratio", overlap_ratio_.median(), overlap_ratio_.size());
  const std::uint64_t lookups = cache_hits_ + cache_misses_;
  if (lookups > 0) {
    result.set("cache.hit_ratio", static_cast<double>(cache_hits_) / static_cast<double>(lookups),
               lookups);
  }
}

pipeline::StudyConfig study_config(const RunOptions& options, double scale, std::uint64_t seed) {
  pipeline::StudyConfig config;
  config.seed = seed;
  config.event_scale = scale;
  config.threads = static_cast<int>(options.threads);
  return config;
}

Result run_study_batch(const RunOptions& options, SpanLog* log) {
  Result result;
  result.scale = options.smoke ? 0.02 : 4.0;
  timed_setup(
      result, log,
      [&] {
        // A discarded warm-up study: first-touch page faults and lazily
        // built tables land here instead of in the first measured study.
        (void)pipeline::run_study(study_config(options, result.scale, options.seed));
      },
      [] {});

  std::string first_digest;
  StudyProfile profile;
  const LoopStats stats =
      closed_loop(options, result, 1, kBatchSeeds, [&](std::uint64_t i, bool traced) {
        const pipeline::StudyConfig config =
            study_config(options, result.scale, options.seed + i % kBatchSeeds);
        SpanScope span(traced ? log : nullptr, "study", i);
        const StudyProfile::Run run = profile.run(config, traced ? log : nullptr);
        if (i == 0) first_digest = study_digest(run.result);
        return run.wall_s;
      });
  report_latency(result, stats);
  if (log != nullptr) {
    report_overhead(result, stats);
    profile.report_stages(result);
    profile.report_execution(result);
  }

  // Untimed: the thread count must not change a byte of the result.
  pipeline::StudyConfig serial = study_config(options, result.scale, options.seed);
  serial.threads = 1;
  result.check(study_digest(pipeline::run_study(serial)) == first_digest,
               "study_batch: the threads=1 rerun's digest differs from the first study's");
  return result;
}

Result run_delay_sweep(const RunOptions& options, SpanLog* log) {
  Result result;
  result.scale = options.smoke ? 0.02 : 1.0;
  // Deployment delays 0..delays-1 days per seed: one cold populate of the
  // fresh stage cache, then warm runs that reuse the upstream stages.
  const std::uint64_t delays = options.smoke ? 3 : kDelays;
  const std::filesystem::path cache_dir = options.work_dir / "stage-cache";
  const auto sweep_config = [&](std::uint64_t i) {
    pipeline::StudyConfig config = study_config(options, result.scale, options.seed + i / delays);
    config.faults = sweep_faults();
    config.reconstruct.deployment_delay =
        util::Duration::days(static_cast<std::int64_t>(i % delays));
    // run_study's default window, set here so the cache probe keys on the
    // same reconstruct options the pipeline does.
    config.reconstruct.window_begin = data::study_begin();
    config.reconstruct.window_end = data::study_end();
    return config;
  };
  // Traced runs profile every cache-off study -- the set-up warm-ups and
  // the reruns the checks make -- for the stages' recompute times.
  StudyProfile recompute;
  timed_setup(
      result, log,
      [&] {
        std::filesystem::create_directories(cache_dir);
        (void)recompute.run(sweep_config(0), log);  // warm-up, cache off
      },
      [&] { std::filesystem::remove_all(cache_dir); });

  std::string first_digest;
  pipeline::StudyConfig last_config;
  pipeline::StudyResult last;
  StudyProfile profile;
  const LoopStats stats =
      closed_loop(options, result, 1, kNeverRepeats, [&](std::uint64_t i, bool traced) {
        pipeline::StudyConfig config = sweep_config(i);
        config.cache_dir = cache_dir.string();
        SpanScope span(traced ? log : nullptr, "study", i);
        StudyProfile::Run run = profile.run(config, traced ? log : nullptr);
        if (i == 0) first_digest = study_digest(run.result);
        last = std::move(run.result);
        last_config = config;
        return run.wall_s;
      });
  report_latency(result, stats);
  result.set("cache.disk_mb", static_cast<double>(directory_bytes(cache_dir)) / kMiB);

  // Untimed: the stage cache must not change a byte -- the first and the
  // last sweep point against cache-off reruns.
  result.check(study_digest(recompute.run(sweep_config(0), log).result) == first_digest,
               "delay_sweep: the first sweep point differs from its cache-off rerun");
  last_config.cache_dir.clear();
  result.check(study_digest(recompute.run(last_config, log).result) == study_digest(last),
               "delay_sweep: the last sweep point differs from its cache-off rerun");

  if (log != nullptr) {
    report_overhead(result, stats);
    recompute.report_stages(result);
    profile.report_execution(result);
    codec_probe(sweep_config(0), cache_dir, options.work_dir / "probe-cache", recompute, *log,
                result);
  }
  return result;
}

}  // namespace cvewb::bench
