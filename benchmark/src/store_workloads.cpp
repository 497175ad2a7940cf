// The store workloads, served by an in-process cvewbd over loopback:
// analysts reading lifecycle rows (store_read), and the same reads beside
// a fixed-rate stream of study submissions whose completions ingest,
// checkpoint, and compact the store (service_mixed).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "cache/key.h"
#include "daemon/server.h"
#include "harness.h"
#include "obs/observability.h"
#include "pipeline/study.h"
#include "store/store.h"
#include "util/json.h"
#include "util/rng.h"

namespace cvewb::bench {

namespace {

constexpr int kCorpusRuns = 4;             // set-up runs: seeds S..S+3
constexpr double kCorpusScale = 0.5;       // event_scale of each set-up run
constexpr std::uint64_t kQueryLimit = 64;  // rows materialized per reply
constexpr std::size_t kVerifiedQueries = 50;
constexpr auto kJobPollInterval = std::chrono::milliseconds(10);
constexpr auto kDrainLimit = std::chrono::seconds(60);

/// Blocking loopback client for the newline-delimited JSON protocol.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connect_to(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  }

  /// `frame` must end in '\n'.
  bool send_frame(std::string_view frame) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const auto n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Block until one whole reply line has arrived.
  bool read_line(std::string& line) {
    while (!take_line(line)) {
      if (!receive(0)) return false;
    }
    return true;
  }

  /// Drain the socket without blocking and append every complete reply
  /// line; false when the peer closed or the socket failed.
  bool read_ready(std::vector<std::string>& lines) {
    bool drained = false;
    while (!drained) {
      if (!receive(MSG_DONTWAIT, &drained)) return false;
    }
    std::string line;
    while (take_line(line)) lines.push_back(std::move(line));
    return true;
  }

  int fd() const { return fd_; }

 private:
  bool take_line(std::string& line) {
    const auto newline = buffer_.find('\n');
    if (newline == std::string::npos) return false;
    line.assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }
  /// One recv; `would_block` (non-blocking reads) reports an empty socket.
  bool receive(int flags, bool* would_block = nullptr) {
    char chunk[65536];
    const auto n = ::recv(fd_, chunk, sizeof chunk, flags);
    if (n < 0 && would_block != nullptr && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      *would_block = true;
      return true;
    }
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Replies put "ok" first (daemon::Server::dispatch), so a prefix test
/// classifies a reply without parsing its rows.
bool reply_ok(std::string_view line) { return line.rfind("{\"ok\":true", 0) == 0; }

std::string string_field(const util::Json& doc, std::string_view key) {
  const util::Json* value = doc.find(key);
  return value != nullptr && value->type() == util::Json::Type::kString ? value->as_string()
                                                                        : std::string();
}

std::int64_t int_field(const util::Json& doc, std::string_view key) {
  const util::Json* value = doc.find(key);
  return value != nullptr && value->type() == util::Json::Type::kNumber ? value->as_int64() : -1;
}

/// One in-process daemon with its event loop on a thread of its own.
class Daemon {
 public:
  Daemon(daemon::ServerConfig config, obs::Observability* observability)
      : server_(std::move(config), observability) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start() {
    if (!server_.start()) throw std::runtime_error("daemon could not bind a loopback port");
    if (server_.store() == nullptr) throw std::runtime_error("daemon could not open its store");
    loop_ = std::thread([this] { server_.run(); });
  }
  void stop() {
    if (!loop_.joinable()) return;
    server_.request_shutdown();
    loop_.join();
  }
  daemon::Server& server() { return server_; }

 private:
  daemon::Server server_;
  std::thread loop_;  // declared last: joined before the server goes away
};

/// Everything the store workloads set up: the studies behind the store,
/// the daemon serving it, and one client connection.
struct StoreFixture {
  std::filesystem::path dir;
  std::vector<pipeline::StudyResult> corpus;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Connection> client;

  store::Store& store() { return *daemon->server().store(); }
  void reset() {
    client.reset();
    daemon.reset();
    corpus.clear();
    std::filesystem::remove_all(dir);
  }
};

/// Set-up shared by the store workloads, as a user fills a store: run
/// each study, ingest and checkpoint it, compact the tiers to one
/// snapshot; then start the daemon over that directory and connect.
void set_up_store(const RunOptions& options, double scale, int backlog_capacity,
                  obs::Observability* observability, SpanLog* log, StudyProfile& profile,
                  StoreFixture& fixture) {
  store::StoreError error;
  {
    std::unique_ptr<store::Store> store = store::Store::open(fixture.dir, {}, &error);
    if (store == nullptr) throw std::runtime_error("store open: " + error.detail);
    for (int i = 0; i < kCorpusRuns; ++i) {
      const pipeline::StudyConfig config = study_config(options, scale, options.seed + i);
      {
        SpanScope span(log, "setup.study");
        fixture.corpus.push_back(profile.run(config, log).result);
      }
      {
        SpanScope span(log, "store.ingest");
        if (!store->ingest(fixture.corpus.back(), cache::run_key(config), &error)) {
          throw std::runtime_error("store ingest: " + error.detail);
        }
      }
      SpanScope span(log, "store.checkpoint");
      if (!store->checkpoint(&error)) throw std::runtime_error("store checkpoint: " + error.detail);
    }
    SpanScope span(log, "store.compact");
    if (!store->compact(&error)) throw std::runtime_error("store compact: " + error.detail);
  }
  daemon::ServerConfig config;
  config.store_dir = fixture.dir.string();
  config.scheduler.workers = 1;
  config.scheduler.backlog_capacity = backlog_capacity;
  fixture.daemon = std::make_unique<Daemon>(std::move(config), observability);
  fixture.daemon->start();
  fixture.client = std::make_unique<Connection>();
  if (!fixture.client->connect_to(fixture.daemon->server().port())) {
    throw std::runtime_error("client could not connect to the daemon");
  }
}

/// Store write-path and size metrics from the set-up spans and the store.
void report_store_writes(StoreFixture& fixture, SpanLog* log, Result& result) {
  const store::StoreStats stats = fixture.store().stats();
  const std::uint64_t rows = stats.session_rows + stats.event_rows;
  const std::uint64_t bytes = directory_bytes(fixture.dir);
  result.set("store.disk_mb", static_cast<double>(bytes) / kMiB);
  result.set("store.bytes_per_row", rows > 0 ? static_cast<double>(bytes) / rows : 0.0, rows);
  if (log == nullptr) return;
  std::uint64_t corpus_rows = 0;
  for (const auto& run : fixture.corpus) {
    corpus_rows += run.traffic.sessions.size() + run.reconstruction.events.size();
  }
  const Samples ingest = log->seconds_of("store.ingest");
  result.set("store.ingest_s", ingest.median(), ingest.size());
  if (ingest.sum() > 0) {
    // Every set-up repetition ingests the same corpus.
    result.set("store.ingest_rows_per_s",
               static_cast<double>(corpus_rows * kSetupRepeats) / ingest.sum(), ingest.size());
  }
  const Samples checkpoint = log->seconds_of("store.checkpoint");
  result.set("store.checkpoint_s", checkpoint.median(), checkpoint.size());
  const Samples compact = log->seconds_of("store.compact");
  result.set("store.compact_s", compact.median(), compact.size());
}

/// p99 of a daemon histogram: the upper edge of the log2 bucket holding it.
double histogram_p99(const obs::Observability& observability, const char* name) {
  const obs::MetricsSnapshot snap = observability.metrics.snapshot();
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0;
  const obs::HistogramSnapshot& h = it->second;
  const double target = 0.99 * static_cast<double>(h.count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    seen += h.buckets[b];
    if (static_cast<double>(seen) >= target) {
      if (b == 0) return 0.0;
      return std::min(std::ldexp(1.0, static_cast<int>(b)), static_cast<double>(h.max));
    }
  }
  return static_cast<double>(h.max);
}

/// One query of the mix, ready for the wire.
struct MixQuery {
  const char* shape = "";
  store::Query query;
  std::string frame;  // '\n'-terminated store_query request
};

/// The analysts' query mix over the set-up corpus: events_by_cve 35%,
/// events_by_week 20%, events_by_sid_week 15% (the planner's intersect
/// path), sessions_by_src 20%, sessions_by_day 10%.  Query cost spans four
/// orders of magnitude across shapes and CVEs, so the mix is stratified to
/// give every seed the same composition: exact shape counts in a shuffled
/// order, CVEs cycled uniformly (not by event count, so Log4Shell does not
/// dominate), and rows drawn one per equal stratum of each time-sorted table.
/// The loop cycles through the mix, so its size sets how often each query
/// repeats in a run (about ten times on store_read, five to seven on
/// service_mixed), and so how likely its best repetition ran at full speed.
std::vector<MixQuery> make_query_mix(const std::vector<pipeline::StudyResult>& corpus,
                                     std::uint64_t seed) {
  constexpr std::int64_t kDay = 86'400;
  struct Share {
    const char* shape;
    std::size_t count;  // queries of this shape in the mix
  };
  static constexpr Share kShares[] = {{"events_by_cve", 175},
                                      {"events_by_week", 100},
                                      {"events_by_sid_week", 75},
                                      {"sessions_by_src", 100},
                                      {"sessions_by_day", 50}};
  util::Rng rng(util::stream_seed(seed, 0x51ab, 0));
  const auto shuffle = [&rng](auto& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.uniform_u64(i)]);
    }
  };
  std::set<std::string> cve_set;
  for (const auto& run : corpus) {
    if (run.reconstruction.events.empty() || run.traffic.sessions.empty()) {
      throw std::runtime_error("a set-up run has no rows to query");
    }
    for (const auto& event : run.reconstruction.events) cve_set.insert(event.cve_id);
  }
  std::vector<std::string> cves(cve_set.begin(), cve_set.end());
  shuffle(cves);
  std::vector<std::size_t> slots;
  for (std::size_t s = 0; s < std::size(kShares); ++s) {
    slots.insert(slots.end(), kShares[s].count, s);
  }
  shuffle(slots);

  std::size_t drawn[std::size(kShares)] = {};
  std::vector<MixQuery> mix;
  mix.reserve(slots.size());
  for (const std::size_t s : slots) {
    const std::size_t k = drawn[s]++;
    const pipeline::StudyResult& run = corpus[k % corpus.size()];
    // The k-th of n draws lands in the k-th of n equal strata of the table.
    const auto pick = [&](std::size_t size) {
      const double u =
          (static_cast<double>(k) + rng.uniform()) / static_cast<double>(kShares[s].count);
      return std::min(size - 1, static_cast<std::size_t>(u * static_cast<double>(size)));
    };
    const auto& events = run.reconstruction.events;
    const auto& sessions = run.traffic.sessions;
    MixQuery q;
    q.shape = kShares[s].shape;
    q.query.limit = kQueryLimit;
    q.query.table = s < 3 ? store::Table::kEvents : store::Table::kSessions;
    switch (s) {
      case 0:
        q.query.cve = cves[k % cves.size()];
        break;
      case 1:
      case 2: {
        const lifecycle::ExploitEvent& event = events[pick(events.size())];
        if (s == 2) q.query.sid = event.sid;
        q.query.time_begin = event.time.unix_seconds();
        q.query.time_end = *q.query.time_begin + 7 * kDay;
        break;
      }
      case 3:
        q.query.src = sessions[pick(sessions.size())].src.value();
        break;
      default:
        q.query.time_begin = sessions[pick(sessions.size())].open_time.unix_seconds();
        q.query.time_end = *q.query.time_begin + kDay;
        break;
    }
    util::Json frame;
    frame.set("op", util::Json("store_query"));
    frame.set("table", util::Json(q.query.table == store::Table::kEvents ? "events" : "sessions"));
    if (q.query.cve) frame.set("cve", util::Json(*q.query.cve));
    if (q.query.time_begin) frame.set("begin", util::Json(*q.query.time_begin));
    if (q.query.time_end) frame.set("end", util::Json(*q.query.time_end));
    if (q.query.src) frame.set("src", util::Json(static_cast<std::int64_t>(*q.query.src)));
    if (q.query.sid) frame.set("sid", util::Json(static_cast<std::int64_t>(*q.query.sid)));
    frame.set("limit", util::Json(static_cast<std::int64_t>(kQueryLimit)));
    q.frame = frame.dump() + "\n";
    mix.push_back(std::move(q));
  }
  return mix;
}

/// Untimed: the first kVerifiedQueries distinct queries of the mix must
/// answer over the wire exactly what the store's brute-force scan does.
void verify_queries(const std::vector<MixQuery>& mix, StoreFixture& fixture, Result& result) {
  std::set<std::string> seen;
  for (const MixQuery& q : mix) {
    if (seen.size() == kVerifiedQueries) break;
    if (!seen.insert(q.frame).second) continue;
    std::string line;
    if (!fixture.client->send_frame(q.frame) || !fixture.client->read_line(line)) {
      result.check(false, "verify: connection lost");
      return;
    }
    const auto reply = util::parse_json(line);
    const store::QueryResult brute = fixture.store().query(q.query, store::QueryMode::kBrute);
    const bool same = reply && string_field(*reply, "digest") == brute.digest_hex &&
                      int_field(*reply, "matched") == static_cast<std::int64_t>(brute.matched);
    result.check(same, std::string("verify: ") + q.shape + " reply differs from the brute scan: " +
                           q.frame.substr(0, q.frame.size() - 1));
  }
}

}  // namespace

Result run_store_read(const RunOptions& options, SpanLog* log) {
  Result result;
  result.scale = options.smoke ? 0.02 : kCorpusScale;
  std::optional<obs::Observability> server_obs;
  if (log != nullptr) server_obs.emplace();
  StudyProfile profile;
  StoreFixture fixture{options.work_dir / "store", {}, {}, {}};
  timed_setup(
      result, log,
      [&] {
        set_up_store(options, result.scale, 8, server_obs ? &*server_obs : nullptr, log, profile,
                     fixture);
      },
      [&] { fixture.reset(); });
  const std::vector<MixQuery> mix = make_query_mix(fixture.corpus, options.seed);

  // Traced operations: each wire query is followed by the same query called
  // directly on the store, so the daemon's share is wire minus direct.
  std::map<std::string, Samples> direct_us;
  Samples direct_all_us;
  Samples wire_minus_direct_us;
  std::uint64_t scanned = 0;
  std::uint64_t matched = 0;
  Samples postings;
  std::string line;
  const auto query_op = [&](std::uint64_t i, bool traced) {
    const MixQuery& q = mix[i % mix.size()];
    const auto start = Clock::now();
    if (!fixture.client->send_frame(q.frame) || !fixture.client->read_line(line)) return -1.0;
    const auto end = Clock::now();
    if (!reply_ok(line)) return -1.0;
    if (traced) {
      log->add("daemon.store_query", start, end, i);
      const auto direct_start = Clock::now();
      const store::QueryResult direct = fixture.store().query(q.query);
      const auto direct_end = Clock::now();
      log->add("store.query", direct_start, direct_end, i);
      const double us = seconds_between(direct_start, direct_end) * 1e6;
      direct_us[q.shape].add(us);
      direct_all_us.add(us);
      wire_minus_direct_us.add(seconds_between(start, end) * 1e6 - us);
      scanned += direct.scanned;
      matched += direct.matched;
      postings.add(static_cast<double>(direct.postings_examined));
    }
    return seconds_between(start, end);
  };
  const LoopStats stats = closed_loop(options, result, mix.size(), mix.size(), query_op);
  report_latency(result, stats);
  report_store_writes(fixture, log, result);
  if (log != nullptr) {
    report_overhead(result, stats);
    for (const auto& [shape, samples] : direct_us) {
      result.set("store.query_us_p50." + shape, samples.median(), samples.size());
    }
    result.set("store.query_us_p99", direct_all_us.percentile(99), direct_all_us.size());
    result.set("store.scanned_per_match",
               matched > 0 ? static_cast<double>(scanned) / static_cast<double>(matched) : 0.0);
    result.set("store.postings_per_query", postings.mean(), postings.size());
    result.set("daemon.wire_us_p50", wire_minus_direct_us.median(), wire_minus_direct_us.size());
    result.set("daemon.store_query_us_p99", histogram_p99(*server_obs, "daemon/store_query_us"));
    profile.report_stages(result);
    profile.report_execution(result);
  }

  verify_queries(mix, fixture, result);
  result.check(result.failed == 0, "store_read: " + std::to_string(result.failed) +
                                       " query replies were not ok");
  return result;
}

Result run_service_mixed(const RunOptions& options, SpanLog* log) {
  Result result;
  result.scale = options.smoke ? 0.02 : kCorpusScale;
  const double job_scale = options.smoke ? 0.01 : 0.1;
  const int job_threads = std::min(2, static_cast<int>(options.threads));
  const auto submit_interval = options.smoke ? std::chrono::milliseconds(400)
                                             : std::chrono::milliseconds(2000);
  // The backlog holds 4 jobs: capacity in the scheduler's weight units.
  const int job_weight =
      static_cast<int>(std::ceil(job_scale / daemon::SchedulerConfig{}.weight_scale_unit));
  std::optional<obs::Observability> server_obs;
  if (log != nullptr) server_obs.emplace();
  StudyProfile profile;
  StoreFixture fixture{options.work_dir / "store", {}, {}, {}};
  timed_setup(
      result, log,
      [&] {
        set_up_store(options, result.scale, 4 * job_weight, server_obs ? &*server_obs : nullptr,
                     log, profile, fixture);
      },
      [&] { fixture.reset(); });
  const std::vector<MixQuery> mix = make_query_mix(fixture.corpus, options.seed);

  struct Job {
    std::uint64_t seed = 0;
    Clock::time_point due;
    std::unique_ptr<Connection> conn;
    std::string id;          // set once admitted
    bool awaiting = false;   // a frame is in flight on conn
    bool done = false;
    Clock::time_point next_poll;
    std::string digest;
  };
  struct InFlight {
    Clock::time_point sent;
    std::uint64_t index;
  };

  // One client thread multiplexes every connection with poll().  Writes
  // are an open loop: one study submission every submit_interval, each on
  // its own connection, polled every 10 ms until its digest is back and
  // timed from its due time.  Every completion ingests and checkpoints;
  // the seventh adds the eighth base tier, so it also compacts.  The fixed
  // rate keeps a faster study from changing the write load the reader
  // sees.  The reader -- the measured operation -- is an analyst, as on
  // store_read: a closed loop on the fixture's connection that sends the
  // next query when the previous reply is back, so a write stall shows as
  // the time that reader spends blocked.  (An open-loop reader at 100/s,
  // timed from due times, is stalled behind writes for about half the
  // run; its median and mean then swing with every stall's length.)
  const auto t0 = Clock::now();
  const auto window_end = t0 + std::chrono::seconds(options.seconds);
  const std::uint64_t job_count = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::chrono::seconds(options.seconds) / submit_interval));
  const auto submit_due = [&](std::size_t k) {
    return t0 + submit_interval * static_cast<std::int64_t>(k);
  };
  std::optional<InFlight> in_flight;
  std::vector<Job> jobs;
  LoopStats query_stats;
  Samples submit_to_digest_s;
  Samples job_wait_ms;
  Samples job_run_ms;
  double late_ms_max = 0;
  std::uint64_t rejected = 0;
  std::uint64_t next_query = 0;
  Connection& queries = *fixture.client;
  for (;;) {
    auto now = Clock::now();
    if (!in_flight && now < window_end) {
      ++result.attempted;
      if (!queries.send_frame(mix[next_query % mix.size()].frame)) {
        throw std::runtime_error("daemon closed the query connection");
      }
      in_flight = InFlight{now, next_query++};
    }
    while (jobs.size() < job_count && submit_due(jobs.size()) <= now) {
      ++result.attempted;
      late_ms_max = std::max(late_ms_max, seconds_between(submit_due(jobs.size()), now) * 1e3);
      Job job;
      job.seed = options.seed + 100 + jobs.size();
      job.due = submit_due(jobs.size());
      job.conn = std::make_unique<Connection>();
      util::Json submit;
      submit.set("op", util::Json("submit"));
      submit.set("seed", util::Json(static_cast<std::int64_t>(job.seed)));
      submit.set("scale", util::Json(job_scale));
      submit.set("threads", util::Json(job_threads));
      if (job.conn->connect_to(fixture.daemon->server().port()) &&
          job.conn->send_frame(submit.dump() + "\n")) {
        job.awaiting = true;
      } else {
        ++result.failed;
        job.done = true;
        job.conn.reset();
      }
      jobs.push_back(std::move(job));
    }
    for (Job& job : jobs) {
      if (job.done || job.awaiting || job.id.empty() || now < job.next_poll) continue;
      util::Json query;
      query.set("op", util::Json("query"));
      query.set("job", util::Json(job.id));
      job.awaiting = job.conn->send_frame(query.dump() + "\n");
      if (!job.awaiting) {
        ++result.failed;
        job.done = true;
        job.conn.reset();
      }
    }
    const bool jobs_done =
        jobs.size() == job_count &&
        std::all_of(jobs.begin(), jobs.end(), [](const Job& job) { return job.done; });
    if (now >= window_end && !in_flight && jobs_done) break;
    if (now >= window_end + kDrainLimit) {
      result.failed += in_flight ? 1 : 0;
      for (const Job& job : jobs) result.failed += job.done ? 0 : 1;
      break;
    }

    // Sleep until the next due send or reply.
    auto wake = now + std::chrono::milliseconds(50);
    if (jobs.size() < job_count) wake = std::min(wake, submit_due(jobs.size()));
    std::vector<pollfd> fds{{queries.fd(), POLLIN, 0}};
    std::vector<Job*> polled;
    for (Job& job : jobs) {
      if (job.done) continue;
      if (!job.awaiting) wake = std::min(wake, job.next_poll);
      fds.push_back({job.conn->fd(), POLLIN, 0});
      polled.push_back(&job);
    }
    const auto timeout = std::chrono::ceil<std::chrono::milliseconds>(wake - now).count();
    if (::poll(fds.data(), fds.size(), static_cast<int>(std::max<std::int64_t>(0, timeout))) < 0 &&
        errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    now = Clock::now();

    std::vector<std::string> lines;
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !queries.read_ready(lines)) {
      throw std::runtime_error("daemon closed the query connection");
    }
    for (const std::string& reply : lines) {
      if (!in_flight) throw std::runtime_error("reply without a query in flight");
      const InFlight query = *in_flight;
      in_flight.reset();
      if (!reply_ok(reply)) {
        ++result.failed;
        continue;
      }
      const double latency_s = seconds_between(query.sent, now);
      query_stats.latency_s.add(latency_s);
      query_stats.best_s.add(query.index % mix.size(), latency_s);
      const bool traced = traced_op(options, query.index, mix.size());
      (traced ? query_stats.traced_s : query_stats.untraced_s).add(latency_s);
      if (traced) log->add("daemon.store_query", query.sent, now, query.index, 2);
    }
    for (std::size_t k = 0; k < polled.size(); ++k) {
      Job& job = *polled[k];
      if ((fds[k + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      const bool open = job.conn->read_ready(lines);
      for (const std::string& line : lines) {
        job.awaiting = false;
        job.next_poll = now + kJobPollInterval;
        const auto reply = util::parse_json(line);
        const std::string state = reply ? string_field(*reply, "state") : std::string();
        if (job.id.empty()) {  // the submit reply
          job.id = reply && reply_ok(line) ? string_field(*reply, "job") : std::string();
          if (job.id.empty()) {
            ++rejected;
            ++result.failed;
            job.done = true;
          }
        } else if (state == "complete") {
          job.digest = string_field(*reply, "digest");
          job.done = true;
          submit_to_digest_s.add(seconds_between(job.due, now));
          job_wait_ms.add(static_cast<double>(int_field(*reply, "wait_us")) / 1e3);
          job_run_ms.add(static_cast<double>(int_field(*reply, "run_us")) / 1e3);
          if (log != nullptr) {
            log->add("daemon.job", job.due, now, 1'000'000 + job.seed, 3);
          }
        } else if (state != "queued" && state != "running") {
          ++result.failed;
          job.done = true;
        }
      }
      if (!open && !job.done) {
        ++result.failed;
        job.done = true;
      }
      if (job.done) job.conn.reset();
    }
  }
  report_latency(result, query_stats);
  report_store_writes(fixture, log, result);
  if (log != nullptr) {
    report_overhead(result, query_stats);
    result.set("client.query_ms_p99", query_stats.latency_s.percentile(99) * 1e3,
               query_stats.latency_s.size());
    result.set("daemon.submit_to_digest_s_p50", submit_to_digest_s.median(),
               submit_to_digest_s.size());
    result.set("daemon.job_wait_ms_p50", job_wait_ms.median(), job_wait_ms.size());
    result.set("daemon.job_run_ms_p50", job_run_ms.median(), job_run_ms.size());
    result.set("daemon.rejected", static_cast<double>(rejected));
    result.set("client.late_ms_max", late_ms_max);
    result.set("daemon.store_query_us_p99", histogram_p99(*server_obs, "daemon/store_query_us"));
    profile.report_stages(result);
    profile.report_execution(result);
  }

  // Untimed checks: every reply ok; the service's digests equal local
  // studies'; the store survived the concurrent writes intact.
  result.check(result.failed == 0, "service_mixed: " + std::to_string(result.failed) +
                                       " operations failed or were refused");
  std::vector<const Job*> completed;
  for (const Job& job : jobs) {
    if (!job.digest.empty()) completed.push_back(&job);
  }
  result.check(!completed.empty(), "service_mixed: no job completed");
  if (!completed.empty()) {
    for (const Job* job : {completed.front(), completed.back()}) {
      pipeline::StudyConfig local = study_config(options, job_scale, job->seed);
      local.threads = job_threads;
      result.check(study_digest(pipeline::run_study(local)) == job->digest,
                   "service_mixed: job digest for seed " + std::to_string(job->seed) +
                       " differs from a local run_study");
    }
  }
  store::StoreError error;
  result.check(fixture.store().verify(&error),
               "service_mixed: store verify failed: " + error.detail);
  const std::uint64_t runs = fixture.store().stats().runs;
  result.check(runs == kCorpusRuns + completed.size(),
               "service_mixed: store holds " + std::to_string(runs) + " runs, expected " +
                   std::to_string(kCorpusRuns + completed.size()));
  fixture.reset();
  return result;
}

}  // namespace cvewb::bench
