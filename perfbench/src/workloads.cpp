// The workloads. Each times calls into duo_core's public functions
// from outside and checks every verdict against the generator's records
// and the paper's properties.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "checker/engine.hpp"
#include "checker/verdict.hpp"
#include "gen.hpp"
#include "history/parser.hpp"
#include "monitor/monitor.hpp"
#include "monitor/tap.hpp"
#include "service/daemon.hpp"
#include "stm/recorder.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"
#include "util/threading.hpp"

namespace perfbench {

namespace {

using duo::checker::Criterion;
using duo::checker::Verdict;
namespace history = duo::history;
namespace monitor = duo::monitor;
namespace service = duo::service;
namespace stm = duo::stm;

/// A replayed file ends, so the follow needs an idle cutoff (duo_mond's
/// default of 0 follows forever). The file is complete before the daemon
/// starts, so the cutoff only ends the run; it cannot cut input short.
constexpr std::uint64_t kIdleMs = 1;

/// The traced checker pass judges at most this many leading events of a
/// trace: History construction is quadratic in the transaction count.
constexpr std::size_t kCheckerEvents = 24000;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TraceRecord write_trace(const TraceSpec& spec, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  TextSink sink(f);
  const TraceRecord rec = generate(spec, sink);
  const bool ok = sink.flush();
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("write failed: " + path);
  return rec;
}

std::string fmt_index(const std::optional<std::size_t>& i) {
  return i ? std::to_string(*i) : std::string("none");
}

service::DaemonOptions daemon_options(const std::string& path) {
  service::DaemonOptions o;
  o.trace_path = path;
  o.pipeline.monitor.gc = true;  // duo_mond's default
  o.follow.idle_ms = kIdleMs;
  o.stats_interval_ms = 0;  // no periodic stats lines
  return o;
}

/// The verdict an ingest run must reach on a generated trace: a latch at
/// exactly the injected event having consumed every earlier event, or
/// "yes" over every generated event.
std::string check_stream(const TraceRecord& rec, Verdict verdict,
                         const std::optional<std::size_t>& first_violation,
                         std::size_t events) {
  if (rec.first_violation) {
    if (verdict != Verdict::kNo) return "expected a violation, got " + to_string(verdict);
    if (first_violation != rec.first_violation)
      return "first violation " + fmt_index(first_violation) + ", expected " +
             fmt_index(rec.first_violation);
    if (events != *rec.first_violation + 1)
      return "consumed " + std::to_string(events) + " events, expected " +
             std::to_string(*rec.first_violation + 1);
    return "";
  }
  if (verdict != Verdict::kYes) return "expected yes, got " + to_string(verdict);
  if (events != rec.events)
    return "judged " + std::to_string(events) + " of " +
           std::to_string(rec.events) + " events";
  return "";
}

struct AuditOutcome {
  duo::checker::VerdictVector v;
  std::optional<std::size_t> first_bad;
};

/// What `duo_check <file>` must report on a generated trace, by the
/// generator's record and the paper's containments.
std::string check_audit(const TraceRecord& rec, const history::History& h,
                        const AuditOutcome& o) {
  const auto& v = o.v;
  for (const Verdict x : {v.final_state, v.opaque, v.du_opaque, v.rco, v.tms2,
                          v.strict_ser})
    if (x == Verdict::kUnknown) return "unknown verdict: " + v.to_string();
  if (h.size() != rec.events) return "parsed event count differs";
  if (h.has_unique_writes() != rec.unique_writes) return "unique-writes class differs";
  const bool du = v.du_opaque == Verdict::kYes;
  if (du != !rec.first_violation)
    return "du verdict " + to_string(v.du_opaque) + ", expected first violation " +
           fmt_index(rec.first_violation);
  if (o.first_bad != rec.first_violation)
    return "first_bad_prefix " + fmt_index(o.first_bad) + ", expected " +
           fmt_index(rec.first_violation);
  const bool opaque = v.opaque == Verdict::kYes;
  if (rec.unique_writes && du != opaque)
    return "du-opacity differs from opacity under unique writes: " + v.to_string();
  if (du && !opaque) return "du but not opaque: " + v.to_string();
  if (opaque && v.final_state != Verdict::kYes)
    return "opaque but not final-state opaque: " + v.to_string();
  if (opaque && v.strict_ser != Verdict::kYes)
    return "opaque but not strictly serializable: " + v.to_string();
  return "";
}

OpResult finish_op(std::string why, const TraceRecord& rec, double phase) {
  OpResult r;
  r.ok = why.empty();
  r.why = std::move(why);
  r.events = rec.first_violation ? *rec.first_violation + 1 : rec.events;
  r.commits = rec.commits;
  r.phase_s = phase;
  return r;
}

// ---------------------------------------------------------------------------
// Traced passes: the same trace files through each layer's public functions,
// one call at a time, every verdict checked as in the untraced operations.

/// The daemon's loop: FollowReader::poll into IngestPipeline::submit/finish.
void service_pass(Ledger& L, TraceCounts& counts, const std::string& path,
                  const TraceRecord& rec) {
  const service::DaemonOptions opts = daemon_options(path);
  service::FollowReader reader(opts.trace_path, opts.follow);
  service::IngestPipeline pipeline(opts.pipeline);
  std::string chunk;
  for (;;) {
    auto t = Clock::now();
    const service::FollowStatus st = reader.poll(chunk);
    L.add("service.reader.busy_s", seconds_since(t));
    if (st != service::FollowStatus::kData) break;
    L.add("service.reader.bytes", static_cast<double>(chunk.size()));
    t = Clock::now();
    const bool more = pipeline.submit(std::move(chunk));
    L.add("service.pipeline.submit_wait_s", seconds_since(t));
    if (!more) break;
  }
  const auto t = Clock::now();
  const service::PipelineResult r = pipeline.finish();
  L.add("service.pipeline.finish_s", seconds_since(t));
  counts.note(finish_op(
      r.error ? "input error: " + r.explanation
              : check_stream(rec, r.verdict, r.first_violation, r.events),
      rec, 0));
}

/// Accumulators the feed passes share across traces.
struct FeedTotals {
  std::vector<double> batch_ms;
  double parsed = 0;
  double fed = 0;
};

/// The daemon's chunks through parse_events and feed_batch (GC on, as in
/// the daemon). shards == 1 records parse, feed and monitor counters;
/// shards == 0 (one per CPU) records only its feed time.
void feed_pass(Ledger& L, TraceCounts& counts, const std::string& path,
               const TraceRecord& rec, std::size_t shards, FeedTotals& tot) {
  const service::DaemonOptions opts = daemon_options(path);
  monitor::MonitorOptions mopts = opts.pipeline.monitor;
  mopts.shards = shards;
  monitor::OnlineMonitor mon(mopts);
  service::FollowReader reader(opts.trace_path, opts.follow);
  const bool serial = shards == 1;
  std::string chunk;
  std::string error;
  while (error.empty() && mon.verdict() != Verdict::kNo &&
         reader.poll(chunk) == service::FollowStatus::kData) {
    auto t = Clock::now();
    auto pe = history::parse_events(chunk);
    const double parse_s = seconds_since(t);
    if (!pe) {
      error = pe.error();
      break;
    }
    const std::vector<history::Event>& events = pe.value().events;
    t = Clock::now();
    const auto out = mon.feed_batch(events.data(), events.size());
    const double feed_s = seconds_since(t);
    error = out.error;
    if (!serial) {
      L.add("monitor.feed.busy_s.shards_n", feed_s);
      continue;
    }
    L.add("history.parse.busy_s", parse_s);
    tot.parsed += static_cast<double>(events.size());
    L.add("monitor.feed.busy_s", feed_s);
    tot.fed += static_cast<double>(out.consumed);
    tot.batch_ms.push_back(feed_s * 1e3);
    L.max("monitor.peak_retained_events", static_cast<double>(mon.retained_events()));
    L.max("monitor.peak_graph_nodes", static_cast<double>(mon.graph_nodes()));
    L.max("monitor.peak_live_txns", static_cast<double>(mon.live_transactions()));
  }
  if (serial) {
    const monitor::MonitorStats& s = mon.stats();
    L.add("monitor.fast_yes", static_cast<double>(s.fast_yes));
    L.add("monitor.edges_added", static_cast<double>(s.edges_added));
    L.add("monitor.edges_removed", static_cast<double>(s.edges_removed));
    L.add("monitor.chain_splices", static_cast<double>(s.chain_splices));
    L.add("monitor.deferred_edges", static_cast<double>(s.deferred_edges));
    L.add("monitor.full_checks", static_cast<double>(s.full_checks));
    L.add("monitor.graph_checks", static_cast<double>(s.graph_checks));
    L.add("monitor.gc.passes", static_cast<double>(s.gc_passes));
    L.add("monitor.gc.retired_txns", static_cast<double>(s.retired_txns));
    L.add("monitor.gc.sealed_reads", static_cast<double>(s.sealed_reads));
  }
  counts.note(finish_op(
      !error.empty() ? "malformed: " + error
                     : check_stream(rec, mon.verdict(), mon.first_violation(),
                                    mon.events_fed()),
      rec, 0));
}

/// History::make, check_with_engine per criterion and first_bad_prefix on
/// the trace (its first kCheckerEvents events when longer).
void checker_pass(Ledger& L, TraceCounts& counts, const std::string& path,
                  const TraceRecord& rec) {
  static const std::pair<Criterion, const char*> kCriteria[] = {
      {Criterion::kFinalStateOpacity, "checker.fso.busy_s"},
      {Criterion::kOpacity, "checker.opacity.busy_s"},
      {Criterion::kDuOpacity, "checker.du.busy_s"},
      {Criterion::kRcoOpacity, "checker.rco.busy_s"},
      {Criterion::kTms2, "checker.tms2.busy_s"},
      {Criterion::kStrictSerializability, "checker.sser.busy_s"},
  };
  auto pe = history::parse_events(slurp(path));
  if (!pe) {
    counts.note(finish_op("parse: " + pe.error(), rec, 0));
    return;
  }
  history::ParsedEvents parsed = std::move(pe).take();
  TraceRecord want = rec;
  if (parsed.events.size() > kCheckerEvents) {
    // A prefix: du-opaque unless it reaches the injected event.
    parsed.events.resize(kCheckerEvents);
    want.events = kCheckerEvents;
    if (want.first_violation && *want.first_violation >= kCheckerEvents)
      want.first_violation.reset();
  }
  auto t = Clock::now();
  auto built = history::History::make(std::move(parsed.events), parsed.max_obj + 1);
  L.add("history.build.busy_s", seconds_since(t));
  if (!built) {
    counts.note(finish_op("build: " + built.error(), rec, 0));
    return;
  }
  const history::History& h = built.value();
  L.add("history.build.txns", static_cast<double>(h.num_txns()));
  // A prefix's writes class is its own; a whole trace must match its record.
  if (want.events != rec.events) want.unique_writes = h.has_unique_writes();

  AuditOutcome o;
  Verdict* const slots[] = {&o.v.final_state, &o.v.opaque, &o.v.du_opaque,
                            &o.v.rco, &o.v.tms2, &o.v.strict_ser};
  for (std::size_t c = 0; c < 6; ++c) {
    t = Clock::now();
    const auto r = duo::checker::check_with_engine(h, kCriteria[c].first, {});
    L.add(kCriteria[c].second, seconds_since(t));
    *slots[c] = r.verdict;
    if (r.engine.engine == "graph") L.add("checker.graph_routed", 1);
    if (r.engine.engine == "dfs") L.add("checker.dfs_routed", 1);
    if (r.engine.engine == "graph->dfs") L.add("checker.graph_declines", 1);
    if (r.engine.engine != "graph")
      L.add("checker.dfs_nodes", static_cast<double>(r.stats.nodes));
  }
  // Timed on every trace; on a du-opaque one it is a single check.
  t = Clock::now();
  o.first_bad = duo::checker::first_bad_prefix(h, Criterion::kDuOpacity);
  L.add("checker.first_bad_prefix.busy_s", seconds_since(t));
  counts.note(finish_op(check_audit(want, h, o), want, 0));
}

/// Every trace through the service, history/monitor and checker passes.
/// Returns the wall time of the service pass and of the checker pass.
std::pair<double, double> layer_passes(const std::vector<std::string>& paths,
                                       const std::vector<TraceRecord>& recs,
                                       Ledger& L, TraceCounts& counts) {
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < paths.size(); ++i)
    service_pass(L, counts, paths[i], recs[i]);
  const double service_s = seconds_since(t0);

  FeedTotals tot;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    feed_pass(L, counts, paths[i], recs[i], 1, tot);
    feed_pass(L, counts, paths[i], recs[i], 0, tot);
  }
  L.set("history.parse.events_per_s", tot.parsed / L.get("history.parse.busy_s"));
  L.set("monitor.feed.events_per_s", tot.fed / L.get("monitor.feed.busy_s"));
  L.set("monitor.feed.batch_p50_ms", percentile(tot.batch_ms, 0.5));
  L.set("monitor.feed.batch_p99_ms", percentile(tot.batch_ms, 0.99));

  t0 = Clock::now();
  for (std::size_t i = 0; i < paths.size(); ++i)
    checker_pass(L, counts, paths[i], recs[i]);
  return {service_s, seconds_since(t0)};
}

/// A traced run of a trace-file workload: one untraced round of `w`, then
/// the layer passes. trace.traced_wall_s is the pass that mirrors the
/// workload's operation: the service pass for daemon workloads, the checker
/// pass otherwise.
void trace_layers(Workload& w, const std::vector<std::string>& paths,
                  const std::vector<TraceRecord>& recs, bool daemon_op,
                  Ledger& L, TraceCounts& counts) {
  double untraced = 0;
  for (std::size_t i = 0; i < w.round_size(); ++i) {
    const OpResult r = w.op(i);
    counts.note(r);
    untraced += r.phase_s;
  }
  L.set("trace.untraced_wall_s", untraced);
  const auto [service_s, checker_s] = layer_passes(paths, recs, L, counts);
  L.set("trace.traced_wall_s", daemon_op ? service_s : checker_s);
}

// ---------------------------------------------------------------------------
// uw-stream, counter-stream: generated trace files replayed through the
// daemon (service::run_daemon) at duo_mond's defaults.

class StreamWorkload : public Workload {
 public:
  StreamWorkload(std::vector<TraceSpec> specs, const std::string& work_dir)
      : specs_(std::move(specs)) {
    for (std::size_t i = 0; i < specs_.size(); ++i)
      paths_.push_back(work_dir + "/stream-" + std::to_string(i) + ".trace");
  }

  void setup() override {
    recs_.clear();
    for (std::size_t i = 0; i < specs_.size(); ++i)
      recs_.push_back(write_trace(specs_[i], paths_[i]));
  }

  std::size_t round_size() const override { return specs_.size(); }

  OpResult op(std::size_t i) override {
    service::DaemonOptions opts = daemon_options(paths_[i]);
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* out = open_memstream(&buf, &len);  // the verdict line
    if (out == nullptr) throw std::runtime_error("open_memstream failed");
    const auto t0 = Clock::now();
    const service::DaemonReport rep = service::run_daemon(opts, out);
    const double phase = seconds_since(t0);
    std::fclose(out);
    std::free(buf);
    const auto& r = rep.result;
    std::string why =
        r.error ? "input error: " + r.explanation
                : check_stream(recs_[i], r.verdict, r.first_violation, r.events);
    const int want_exit = recs_[i].first_violation ? 2 : 0;
    if (why.empty() && rep.exit_code != want_exit)
      why = "exit code " + std::to_string(rep.exit_code) + " (" + rep.ended_by + ")";
    return finish_op(std::move(why), recs_[i], phase);
  }

  void trace(Ledger& L, TraceCounts& counts) override {
    trace_layers(*this, paths_, recs_, /*daemon_op=*/true, L, counts);
  }

 private:
  std::vector<TraceSpec> specs_;
  std::vector<std::string> paths_;
  std::vector<TraceRecord> recs_;
};

std::unique_ptr<Workload> uw_stream(std::uint64_t seed, const std::string& dir) {
  TraceSpec s;
  s.seed = seed * 1000;
  s.events = 3'000'000;
  s.threads = 16;
  s.objects = 16;
  s.zipf_theta = 0.6;
  s.min_ops = 1;
  s.max_ops = 8;
  s.inject = Inject::kUncommittedRead;
  s.inject_at = 1.0;
  return std::make_unique<StreamWorkload>(std::vector<TraceSpec>{s}, dir);
}

std::unique_ptr<Workload> counter_stream(std::uint64_t seed,
                                         const std::string& dir) {
  std::vector<TraceSpec> specs;
  for (std::uint64_t k = 0; k < 12; ++k) {
    TraceSpec s;
    s.seed = seed * 1000 + k;
    s.events = 4500;
    s.counters = true;
    s.threads = 4;
    s.objects = 16;
    s.zipf_theta = 0.0;
    s.conflict_every = 16;
    specs.push_back(s);
  }
  return std::make_unique<StreamWorkload>(std::move(specs), dir);
}

// ---------------------------------------------------------------------------
// audit-batch: a corpus judged the way `duo_check <file>` judges one.

class AuditWorkload : public Workload {
 public:
  AuditWorkload(std::uint64_t seed, const std::string& dir) : dir_(dir) {
    struct Uw {
      std::size_t events;
      Inject inject;
      double at;
    };
    const Uw uw[] = {{24000, Inject::kNone, 1.0},
                     {16000, Inject::kAbortedRead, 0.6},
                     {12000, Inject::kNone, 1.0},
                     {8000, Inject::kUncommittedRead, 0.4},
                     {6000, Inject::kNone, 1.0},
                     {4000, Inject::kAbortedRead, 0.8},
                     {3000, Inject::kNone, 1.0},
                     {2000, Inject::kUncommittedRead, 1.0}};
    std::uint64_t k = 0;
    for (const Uw& u : uw) {
      TraceSpec s;
      s.seed = seed * 1000 + k++;
      s.events = u.events;
      s.threads = 16;
      s.objects = 16;
      s.zipf_theta = 0.6;
      s.inject = u.inject;
      s.inject_at = u.at;
      specs_.push_back(s);
    }
    for (int i = 0; i < 16; ++i) {
      TraceSpec s;
      s.seed = seed * 1000 + k++;
      s.events = 48;
      s.counters = true;
      s.threads = 3;
      s.objects = 2;
      s.zipf_theta = 0;
      if (i % 3 == 0) {
        s.inject = Inject::kUncommittedRead;
        s.inject_at = 0.7;
      }
      specs_.push_back(s);
    }
  }

  void setup() override {
    recs_.clear();
    paths_.clear();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      TraceSpec s = specs_[i];
      const std::string path = dir_ + "/audit-" + std::to_string(i) + ".trace";
      TraceRecord rec = write_trace(s, path);
      // The small counter traces must leave the unique-writes class (so the
      // DFS decides them): draw further seeds until one does.
      while (s.counters && rec.unique_writes) {
        s.seed += 7919;
        rec = write_trace(s, path);
      }
      recs_.push_back(rec);
      paths_.push_back(path);
    }
  }

  std::size_t round_size() const override { return specs_.size(); }

  OpResult op(std::size_t i) override {
    const auto t0 = Clock::now();
    auto parsed = history::parse_history(slurp(paths_[i]));
    if (!parsed)
      return finish_op("parse: " + parsed.error(), recs_[i], seconds_since(t0));
    const history::History& h = parsed.value();
    AuditOutcome o;
    o.v = duo::checker::evaluate_all(h);
    if (o.v.du_opaque == Verdict::kNo)
      o.first_bad = duo::checker::first_bad_prefix(h, Criterion::kDuOpacity);
    const double phase = seconds_since(t0);
    return finish_op(check_audit(recs_[i], h, o), recs_[i], phase);
  }

  void trace(Ledger& L, TraceCounts& counts) override {
    trace_layers(*this, paths_, recs_, /*daemon_op=*/false, L, counts);
  }

 private:
  std::string dir_;
  std::vector<TraceSpec> specs_;
  std::vector<std::string> paths_;
  std::vector<TraceRecord> recs_;
};

// ---------------------------------------------------------------------------
// stm-tap: the registry's du-opaque backends, each running a seeded Zipf
// run_random_mix with the recorder on while a RecorderTap judges the live
// run on its own thread.

constexpr const char* kBackends[] = {"tl2", "norec", "tml", "2pl-undo"};

/// Transactions per tapped run, and events per transaction: run_random_mix
/// issues ops_per_txn operations (an invocation and a response each), then
/// tryC and its response.
constexpr std::size_t kTapTxns = 50000;
constexpr std::size_t kEventsPerTxn = 2 * 4 + 2;

/// STM threads of the traced stm layer runs (no tap): run_random_mix's
/// default, one per CPU of the reference machine.
constexpr std::size_t kStmThreads = 4;

/// run_random_mix at its defaults (16 objects, 4 operations per
/// transaction, writes with probability 1/2) with bench_stm_throughput's
/// Zipf skew. One STM thread: see the README on why the tapped run does
/// not run several.
stm::WorkloadOptions tap_mix(std::uint64_t seed, std::size_t k,
                             std::size_t threads) {
  stm::WorkloadOptions o;
  o.threads = threads;
  o.txns_per_thread = kTapTxns / threads;
  o.zipf_theta = 0.6;
  o.seed = seed * 1000 + k;
  return o;
}

/// One tapped run, as the tap's owner drives it: the STM on one thread,
/// RecorderTap::pump on the calling one. With a ledger, the pump loop is
/// unrolled into timed RecorderTap::poll calls.
struct TapRun {
  stm::WorkloadStats stm;
  double stm_s = 0;    // STM start until run_random_mix returned
  double phase_s = 0;  // STM start until the tap judged the last event
  std::size_t recorded = 0;
};

TapRun tapped_run(stm::Stm& s, const stm::Recorder& rec,
                  monitor::OnlineMonitor& mon, const stm::WorkloadOptions& o,
                  Ledger* L) {
  monitor::RecorderTap tap(rec, mon);
  std::atomic<bool> done{false};
  TapRun r;
  Clock::time_point stm_end;  // published by the release store of `done`
  const auto t0 = Clock::now();
  duo::util::ScopedThread producer([&] {
    r.stm = stm::run_random_mix(s, o);
    stm_end = Clock::now();
    r.stm_s = std::chrono::duration<double>(stm_end - t0).count();
    done.store(true, std::memory_order_release);
  });
  if (L == nullptr) {
    tap.pump(done);
  } else {
    // RecorderTap::pump, one timed poll at a time. A poll drains every
    // published event, so one poll can span the STM's end: the events
    // judged by then are interpolated within that poll at its mean rate.
    struct Poll {
      Clock::time_point start, end;
      std::size_t before, fed;
    };
    std::vector<Poll> polls;
    for (;;) {
      const bool finished = done.load(std::memory_order_acquire);
      Poll p{Clock::now(), {}, tap.position(), 0};
      p.fed = tap.poll();
      p.end = Clock::now();
      polls.push_back(p);
      if (p.fed == 0) {
        if (finished) break;
        std::this_thread::yield();
      }
    }
    double judged = 0;  // stm_end is read only after `done` was seen
    for (const Poll& p : polls) {
      const double poll_s =
          std::chrono::duration<double>(p.end - p.start).count();
      L->add("monitor.tap.busy_s", poll_s);
      if (p.end <= stm_end) {
        judged = static_cast<double>(p.before + p.fed);
      } else if (p.start < stm_end) {
        judged = static_cast<double>(p.before) +
                 static_cast<double>(p.fed) *
                     std::chrono::duration<double>(stm_end - p.start).count() /
                     poll_s;
      }
    }
    L->add("monitor.tap.polls", static_cast<double>(polls.size()));
    L->add("monitor.tap.lag_events", static_cast<double>(rec.count()) - judged);
    L->add("monitor.tap.drain_s", seconds_since(stm_end));
  }
  r.phase_s = seconds_since(t0);
  producer.join();
  r.recorded = rec.count();
  return r;
}

/// A tapped run must end "yes" over every recorded event, the recorder
/// having kept them all.
std::string check_tap(const TapRun& r, const stm::Recorder& rec,
                      const monitor::OnlineMonitor& mon) {
  if (rec.overflowed()) return "recorder overflowed";
  if (mon.events_fed() != r.recorded)
    return "judged " + std::to_string(mon.events_fed()) + " of " +
           std::to_string(r.recorded) + " recorded events";
  if (mon.verdict() != Verdict::kYes)
    return "verdict " + to_string(mon.verdict()) + ": " + mon.explanation();
  if (r.stm.abandoned != 0)
    return std::to_string(r.stm.abandoned) + " transactions abandoned";
  return "";
}

/// The recording as event-level trace text, for the traced layer passes.
void write_recording(const stm::Recorder& rec, duo::history::ObjId objects,
                     const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  TextSink sink(f);
  std::string tok = "objects=" + std::to_string(objects) + " ";
  sink.put(tok.data(), tok.size());
  history::Event e;
  for (std::size_t i = 0; rec.try_read(i, e); ++i) {
    const bool read = e.op == history::OpKind::kRead;
    const bool write = e.op == history::OpKind::kWrite;
    const char kind = read    ? 'R'
                      : write ? 'W'
                      : e.op == history::OpKind::kTryCommit ? 'C' : 'A';
    tok = kind + std::to_string(e.txn) + (e.is_invocation() ? "?" : "!");
    if (read || write) {
      tok += "(X" + std::to_string(e.obj);
      if (write && e.is_invocation()) tok += "," + std::to_string(e.value);
      tok += ")";
    }
    if (e.is_response() && e.aborted) tok += "=A";
    if (e.is_response() && !e.aborted && read) tok += "=" + std::to_string(e.value);
    tok += ' ';
    sink.put(tok.data(), tok.size());
  }
  const bool ok = sink.flush();
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("write failed: " + path);
}

class TapWorkload : public Workload {
 public:
  TapWorkload(std::uint64_t seed, const std::string& dir)
      : seed_(seed),
        dir_(dir),
        recorders_(std::size(kBackends)),
        stms_(std::size(kBackends)) {}

  /// Nothing to generate: run_random_mix draws its own seeded operations.
  /// Each operation allocates its recorder and instantiates its backend in
  /// its own process, so the recorder's pages are first touched there,
  /// before the timed phase, not copied on write during it.
  void setup() override {}
  bool sets_up_per_op() const override { return true; }

  std::size_t round_size() const override { return std::size(kBackends); }

  OpResult op(std::size_t i) override {
    const auto t0 = Clock::now();
    reset(i);
    const double setup_s = seconds_since(t0);
    monitor::OnlineMonitor mon;  // the tap's monitor at its defaults
    const TapRun r = tapped_run(*stms_[i], *recorders_[i], mon,
                                tap_mix(seed_, i, 1), nullptr);
    OpResult res = tap_result(r, mon, i);
    res.setup_s = setup_s;
    return res;
  }

  void trace(Ledger& L, TraceCounts& counts) override {
    double untraced = 0;
    for (std::size_t k = 0; k < round_size(); ++k) {
      const OpResult r = op(k);
      counts.note(r);
      untraced += r.phase_s;
    }
    L.set("trace.untraced_wall_s", untraced);

    // The tapped runs again, the tap's polls timed one by one; each
    // recording is then written out for the layer passes.
    double traced = 0;
    std::vector<std::string> paths;
    std::vector<TraceRecord> recs;
    for (std::size_t k = 0; k < round_size(); ++k) {
      reset(k);
      monitor::OnlineMonitor mon;
      const TapRun r =
          tapped_run(*stms_[k], *recorders_[k], mon, tap_mix(seed_, k, 1), &L);
      traced += r.phase_s;
      counts.note(tap_result(r, mon, k));
      const monitor::MonitorStats& s = mon.stats();
      L.add("monitor.fast_yes", static_cast<double>(s.fast_yes));
      L.add("monitor.edges_added", static_cast<double>(s.edges_added));
      L.add("monitor.edges_removed", static_cast<double>(s.edges_removed));
      L.add("monitor.chain_splices", static_cast<double>(s.chain_splices));
      L.add("monitor.deferred_edges", static_cast<double>(s.deferred_edges));
      L.add("monitor.full_checks", static_cast<double>(s.full_checks));
      L.add("monitor.graph_checks", static_cast<double>(s.graph_checks));
      paths.push_back(dir_ + "/tap-" + std::to_string(k) + ".trace");
      write_recording(*recorders_[k], stms_[k]->num_objects(), paths.back());
      TraceRecord rec;
      rec.events = r.recorded;
      rec.commits = r.stm.committed;
      recs.push_back(rec);
    }
    L.set("trace.traced_wall_s", traced);

    // The stm layer alone, several STM threads and no tap: recorder off,
    // then on.
    for (std::size_t k = 0; k < round_size(); ++k) {
      const std::string b = kBackends[k];
      const stm::WorkloadOptions o = tap_mix(seed_, k, kStmThreads);
      auto plain = stm::make_stm(b, o.objects);
      auto t = Clock::now();
      const stm::WorkloadStats off = stm::run_random_mix(*plain, o);
      L.set("stm." + b + ".commits_per_s.rec_off",
            static_cast<double>(off.committed) / seconds_since(t));
      // Room for every transaction to abort several times over.
      stm::Recorder rec(8 * kTapTxns * kEventsPerTxn);
      auto recorded = stm::make_stm(b, o.objects, &rec);
      t = Clock::now();
      const stm::WorkloadStats on = stm::run_random_mix(*recorded, o);
      L.set("stm." + b + ".commits_per_s.rec_on",
            static_cast<double>(on.committed) / seconds_since(t));
      L.set("stm." + b + ".commit_ratio",
            static_cast<double>(on.committed) /
                static_cast<double>(on.committed + on.aborted));
      L.add("stm.recorder.events", static_cast<double>(rec.count()));
    }

    layer_passes(paths, recs, L, counts);
  }

 private:
  /// A fresh recorder and STM instance for backend k.
  void reset(std::size_t k) {
    stms_[k].reset();  // before the recorder it records into
    // Room for 10% more events than the run records without an abort.
    recorders_[k] =
        std::make_unique<stm::Recorder>(kTapTxns * kEventsPerTxn * 11 / 10);
    stms_[k] = stm::make_stm(kBackends[k], stm::WorkloadOptions{}.objects,
                             recorders_[k].get());
    if (!stms_[k])
      throw std::runtime_error(std::string("no backend ") + kBackends[k]);
  }

  OpResult tap_result(const TapRun& r, const monitor::OnlineMonitor& mon,
                      std::size_t k) const {
    OpResult res;
    res.why = check_tap(r, *recorders_[k], mon);
    if (!res.why.empty()) res.why = std::string(kBackends[k]) + ": " + res.why;
    res.ok = res.why.empty();
    res.events = mon.events_fed();
    res.commits = r.stm.committed;
    res.phase_s = r.phase_s;
    res.commit_s = r.stm_s;
    return res;
  }

  std::uint64_t seed_;
  std::string dir_;
  std::vector<std::unique_ptr<stm::Recorder>> recorders_;
  std::vector<std::unique_ptr<stm::Stm>> stms_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "uw-stream") return uw_stream(seed, work_dir);
  if (name == "counter-stream") return counter_stream(seed, work_dir);
  if (name == "audit-batch") return std::make_unique<AuditWorkload>(seed, work_dir);
  if (name == "stm-tap") return std::make_unique<TapWorkload>(seed, work_dir);
  return nullptr;
}

}  // namespace perfbench
