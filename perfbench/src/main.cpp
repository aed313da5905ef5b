// duo_perfbench — one benchmark for the checker, the monitor daemon and the
// STM tap.
//
//   duo_perfbench run --workload W --seed N --seconds S --trace 0|1 --work DIR
//   duo_perfbench selfcheck [--seeds N]
//
// `run` generates the workload's inputs from the seed (set-up, repeated and
// timed; its median is setup_s), then judges whole rounds of operations
// until S seconds have passed, checking every verdict. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it runs the traced
// per-layer passes and prints the per-layer ledger. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 1.0;

int usage() {
  std::fprintf(stderr,
               "usage: duo_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR\n"
               "       duo_perfbench selfcheck [--seeds N]\n"
               "workloads: uw-stream, counter-stream, audit-batch, stm-tap\n");
  return 1;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

std::string metric(const char* name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                name, value, unit);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::string& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
}

/// What one operation's process sends back.
struct OpReport {
  bool ok = false;
  std::uint64_t events = 0;
  std::uint64_t commits = 0;
  double phase_s = 0;
  double commit_s = 0;
  double setup_s = 0;
};

/// Runs operation i in a forked child process, as one duo_mond or
/// duo_check process judges one trace: every operation starts from a fresh
/// heap, and `rss_kb` receives that process's own peak resident set. The
/// child reports a failed operation's diagnostic on stderr itself.
OpReport run_isolated(perfbench::Workload& w, std::size_t i,
                      const std::string& workload, std::size_t& rss_kb) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed parent
    close(fds[0]);
    OpReport rep;
    try {
      const perfbench::OpResult r = w.op(i);
      if (!r.ok)
        std::fprintf(stderr, "duo_perfbench: %s op %zu failed: %s\n",
                     workload.c_str(), i, r.why.c_str());
      rep = {r.ok, r.events, r.commits, r.phase_s,
             r.commit_s > 0 ? r.commit_s : r.phase_s, r.setup_s};
    } catch (const std::exception& e) {
      std::fprintf(stderr, "duo_perfbench: %s\n", e.what());
      _exit(1);
    }
    const bool sent = write(fds[1], &rep, sizeof rep) == sizeof rep;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  OpReport rep;
  std::size_t got = 0;
  while (got < sizeof rep) {
    const ssize_t n =
        read(fds[0], reinterpret_cast<char*>(&rep) + got, sizeof rep - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid || got != sizeof rep ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("operation process failed");
  rss_kb = static_cast<std::size_t>(ru.ru_maxrss);
  return rep;
}

int run(const std::string& workload, std::uint64_t seed, std::uint64_t seconds,
        bool traced, const std::string& work) {
  auto w = perfbench::make_workload(workload, seed, work);
  if (!w) {
    std::fprintf(stderr, "duo_perfbench: unknown workload %s\n", workload.c_str());
    return 1;
  }
  // Set up at least kSetupRepeats times and for kSetupSeconds, so the
  // median of a few-millisecond set-up rests on many samples. A workload
  // whose operations set themselves up reports their set-up times instead.
  std::vector<double> setup_s;
  if (w->sets_up_per_op()) {
    w->setup();
  } else {
    const auto setup_start = perfbench::Clock::now();
    while (setup_s.size() < kSetupRepeats ||
           perfbench::seconds_since(setup_start) < kSetupSeconds) {
      const auto t0 = perfbench::Clock::now();
      w->setup();
      setup_s.push_back(perfbench::seconds_since(t0));
    }
  }

  if (traced) {
    perfbench::Ledger ledger;
    perfbench::TraceCounts counts;
    w->trace(ledger, counts);
    print_result(counts.failed == 0, counts.attempted, counts.failed,
                 ledger.json());
    return 0;
  }

  // Each metric is the median over the run's rounds of that round's figure:
  // its events and commits judged per second of its operations' timed
  // phases, and the largest peak resident set among its operations (the
  // heaviest input sets the figure, whatever the mix of trace sizes).
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> round_events_per_s;
  std::vector<double> round_commits_per_s;
  std::vector<double> round_rss_mb;
  const auto start = perfbench::Clock::now();
  do {
    double events = 0;
    double commits = 0;
    double phase_s = 0;
    double commit_s = 0;
    double rss_mb = 0;
    for (std::size_t i = 0; i < w->round_size(); ++i) {
      std::size_t rss_kb = 0;
      const OpReport r = run_isolated(*w, i, workload, rss_kb);
      ++attempted;
      if (w->sets_up_per_op()) setup_s.push_back(r.setup_s);
      rss_mb = std::max(rss_mb, static_cast<double>(rss_kb) / 1024.0);
      if (!r.ok) {
        ++failed;
        continue;
      }
      events += static_cast<double>(r.events);
      commits += static_cast<double>(r.commits);
      phase_s += r.phase_s;
      commit_s += r.commit_s;
    }
    if (phase_s > 0) {
      round_events_per_s.push_back(events / phase_s);
      round_commits_per_s.push_back(commits / commit_s);
    }
    round_rss_mb.push_back(rss_mb);
  } while (perfbench::seconds_since(start) < static_cast<double>(seconds));
  std::string metrics = "{";
  metrics += metric("events_per_s", perfbench::percentile(round_events_per_s, 0.5),
                    "events/s");
  metrics += ", " + metric("commits_per_s",
                           perfbench::percentile(round_commits_per_s, 0.5), "txns/s");
  metrics += ", " + metric("peak_rss_mb", perfbench::percentile(round_rss_mb, 0.5), "MB");
  metrics += ", " + metric("setup_s", perfbench::percentile(setup_s, 0.5), "s");
  metrics += "}";
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string workload;
  std::string work = ".";
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  std::uint64_t seeds = 40;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--work") {
      work = value;
    } else if (flag == "--seed") {
      ok = parse_u64(value, seed);
    } else if (flag == "--seconds") {
      ok = parse_u64(value, seconds);
    } else if (flag == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else if (flag == "--seeds") {
      ok = parse_u64(value, seeds);
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  if (argc % 2 != 0) return usage();
  try {
    if (cmd == "selfcheck") return perfbench::selfcheck(seeds) == 0 ? 0 : 1;
    if (cmd == "run" && !workload.empty())
      return run(workload, seed, seconds, trace == 1, work);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "duo_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
