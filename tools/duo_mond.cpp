// duo_mond — long-running trace verification daemon.
//
// Tails a growing trace file (the compact format of src/history/parser.hpp)
// indefinitely and maintains the du-opacity verdict online: each chunk
// read is parsed and fed, in this one thread, through the ingest pipeline
// (src/service/pipeline.hpp) into an OnlineMonitor with settled-prefix
// garbage collection on. GC retires settled transactions, so resident
// state grows far slower than the trace, but it still grows with the
// object count and the trace length (docs/service.md gives measurements).
//
// Behavior:
//   - Follows the file with exponential-backoff polling (1ms..250ms).
//   - Emits a stats line every --stats-interval-ms (default 5000) to
//     stderr: events/sec, live vs retired transactions, retained events,
//     graph nodes/edges, pending-edge and non-unique-writes debt, GC
//     passes, peak RSS. --json switches to JSON lines (schema in
//     docs/service.md).
//   - On SIGINT/SIGTERM, stops reading and flushes a final verdict before
//     exiting.
//   - File rotation or truncation ends the run as inconclusive: what came
//     after the consumed prefix is unknowable (a latched violation still
//     stands, by prefix closure — Corollary 2).
//
// Usage:
//   duo_mond trace.txt [--shards N] [--gc-retain N] [--no-gc]
//            [--stats-interval-ms N] [--json] [--idle-ms N] [--budget N]
//            [--max-chunk BYTES]
//
//   --idle-ms N   exit once the file stops growing for N ms (0 = follow
//                 forever; the default, this being a daemon)
//   --shards N    monitor object shards for the parallel derive phase
//                 (default 1; 0 = one per hardware thread). Verdicts are
//                 identical for every value.
//   --max-chunk B largest chunk one follow poll hands the pipeline, in
//                 bytes (default 262144; must be >= 1)
//
// Exit code: 0 du-opaque (clean end), 2 violation or inconclusive, 1 on
// usage/input errors.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: duo_mond <trace-file> [--shards N] "
               "[--gc-retain N] [--no-gc] [--stats-interval-ms N] [--json] "
               "[--idle-ms N] [--budget N] [--max-chunk BYTES]\n"
               "tails a growing trace and maintains the du-opacity verdict "
               "with bounded memory\n");
}

bool parse_count(const char* text, std::uint64_t& out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  duo::service::DaemonOptions opts;
  opts.pipeline.monitor.gc = true;  // the point of the daemon

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    }
    if (arg == "--json") {
      opts.stats_json = true;
      continue;
    }
    if (arg == "--no-gc") {
      opts.pipeline.monitor.gc = false;
      continue;
    }
    if (arg == "--shards" || arg == "--gc-retain" ||
        arg == "--stats-interval-ms" || arg == "--idle-ms" ||
        arg == "--budget" || arg == "--max-chunk") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "duo_mond: %s requires a value\n", arg.c_str());
        return 1;
      }
      std::uint64_t value = 0;
      if (!parse_count(argv[++i], value)) {
        std::fprintf(stderr, "duo_mond: bad %s value: %s\n", arg.c_str(),
                     argv[i]);
        return 1;
      }
      if (arg == "--shards") {
        opts.pipeline.monitor.shards = static_cast<std::size_t>(value);
      } else if (arg == "--max-chunk") {
        if (value == 0) {
          std::fprintf(stderr, "duo_mond: --max-chunk must be >= 1\n");
          return 1;
        }
        opts.follow.max_chunk_bytes = static_cast<std::size_t>(value);
      } else if (arg == "--gc-retain") {
        opts.pipeline.monitor.gc_retain_events =
            static_cast<std::size_t>(value);
      } else if (arg == "--stats-interval-ms") {
        opts.stats_interval_ms = value;
      } else if (arg == "--idle-ms") {
        opts.follow.idle_ms = value;
      } else {
        opts.pipeline.monitor.node_budget = value;
      }
      continue;
    }
    if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "duo_mond: unknown option: %s\n", arg.c_str());
      return 1;
    }
    if (!opts.trace_path.empty()) {
      std::fprintf(stderr, "duo_mond: exactly one trace file expected\n");
      return 1;
    }
    opts.trace_path = arg;
  }
  if (opts.trace_path.empty()) {
    print_usage(stderr);
    return 1;
  }

  // Handlers only flip the flag; the daemon loop notices it at its next
  // poll and performs the final verdict flush itself.
  opts.follow.stop = &g_stop;
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  const auto report = duo::service::run_daemon(opts);
  return report.exit_code;
}
