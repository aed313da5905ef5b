// duo_gen — deterministic trace generator.
//
// Emits a du-opaque unique-writes history in the compact trace format
// (src/history/parser.hpp) produced by gen::deterministic_live_run: bounded
// concurrency, value-validated atomic commits, hash-scattered object
// access. The same arguments always produce the same trace, which makes it
// suitable for CI jobs — the long-history smoke job generates a 100k-event
// trace and requires `duo_check --engine graph` to decide it within a tight
// wall-clock limit — and for reproducing test inputs offline.
//
// Usage:
//   duo_gen [--events N] [--threads T] [--objects K] [--out FILE]
//
// Defaults: 100000 events, 4 threads, 8 objects, stdout.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "gen/generator.hpp"
#include "history/printer.hpp"

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: duo_gen [--events N] [--threads T] [--objects K] "
               "[--out FILE]\n"
               "emits a deterministic du-opaque unique-writes trace "
               "(duo_check-compatible)\n");
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
  std::uint64_t events = 100'000;
  std::uint64_t threads = 4;
  std::uint64_t objects = 8;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    }
    if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "duo_gen: --out requires a value\n");
        return 1;
      }
      out_path = argv[++i];
      continue;
    }
    if (arg == "--events" || arg == "--threads" || arg == "--objects") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "duo_gen: %s requires a value\n", arg.c_str());
        return 1;
      }
      std::uint64_t value = 0;
      if (!parse_count(argv[++i], value) || value == 0) {
        std::fprintf(stderr, "duo_gen: bad %s value: %s\n", arg.c_str(),
                     argv[i]);
        return 1;
      }
      if (arg == "--events") {
        events = value;
      } else if (arg == "--threads") {
        if (value > 1024) {
          std::fprintf(stderr, "duo_gen: at most 1024 threads\n");
          return 1;
        }
        threads = value;
      } else {
        if (value > (1u << 20)) {
          std::fprintf(stderr, "duo_gen: at most %u objects\n", 1u << 20);
          return 1;
        }
        objects = value;
      }
      continue;
    }
    std::fprintf(stderr, "duo_gen: unknown argument: %s\n", arg.c_str());
    print_usage(stderr);
    return 1;
  }

  const auto h = duo::gen::deterministic_live_run(
      static_cast<std::size_t>(events), static_cast<int>(threads),
      static_cast<duo::history::ObjId>(objects));
  const std::string trace = duo::history::compact(h);

  if (out_path.empty()) {
    std::fwrite(trace.data(), 1, trace.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "duo_gen: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << trace << '\n';
  return out.good() ? 0 : 1;
}
