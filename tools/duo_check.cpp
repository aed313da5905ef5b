// duo_check — command-line TM-trace checker.
//
// Reads one or more histories in the compact text format (see
// src/history/parser.hpp) and judges them for du-opacity.
//
// Single input: prints the timeline, per-criterion verdicts, a witness
// serialization when one exists, and — when du-opacity fails — the first
// violating event, pinpointed by checker::first_bad_prefix (a binary
// search over prefixes, sound because du-opacity is prefix-closed, and
// graph-engine fast on unique-writes histories). The printed 1-based event
// number always equals the one --stream latches at.
//
// A trace carrying the `truncated` token (the serialization convention for
// an overflowed recorder, see src/history/parser.hpp) is never given a
// confident "yes": a clean verdict is reported as inconclusive (exit 2)
// in single, batch and stream modes alike. A violation stays a violation
// only for the prefix-closed criteria (CriterionRow::prefix_closed:
// du-opacity, opacity), where prefix closure covers the dropped tail; for
// the others — final-state opacity is the canonical non-prefix-closed
// case — the dropped tail could restore the property, so a "no" on a
// truncated trace is downgraded too.
//
// Multiple inputs (several files and/or directories): batch mode — the
// traces are checked concurrently through a CheckerPool and one verdict
// line is printed per trace, in input order, followed by a summary.
//
// Streaming (--stream): stdin or a file is submitted line by line to a
// service::IngestPipeline (the loop duo_mond runs), whose OnlineMonitor
// maintains the du-opacity verdict incrementally and latches at the first
// violating event (sound because du-opacity is prefix-closed, paper
// Corollary 2). With --follow the file is polled for growth, so a live run
// writing its trace can be watched as it executes.
//
// Usage:
//   duo_check trace.txt
//   duo_check traces/ more/a.txt more/b.txt --jobs 8
//   echo "W1(X0,1) C1? R2(X0)=1 W3(X0,1) C3 C1!=A" | duo_check -
//   tail_of_live_run | duo_check --stream -
//   duo_check --stream growing-trace.txt --follow
//
// Options:
//   --jobs N, -j N    worker threads in batch mode (default: hardware)
//   --budget N        DFS node budget per check; exhausting it yields an
//                     explicit "unknown" verdict instead of a long search
//   --criterion NAME  criterion to judge under (default du-opacity), by
//                     name or alias (src/checker/criteria.cpp):
//                     final-state-opacity|final-state|fso, opacity|opaque,
//                     du-opacity|du, rco-opacity|rco, tms2,
//                     strict-serializability|strict|sser
//   --engine NAME     checker engine (default auto): `graph` is the
//                     polynomial engine for unique-writes histories, `dfs`
//                     the exponential search, `auto` routes per history
//                     (graph when supported, dfs otherwise) and falls back
//                     on a graph decline — see README "Checker engines"
//   --explain-engine  print which engine decided each check, why it was
//                     selected, and the constraint-graph node/edge counts
//   -v, --verbose     detailed output: implies --explain-engine and adds
//                     the search statistics (nodes, memo hits/entries,
//                     fast-reject) of every check
//   --stream          incremental monitoring mode (single input, du only)
//   --follow          with --stream on a file: poll for appended events
//                     with exponential backoff (1ms..250ms) until the file
//                     stops growing for --idle-ms; rotation or truncation
//                     of the file ends the follow as inconclusive
//   --idle-ms N       --follow idle cutoff in milliseconds
//                     (default 2000; 0 follows forever)
//   --shards N        monitor object shards for --stream (default 1;
//                     0 = one per hardware thread); verdicts are identical
//                     for every value
//   --list-stms       print the STM backend registry (name, update policy,
//                     rollback capability, declared du-opacity expectation)
//                     and exit
//
// Exit code: 0 if every input satisfies the criterion, 2 if any does not
// (or is undecided within budget), 1 on usage/input errors.
//
// The long-running daemon over a growing trace (monitor GC on, periodic
// stats, final verdict on SIGINT/SIGTERM) is the separate tool duo_mond.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checker/engine.hpp"
#include "checker/pool.hpp"
#include "checker/verdict.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"
#include "service/daemon.hpp"
#include "stm/registry.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;

struct Options {
  std::vector<std::string> inputs;  // files or "-" (directories expanded)
  std::size_t jobs = 0;             // 0 = hardware concurrency
  std::uint64_t node_budget = duo::checker::CheckOptions{}.node_budget;
  duo::checker::Criterion criterion = duo::checker::Criterion::kDuOpacity;
  bool criterion_set = false;  // --criterion given explicitly
  duo::checker::EngineKind engine = duo::checker::EngineKind::kAuto;
  bool explain_engine = false;  // --explain-engine (or -v)
  bool verbose = false;         // -v / --verbose

  duo::checker::CheckOptions check_options() const {
    duo::checker::CheckOptions copts;
    copts.node_budget = node_budget;
    copts.engine = engine;
    return copts;
  }
  /// Batch output even for a single trace: set when the user passed a
  /// directory or several arguments, so the output format depends on what
  /// was asked for, not on how many files a directory happened to hold.
  bool batch = false;
  // Streaming mode.
  bool stream = false;
  bool follow = false;
  std::uint64_t idle_ms = 2000;
  // Monitor object shards for --stream (1 = serial derive, 0 = one per
  // hardware thread). Verdicts are identical for every value.
  std::size_t shards = 1;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: duo_check [--jobs N] [--budget N] [--criterion NAME] "
               "[--engine auto|graph|dfs] [--explain-engine] [-v] "
               "<trace-file|directory|->...\n"
               "       duo_check --stream [--follow] [--idle-ms N] "
               "[--shards N] <trace-file|->\n"
               "       duo_check --list-stms\n"
               "trace format: W1(X0,1) R2(X0)=1 C1 C2 ... "
               "(see src/history/parser.hpp)\n");
}

/// The --explain-engine line: which engine produced the verdict and why;
/// graph sizes when the graph engine was involved.
void print_engine_line(const char* label,
                       const duo::checker::EngineTrace& trace) {
  std::printf("%s: %s (%s)", label, trace.engine.c_str(),
              trace.reason.c_str());
  if (trace.graph_nodes > 0)
    std::printf(" nodes=%llu edges=%llu",
                static_cast<unsigned long long>(trace.graph_nodes),
                static_cast<unsigned long long>(trace.graph_edges));
  std::printf("\n");
}

/// The -v search-statistics line (satellite of the engine work: these were
/// previously computed and dropped).
void print_stats_line(const duo::checker::SearchStats& stats) {
  std::printf("search stats: nodes=%llu memo_hits=%llu memo_entries=%llu "
              "fast_reject=%s\n",
              static_cast<unsigned long long>(stats.nodes),
              static_cast<unsigned long long>(stats.memo_hits),
              static_cast<unsigned long long>(stats.memo_entries),
              stats.fast_rejected ? "yes" : "no");
}

/// --list-stms: the backend registry as a table — the same metadata the
/// conformance matrix enforces, so the CLI always reflects what is tested.
void print_registry() {
  duo::util::Table table({"name", "update", "rolls back aborted writes",
                          "expected", "aliases", "description"});
  for (const auto& b : duo::stm::registered_backends()) {
    std::string aliases;
    for (const auto& a : b.aliases) {
      if (!aliases.empty()) aliases += ", ";
      aliases += a;
    }
    table.add_row({b.name, duo::stm::to_string(b.update_policy),
                   b.rolls_back_aborted_writes ? "yes" : "no",
                   duo::stm::to_string(b.expected), aliases, b.summary});
  }
  std::printf("registered STM backends (stm::make_stm names):\n%s",
              table.render().c_str());
}

/// A parsed trace plus the `truncated` marker (see src/history/parser.hpp):
/// a truncated trace is a prefix of a longer run, so a clean verdict on it
/// must be reported as inconclusive rather than a confident "yes".
struct LoadedTrace {
  duo::history::History h;
  bool truncated = false;
};

std::optional<LoadedTrace> parse_trace(const std::string& text,
                                       std::string& error) {
  auto parsed = duo::history::parse_events(text);
  if (!parsed) {
    error = parsed.error();
    return std::nullopt;
  }
  auto pe = std::move(parsed).take();
  const bool truncated = pe.truncated;
  const duo::history::ObjId num_objects =
      pe.declared_objects >= 0 ? pe.declared_objects : pe.max_obj + 1;
  if (pe.max_obj >= num_objects) {
    error = "objects= declares fewer objects than used";
    return std::nullopt;
  }
  auto made = duo::history::History::make(std::move(pe.events), num_objects);
  if (!made) {
    error = made.error();
    return std::nullopt;
  }
  return LoadedTrace{std::move(made).take(), truncated};
}

/// Pinpoints the first violating event of a du-rejected history at engine
/// speed (checker::first_bad_prefix binary search; du-opacity's prefix
/// closure makes it sound) and prints it 1-based, matching --stream.
void print_first_violation(const duo::history::History& h,
                           const duo::checker::CheckOptions& copts) {
  const auto at = duo::checker::first_bad_prefix(
      h, duo::checker::Criterion::kDuOpacity, copts);
  if (!at.has_value()) return;
  std::printf("first violation at event %zu (%s)\n", *at + 1,
              duo::history::to_string(h.events()[*at]).c_str());
}

/// Reads a trace, distinguishing I/O failure (nullopt) from a legitimately
/// empty trace (the empty string — the empty history, which has a real
/// verdict).
std::optional<std::string> read_input(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream file(path);
  if (!file) return std::nullopt;
  std::ostringstream ss;
  ss << file.rdbuf();
  if (file.bad()) return std::nullopt;
  return ss.str();
}

/// Expands a directory argument to its regular files, sorted by name for a
/// deterministic batch order. Non-directory arguments pass through.
bool expand_inputs(const std::vector<std::string>& args, Options& opts) {
  std::vector<std::string>& inputs = opts.inputs;
  if (args.size() > 1) opts.batch = true;
  for (const std::string& arg : args) {
    std::error_code ec;
    if (arg != "-" && fs::is_directory(arg, ec)) {
      opts.batch = true;
      std::vector<std::string> found;
      // Non-throwing iteration throughout: an entry vanishing or becoming
      // unstatable mid-scan must yield a diagnostic, not std::terminate.
      fs::directory_iterator it(arg, ec);
      for (; !ec && it != fs::directory_iterator(); it.increment(ec)) {
        if (it->is_regular_file(ec) && !ec)
          found.push_back(it->path().string());
      }
      if (ec) {
        std::fprintf(stderr, "duo_check: cannot list %s: %s\n", arg.c_str(),
                     ec.message().c_str());
        return false;
      }
      if (found.empty()) {
        std::fprintf(stderr, "duo_check: no trace files in %s\n", arg.c_str());
        return false;
      }
      std::sort(found.begin(), found.end());
      inputs.insert(inputs.end(), found.begin(), found.end());
    } else {
      inputs.push_back(arg);
    }
  }
  return true;
}

bool parse_count(const char* text, std::uint64_t& out) {
  // strtoull accepts leading whitespace and '-' (wrapping negatives to huge
  // values); only plain digit strings are valid counts here.
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_args(int argc, char** argv, Options& opts) {
  std::vector<std::string> raw_inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    }
    if (arg == "--list-stms") {
      print_registry();
      std::exit(0);
    }
    if (arg == "--stream") {
      opts.stream = true;
      continue;
    }
    if (arg == "--follow") {
      opts.follow = true;
      continue;
    }
    if (arg == "--explain-engine") {
      opts.explain_engine = true;
      continue;
    }
    if (arg == "-v" || arg == "--verbose") {
      opts.verbose = true;
      opts.explain_engine = true;
      continue;
    }
    if (arg == "--engine") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "duo_check: %s requires a value\n", arg.c_str());
        return false;
      }
      const auto e = duo::checker::engine_from_name(argv[++i]);
      if (!e.has_value()) {
        std::fprintf(stderr,
                     "duo_check: unknown engine: %s (known: auto, graph, "
                     "dfs)\n",
                     argv[i]);
        return false;
      }
      opts.engine = *e;
      continue;
    }
    if (arg == "--criterion") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "duo_check: %s requires a value\n", arg.c_str());
        return false;
      }
      const auto c = duo::checker::criterion_from_name(argv[++i]);
      if (!c.has_value()) {
        std::fprintf(stderr, "duo_check: unknown criterion: %s\n", argv[i]);
        std::fprintf(stderr, "known criteria:");
        for (const auto known : duo::checker::all_criteria())
          std::fprintf(stderr, " %s", duo::checker::to_string(known).c_str());
        std::fprintf(stderr, "\n");
        return false;
      }
      opts.criterion = *c;
      opts.criterion_set = true;
      continue;
    }
    if (arg == "--jobs" || arg == "-j" || arg == "--budget" ||
        arg == "--idle-ms" || arg == "--shards") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "duo_check: %s requires a value\n", arg.c_str());
        return false;
      }
      std::uint64_t value = 0;
      // 0 is meaningful for --idle-ms (follow forever) and --shards
      // (one shard per hardware thread) only.
      if (!parse_count(argv[++i], value) ||
          (value == 0 && arg != "--idle-ms" && arg != "--shards")) {
        std::fprintf(stderr, "duo_check: bad %s value: %s\n", arg.c_str(),
                     argv[i]);
        return false;
      }
      if (arg == "--budget") {
        opts.node_budget = value;
      } else if (arg == "--idle-ms") {
        opts.idle_ms = value;
      } else if (arg == "--shards") {
        opts.shards = static_cast<std::size_t>(value);
      } else {
        opts.jobs = static_cast<std::size_t>(value);
      }
      continue;
    }
    if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "duo_check: unknown option: %s\n", arg.c_str());
      return false;
    }
    raw_inputs.push_back(arg);
  }
  if (raw_inputs.empty()) {
    print_usage(stderr);
    return false;
  }
  if (opts.shards != 1 && !opts.stream) {
    std::fprintf(stderr, "duo_check: --shards requires --stream\n");
    return false;
  }
  if (opts.stream) {
    if (raw_inputs.size() != 1) {
      std::fprintf(stderr, "duo_check: --stream takes exactly one input\n");
      return false;
    }
    if (opts.criterion_set &&
        opts.criterion != duo::checker::Criterion::kDuOpacity) {
      std::fprintf(stderr,
                   "duo_check: --stream monitors du-opacity only (the "
                   "prefix-closed criterion that makes latching sound)\n");
      return false;
    }
    if (opts.follow && raw_inputs[0] == "-") {
      std::fprintf(stderr, "duo_check: --follow requires a file input\n");
      return false;
    }
    opts.inputs = raw_inputs;
    return true;
  }
  if (opts.follow) {
    std::fprintf(stderr, "duo_check: --follow requires --stream\n");
    return false;
  }
  return expand_inputs(raw_inputs, opts);
}

/// Incremental monitoring (--stream): submit the input line by line (or,
/// with --follow, chunk by chunk) to a service::IngestPipeline, the same
/// loop duo_mond runs, and stop at the first violating event — sound
/// because du-opacity is prefix-closed, so the latched "no" covers every
/// extension of the stream. With --follow, EOF on the file is treated as
/// "not written yet" until the input stops growing for opts.idle_ms.
int check_stream(const Options& opts) {
  using duo::checker::Verdict;
  const std::string& path = opts.inputs[0];
  duo::service::PipelineOptions popts;
  popts.monitor.node_budget = opts.node_budget;
  popts.monitor.engine = opts.engine;
  popts.monitor.shards = opts.shards;
  duo::service::IngestPipeline pipeline(popts);

  // --follow delegates the tailing to service::FollowReader: exponential-
  // backoff polling (1ms..250ms) instead of a fixed-period spin, token-
  // boundary chunking instead of newline parsing (a trace is whitespace-
  // separated tokens; lines are incidental), and detection of the two ways
  // a "growing" file lies — rotation and truncation — which end the follow
  // as inconclusive below (a latched violation stands, by prefix closure).
  const char* follow_cut = nullptr;  // rotation/truncation note, if any
  if (opts.follow) {
    duo::service::FollowOptions fopts;
    fopts.idle_ms = opts.idle_ms;
    duo::service::FollowReader reader(path, fopts);
    std::string chunk;
    for (bool reading = true; reading;) {
      switch (reader.poll(chunk)) {
        case duo::service::FollowStatus::kData:
          reading = pipeline.submit(std::move(chunk));
          break;
        case duo::service::FollowStatus::kError:
          std::fprintf(stderr, "duo_check: %s\n", reader.error().c_str());
          return 1;
        case duo::service::FollowStatus::kRotated:
          follow_cut = "was rotated";
          reading = false;
          break;
        case duo::service::FollowStatus::kTruncated:
          follow_cut = "was truncated";
          reading = false;
          break;
        case duo::service::FollowStatus::kIdle:
        case duo::service::FollowStatus::kStopped:
          reading = false;
          break;
      }
    }
  } else {
    std::ifstream file;
    if (path != "-") {
      file.open(path);
      if (!file) {
        std::fprintf(stderr, "duo_check: cannot read %s\n", path.c_str());
        return 1;
      }
    }
    std::istream& in = path == "-" ? std::cin : file;
    std::string line;
    while (std::getline(in, line))
      if (!pipeline.submit(std::move(line))) break;
  }

  const auto r = pipeline.finish();
  const auto& stats = r.monitor;
  if (r.error) {
    std::fprintf(stderr, "duo_check: %s\n", r.explanation.c_str());
    return 1;
  }
  if (r.verdict == Verdict::kNo) {
    // first_violation is a 0-based index; event numbering in human output
    // is 1-based (the monitor and the batch first_bad_prefix query share
    // the 0-based convention).
    std::printf("VIOLATION at event %zu (%s): %s\n", *r.first_violation + 1,
                duo::history::to_string(*r.violating_event).c_str(),
                r.explanation.c_str());
    return 2;
  }
  if (follow_cut != nullptr && r.verdict == Verdict::kYes) {
    std::printf("stream inconclusive after %zu events: trace file %s, so "
                "the clean verdict covers only the consumed prefix\n",
                stats.events, follow_cut);
    return 2;
  }
  if (r.verdict == Verdict::kYes) {
    if (r.truncated) {
      std::printf("stream inconclusive after %zu events: trace marked "
                  "truncated, so the clean verdict covers only the recorded "
                  "prefix (a violation would still have latched)\n",
                  stats.events);
      return 2;
    }
    std::printf("stream du-opaque after %zu events "
                "(%zu fast-path, %zu full checks, %zu on graph engine; "
                "%zu edges added, %zu removed, %zu chain splices, "
                "%zu deferred)\n",
                stats.events, stats.fast_yes, stats.full_checks,
                stats.graph_checks, stats.edges_added, stats.edges_removed,
                stats.chain_splices, stats.deferred_edges);
    return 0;
  }
  std::printf("stream undecided after %zu events (search budget exhausted; "
              "retry with a larger --budget)\n",
              stats.events);
  return 2;
}

/// Detailed single-trace report (the original duo_check output).
int check_single(const std::string& path, const Options& opts) {
  const auto text = read_input(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "duo_check: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string parse_error;
  auto loaded = parse_trace(*text, parse_error);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "duo_check: parse error: %s\n", parse_error.c_str());
    return 1;
  }
  const auto& h = loaded->h;
  const bool truncated = loaded->truncated;
  const auto inconclusive_truncated = [&] {
    std::printf("inconclusive: trace marked truncated, so the clean verdict "
                "covers only the recorded prefix\n");
    return 2;
  };
  const auto inconclusive_truncated_no = [&](const std::string& name) {
    std::printf("inconclusive: trace marked truncated and %s is not "
                "prefix-closed, so the dropped tail could restore it\n",
                name.c_str());
    return 2;
  };

  // The per-transaction timeline is O(txns x events) characters — gigabytes
  // for the 100k-event traces the graph engine decides in milliseconds — so
  // it is reserved for histories a human could actually read.
  constexpr std::size_t kTimelineEventCap = 2000;
  if (h.size() <= kTimelineEventCap) {
    std::printf("%s\n%s\n", duo::history::summary(h).c_str(),
                duo::history::timeline(h).c_str());
  } else {
    std::printf("%s\n(timeline suppressed: %zu events > %zu)\n",
                duo::history::summary(h).c_str(), h.size(),
                kTimelineEventCap);
  }

  // An explicit --criterion runs exactly that checker — no evaluate_all
  // sweep, so --budget (and the wall clock, on 100k-event traces) bounds
  // the work the user asked for, not five other checks.
  if (opts.criterion_set) {
    const auto r = duo::checker::check_with_engine(h, opts.criterion,
                                                   opts.check_options());
    const std::string name = duo::checker::to_string(opts.criterion);
    std::printf("%s: %s\n", name.c_str(),
                duo::checker::to_string(r.verdict).c_str());
    if (r.no() && !r.explanation.empty())
      std::printf("%s violated: %s\n", name.c_str(), r.explanation.c_str());
    if (r.no() && opts.criterion == duo::checker::Criterion::kDuOpacity)
      print_first_violation(h, opts.check_options());
    if (opts.explain_engine) print_engine_line("engine", r.engine);
    if (opts.verbose) print_stats_line(r.stats);
    if (r.yes() && truncated) return inconclusive_truncated();
    if (r.no() && truncated &&
        !duo::checker::criterion_row(opts.criterion).prefix_closed)
      return inconclusive_truncated_no(name);
    return r.yes() ? 0 : 2;
  }

  // evaluate_all's loop, keeping du-opacity's result for the report below.
  duo::checker::VerdictVector v;
  duo::checker::CheckResult du;
  for (const auto c : duo::checker::all_criteria()) {
    auto r = duo::checker::check_with_engine(h, c, opts.check_options());
    v[c] = r.verdict;
    if (c == duo::checker::Criterion::kDuOpacity) du = std::move(r);
  }
  std::printf("verdicts: %s\n", v.to_string().c_str());
  const std::string violation = duo::checker::containment_violations(v);
  if (!violation.empty())
    std::printf("WARNING: containment anomaly: %s\n", violation.c_str());

  if (opts.explain_engine) print_engine_line("engine", du.engine);
  if (opts.verbose) print_stats_line(du.stats);
  if (du.yes()) {
    if (du.witness.has_value()) {
      std::printf("du serialization:");
      for (const auto tix : du.witness->order) {
        std::printf(" T%d%s", h.txn(tix).id,
                    du.witness->committed.test(tix) ? "" : "(aborted)");
      }
      std::printf("\n");
    } else {
      std::printf("du-opaque\n");
    }
    if (truncated) return inconclusive_truncated();
    return 0;
  }
  if (du.no()) {
    std::printf("du-opacity violated: %s\n", du.explanation.c_str());
    print_first_violation(h, opts.check_options());
    return 2;
  }
  std::printf("du-opacity: %s\n", duo::checker::to_string(du.verdict).c_str());
  return 2;
}

/// Batch mode: each pool worker reads, parses and checks the inputs it
/// claims; per-input lines are reported in input order.
int check_batch(const Options& opts) {
  const std::size_t n = opts.inputs.size();
  std::vector<std::string> errors(n);  // read/parse diagnostics, "" if ok
  std::vector<char> truncated(n, 0);   // `truncated` marker per input
  // Standard input is read here, in input order: workers must not share
  // std::cin.
  std::vector<std::optional<std::string>> stdin_text(n);
  for (std::size_t i = 0; i < n; ++i)
    if (opts.inputs[i] == "-") stdin_text[i] = read_input("-");

  duo::checker::PoolOptions popts;
  popts.num_threads = opts.jobs;
  popts.criterion = opts.criterion;
  popts.check = opts.check_options();
  duo::checker::CheckerPool pool(popts);
  // errors[i] and truncated[i] are written only by the worker that claims
  // input i, and read after the pool joins.
  const auto results = pool.check_batch(
      n, [&](std::size_t i) -> std::optional<duo::history::History> {
        const auto text = opts.inputs[i] == "-" ? stdin_text[i]
                                                : read_input(opts.inputs[i]);
        if (!text.has_value()) {
          errors[i] = "cannot read";
          return std::nullopt;
        }
        std::string parse_error;
        auto loaded = parse_trace(*text, parse_error);
        if (!loaded.has_value()) {
          errors[i] = "parse error: " + parse_error;
          return std::nullopt;
        }
        truncated[i] = loaded->truncated ? 1 : 0;
        return std::move(loaded->h);
      });

  const bool du = opts.criterion == duo::checker::Criterion::kDuOpacity;
  const std::string ok_label =
      du ? "du-opaque"
         : "ok (" + duo::checker::to_string(opts.criterion) + ")";
  std::size_t ok = 0, violated = 0, undecided = 0, failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) {
      ++failed;
      std::printf("%s: ERROR: %s\n", opts.inputs[i].c_str(),
                  errors[i].c_str());
      continue;
    }
    const auto& r = results[i];
    // With --explain-engine each batch line carries the deciding engine.
    const std::string engine_note =
        opts.explain_engine ? " [engine=" + r.engine.engine + "]" : "";
    if (r.yes() && truncated[i] != 0) {
      // A clean verdict on a truncated trace covers only the recorded
      // prefix: inconclusive, never a confident "yes".
      ++undecided;
      std::printf("%s: inconclusive (trace marked truncated)%s\n",
                  opts.inputs[i].c_str(), engine_note.c_str());
    } else if (r.no() && truncated[i] != 0 &&
               !duo::checker::criterion_row(opts.criterion).prefix_closed) {
      // Without prefix closure a rejection of the recorded prefix says
      // nothing about the full run either.
      ++undecided;
      std::printf(
          "%s: inconclusive (trace marked truncated; criterion is not "
          "prefix-closed)%s\n",
          opts.inputs[i].c_str(), engine_note.c_str());
    } else if (r.yes()) {
      ++ok;
      std::printf("%s: %s%s\n", opts.inputs[i].c_str(), ok_label.c_str(),
                  engine_note.c_str());
    } else if (r.no()) {
      ++violated;
      std::printf("%s: VIOLATION%s%s%s\n", opts.inputs[i].c_str(),
                  r.explanation.empty() ? "" : ": ", r.explanation.c_str(),
                  engine_note.c_str());
    } else {
      ++undecided;
      std::printf("%s: unknown (%s)%s\n", opts.inputs[i].c_str(),
                  r.explanation.empty()
                      ? "node budget exhausted; retry with a larger --budget"
                      : r.explanation.c_str(),
                  engine_note.c_str());
    }
  }
  // The pool clamps workers to the batch size; report what actually ran.
  const std::size_t jobs_used = std::min(pool.num_threads(), n);
  const char* ok_word = du ? "du-opaque" : "ok";
  std::printf("checked %zu traces (%zu jobs): %zu %s, %zu violations, "
              "%zu unknown, %zu errors\n",
              n, jobs_used, ok, ok_word, violated, undecided, failed);
  if (failed > 0) return 1;
  return (violated > 0 || undecided > 0) ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 1;
  if (opts.stream) return check_stream(opts);
  if (!opts.batch && opts.inputs.size() == 1)
    return check_single(opts.inputs[0], opts);
  return check_batch(opts);
}
