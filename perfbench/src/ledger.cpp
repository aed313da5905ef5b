#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

void TraceCounts::note(const OpResult& r) {
  ++attempted;
  if (!r.ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: traced operation failed: %s\n",
                 r.why.c_str());
  }
}

Ledger::Ledger() {
  const char* const kUnits[][2] = {
      {"service.reader.busy_s", "s"},
      {"service.reader.bytes", "bytes"},
      {"service.pipeline.submit_wait_s", "s"},
      {"service.pipeline.finish_s", "s"},
      {"history.parse.busy_s", "s"},
      {"history.parse.events_per_s", "events/s"},
      {"history.build.busy_s", "s"},
      {"history.build.txns", "count"},
      {"monitor.feed.busy_s", "s"},
      {"monitor.feed.events_per_s", "events/s"},
      {"monitor.feed.batch_p50_ms", "ms"},
      {"monitor.feed.batch_p99_ms", "ms"},
      {"monitor.feed.busy_s.shards_n", "s"},
      {"monitor.fast_yes", "count"},
      {"monitor.edges_added", "count"},
      {"monitor.edges_removed", "count"},
      {"monitor.chain_splices", "count"},
      {"monitor.deferred_edges", "count"},
      {"monitor.full_checks", "count"},
      {"monitor.graph_checks", "count"},
      {"monitor.gc.passes", "count"},
      {"monitor.gc.retired_txns", "count"},
      {"monitor.gc.sealed_reads", "count"},
      {"monitor.peak_retained_events", "count"},
      {"monitor.peak_graph_nodes", "count"},
      {"monitor.peak_live_txns", "count"},
      {"checker.fso.busy_s", "s"},
      {"checker.opacity.busy_s", "s"},
      {"checker.du.busy_s", "s"},
      {"checker.rco.busy_s", "s"},
      {"checker.tms2.busy_s", "s"},
      {"checker.sser.busy_s", "s"},
      {"checker.first_bad_prefix.busy_s", "s"},
      {"checker.graph_routed", "count"},
      {"checker.dfs_routed", "count"},
      {"checker.graph_declines", "count"},
      {"checker.dfs_nodes", "count"},
      {"monitor.tap.busy_s", "s"},
      {"monitor.tap.polls", "count"},
      {"monitor.tap.lag_events", "count"},
      {"monitor.tap.drain_s", "s"},
      {"stm.recorder.events", "count"},
      {"trace.traced_wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
  };
  for (const auto& [name, unit] : kUnits) entries_[name].unit = unit;
  for (const char* b : {"tl2", "norec", "tml", "2pl-undo"}) {
    const std::string stm = std::string("stm.") + b;
    entries_[stm + ".commits_per_s.rec_off"].unit = "txns/s";
    entries_[stm + ".commits_per_s.rec_on"].unit = "txns/s";
    entries_[stm + ".commit_ratio"].unit = "ratio";
  }
}

void Ledger::set(const std::string& name, double value) {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::logic_error("undeclared per-layer metric: " + name);
  it->second.value = value;
}

void Ledger::add(const std::string& name, double value) {
  set(name, get(name) + value);
}

void Ledger::max(const std::string& name, double value) {
  set(name, std::max(get(name), value));
}

double Ledger::get(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::logic_error("undeclared per-layer metric: " + name);
  return it->second.value;
}

std::string Ledger::json() const {
  std::ostringstream out;
  out.precision(17);
  out << '{';
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) out << ", ";
    first = false;
    out << '"' << name << "\": {\"value\": " << e.value << ", \"unit\": \""
        << e.unit << "\"}";
  }
  out << '}';
  return out.str();
}

}  // namespace perfbench
