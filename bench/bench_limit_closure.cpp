// E2 / E8 — limit closure (Proposition 1, Theorem 5).
//
// Regenerates the Figure 2 analysis as a table: for growing n, every finite
// member H(n) is du-opaque, yet the witness serialization must place T1
// after all readers of the initial value, so T1's index diverges — the
// finite shadow of "du-opacity is not limit-closed". A second table checks
// that forcing T1 before any reader is unsatisfiable (the impossibility is
// structural, not an artifact of the particular witness found).
#include <chrono>
#include <cstdio>

#include "checker/engine.hpp"
#include "checker/search.hpp"
#include "history/figures.hpp"
#include "util/table.hpp"

namespace {
using Clock = std::chrono::steady_clock;
double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}
}  // namespace

int main() {
  std::printf(
      "=== Proposition 1: du-opaque prefixes with diverging T1 position "
      "===\n\n");
  duo::util::Table table(
      {"n (txns)", "events", "du-opaque", "pos(T1)", "readers before T1",
       "check ms"});
  for (int n = 2; n <= 24; n += 2) {
    const auto h = duo::history::figures::fig2(n);
    const auto t0 = Clock::now();
    const auto r = duo::checker::check_du_opacity(h);
    const double ms = ms_since(t0);
    std::size_t t1_pos = 0, readers_before = 0;
    if (r.yes()) {
      const auto pos = r.witness->positions();
      t1_pos = pos[h.tix_of(1)];
      for (duo::history::TxnId i = 3; i <= n; ++i)
        readers_before += pos[h.tix_of(i)] < t1_pos;
    }
    table.add_row({std::to_string(n), std::to_string(h.size()),
                   duo::checker::to_string(r.verdict),
                   std::to_string(t1_pos), std::to_string(readers_before),
                   std::to_string(ms)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape: pos(T1) grows linearly with n -> no finite position works in\n"
      "the infinite limit; the limit history has no serialization (Prop. "
      "1).\n\n");

  std::printf("=== Forcing T1 early is unsatisfiable ===\n\n");
  duo::util::Table force({"n", "edge", "outcome"});
  for (int n = 4; n <= 12; n += 4) {
    const auto h = duo::history::figures::fig2(n);
    duo::checker::SearchOptions so;
    so.deferred_update = true;
    so.extra_edges = {{h.tix_of(1), h.tix_of(3)}};
    const auto r = duo::checker::find_serialization(h, so);
    force.add_row({std::to_string(n), "T1 < T3",
                   r.found() ? "satisfiable (BUG)" : "unsatisfiable"});
  }
  std::printf("%s\n", force.render().c_str());
  return 0;
}
