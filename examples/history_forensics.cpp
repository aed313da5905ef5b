// History forensics: take a suspicious TM trace (the paper's Figure 4,
// written in the compact text format), and let the checkers explain exactly
// which correctness criteria it satisfies and why du-opacity rejects it.
//
// This is the workflow the library supports for debugging real TMs: capture
// a trace, parse it, and get a per-criterion verdict with a pinpointed
// violation.
#include <cstdio>

#include "checker/engine.hpp"
#include "checker/legality.hpp"
#include "checker/opacity.hpp"
#include "checker/verdict.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"

int main() {
  using namespace duo;

  // Figure 4 of the paper in the library's trace format: T1's tryC spans
  // the whole run and aborts at the end; T2 reads T1's value mid-flight;
  // T3 commits the same value later.
  const char* trace = "W1(X0,1) C1? R2(X0)=1 W3(X0,1) C3 C1!=A";
  const auto h = history::parse_history_or_die(trace);

  std::printf("trace: %s\n\n%s\n", trace, history::timeline(h).c_str());

  const auto v = checker::evaluate_all(h);
  std::printf("verdicts: %s\n\n", v.to_string().c_str());

  // Opacity holds: every prefix is final-state opaque.
  const auto op = checker::check_opacity(h);
  std::printf("opacity: %s (final-state searches run: %zu)\n",
              checker::to_string(op.verdict).c_str(), op.prefix_searches);

  // DU-opacity fails; the checker explains through a final-state witness.
  const auto du = checker::check_du_opacity(h);
  std::printf("du-opacity: %s\n  %s\n",
              checker::to_string(du.verdict).c_str(),
              du.explanation.c_str());

  // Drill down: the only final-state serialization is T1, T3, T2 — check
  // its local serialization violations explicitly.
  checker::Serialization s;
  s.committed = util::DynamicBitset(h.num_txns());
  s.order = {h.tix_of(1), h.tix_of(3), h.tix_of(2)};
  s.committed.set(h.tix_of(3));
  for (const auto& violation :
       checker::deferred_update_violations(h, s))
    std::printf("  local-serialization analysis: %s\n", violation.c_str());

  std::printf(
      "\nconclusion: the history is opaque (Def. 5) yet violates the\n"
      "deferred-update semantics (Def. 3) — the paper's Proposition 2.\n");
  return du.no() && op.yes() ? 0 : 1;
}
