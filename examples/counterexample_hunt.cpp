// Counterexample hunting: search random mutated histories for separations
// between the criteria — histories that are opaque but not du-opaque
// (Proposition 2 witnesses beyond the paper's Figure 4), or du-opaque but
// not RCO/TMS2 (the §4.2 separations). Prints the smallest finds as
// timelines.
#include <cstdio>
#include <optional>

#include "checker/engine.hpp"
#include "checker/opacity.hpp"
#include "gen/generator.hpp"
#include "history/printer.hpp"

namespace {

struct Find {
  duo::history::History h;
  std::size_t events;
};

void report(const char* title, const std::optional<Find>& find,
            int checked) {
  std::printf("--- %s (checked %d candidates) ---\n", title, checked);
  if (!find.has_value()) {
    std::printf("none found in this corpus\n\n");
    return;
  }
  std::printf("smallest witness (%zu events):\n%s\n  %s\n\n", find->events,
              duo::history::timeline(find->h).c_str(),
              duo::history::compact(find->h).c_str());
}

}  // namespace

int main() {
  using namespace duo;
  util::Xoshiro256 rng(987654321);
  gen::GenOptions opts;
  opts.num_txns = 4;
  opts.num_objects = 2;
  opts.value_range = 2;

  std::optional<Find> opaque_not_du, du_not_rco, du_not_tms2;
  constexpr int kCandidates = 400;
  int checked = 0;

  for (int i = 0; i < kCandidates; ++i) {
    auto h = gen::mutate(gen::random_du_history(opts, rng), rng);
    ++checked;
    const auto du = checker::check_du_opacity(h);
    if (du.yes()) {
      if ((!du_not_rco || h.size() < du_not_rco->events) &&
          checker::check_with_engine(h, checker::Criterion::kRcoOpacity).no())
        du_not_rco = {h, h.size()};
      if ((!du_not_tms2 || h.size() < du_not_tms2->events) &&
          checker::check_with_engine(h, checker::Criterion::kTms2).no())
        du_not_tms2 = {h, h.size()};
      continue;
    }
    if (du.no() && (!opaque_not_du || h.size() < opaque_not_du->events)) {
      if (checker::check_opacity(h).yes()) opaque_not_du = {h, h.size()};
    }
  }

  std::printf("=== Criterion separations in a random corpus ===\n\n");
  report("opaque but NOT du-opaque (Prop. 2 witnesses)", opaque_not_du,
         checked);
  report("du-opaque but NOT rco-opaque (Fig. 5 class)", du_not_rco, checked);
  report("du-opaque but NOT TMS2 (Fig. 6 class)", du_not_tms2, checked);

  std::printf(
      "note: the paper's own witnesses are available as "
      "duo::history::figures::fig4/fig5/fig6.\n");
  return 0;
}
