// Bank audit: the motivation story from the paper's introduction, staged on
// three registry backends. Auditors sum all accounts while transfers run.
// With TL2 (deferred update) and 2PL-Undo (direct update behind held
// locks) no auditor ever observes a broken total; with the pessimistic,
// in-place STM the invariant shatters — and the recorder plus checkers pin
// the blame on deferred-update violations.
//
// Usage: bank_audit [accounts] [threads]
#include <cstdio>
#include <cstdlib>

#include "checker/engine.hpp"
#include "history/printer.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"

namespace {

void run_case(const char* backend, duo::history::ObjId accounts,
              std::size_t threads) {
  using namespace duo;
  stm::Recorder recorder(1 << 16);
  auto stm_ptr = stm::make_stm(backend, accounts, &recorder);
  if (stm_ptr == nullptr) {
    std::printf("unknown backend %s\n", backend);
    return;
  }
  stm::Stm& stm = *stm_ptr;
  const char* label = backend;

  stm::WorkloadOptions opts;
  opts.threads = threads;
  opts.txns_per_thread = 25;
  opts.seed = 4242;
  const auto stats = stm::run_bank(stm, opts, /*initial_balance=*/1000);

  stm::Value total = 0;
  for (history::ObjId a = 0; a < accounts; ++a)
    total += stm.sample_committed(a);

  std::printf("%-12s commits=%llu aborts=%llu audits=%llu broken=%llu "
              "final-total=%lld\n",
              label, static_cast<unsigned long long>(stats.committed),
              static_cast<unsigned long long>(stats.aborted),
              static_cast<unsigned long long>(stats.audits),
              static_cast<unsigned long long>(stats.broken_audits),
              static_cast<long long>(total));

  const auto h = recorder.finish(accounts);
  checker::CheckOptions copts;
  copts.node_budget = 100'000'000;
  const auto du = checker::check_du_opacity(h, copts);
  std::printf("%-12s recorded %s -> du-opacity: %s\n\n", label,
              history::summary(h).c_str(),
              checker::to_string(du.verdict).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto accounts = static_cast<duo::history::ObjId>(
      argc > 1 ? std::atoi(argv[1]) : 4);
  const auto threads =
      static_cast<std::size_t>(argc > 2 ? std::atoi(argv[2]) : 3);

  std::printf("=== Bank with %d accounts, %zu threads ===\n\n",
              static_cast<int>(accounts), threads);
  std::printf("invariant: every audit must see total == 1000 * accounts\n\n");

  run_case("tl2", accounts, threads);
  run_case("2pl-undo", accounts, threads);
  run_case("pessimistic", accounts, threads);

  std::printf(
      "shape: TL2 (deferred) and 2PL-Undo (direct, locks held to the end)\n"
      "report zero broken audits and du-opaque recordings; the pessimistic\n"
      "STM commits everything but lets auditors observe uncommitted state\n"
      "-- the failure mode du-opacity formalizes.\n");
  return 0;
}
