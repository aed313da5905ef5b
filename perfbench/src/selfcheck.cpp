// Generator self-check: on small seeded traces, the records the generator
// keeps from its own construction must match the brute-force oracle
// (checker/oracle.hpp), an implementation path independent of both engines.
#include <cstdio>

#include "bench.hpp"
#include "checker/oracle.hpp"
#include "gen.hpp"
#include "history/parser.hpp"

namespace perfbench {

namespace {

/// brute_force_search enumerates permutations of at most this many
/// transactions.
constexpr std::size_t kOracleMaxTxns = 9;

/// 0-based index of the first event whose prefix is not du-opaque, by
/// brute force over every prefix.
std::optional<std::size_t> oracle_first_violation(const duo::history::History& h) {
  duo::checker::SerializationRules rules;
  rules.deferred_update = true;
  for (std::size_t n = 1; n <= h.size(); ++n)
    if (!duo::checker::brute_force_search(h.prefix(n), rules).serializable)
      return n - 1;
  return std::nullopt;
}

}  // namespace

int selfcheck(std::uint64_t seeds) {
  int bad = 0;
  std::size_t violations = 0;
  std::size_t traces = 0;
  std::size_t skipped = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    // Variants: unique writes, counters, lockstep counters; each clean and
    // with an injected violation.
    for (int variant = 0; variant < 6; ++variant) {
      TraceSpec s;
      s.seed = seed;
      s.events = 18;
      s.threads = 3;
      s.objects = 3;
      s.zipf_theta = 0.5;
      s.min_ops = 1;
      s.max_ops = 3;
      s.counters = variant >= 2;
      if (s.counters) s.objects = 2;
      if (variant >= 4) s.conflict_every = 2;
      if (variant % 2 == 1) {
        s.inject = seed % 2 == 0 || s.counters ? Inject::kUncommittedRead
                                                : Inject::kAbortedRead;
        s.inject_at = seed % 3 == 0 ? 1.0 : 0.5;
      }
      TraceRecord rec;
      const std::string text = generate_text(s, rec);
      auto parsed = duo::history::parse_history(text);
      ++traces;
      if (!parsed) {
        std::fprintf(stderr, "selfcheck: seed %llu: %s\n  %s\n",
                     static_cast<unsigned long long>(seed), parsed.error().c_str(),
                     text.c_str());
        ++bad;
        continue;
      }
      const duo::history::History& h = parsed.value();
      if (h.num_txns() > kOracleMaxTxns) {
        ++skipped;  // past what the brute force enumerates
        continue;
      }
      std::size_t commits = 0;
      for (const auto& t : h.transactions())
        commits += t.status == duo::history::TxnStatus::kCommitted;
      const auto oracle = oracle_first_violation(h);
      violations += oracle.has_value();
      if (oracle != rec.first_violation || h.size() != rec.events ||
          commits != rec.commits ||
          h.has_unique_writes() != rec.unique_writes) {
        std::fprintf(stderr,
                     "selfcheck: seed %llu variant %d: oracle first violation "
                     "%lld, record %lld; events %zu/%zu; commits %zu/%zu; "
                     "unique %d/%d\n  %s\n",
                     static_cast<unsigned long long>(seed), variant,
                     oracle ? static_cast<long long>(*oracle) : -1LL,
                     rec.first_violation ? static_cast<long long>(*rec.first_violation) : -1LL,
                     h.size(), rec.events, commits, rec.commits,
                     h.has_unique_writes(), rec.unique_writes, text.c_str());
        ++bad;
      }
    }
  }
  std::fprintf(stderr,
               "selfcheck: %zu traces (%zu too large for the oracle), %zu "
               "with violations, %d mismatches\n",
               traces, skipped, violations, bad);
  return bad;
}

}  // namespace perfbench
