#include "checker/criteria.hpp"

#include <cctype>

#include "history/event.hpp"
#include "util/assert.hpp"

namespace duo::checker {

namespace {

// One row per Criterion, in declaration order.
constexpr CriterionRow kRows[] = {
    // Definition 4 [8], read-write semantics as in §4.1.
    {.criterion = Criterion::kFinalStateOpacity,
     .name = "final-state-opacity",
     .aliases = {"final-state", "fso"},
     .no_explanation = "no legal real-time-respecting serialization exists"},
    // Definition 5 [8]: every prefix final-state opaque.
    {.criterion = Criterion::kOpacity,
     .name = "opacity",
     .aliases = {"opaque"},
     .per_prefix = true,
     .prefix_closed = true,
     .no_explanation = "first non-final-state-opaque prefix ends at event"},
    // Definition 3; prefix-closed by Corollary 2.
    {.criterion = Criterion::kDuOpacity,
     .name = "du-opacity",
     .aliases = {"du"},
     .deferred_update = true,
     .prefix_closed = true,
     .no_explanation = "no serialization satisfies Def. 3 (1)-(3)"},
    // Guerraoui, Henzinger & Singh [6], §4.2 and Figure 5.
    {.criterion = Criterion::kRcoOpacity,
     .name = "rco-opacity",
     .aliases = {"rco"},
     .commit_edges = &rco_commit_edges,
     .no_explanation =
         "no final-state serialization respects the read-commit order"},
    // Doherty, Groves, Luchangco & Moir [5], §4.2 and Figure 6: a committed
    // writer precedes an update transaction that reads its object, commits,
    // and invoked tryC after the writer's commit. Read-only and aborted
    // readers serialize at an earlier snapshot (see tms2_edges).
    {.criterion = Criterion::kTms2,
     .name = "TMS2",
     .commit_edges = &tms2_edges,
     .no_explanation =
         "no final-state serialization respects the TMS2 conflict order"},
    // The database baseline of §1: the committed projection only.
    {.criterion = Criterion::kStrictSerializability,
     .name = "strict-serializability",
     .aliases = {"strict", "sser"},
     .committed_projection = true,
     .no_explanation = "the committed projection has no legal "
                       "real-time-respecting serialization"},
};

constexpr bool rows_in_declaration_order() {
  for (std::size_t i = 0; i < std::size(kRows); ++i)
    if (kRows[i].criterion != static_cast<Criterion>(i)) return false;
  return true;
}
static_assert(rows_in_declaration_order(),
              "kRows is indexed by Criterion");

std::string lower(std::string_view s) {
  std::string n;
  n.reserve(s.size());
  for (const char c : s)
    n.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return n;
}

}  // namespace

const CriterionRow& criterion_row(Criterion c) {
  const auto i = static_cast<std::size_t>(c);
  DUO_EXPECTS(i < std::size(kRows));
  return kRows[i];
}

std::string to_string(Criterion c) { return criterion_row(c).name; }

std::optional<Criterion> criterion_from_name(const std::string& name) {
  const std::string n = lower(name);
  for (const CriterionRow& row : kRows) {
    if (n == lower(row.name)) return row.criterion;
    for (const std::string_view alias : row.aliases)
      if (!alias.empty() && n == alias) return row.criterion;
  }
  return std::nullopt;
}

const std::vector<Criterion>& all_criteria() {
  static const std::vector<Criterion> kAll = [] {
    std::vector<Criterion> all;
    for (const CriterionRow& row : kRows) all.push_back(row.criterion);
    return all;
  }();
  return kAll;
}

History committed_projection(const History& h) {
  std::vector<history::Event> events;
  for (const history::Event& e : h.events()) {
    if (!h.participates(e.txn)) continue;
    const history::Transaction& t = h.txn(h.tix_of(e.txn));
    if (t.committed() || t.commit_pending()) events.push_back(e);
  }
  std::vector<Value> initials(static_cast<std::size_t>(h.num_objects()));
  for (ObjId x = 0; x < h.num_objects(); ++x)
    initials[static_cast<std::size_t>(x)] = h.initial_value(x);
  auto r = History::make(std::move(events), h.num_objects(),
                         std::move(initials));
  DUO_ASSERT(r.has_value());
  return std::move(r).take();
}

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::kYes: return "yes";
    case Verdict::kNo: return "no";
    case Verdict::kUnknown: return "unknown";
  }
  DUO_UNREACHABLE("bad Verdict");
}

std::string to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kAuto: return "auto";
    case EngineKind::kGraph: return "graph";
    case EngineKind::kDfs: return "dfs";
  }
  DUO_UNREACHABLE("bad EngineKind");
}

std::optional<EngineKind> engine_from_name(const std::string& name) {
  const std::string n = lower(name);
  if (n == "auto") return EngineKind::kAuto;
  if (n == "graph") return EngineKind::kGraph;
  if (n == "dfs" || n == "search") return EngineKind::kDfs;
  return std::nullopt;
}

}  // namespace duo::checker
