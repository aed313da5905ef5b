#include "checker/verdict.hpp"

#include <sstream>

#include "checker/engine.hpp"

namespace duo::checker {

namespace {

/// The VerdictVector member holding criterion c's verdict.
Verdict VerdictVector::*slot(Criterion c) {
  static constexpr Verdict VerdictVector::*kSlots[] = {
      &VerdictVector::final_state, &VerdictVector::opaque,
      &VerdictVector::du_opaque,   &VerdictVector::rco,
      &VerdictVector::tms2,        &VerdictVector::strict_ser,
  };  // Criterion declaration order
  return kSlots[static_cast<std::size_t>(c)];
}

}  // namespace

Verdict& VerdictVector::operator[](Criterion c) { return this->*slot(c); }

Verdict VerdictVector::operator[](Criterion c) const { return this->*slot(c); }

std::string VerdictVector::to_string() const {
  std::ostringstream out;
  out << "FSO=" << checker::to_string(final_state)
      << " opaque=" << checker::to_string(opaque)
      << " du=" << checker::to_string(du_opaque)
      << " rco=" << checker::to_string(rco)
      << " tms2=" << checker::to_string(tms2)
      << " sser=" << checker::to_string(strict_ser);
  return out.str();
}

VerdictVector evaluate_all(const History& h, const CheckOptions& opts) {
  VerdictVector v;
  for (const Criterion c : all_criteria())
    v[c] = check_with_engine(h, c, opts).verdict;
  return v;
}

namespace {

bool implies_violated(Verdict a, Verdict b) {
  // a ⇒ b violated only when a is definitely yes and b definitely no.
  return a == Verdict::kYes && b == Verdict::kNo;
}

}  // namespace

std::string containment_violations(const VerdictVector& v) {
  struct Rule {
    Verdict from, to;
    const char* name;
  };
  // Note: the paper's conjecture TMS2 ⊆ DU-Opacity concerns the full TMS2
  // automaton; our check implements only the one-clause conflict-order
  // condition quoted in §4.2, which is weaker (e.g. it does not constrain
  // transactions that never invoke tryC), so no tms2 ⇒ du rule appears here.
  const Rule rules[] = {
      {v.du_opaque, v.opaque, "du-opaque but not opaque (Thm. 10)"},
      {v.opaque, v.final_state, "opaque but not final-state opaque (Def. 5)"},
      {v.rco, v.du_opaque, "rco-opaque but not du-opaque (§4.2)"},
      {v.final_state, v.strict_ser,
       "final-state opaque but committed projection not serializable"},
  };
  for (const Rule& r : rules)
    if (implies_violated(r.from, r.to)) return r.name;
  return "";
}

}  // namespace duo::checker
