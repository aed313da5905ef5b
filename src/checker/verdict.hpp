// Verdict vectors: evaluate a history under every criterion the paper
// compares. Used by duo_check, the daemon, perfbench, tests and examples.
#pragma once

#include <string>
#include <vector>

#include "checker/criteria.hpp"

namespace duo::checker {

struct VerdictVector {
  Verdict final_state = Verdict::kUnknown;
  Verdict opaque = Verdict::kUnknown;
  Verdict du_opaque = Verdict::kUnknown;
  Verdict rco = Verdict::kUnknown;
  Verdict tms2 = Verdict::kUnknown;
  Verdict strict_ser = Verdict::kUnknown;

  /// The slot of criterion c.
  Verdict& operator[](Criterion c);
  Verdict operator[](Criterion c) const;

  /// "FSO=yes opaque=yes du=no rco=no tms2=no sser=yes"
  std::string to_string() const;
};

/// check_with_engine under every criterion of all_criteria().
VerdictVector evaluate_all(const History& h, const CheckOptions& opts = {});

/// The containment structure the paper proves/conjectures, as a checkable
/// predicate on a verdict vector (ignores kUnknown entries):
///   du ⇒ opaque ⇒ final-state (Thm. 10, Def. 5);
///   rco ⇒ du (§4.2, [6] stronger than du);
///   tms2 ⇒ du (§4.2 conjecture);
///   final-state ⇒ strict serializability of the committed projection.
/// Returns an explanation of the first violated implication, or empty.
std::string containment_violations(const VerdictVector& v);

}  // namespace duo::checker
