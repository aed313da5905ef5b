// The concrete histories of the paper's Figures 1-6, with the event
// interleavings reconstructed from the figures and the surrounding prose.
// These are the paper's "evaluation artifacts": each carries a claimed
// verdict under the criteria of §3-§4, which tests/figures_test.cpp
// regenerates mechanically.
//
// Value conventions: the paper's symbolic v / v' become 1 / 2; the initial
// value of every object is 0. Object X is X0; object Y is X1.
#pragma once

#include "history/history.hpp"

namespace duo::history::figures {

/// Figure 1: a du-opaque history with serialization T2, T3, T1, T4.
///
///   W2(X,1) C2  R1(X)=1  W3(X,1) C3  W1(X,2) C1  R4(X)=2 C4
///
/// read1(X) is legal in the local serialization T2 . read1(X) (tryC3 has
/// not been invoked when read1 responds); read4(X) is legal in
/// T2 . T3 . T1 . read4(X). Claimed: du-opaque (hence opaque and
/// final-state opaque). Note the duplicate write value (T2 and T3 both
/// write 1): the history is *not* unique-write.
History fig1();

/// Figure 2, finite prefix family H(n), n >= 2 transactions T1..Tn:
///   T1 writes 1 and its tryC1 stays incomplete (commit-pending);
///   T2 reads 1 (after tryC1's invocation);
///   T3..Tn each read 0.
/// Claimed: every finite member is du-opaque, but every serialization must
/// place all of T3..Tn before T1 — so in the infinite limit T1 has no
/// position, and du-opacity is not limit-closed (Proposition 1).
History fig2(int n);

/// Figure 3: H = W1(X,1) R2(X)=1 C1 C2 — final-state opaque (S = T1 . T2),
/// but its 4-event prefix W1(X,1) R2(X)=1 is not: both transactions are
/// complete-but-not-t-complete there, so every completion aborts T1 and
/// read2(X)=1 cannot be legal. Hence H is not opaque (Definition 5) and not
/// du-opaque; final-state opacity is not prefix-closed.
History fig3();

/// The 4-event prefix H' of Figure 3 discussed in the paper.
History fig3_prefix();

/// Figure 4: opaque but not du-opaque (Proposition 2).
///
///   W1(X,1) C1?  R2(X)=1  W3(X,1) C3  C1!=A
///
/// tryC1 spans the whole history and aborts only after T3 commits. Every
/// prefix is final-state opaque (prefixes before A1 may complete tryC1 with
/// C1), so H is opaque. The only final-state serialization of the whole
/// history is T1, T3, T2, in which read2(X) reads from T3 — but tryC3 is
/// not invoked before read2 responds, so the local serialization for
/// read2(X) is T1 . read2(X) (T1 aborted), where the read of 1 is illegal.
/// Not du-opaque.
History fig4();

/// Figure 5: a (op-level sequential) du-opaque history that is not opaque
/// under the read-commit-order definition of Guerraoui et al. [6].
///
///   W1(X,1) C1  R2(X)=1  W3(X,1) W3(Y,1) C3  R2(Y)=1
///
/// S = T1, T3, T2 is a du-opaque serialization. [6] requires T2 <S T3
/// because read2(X) responds before tryC3 is invoked and T3 commits on X;
/// but legality of read2(Y)=1 forces T3 <S T2. Not RCO-opaque.
History fig5();

/// Figure 6: du-opaque but not TMS2.
///
///   R1(X)=0 W1(X,1)  R2(X)=0  C1  W2(Y,1) C2
///
/// S = T2, T1 is a du-opaque serialization. TMS2 requires T1 <S T2 (they
/// conflict on X, X in Wset(T1) ∩ Rset(T2), and tryC1 precedes tryC2), but
/// then read2(X)=0 is illegal. Not TMS2.
History fig6();

}  // namespace duo::history::figures
