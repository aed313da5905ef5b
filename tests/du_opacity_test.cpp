// Targeted tests of the deferred-update condition (Definition 3(3)): reads
// from commit-pending transactions, tryC-invocation cutoffs, duplicate write
// values, and the paper's discussion cases.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/opacity.hpp"
#include "history/builder.hpp"
#include "history/parser.hpp"

namespace duo::checker {
namespace {

using history::HistoryBuilder;
using history::parse_history_or_die;

TEST(DuOpacity, ReadFromCommittedWriterIsFine) {
  EXPECT_TRUE(
      check_du_opacity(parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2")).yes());
}

TEST(DuOpacity, ReadBeforeTryCInvocationViolates) {
  // Same reads-from, but read2 responds before tryC1 is invoked: the local
  // serialization for read2 excludes T1, making the read of 1 illegal there.
  EXPECT_TRUE(
      check_du_opacity(parse_history_or_die("W1(X0,1) R2(X0)=1 C1 C2")).no());
}

TEST(DuOpacity, ReadAfterTryCInvocationBeforeResponseIsFine) {
  // tryC1 invoked, response still pending when read2 responds: H^{2,X}
  // contains the invocation, so T1 is in the local serialization.
  EXPECT_TRUE(check_du_opacity(
                  parse_history_or_die("W1(X0,1) C1? R2(X0)=1 C1! C2"))
                  .yes());
}

TEST(DuOpacity, ReadFromForeverPendingWriter) {
  // T1 never receives its tryC response; completing it with C1 serializes
  // it before T2 (paper Figure 2 core).
  EXPECT_TRUE(
      check_du_opacity(parse_history_or_die("W1(X0,1) C1? R2(X0)=1")).yes());
}

TEST(DuOpacity, ReadFromPendingWriterThatIsNeverInvoked) {
  // T1 running (tryC never invoked): no completion can commit it before the
  // read, and the local serialization always excludes it.
  EXPECT_TRUE(
      check_du_opacity(parse_history_or_die("W1(X0,1) R2(X0)=1 C2")).no());
}

TEST(DuOpacity, AbortedWriterNeverLegal) {
  EXPECT_TRUE(
      check_du_opacity(parse_history_or_die("W1(X0,1) C1=A R2(X0)=1 C2"))
          .no());
}

TEST(DuOpacity, InitialValueReadAlwaysLocal) {
  EXPECT_TRUE(
      check_du_opacity(parse_history_or_die("R1(X0)=0 C1 R2(X0)=0 C2")).yes());
}

TEST(DuOpacity, DuplicateValueRescueRequiresEarlyTryC) {
  // Two writers of the same value. The late writer T3 is the only one that
  // can satisfy global legality for the final read, but the early writer T2
  // covers the local serialization — the Figure 1 mechanism reduced to its
  // essence. (T2 committed before the read responds; T3's tryC comes after.)
  const auto h = parse_history_or_die(
      "W2(X0,1) C2 R1(X0)=1 W3(X0,1) C3 W1(X0,2) C1 R4(X0)=2 C4");
  EXPECT_TRUE(check_du_opacity(h).yes());
}

TEST(DuOpacity, DuplicateValueWithoutEarlyCoverFails) {
  // Only one writer of value 1, whose tryC comes after the read responds.
  const auto h =
      parse_history_or_die("R1(X0)=1 W3(X0,1) C3 W1(X0,2) C1 R4(X0)=2 C4");
  EXPECT_TRUE(check_du_opacity(h).no());
  // But it is final-state opaque: T3, T1, T4 ... with T1's read of 1 served
  // by T3 in the final order — wait, read1 responds before tryC3; final-
  // state opacity does not care.
  EXPECT_TRUE(check_with_engine(h, Criterion::kFinalStateOpacity).yes());
}

TEST(DuOpacity, InternalReadsAreLocal) {
  // Own writes cover reads regardless of any tryC timing.
  EXPECT_TRUE(check_du_opacity(parse_history_or_die(
                  "W1(X0,5) R1(X0)=5 W2(X0,9) R2(X0)=9 C2 C1"))
                  .yes());
}

TEST(DuOpacity, WrongInternalReadFails) {
  EXPECT_TRUE(
      check_du_opacity(parse_history_or_die("W1(X0,5) R1(X0)=6 C1")).no());
}

TEST(DuOpacity, AbortedReaderStillConstrained) {
  // Even a transaction that later aborts must have du-legal reads.
  EXPECT_TRUE(check_du_opacity(
                  parse_history_or_die("W1(X0,1) R2(X0)=1 C2=A C1"))
                  .no());
}

TEST(DuOpacity, CommitPendingReaderConstrained) {
  EXPECT_TRUE(check_du_opacity(
                  parse_history_or_die("W1(X0,1) R2(X0)=1 C2? C1"))
                  .no());
}

TEST(DuOpacity, InterposedCommittedWriterBreaksLocalLegality) {
  // T1 writes 1 and commits; T2 writes 2 and commits; T3 then reads 1.
  // Global legality could order T3 between T1 and T2... but T2 ≺RT T3
  // forces T2 before T3, so the read of 1 has T2 interposed: illegal.
  EXPECT_TRUE(check_du_opacity(parse_history_or_die(
                  "W1(X0,1) C1 W2(X0,2) C2 R3(X0)=1 C3"))
                  .no());
}

TEST(DuOpacity, OverlappingReaderMaySerializeEarly) {
  // Same writers, but T3 overlaps both: it can serialize between T1 and T2
  // (real-time permits), making the read of 1 legal — and since tryC1 is
  // invoked before the read responds, du-legal too.
  EXPECT_TRUE(check_du_opacity(parse_history_or_die(
                  "R3?(X0) W1(X0,1) C1 W2(X0,2) C2 R3!(X0)=1 C3"))
                  .yes());
}

TEST(DuOpacity, WitnessExposesSerializationOrder) {
  const auto h = parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  const auto r = check_du_opacity(h);
  ASSERT_TRUE(r.yes());
  ASSERT_TRUE(r.witness.has_value());
  const auto pos = r.witness->positions();
  EXPECT_LT(pos[h.tix_of(1)], pos[h.tix_of(2)]);
}

TEST(DuOpacity, ImpliesOpacityOnSamples) {
  // Theorem 10 direction checked on a few hand histories.
  for (const char* text : {
           "W1(X0,1) C1 R2(X0)=1 C2",
           "W1(X0,1) C1? R2(X0)=1",
           "R1(X0)=0 W1(X0,1) R2(X0)=0 C1 W2(X1,1) C2",
       }) {
    const auto h = parse_history_or_die(text);
    ASSERT_TRUE(check_du_opacity(h).yes()) << text;
    EXPECT_TRUE(check_opacity(h).yes()) << text;
  }
}

}  // namespace
}  // namespace duo::checker
