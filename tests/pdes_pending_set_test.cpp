#include "pdes/pending_set.hpp"

#include <gtest/gtest.h>

namespace cagvt::pdes {
namespace {

Event make_event(double ts, std::uint64_t uid, LpId dst = 0) {
  Event e;
  e.recv_ts = ts;
  e.uid = uid;
  e.dst_lp = dst;
  return e;
}

TEST(PendingSetTest, PopsInKeyOrder) {
  PendingSet set;
  set.push(make_event(3.0, 1));
  set.push(make_event(1.0, 2));
  set.push(make_event(2.0, 3));
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 3u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 1u);
  EXPECT_EQ(set.pop_next(kVtInfinity), std::nullopt);
}

TEST(PendingSetTest, UidBreaksTimestampTies) {
  PendingSet set;
  set.push(make_event(1.0, 9));
  set.push(make_event(1.0, 4));
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 4u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 9u);
}

TEST(PendingSetTest, BoundExcludesLaterEvents) {
  PendingSet set;
  set.push(make_event(5.0, 1));
  EXPECT_EQ(set.pop_next(4.9), std::nullopt);
  EXPECT_EQ(set.min_key()->ts, 5.0);  // still there
  EXPECT_EQ(set.pop_next(5.0)->uid, 1u);
}

TEST(PendingSetTest, CancelRemovesPending) {
  PendingSet set;
  set.push(make_event(1.0, 1));
  set.push(make_event(2.0, 2));
  EXPECT_TRUE(set.cancel(1));
  EXPECT_FALSE(set.cancel(1));   // already gone
  EXPECT_FALSE(set.cancel(99));  // never present
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
  EXPECT_TRUE(set.empty());
}

TEST(PendingSetTest, CancelUpdatesMinKey) {
  PendingSet set;
  set.push(make_event(1.0, 1));
  set.push(make_event(2.0, 2));
  EXPECT_TRUE(set.cancel(1));
  EXPECT_EQ(set.min_key()->ts, 2.0);
}

TEST(PendingSetTest, SizeTracksLiveEvents) {
  PendingSet set;
  set.push(make_event(1.0, 1));
  set.push(make_event(2.0, 2));
  EXPECT_EQ(set.size(), 2u);
  set.cancel(2);
  EXPECT_EQ(set.size(), 1u);  // tombstone not counted
}

TEST(PendingSetDeathTest, DuplicateUidAborts) {
  PendingSet set;
  set.push(make_event(1.0, 7));
  EXPECT_DEATH(set.push(make_event(2.0, 7)), "duplicate event uid");
}

TEST(PendingSetTest, ExtractLpMovesOnlyThatLpsEvents) {
  PendingSet set;
  set.push(make_event(3.0, 1, /*dst=*/0));
  set.push(make_event(2.0, 2, /*dst=*/1));
  set.push(make_event(1.0, 3, /*dst=*/0));
  const auto moved = set.extract_lp(0);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0].uid, 3u);  // returned in key order
  EXPECT_EQ(moved[1].uid, 1u);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
}

TEST(PendingSetTest, ExtractLpSkipsTombstones) {
  PendingSet set;
  set.push(make_event(1.0, 1, /*dst=*/0));
  set.push(make_event(2.0, 2, /*dst=*/0));
  set.cancel(1);
  const auto moved = set.extract_lp(0);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].uid, 2u);
  EXPECT_TRUE(set.empty());
}

TEST(PendingSetTest, ExtractLpTakesFirstCopyOfRegeneratedUid) {
  // cancel() leaves a heap tombstone; a rolled-back sender can regenerate
  // the same uid and re-insert, so two heap entries share one live uid.
  // Extraction must keep exactly the first entry in key order (matching
  // pop_next's skip semantics) and drop the stale one.
  PendingSet set;
  set.push(make_event(2.0, 7, /*dst=*/0));
  set.cancel(7);
  set.push(make_event(1.0, 7, /*dst=*/0));
  const auto moved = set.extract_lp(0);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_DOUBLE_EQ(moved[0].recv_ts, 1.0);
  EXPECT_TRUE(set.empty());
}

TEST(PendingSetTest, ExtractLpPreservesOtherLpsAcrossRebuild) {
  PendingSet set;
  set.push(make_event(1.0, 1, /*dst=*/0));
  set.push(make_event(2.0, 2, /*dst=*/1));
  set.push(make_event(3.0, 3, /*dst=*/1));
  set.cancel(3);
  EXPECT_EQ(set.extract_lp(0).size(), 1u);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
  EXPECT_EQ(set.pop_next(kVtInfinity), std::nullopt);
}

TEST(PendingSetTest, ReinsertAfterCancelIsAllowed) {
  // Rollback reinsertion after an earlier annihilation of a different copy
  // must work: cancel removes the uid from the live set entirely.
  PendingSet set;
  set.push(make_event(1.0, 7));
  set.cancel(7);
  set.push(make_event(1.0, 7));
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 7u);
}

TEST(PendingSetTest, TombstoneBesideItsLiveTwinIsSkipped) {
  // A cancelled uid pushed again (a regenerated event) leaves the tombstone
  // and its live twin in the heap together. The heap then holds more
  // entries than there are live uids, so skim's equal-size shortcut must
  // not fire while the tombstone remains.
  auto twins = [] {
    PendingSet set;
    set.push(make_event(1.0, 7, /*dst=*/0));
    set.push(make_event(2.0, 8, /*dst=*/1));
    set.cancel(7);
    set.push(make_event(1.0, 7, /*dst=*/0));
    return set;
  };

  PendingSet set = twins();
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.min_key()->uid, 7u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 7u);
  // The twin's other entry is now a tombstone on top of the heap.
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.min_key()->uid, 8u);
  EXPECT_EQ(set.pop_next(1.5), std::nullopt);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 8u);
  EXPECT_EQ(set.pop_next(kVtInfinity), std::nullopt);
  EXPECT_TRUE(set.empty());

  PendingSet moving = twins();
  const auto moved = moving.extract_lp(0);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].uid, 7u);
  EXPECT_EQ(moving.size(), 1u);
  EXPECT_EQ(moving.min_key()->uid, 8u);
  EXPECT_EQ(moving.pop_next(kVtInfinity)->uid, 8u);
  EXPECT_TRUE(moving.empty());
}

}  // namespace
}  // namespace cagvt::pdes
