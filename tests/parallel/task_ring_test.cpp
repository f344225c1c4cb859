// Unit tests for TaskRing, the slot ring under every task queue: front and
// back pops, wrap-around, full-ring rejection, its stats, and the stamps
// that ride beside each task. Locking, termination and the TaskSink
// contract are the owning queues' and are tested with them.
#include <gtest/gtest.h>

#include "parallel/task_ring.hpp"

namespace gentrius::parallel {
namespace {

core::Task make_task(int tag) {
  core::Task t;
  t.next_taxon = static_cast<core::TaxonId>(tag);
  return t;
}

int tag_of(const core::Task& t) { return static_cast<int>(t.next_taxon); }

TEST(TaskRing, PopsFrontFifoAndBackLifo) {
  TaskRing<> ring(4);
  for (int tag = 1; tag <= 4; ++tag) {
    core::Task t = make_task(tag);
    ASSERT_TRUE(ring.push_back(t));
  }
  core::Task out;
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(tag_of(out), 1);
  ASSERT_TRUE(ring.pop_back(out));
  EXPECT_EQ(tag_of(out), 4);
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(tag_of(out), 2);
  ASSERT_TRUE(ring.pop_back(out));
  EXPECT_EQ(tag_of(out), 3);
  EXPECT_TRUE(ring.empty());
  out = make_task(9);
  EXPECT_FALSE(ring.pop_front(out));
  EXPECT_FALSE(ring.pop_back(out));
  EXPECT_EQ(tag_of(out), 9);  // an empty pop leaves `out` alone
}

// Pushes at the back and pops at both ends walk head and tail around the
// ring many times; every task comes out whole and in order.
TEST(TaskRing, WrapsAcrossManyHandoffs) {
  TaskRing<> ring(3);
  core::Task out;
  for (int i = 0; i < 50; ++i) {
    for (int k = 0; k < 3; ++k) {
      core::Task t = make_task(3 * i + k);
      t.path = {{static_cast<core::TaxonId>(k), static_cast<core::EdgeId>(i)}};
      t.branches = {static_cast<core::EdgeId>(i), 1, 2};
      ASSERT_TRUE(ring.push_back(t));
    }
    ASSERT_TRUE(ring.pop_front(out));
    EXPECT_EQ(tag_of(out), 3 * i);
    EXPECT_EQ(out.path.size(), 1u);
    EXPECT_EQ(out.branches.front(), static_cast<core::EdgeId>(i));
    ASSERT_TRUE(ring.pop_back(out));
    EXPECT_EQ(tag_of(out), 3 * i + 2);
    ASSERT_TRUE(ring.pop_front(out));
    EXPECT_EQ(tag_of(out), 3 * i + 1);
    EXPECT_TRUE(ring.empty());
  }
  EXPECT_EQ(ring.max_depth(), 3u);
  EXPECT_EQ(ring.rejections(), 0u);
}

TEST(TaskRing, FullRingRejectsCountsAndLeavesTheTaskUntouched) {
  TaskRing<> ring(2);
  core::Task a = make_task(1);
  core::Task b = make_task(2);
  ASSERT_TRUE(ring.push_back(a));
  ASSERT_TRUE(ring.push_back(b));
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.max_depth(), 2u);

  core::Task rejected = make_task(3);
  rejected.path = {{4, 5}, {6, 7}};
  rejected.branches = {8, 9};
  const core::Task before = rejected;
  EXPECT_FALSE(ring.push_back(rejected));
  EXPECT_FALSE(ring.push_back(rejected));
  EXPECT_EQ(tag_of(rejected), tag_of(before));
  EXPECT_EQ(rejected.path, before.path);
  EXPECT_EQ(rejected.branches, before.branches);
  EXPECT_EQ(ring.rejections(), 2u);
  EXPECT_EQ(ring.size(), 2u);

  core::Task out;
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_TRUE(ring.push_back(rejected));  // room again
  EXPECT_EQ(ring.rejections(), 2u);
  EXPECT_EQ(ring.max_depth(), 2u);  // the high-water mark, not the size
}

TEST(TaskRing, StampsTravelWithTheirTask) {
  TaskRing<double> ring(3);
  for (int tag = 0; tag < 3; ++tag) {
    core::Task t = make_task(tag);
    ASSERT_TRUE(ring.push_back(t, 10.0 + tag));
  }
  EXPECT_EQ(ring.front_stamp(), 10.0);
  core::Task out;
  ASSERT_TRUE(ring.pop_back(out));  // the back pop leaves the front stamp
  EXPECT_EQ(tag_of(out), 2);
  EXPECT_EQ(ring.front_stamp(), 10.0);
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(tag_of(out), 0);
  EXPECT_EQ(ring.front_stamp(), 11.0);
  // Reused slots, the second past the end of the ring, carry the stamps of
  // their new tasks.
  core::Task t = make_task(5);
  ASSERT_TRUE(ring.push_back(t, 20.0));
  t = make_task(6);
  ASSERT_TRUE(ring.push_back(t, 21.0));
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(tag_of(out), 1);
  EXPECT_EQ(ring.front_stamp(), 20.0);
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(tag_of(out), 5);
  EXPECT_EQ(ring.front_stamp(), 21.0);
}

}  // namespace
}  // namespace gentrius::parallel
