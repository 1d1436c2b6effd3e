// Unit tests for the calendar-queue event engine (sim/event_queue.hpp):
// exact (t, seq) ordering across bucket boundaries, ring wraparound, the
// overflow pour / width-doubling path for far-future events, the pop-time
// order check, and the occupancy/health stats surfaced as sim.eventq.*
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace pods::sim {
namespace {

using Q = CalendarQueue<int>;

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

TEST(CalendarQueue, OrdersByTimeThenSeq) {
  Q q;
  // Same time, shuffled seqs; different times, including within one bucket
  // and straddling a bucket boundary (width 4096 ns).
  q.push({4095, 7}, 1);
  q.push({4096, 3}, 2);  // next bucket, smaller seq — time wins
  q.push({4095, 5}, 3);
  q.push({0, 9}, 4);
  q.push({0, 2}, 5);
  std::vector<EvKey> keys;
  while (!q.empty()) {
    EvKey k;
    q.pop(&k);
    keys.push_back(k);
  }
  ASSERT_EQ(keys.size(), 5u);
  for (std::size_t i = 1; i < keys.size(); ++i)
    EXPECT_TRUE(keys[i - 1] < keys[i]) << "out of order at " << i;
  EXPECT_EQ(keys.front().seq, 2u);
  EXPECT_EQ(keys.back().seq, 3u);
}

TEST(CalendarQueue, RandomizedMatchesSortedReference) {
  Q q(4096, 64);  // small ring to force wraparound and pours
  std::uint64_t rng = 42;
  std::vector<std::pair<EvKey, int>> ref;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  int payload = 0;
  // Interleave pushes and pops the way a simulation would: future-only
  // pushes relative to the last popped time.
  for (int round = 0; round < 2000; ++round) {
    const int pushes = static_cast<int>(lcg(rng) % 4);
    for (int i = 0; i < pushes; ++i) {
      // Mix near deltas with occasional far-future ones (timer backoffs).
      const std::int64_t delta =
          (lcg(rng) % 16 == 0) ? static_cast<std::int64_t>(lcg(rng) % 40'000'000)
                               : static_cast<std::int64_t>(lcg(rng) % 30'000);
      const EvKey k{now + delta, ++seq};
      q.push(k, ++payload);
      ref.emplace_back(k, payload);
    }
    if (!q.empty() && lcg(rng) % 3 != 0) {
      EvKey k;
      const int v = q.pop(&k);
      std::sort(ref.begin(), ref.end());
      ASSERT_EQ(k.t, ref.front().first.t);
      ASSERT_EQ(k.seq, ref.front().first.seq);
      ASSERT_EQ(v, ref.front().second);
      ref.erase(ref.begin());
      now = k.t;
    }
  }
  while (!q.empty()) {
    EvKey k;
    const int v = q.pop(&k);
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(v, ref.front().second);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_GT(q.stats().pours, 0);  // the far-future deltas forced overflow
  EXPECT_GT(q.stats().pushedOverflow, 0);
}

TEST(CalendarQueue, FarFutureEventsWidenBuckets) {
  Q q(4096, 16);
  // One near event, then events pushed ever farther out: the pour path must
  // re-base the ring and double the width rather than iterating bucket by
  // bucket to the horizon.
  q.push({10, 1}, 1);
  q.push({1'000'000'000, 2}, 2);   // 1 s
  q.push({30'000'000'000, 3}, 3);  // 30 s
  EvKey k;
  EXPECT_EQ(q.pop(&k), 1);
  EXPECT_EQ(q.pop(&k), 2);
  EXPECT_EQ(k.t, 1'000'000'000);
  EXPECT_EQ(q.pop(&k), 3);
  EXPECT_TRUE(q.empty());
  EXPECT_GT(q.stats().widthDoublings, 0);
  EXPECT_GT(q.bucketWidthNs(), 4096);
}

TEST(CalendarQueue, PeekKeyTracksHead) {
  Q q;
  EXPECT_EQ(q.peekKey(), nullptr);
  q.push({500, 2}, 1);
  ASSERT_NE(q.peekKey(), nullptr);
  EXPECT_EQ(q.peekKey()->t, 500);
  q.push({100, 3}, 2);  // earlier head
  EXPECT_EQ(q.peekKey()->t, 100);
  q.pop();
  EXPECT_EQ(q.peekKey()->t, 500);
  q.pop();
  EXPECT_EQ(q.peekKey(), nullptr);
}

#if GTEST_HAS_DEATH_TEST
// The ordering contract is checked on every pop, so a caller that breaks it
// aborts instead of silently dispatching events out of (t, seq) order.
TEST(CalendarQueue, PopOutOfOrderIsFatal) {
  EXPECT_DEATH(
      {
        Q q;
        q.push({500, 2}, 1);
        q.pop();
        q.push({400, 3}, 2);  // behind the last pop
        q.pop();
      },
      "popped a key out of");
  EXPECT_DEATH(
      {
        Q q;
        q.push({500, 2}, 1);
        q.push({500, 2}, 2);  // the same key twice
        q.pop();
        q.pop();
      },
      "popped a key out of");
}
#endif

TEST(CalendarQueue, DepthAndPlacementStats) {
  Q q;
  for (int i = 0; i < 100; ++i)
    q.push({static_cast<std::int64_t>(i) * 1000, static_cast<std::uint64_t>(i + 1)}, i);
  EXPECT_EQ(q.size(), 100);
  EXPECT_EQ(q.stats().peakDepth, 100);
  // 4096 ns buckets: events 0..3 share the cursor's bucket, the rest
  // spread over the ring.
  EXPECT_GT(q.stats().pushedRing, 0);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.stats().peakDepth, 100);  // peak survives the drain
}

}  // namespace
}  // namespace pods::sim
