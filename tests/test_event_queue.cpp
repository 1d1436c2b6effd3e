// Unit tests for the radix-heap event engine (sim/event_queue.hpp): time
// order across re-basings, equal times popping in push order, the EU's
// peek-then-push-earlier pattern, a randomized run against a sorted
// reference, the push- and pop-time contract checks, and the gauges
// surfaced as sim.eventq.* counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace pods::sim {
namespace {

using Q = EventQueue<int>;

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

struct Popped {
  EvKey key;
  int v;
};

Popped popOne(Q& q) {
  Popped p;
  p.v = q.pop(&p.key);
  return p;
}

TEST(EventQueue, OrdersByTimeAcrossRebasings) {
  Q q;
  std::uint64_t rng = 7;
  std::int64_t now = 0;
  std::vector<EvKey> keys;
  const auto popAndRecord = [&] {
    const Popped p = popOne(q);
    keys.push_back(p.key);
    now = p.key.t;
  };
  // Bursts of equal-time events a few microseconds ahead, each with a
  // 1–40 ms timer-like outlier; the pops past a burst re-base.
  for (int round = 0; round < 200; ++round) {
    const auto near = now + 1000 + static_cast<std::int64_t>(lcg(rng) % 20'000);
    for (int i = 0; i < 5; ++i) q.push(near, round);
    const auto far =
        1'000'000 + static_cast<std::int64_t>(lcg(rng) % 39'000'000);
    q.push(now + far, round);
    for (int i = 0; i < 4; ++i) popAndRecord();
  }
  while (!q.empty()) popAndRecord();
  ASSERT_EQ(keys.size(), 200u * 6);
  for (std::size_t i = 1; i < keys.size(); ++i)
    EXPECT_TRUE(keys[i - 1] < keys[i]) << "out of (t, seq) order at " << i;
  EXPECT_GT(q.stats().moves, 0);
}

TEST(EventQueue, TiesPopInPushOrder) {
  Q q;
  // Three times far enough apart to sit in different buckets; each gets
  // events pushed before and after pops that re-base the queue, so ties
  // are moved down (more than once) before they pop.
  q.push(70'000, 0);
  q.push(3'000, 1);
  q.push(70'000, 2);
  q.push(1'000'000, 3);
  q.push(3'000, 4);
  q.push(1'000'000, 5);
  Popped p = popOne(q);  // re-base at 3,000
  EXPECT_EQ(p.key.t, 3'000);
  EXPECT_EQ(p.v, 1);
  q.push(70'000, 6);
  q.push(3'000, 7);
  q.push(1'000'000, 8);
  std::vector<int> order;
  std::vector<std::int64_t> times;
  while (!q.empty()) {
    p = popOne(q);
    order.push_back(p.v);
    times.push_back(p.key.t);
    if (p.v == 2) q.push(1'000'000, 9);  // after a re-base at 70,000
  }
  EXPECT_EQ(order, (std::vector<int>{4, 7, 0, 2, 6, 3, 5, 8, 9}));
  EXPECT_EQ(times, (std::vector<std::int64_t>{3'000, 3'000, 70'000, 70'000,
                                              70'000, 1'000'000, 1'000'000,
                                              1'000'000, 1'000'000}));
  EXPECT_GE(q.stats().moves, 6);
}

TEST(EventQueue, PeekThenPushEarlierThanHeadPopsFirst) {
  // The EU's yield test: peek the head, find it later than the local
  // clock, keep running and push an event earlier than the head. A peek
  // that re-based the queue at the head would reject that push.
  Q q;
  q.push(100, 1);
  q.push(50'000, 2);
  EXPECT_EQ(popOne(q).v, 1);
  const EvKey* head = q.peekKey();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->t, 50'000);
  q.push(1'100, 3);  // e.g. the EU's own Array Manager request at T+1 us
  head = q.peekKey();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->t, 1'100);
  Popped p = popOne(q);
  EXPECT_EQ(p.v, 3);
  EXPECT_EQ(p.key.t, 1'100);
  p = popOne(q);
  EXPECT_EQ(p.v, 2);
  EXPECT_EQ(p.key.t, 50'000);
  EXPECT_EQ(q.peekKey(), nullptr);
}

TEST(EventQueue, PeekKeyIsTheNextPopsKey) {
  Q q;
  EXPECT_EQ(q.peekKey(), nullptr);
  q.push(500, 1);
  q.push(900, 2);
  q.push(500, 3);
  q.push(100, 4);
  while (!q.empty()) {
    const EvKey head = *q.peekKey();
    EXPECT_EQ(head.t, q.peekKey()->t);  // peeking twice changes nothing
    const Popped p = popOne(q);
    EXPECT_EQ(p.key.t, head.t);
    EXPECT_EQ(p.key.seq, head.seq);
  }
  EXPECT_EQ(q.peekKey(), nullptr);
}

TEST(EventQueue, RandomizedMatchesSortedReference) {
  Q q;
  std::uint64_t rng = 42;
  std::vector<std::pair<EvKey, int>> ref;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  int payload = 0;
  const auto popAndCheck = [&] {
    const EvKey* head = q.peekKey();
    ASSERT_NE(head, nullptr);
    const EvKey peeked = *head;
    EvKey k;
    const int v = q.pop(&k);
    const auto it = std::min_element(ref.begin(), ref.end());
    ASSERT_EQ(k.t, it->first.t);
    ASSERT_EQ(k.seq, it->first.seq);
    ASSERT_EQ(v, it->second);
    ASSERT_EQ(peeked.seq, k.seq);
    ref.erase(it);
    now = k.t;
  };
  // Interleave pushes and pops the way a simulation would: pushes at or
  // after the last popped time, some at exactly that time, with occasional
  // far-future ones (timer backoffs).
  for (int round = 0; round < 4000; ++round) {
    const int pushes = static_cast<int>(lcg(rng) % 4);
    for (int i = 0; i < pushes; ++i) {
      const std::uint64_t r = lcg(rng) % 16;
      const std::int64_t delta =
          r == 0   ? static_cast<std::int64_t>(lcg(rng) % 40'000'000)
          : r < 3  ? 0
                   : static_cast<std::int64_t>(lcg(rng) % 30'000);
      q.push(now + delta, ++payload);
      ref.emplace_back(EvKey{now + delta, ++seq}, payload);
    }
    if (!q.empty() && lcg(rng) % 3 != 0) popAndCheck();
  }
  while (!q.empty()) popAndCheck();
  EXPECT_TRUE(ref.empty());
  // Each event moves down at most 63 times.
  EXPECT_GT(q.stats().moves, 0);
  EXPECT_LE(q.stats().moves, 63 * static_cast<std::int64_t>(seq));
}

#if GTEST_HAS_DEATH_TEST
// The contract is checked where it can break: a push behind the last pop (or
// at a negative time) aborts at the push, before it can corrupt the buckets.
TEST(EventQueue, PushBehindLastPopIsFatal) {
  EXPECT_DEATH(
      {
        Q q;
        q.push(500, 1);
        q.pop();
        q.push(400, 2);
      },
      "behind the last pop");
  EXPECT_DEATH(
      {
        Q q;
        q.push(-1, 1);
      },
      "negative time");
}

TEST(EventQueue, PopOnEmptyIsFatal) {
  EXPECT_DEATH(
      {
        Q q;
        q.push(500, 1);
        q.pop();
        q.pop();
      },
      "pop on an empty EventQueue");
}
#endif

TEST(EventQueue, PeakDepth) {
  Q q;
  for (int i = 0; i < 100; ++i) q.push(static_cast<std::int64_t>(i) * 1000, i);
  EXPECT_EQ(q.size(), 100);
  EXPECT_EQ(q.stats().peakDepth, 100);
  for (int i = 0; i < 50; ++i) q.pop();
  for (int i = 0; i < 30; ++i) q.push(200'000, i);
  EXPECT_EQ(q.size(), 80);
  EXPECT_EQ(q.stats().peakDepth, 100);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.stats().peakDepth, 100);  // peak survives the drain
}

}  // namespace
}  // namespace pods::sim
