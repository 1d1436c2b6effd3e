// Radix-heap event engine for the discrete-event simulator.
//
// A radix heap (Ahuja, Mehlhorn, Orlin and Tarjan 1990) is a priority queue
// for monotone integer keys: nothing is pushed behind the last pop, which the
// simulator guarantees, since an event only ever schedules events at or after
// its own time. Bucket 0 holds the events at exactly the base time (the last
// popped time); bucket k >= 1 holds the events whose time first differs from
// the base in bit k-1. A push appends to its bucket in O(1). A pop takes
// bucket 0 front to back; when bucket 0 is empty, the queue re-bases at the
// minimum of the lowest occupied bucket and moves that bucket's events down
// into lower buckets. An event moves at most 63 times, so pop is O(1)
// amortized. Each slot holds its key and its event by value, so events must
// be small and trivially copyable: the simulator queues a 12-byte header and
// keeps any event body elsewhere.
//
// Ordering contract: pops come out strictly ordered by (t, seq), where seq is
// the queue's own push counter, so equal times pop in push order. Equal times
// always share a bucket, and appends and moves keep a bucket's order, so this
// holds by construction. push() aborts on a time behind the last pop (or a
// negative one), and pop() checks each key is strictly after the previous
// one, so a run that drains the queue has provably dispatched every event in
// sorted (t, seq) order.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace pods::sim {

/// Total order on simulator events: earlier simulated time first, push order
/// (sequence number) breaking ties.
struct EvKey {
  std::int64_t t = 0;      ///< simulated nanoseconds
  std::uint64_t seq = 0;   ///< the queue's push order

  friend constexpr bool operator<(const EvKey& a, const EvKey& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
};

/// Engine numbers, surfaced as sim.eventq.* counters.
struct EventQStats {
  std::int64_t peakDepth = 0;  ///< max live entries at any instant
  std::int64_t moves = 0;      ///< events moved down by re-basing
};

template <typename E>
class EventQueue {
  static_assert(std::is_trivially_copyable_v<E>,
                "EventQueue slots copy events by value");

 public:
  bool empty() const { return live_ == 0; }
  std::int64_t size() const { return live_; }

  /// Key of the next event to pop, or nullptr when empty; valid until the
  /// next push or pop. Never re-bases: a caller may peek and then push an
  /// event earlier than the head (but not behind the last pop).
  const EvKey* peekKey() const {
    if (head_ < buckets_[0].size()) return &buckets_[0][head_].key;
    if (occupied_ == 0) return nullptr;
    const int k = std::countr_zero(occupied_);
    return &buckets_[k][minAt_[k]].key;
  }

  /// Pop the minimum-(t, seq) event. Must be nonempty; aborts when the key
  /// is not strictly after the previously popped one.
  E pop(EvKey* keyOut = nullptr) {
    if (head_ == buckets_[0].size()) rebase();
    const Slot s = buckets_[0][head_];
    if (++head_ == buckets_[0].size()) {
      buckets_[0].clear();
      head_ = 0;
    }
    PODS_CHECK_MSG(!popped_ || last_ < s.key,
                   "EventQueue popped a key out of (t, seq) order");
    popped_ = true;
    last_ = s.key;
    if (keyOut) *keyOut = s.key;
    --live_;
    return s.ev;
  }

  /// Insert `ev` at time `t`, after every event already queued at `t`.
  void push(std::int64_t t, const E& ev) {
    // base_ starts at 0 and is the last popped time after the first pop.
    PODS_CHECK_MSG(t >= base_,
                   "EventQueue push at a negative time or behind the last pop");
    append(Slot{{t, ++seq_}, ev});
    ++live_;
    if (live_ > stats_.peakDepth) stats_.peakDepth = live_;
  }

  const EventQStats& stats() const { return stats_; }

 private:
  struct Slot {
    EvKey key;
    E ev;
  };

  /// Append to the slot's bucket relative to base_, tracking the bucket's
  /// minimum (its first slot of the earliest time) for peekKey(). Forced
  /// inline: it is the per-event work of both push() and rebase().
  [[gnu::always_inline]] void append(const Slot& s) {
    const auto diff = static_cast<std::uint64_t>(s.key.t ^ base_);
    const int k = diff == 0 ? 0 : 64 - std::countl_zero(diff);
    std::vector<Slot>& b = buckets_[k];
    if (k != 0) {
      if (b.empty() || s.key.t < minT_[k]) {
        minAt_[k] = b.size();
        minT_[k] = s.key.t;
      }
      occupied_ |= std::uint64_t{1} << k;
    }
    b.push_back(s);
  }

  /// Bucket 0 is exhausted: re-base at the minimum of the lowest occupied
  /// bucket k and move its events down, in order. They all land below k,
  /// and buckets above k keep their index, since the new base agrees with
  /// the old one on every bit that places them.
  void rebase() {
    PODS_CHECK_MSG(occupied_ != 0, "pop on an empty EventQueue");
    const int k = std::countr_zero(occupied_);
    occupied_ &= occupied_ - 1;
    base_ = minT_[k];
    std::vector<Slot>& src = buckets_[k];
    for (const Slot& s : src) append(s);
    stats_.moves += static_cast<std::int64_t>(src.size());
    src.clear();
  }

  std::array<std::vector<Slot>, 64> buckets_;
  // Bucket k's minimum time and the index of its first slot at that time
  // (k >= 1, valid while bucket k is nonempty).
  std::array<std::int64_t, 64> minT_{};
  std::array<std::size_t, 64> minAt_{};
  std::uint64_t occupied_ = 0;   // bit k set iff bucket k >= 1 is nonempty
  std::size_t head_ = 0;         // next slot to pop in bucket 0
  std::int64_t base_ = 0;        // bucket 0's time
  std::uint64_t seq_ = 0;        // push counter
  std::int64_t live_ = 0;        // queued entries
  EvKey last_;                   // key of the last pop (valid when popped_)
  bool popped_ = false;
  EventQStats stats_;
};

}  // namespace pods::sim
