// Calendar-queue event engine for the discrete-event simulator.
//
// The classic calendar queue (Brown 1988): events are hashed by timestamp
// into fixed-width time buckets arranged in a ring, the current bucket is
// drained through a small binary heap, and events beyond the ring's horizon
// wait in an overflow list that is poured back into the ring when the cursor
// reaches it. Push and pop are O(1) amortized. Each slot holds its key and
// its event by value, so events must be small and trivially copyable: the
// simulator queues a 12-byte header and keeps any event body elsewhere.
//
// Ordering contract: every (t, seq) key pushed is unique and never earlier
// than the last key popped, so pops come out strictly ordered by (t, seq).
// seq is the caller's global push counter. pop() checks the contract: each
// popped key must be strictly after the previous one, so a run that drains
// the queue has provably dispatched every event in sorted (t, seq) order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace pods::sim {

/// Total order on simulator events: earlier simulated time first, push order
/// (sequence number) breaking ties.
struct EvKey {
  std::int64_t t = 0;      ///< simulated nanoseconds
  std::uint64_t seq = 0;   ///< global push order

  friend constexpr bool operator<(const EvKey& a, const EvKey& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
};

/// Engine health/occupancy numbers, surfaced as sim.eventq.* counters.
struct EventQStats {
  std::int64_t peakDepth = 0;       ///< max live entries at any instant
  std::int64_t peakBucket = 0;      ///< largest single bucket ever drained
  std::int64_t pours = 0;           ///< overflow redistributions
  std::int64_t widthDoublings = 0;  ///< bucket-width adaptations
  // Placement census: where pushes landed (current-bucket heap, ring
  // bucket, or overflow) — the per-tier occupancy picture of the calendar.
  std::int64_t pushedNear = 0;
  std::int64_t pushedRing = 0;
  std::int64_t pushedOverflow = 0;
};

template <typename E>
class CalendarQueue {
  static_assert(std::is_trivially_copyable_v<E>,
                "CalendarQueue slots copy events by value");

 public:
  /// `widthNs` must be a power of two (bucket lookup is a shift); `buckets`
  /// must be a power of two as well. Defaults suit the PODS machine model,
  /// whose event deltas are a few microseconds (unit signal 1 us, token
  /// route 19.5 us) with occasional 0.5–32 ms retransmit timers: 4.096 us
  /// buckets x 1024 give a ~4.2 ms ring horizon.
  explicit CalendarQueue(std::int64_t widthNs = 4096, std::size_t buckets = 1024)
      : widthShift_(shiftFor(widthNs)), ring_(buckets), ringMask_(buckets - 1) {
    PODS_CHECK_MSG((buckets & (buckets - 1)) == 0, "bucket count must be a power of two");
  }

  bool empty() const { return live_ == 0; }
  std::int64_t size() const { return live_; }

  /// Key of the next event to pop, or nullptr when empty. O(1) amortized —
  /// this is what the per-step "is the global head earlier than my local
  /// clock" check reads instead of a heap top.
  const EvKey* peekKey() {
    if (!settle()) return nullptr;
    return &cur_.front().key;
  }

  /// Pop the minimum-(t, seq) event. Must be nonempty; aborts when the key
  /// is not strictly after the previously popped one (a push behind the
  /// cursor, or a key pushed twice).
  E pop(EvKey* keyOut = nullptr) {
    PODS_CHECK_MSG(settle(), "pop on empty CalendarQueue");
    const Slot s = cur_.front();
    PODS_CHECK_MSG(!popped_ || last_ < s.key,
                   "CalendarQueue popped a key out of (t, seq) order");
    popped_ = true;
    last_ = s.key;
    std::pop_heap(cur_.begin(), cur_.end(), SlotLater{});
    cur_.pop_back();
    if (keyOut) *keyOut = s.key;
    --live_;
    return s.ev;
  }

  /// Insert `ev` at `key`.
  void push(const EvKey& key, const E& ev) {
    const Slot s{key, ev};
    const std::int64_t b = key.t >> widthShift_;
    if (b <= curBucket_) {
      // Due now (or in the bucket being drained): straight into the heap.
      cur_.push_back(s);
      std::push_heap(cur_.begin(), cur_.end(), SlotLater{});
      ++stats_.pushedNear;
    } else if (b < baseBucket_ + static_cast<std::int64_t>(ring_.size())) {
      ring_[static_cast<std::size_t>(b) & ringMask_].push_back(s);
      ++stats_.pushedRing;
    } else {
      overflow_.push_back(s);
      ++stats_.pushedOverflow;
    }
    ++live_;
    if (live_ > stats_.peakDepth) stats_.peakDepth = live_;
  }

  const EventQStats& stats() const { return stats_; }

  std::int64_t bucketWidthNs() const { return std::int64_t{1} << widthShift_; }

 private:
  struct Slot {
    EvKey key;
    E ev;
  };
  // Max-comparator so std::push_heap/pop_heap realize a min-heap on EvKey.
  struct SlotLater {
    bool operator()(const Slot& a, const Slot& b) const { return b.key < a.key; }
  };

  static std::uint32_t shiftFor(std::int64_t widthNs) {
    PODS_CHECK_MSG(widthNs > 0 && (widthNs & (widthNs - 1)) == 0,
                   "bucket width must be a power of two");
    std::uint32_t s = 0;
    while ((std::int64_t{1} << s) < widthNs) ++s;
    return s;
  }

  /// Advance the cursor until the current-bucket heap holds the minimum.
  /// Returns false iff the queue is empty.
  bool settle() {
    for (;;) {
      if (!cur_.empty()) return true;
      if (live_ == 0) return false;
      // Current bucket exhausted: walk the ring forward.
      const std::int64_t horizon = baseBucket_ + static_cast<std::int64_t>(ring_.size());
      ++curBucket_;
      if (curBucket_ >= horizon) {
        pour();
        continue;
      }
      auto& bucket = ring_[static_cast<std::size_t>(curBucket_) & ringMask_];
      if (bucket.empty()) continue;
      if (static_cast<std::int64_t>(bucket.size()) > stats_.peakBucket)
        stats_.peakBucket = static_cast<std::int64_t>(bucket.size());
      cur_ = std::move(bucket);
      bucket.clear();
      std::make_heap(cur_.begin(), cur_.end(), SlotLater{});
    }
  }

  /// Ring exhausted: re-base it at the earliest overflow event and pour the
  /// overflow back in, doubling the bucket width first when the overflow
  /// spans far beyond one ring revolution (bounds the number of pours for
  /// pathological far-future schedules, e.g. exponential retransmit
  /// backoff).
  void pour() {
    ++stats_.pours;
    std::vector<Slot> pending = std::move(overflow_);
    overflow_.clear();
    if (pending.empty()) {
      baseBucket_ = curBucket_;
      return;
    }
    std::int64_t minT = pending.front().key.t;
    std::int64_t maxT = pending.front().key.t;
    for (const Slot& s : pending) {
      minT = std::min(minT, s.key.t);
      maxT = std::max(maxT, s.key.t);
    }
    // Adapt: if the span would not fit in ~4 ring revolutions, widen.
    while (((maxT - minT) >> widthShift_) >=
           4 * static_cast<std::int64_t>(ring_.size())) {
      ++widthShift_;
      ++stats_.widthDoublings;
    }
    baseBucket_ = curBucket_ = minT >> widthShift_;
    const std::int64_t horizon = baseBucket_ + static_cast<std::int64_t>(ring_.size());
    for (const Slot& s : pending) {
      const std::int64_t b = s.key.t >> widthShift_;
      if (b <= curBucket_) {
        cur_.push_back(s);
      } else if (b < horizon) {
        ring_[static_cast<std::size_t>(b) & ringMask_].push_back(s);
      } else {
        overflow_.push_back(s);
      }
    }
    std::make_heap(cur_.begin(), cur_.end(), SlotLater{});
  }

  std::uint32_t widthShift_;
  std::vector<std::vector<Slot>> ring_;
  std::size_t ringMask_;
  std::vector<Slot> cur_;        // min-heap draining the current bucket
  std::vector<Slot> overflow_;   // events beyond the ring horizon
  std::int64_t baseBucket_ = 0;  // first bucket the ring currently maps
  std::int64_t curBucket_ = 0;   // bucket the cursor is draining
  std::int64_t live_ = 0;        // queued entries
  EvKey last_;                   // key of the last pop (valid when popped_)
  bool popped_ = false;
  EventQStats stats_;
};

}  // namespace pods::sim
