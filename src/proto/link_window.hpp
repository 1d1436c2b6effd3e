// Per-link sequence windows of the batched reliable-delivery driver (the
// native UdpTransport). It numbers each (src,dst) link's records with a
// dense 1-based sequence (Delivery::packLinkMsgId), the receiver acks them
// cumulatively, and each link keeps one SendWindow at its sender and one
// RecvWindow at its receiver. Like proto::Delivery both are pure values:
// no threads, no clock, no sockets. The driver passes time in as a number
// and guards each window with its link's own lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "support/fault.hpp"

namespace pods {
namespace proto {

/// Sender half of one link: every record from its send until its ack. A
/// slot holds the record's wire image, its attempt count (0 until the batch
/// carrying it first goes out) and its retransmit deadline, counted from
/// when the batch carrying its latest copy goes out. Images sit back to
/// back in seq order; an ack clears its slot in any order, and the low end
/// advances over cleared slots. Bytes are reclaimed when the window
/// empties, or by one compaction once the cleared slots below the low end
/// outnumber the rest, so a warm link allocates nothing. Times are integer
/// nanoseconds on any monotonic clock.
class SendWindow {
 public:
  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  /// `faultsEnabled` selects the base RTO, as for Delivery.
  SendWindow(const RetryPolicy& policy, bool faultsEnabled)
      : policy_(policy), baseRtoUs_(policy.baseRtoUs(faultsEnabled)) {}

  /// Stores the image of `seq`, the link's next seq: live, not transmitted,
  /// so no ack retires it and no deadline covers it.
  void put(std::uint64_t seq, const std::uint8_t* rec, std::size_t len);

  /// The batch carrying every slot waiting for the wire goes out at `now`:
  /// an untransmitted slot becomes attempt 1, due one base RTO later; a
  /// retransmit copied out by expire() is due one backoff later. Returns
  /// the earliest of those deadlines, or kNoDeadline when none was waiting.
  std::int64_t markSent(std::int64_t now);

  /// Cumulative ack: seqs <= cum, plus cum+1+i for each set bit i of
  /// `bitmap`. Retires the transmitted slots it covers; returns how many.
  int ack(std::uint64_t cum, std::uint64_t bitmap);

  struct Expired {
    std::size_t bytes = 0;  ///< image bytes appended to `out`
    int records = 0;        ///< images appended, one retransmit each
    int giveUps = 0;        ///< slots retired at maxAttempts
    int gaveUpAttempt = 0;  ///< attempt count of the last of them
    bool full = false;      ///< a due image did not fit: ship, scan again
  };

  /// Retransmit scan at `now`, deciding each transmitted slot due by then
  /// through the RetryPolicy: one that has had maxAttempts is retired as a
  /// give-up; any other has its image appended to `out` (`room` bytes at
  /// most) and its attempt bumped, and waits for markSent() to start its
  /// backoff. Stops at the first due image that does not fit; the slots
  /// handled are no longer due, so the driver ships `out` and scans again.
  Expired expire(std::int64_t now, std::uint8_t* out, std::size_t room);

  /// Live slots: stored or transmitted, not yet acked.
  std::size_t live() const { return live_; }
  /// The lowest live seq; 0 when the window is empty.
  std::uint64_t lowestLive() const {
    return head_ < slots_.size() ? base_ : 0;
  }
  /// The earliest deadline of a transmitted live slot, or kNoDeadline.
  std::int64_t nextDue() const;

  /// One slot as tests inspect it.
  struct SlotView {
    const std::uint8_t* image = nullptr;  ///< nullptr: `seq` is not live
    std::size_t len = 0;
    int attempt = 0;
    std::int64_t due = 0;  ///< kNoDeadline: a retransmit awaits markSent()
  };
  SlotView slot(std::uint64_t seq) const;

 private:
  struct Slot {
    std::uint32_t off;  // into bytes_
    std::uint32_t len;  // 0: retired
    std::int32_t attempt;
    std::int64_t due;
  };

  /// Index of `seq`'s slot, or slots_.size() when outside the window.
  std::size_t indexOf(std::uint64_t seq) const;
  /// Moves the low end past retired slots.
  void advance();
  std::int64_t backoffNs(int attempt) const;

  RetryPolicy policy_;
  double baseRtoUs_;
  std::uint64_t base_ = 1;  // seq of slots_[head_]
  std::size_t head_ = 0;    // first slot still in the window
  std::size_t live_ = 0;
  std::size_t unsent_ = 0;  // untransmitted: always the last slots
  std::vector<std::uint64_t> requeued_;  // seqs expire() copied out
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> bytes_;
};

/// A receive window's cumulative ack: the highest contiguously received
/// seq and a bitmap of cum+1..cum+64.
struct CumAckView {
  std::uint64_t cum = 0;
  std::uint64_t bitmap = 0;
};

/// Receiver half of one link: a cursor over the contiguous prefix and the
/// set of seqs above it, so the state is bounded by the reordering span.
class RecvWindow {
 public:
  /// First arrival of `seq`? False on a redelivery.
  bool acceptSeq(std::uint64_t seq);
  bool seenSeq(std::uint64_t seq) const {
    return seq <= cum_ || above_.count(seq) != 0;
  }
  CumAckView cumAckView() const;

 private:
  std::uint64_t cum_ = 0;
  std::set<std::uint64_t> above_;
};

}  // namespace proto
}  // namespace pods
