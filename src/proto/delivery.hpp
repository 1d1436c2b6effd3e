// Engine-agnostic reliable-delivery protocol core.
//
// Three drivers share this state machine: the simulator's Routing Unit
// (driving it with simulated time), the native InboxTransport (wall-clock
// retransmit daemon), and the native UdpTransport (wall-clock timer thread
// over real sockets). The core is pure, thread-free, and clock-free: events
// go in (send / ack / timeout / deliver / context-retired), decisions come
// out (retransmit-at-deadline, give up, deposit, suppress duplicate, discard
// straggler). Drivers own threads, clocks, sockets, and — critically — the
// fault-injection dice: the simulator numbers transmissions in deterministic
// event order and its bit-exact fault schedules depend on that ordering, so
// FaultPlan rolls stay outside this class.
//
// The protocol (established across the fault/recovery/transport PRs, now in
// one place):
//   * Sender window: every in-flight message has a 1-based attempt count.
//     A timeout either retransmits with exponential backoff (RetryPolicy:
//     rto << min(attempt-1, cap)) or gives up after maxAttempts with a
//     structured error — never silent loss. Stale timeouts (message already
//     acked, or superseded by a newer retransmit timer) are ignored.
//   * Receiver dedup: tokens carry msgIds; redelivery of a seen msgId is
//     suppressed (and re-acked by drivers that ack at all, healing lost
//     acks). Single-assignment slots make redelivery of *data* harmless;
//     dedup is what protects the non-idempotent tokens (ADDC counters,
//     spawn-by-token).
//   * Straggler triage: contexts are never reused, so a token addressed to
//     a retired (ENDed) context is a reordered duplicate from a previous
//     delivery attempt and is discarded, not an error.
//   * Counter accounting: one canonical `net.*` / `fault.*` namespace, zero
//     registered up front so both engines emit the identical *set* of
//     counter names whether or not an event ever fired.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/fault.hpp"
#include "support/stats.hpp"

namespace pods {
namespace proto {

// Canonical counter names. Drivers must not invent their own spellings for
// these events; everything protocol-level funnels through this table (see
// docs/ARCHITECTURE.md, "Delivery protocol core").
inline constexpr const char* kResent = "net.retx.resent";
inline constexpr const char* kAcks = "net.retx.acks";
inline constexpr const char* kDupSuppressed = "net.retx.dupSuppressed";
inline constexpr const char* kGiveUps = "net.retx.giveUps";
inline constexpr const char* kStragglers = "tokens.straggler";
inline constexpr const char* kFaultDrops = "fault.drops";
inline constexpr const char* kFaultDups = "fault.dups";
inline constexpr const char* kFaultDelays = "fault.delays";
inline constexpr const char* kFaultStalls = "fault.stalls";

/// Canonical per-link counter name: "net.link.F->T.<what>". The native
/// transports count what in {tokens, datagrams, bytes, retx}; the simulator
/// counts tokens, arrayMsgs, pages and retx.
std::string linkCounterName(int fromPe, int toPe, const char* what);

/// What a driver must do when a retransmit timer fires.
struct TimeoutDecision {
  enum class Kind {
    Stale,       ///< message already acked or timer superseded — do nothing
    Retransmit,  ///< send again; re-arm a timer `backoffUs` from now
    GiveUp,      ///< maxAttempts exhausted — surface a structured error
  };
  Kind kind = Kind::Stale;
  int attempt = 0;      ///< attempt count after this decision (1-based)
  double backoffUs = 0.0;  ///< next timer distance (Retransmit only)
};

/// One endpoint's half of the reliable-delivery protocol: a sender window
/// (msgId -> attempt) and/or a receiver ledger (seen msgIds + retired
/// contexts). Drivers may use one instance for both halves (UDP per-PE) or
/// split them (the simulator keeps one global sender window in the event
/// queue's timeline and one receiver per PE).
class Delivery {
 public:
  Delivery() = default;
  /// `faultsEnabled` selects the base RTO: the configured value under
  /// injection, the lossless floor otherwise (see RetryPolicy).
  Delivery(const RetryPolicy& policy, bool faultsEnabled)
      : policy_(policy), baseRtoUs_(policy.baseRtoUs(faultsEnabled)) {}

  const RetryPolicy& policy() const { return policy_; }

  // ---- Sender window -------------------------------------------------
  /// Timeout to arm for a fresh send (attempt 1).
  double initialRtoUs() const { return baseRtoUs_; }

  /// Register a fresh outbound message (attempt 1). msgIds are never
  /// reused, so double-registration indicates a driver bug.
  void onSend(std::uint64_t msgId) { window_[msgId] = 1; }

  /// An acknowledgment arrived; retires the message from the window.
  /// Duplicate / late acks are harmless no-ops.
  void onAck(std::uint64_t msgId);

  bool inFlight(std::uint64_t msgId) const { return window_.count(msgId) != 0; }
  std::size_t windowSize() const { return window_.size(); }

  // ---- Per-link sequence windows (batched drivers) ---------------------
  // A batching driver numbers tokens per (srcPe,dstPe) link with a dense
  // 1-based sequence and packs the link into the msgId so one cumulative
  // ack can retire a whole prefix of the window. The plain onSend/onAck
  // path and these batch entry points share window_ — a driver uses one
  // style per Delivery instance, and a retransmitted token riding a later
  // batch keeps its original msgId, so it is never re-registered (no
  // double entry in the window, no double quiescence charge downstream).

  /// msgId layout: [63:56]=srcPe, [55:48]=dstPe, [47:0]=seq (1-based).
  /// PE ids fit 8 bits (NativeConfig caps workers at 256); seq 1 keeps
  /// msgId nonzero so accept()'s "0 = unrouted" convention still holds.
  static std::uint64_t packLinkMsgId(int srcPe, int dstPe, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(srcPe & 0xFF) << 56) |
           (static_cast<std::uint64_t>(dstPe & 0xFF) << 48) |
           (seq & 0xFFFFFFFFFFFFULL);
  }
  static std::uint64_t linkMsgIdSeq(std::uint64_t msgId) {
    return msgId & 0xFFFFFFFFFFFFULL;
  }
  static std::uint32_t linkMsgIdLink(std::uint64_t msgId) {
    return static_cast<std::uint32_t>(msgId >> 48);
  }

  /// Register `count` fresh consecutive messages (attempt 1 each) starting
  /// at `firstMsgId` — the fresh tokens of one flushed batch. Retransmits
  /// riding the same batch are already in the window and must not be
  /// re-registered.
  void onSendBatch(std::uint64_t firstMsgId, int count);

  /// A cumulative ack for link (srcPe,dstPe) arrived: every seq <= cumSeq
  /// is delivered, plus seq cumSeq+1+i for each set bit i of `bitmap`
  /// (selective acks above the contiguous prefix). Retires all newly-acked
  /// messages and returns their msgIds so the driver can drop buffered
  /// wire images.
  std::vector<std::uint64_t> onCumAck(int srcPe, int dstPe,
                                      std::uint64_t cumSeq,
                                      std::uint64_t bitmap);

  /// Receiver half of the link window: first delivery of (srcPe,dstPe,seq)?
  /// Counts kDupSuppressed and returns false on a redelivery. Unlike the
  /// flat seen_ set this state is bounded by the reordering span: the
  /// contiguous prefix collapses into one cursor.
  bool acceptSeq(int srcPe, int dstPe, std::uint64_t seq);

  /// True when (srcPe,dstPe,seq) has already been recorded by acceptSeq —
  /// the receive-before-deposit ordering assertion (a token must be in the
  /// dedup ledger before its inbox-ring deposit charges quiescence).
  bool seenSeq(int srcPe, int dstPe, std::uint64_t seq) const;

  /// Snapshot of the receive window for composing a cumulative ack:
  /// highest contiguously received seq + bitmap of cum+1..cum+64.
  struct CumAckView {
    std::uint64_t cum = 0;
    std::uint64_t bitmap = 0;
  };
  CumAckView cumAckView(int srcPe, int dstPe) const;

  /// Respawn support (multi-process transport): wipes the sender window of
  /// link (srcPe,dstPe) and returns the seqs that were still in flight, in
  /// order — the driver re-sends their payloads under fresh sequence
  /// numbers once the reborn peer's endpoint is known.
  std::vector<std::uint64_t> resetSendLink(int srcPe, int dstPe);

  /// Respawn support: wipes the receive window of link (srcPe,dstPe) — a
  /// reborn peer renumbers its sends from 1.
  void resetRecvLink(int srcPe, int dstPe);

  /// Lowest sequence still unacked on link (srcPe,dstPe); 0 when the link
  /// is fully drained. Drives the multi-process END-retire barrier (a
  /// frame's End may enter the recovery log only after its sends are safe).
  std::uint64_t lowestUnackedSeq(int srcPe, int dstPe) const;

  /// A retransmit timer fired. `expectedAttempt` guards against stale
  /// timers in drivers whose timer events carry the attempt they were armed
  /// for (the simulator); pass 0 when the driver keeps at most one live
  /// timer per message (the native transports).
  TimeoutDecision onTimeout(std::uint64_t msgId, int expectedAttempt = 0);

  // ---- Receiver ledger -----------------------------------------------
  /// First delivery of msgId? Counts kDupSuppressed and returns false on a
  /// redelivery. msgId 0 means "not routed through reliable delivery" and
  /// is always fresh.
  bool accept(std::uint64_t msgId);

  /// The context finished (END executed); tokens still addressed to it are
  /// stragglers from past delivery attempts.
  void retireCtx(std::uint64_t ctx) { retired_.insert(ctx); }

  /// True (counting kStragglers) when `ctx` has retired and the token must
  /// be discarded.
  bool straggler(std::uint64_t ctx);

  /// Fail-stop wipe: a killed PE loses its volatile ledgers (they rebuild
  /// from the recovery log) but its counters describe history and survive.
  void resetReceiver() {
    seen_.clear();
    retired_.clear();
    linkRecv_.clear();
  }

  // ---- Accounting ----------------------------------------------------
  /// Count a protocol event the driver observed (acks sent, injected
  /// faults, ...) into this endpoint's ledger under its canonical name.
  void count(const char* name, std::int64_t delta = 1) { counters_.add(name, delta); }

  /// Merge this endpoint's counters into `out`, pre-registering zeros for
  /// the protocol counter set so every engine reports the same names.
  void addStats(Counters& out) const;

  /// Zero-register the injection counters (kFault*) — for drivers that run
  /// fault dice themselves and count hits via count().
  static void registerInjectionCounters(Counters& out);

 private:
  /// Per-link receive window: cursor for the contiguous prefix plus the
  /// (sparse, reordering-bounded) set of seqs received above it.
  struct RecvWin {
    std::uint64_t cum = 0;
    std::set<std::uint64_t> above;
  };

  void eraseLinkInFlight(std::uint64_t msgId);

  RetryPolicy policy_{};
  double baseRtoUs_ = RetryPolicy{}.rtoUs;
  std::unordered_map<std::uint64_t, int> window_;
  /// Sender-side mirror of window_ keyed by link, ordered by seq so a
  /// cumulative ack can walk the acked prefix and stop at the first hole.
  std::unordered_map<std::uint32_t, std::set<std::uint64_t>> linkInFlight_;
  std::unordered_map<std::uint32_t, RecvWin> linkRecv_;
  std::unordered_set<std::uint64_t> seen_;
  std::unordered_set<std::uint64_t> retired_;
  Counters counters_;
};

}  // namespace proto
}  // namespace pods
