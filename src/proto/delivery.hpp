// Engine-agnostic reliable-delivery protocol core.
//
// Three drivers share this per-message state machine: the simulator's
// Routing Unit (simulated time), the native InboxTransport (wall-clock
// retransmit daemon) and the native workers' receive ledgers. The native
// UdpTransport keeps per-link windows instead (link_window.hpp) and shares
// RetryPolicy, the msgId packing and the counter names. The core is pure,
// thread-free, and clock-free: events go in (send / ack / timeout / deliver
// / context-retired), decisions come out (retransmit-at-deadline, give up,
// deposit, suppress duplicate, discard straggler). Drivers own threads,
// clocks, sockets, and — critically — the fault-injection dice: the
// simulator numbers transmissions in deterministic event order and its
// bit-exact fault schedules depend on that ordering, so FaultPlan rolls
// stay outside this class.
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
#include <string>
#include <unordered_map>
#include <unordered_set>

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
/// contexts). Drivers split the halves: the simulator keeps one global
/// sender window in the event queue's timeline and one receiver per PE,
/// the inbox transport one sender, and each native worker one receiver.
class Delivery {
 public:
  Delivery() = default;
  /// `faultsEnabled` selects the base RTO: the configured value under
  /// injection, the lossless floor otherwise (see RetryPolicy).
  Delivery(const RetryPolicy& policy, bool faultsEnabled)
      : policy_(policy), baseRtoUs_(policy.baseRtoUs(faultsEnabled)) {}

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

  // ---- Link msgIds (batched drivers) -----------------------------------
  // A batching driver numbers each (srcPe,dstPe) link's records with a
  // dense 1-based sequence and packs the link into the msgId, so one
  // cumulative ack can retire a prefix of the link's window (SendWindow).

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
  }

  // ---- Accounting ----------------------------------------------------
  /// Count a protocol event the driver observed (acks sent, injected
  /// faults, ...) into this endpoint's ledger under its canonical name.
  void count(const char* name, std::int64_t delta = 1) { counters_.add(name, delta); }

  /// Merge this endpoint's counters into `out`, pre-registering zeros for
  /// the protocol counter set so every engine reports the same names.
  void addStats(Counters& out) const;

  /// Zero-register the protocol counter set (kResent, kAcks,
  /// kDupSuppressed, kGiveUps, kStragglers) — for drivers that count
  /// protocol events outside a Delivery, as the UDP link windows do.
  static void registerProtocolCounters(Counters& out);

  /// Zero-register the injection counters (kFault*) — for drivers that run
  /// fault dice themselves and count hits via count().
  static void registerInjectionCounters(Counters& out);

 private:
  RetryPolicy policy_{};
  double baseRtoUs_ = RetryPolicy{}.rtoUs;
  std::unordered_map<std::uint64_t, int> window_;
  std::unordered_set<std::uint64_t> seen_;
  std::unordered_set<std::uint64_t> retired_;
  Counters counters_;
};

}  // namespace proto
}  // namespace pods
