// Engine-agnostic reliable-delivery protocol core.
//
// Three drivers carry cross-PE messages over a lossy network: the
// simulator's Routing Unit (simulated time), the native InboxTransport
// (wall-clock retransmit daemon) and the native UdpTransport (per-link
// windows, link_window.hpp). Each keeps a message's attempt count beside
// the message it already holds and decides retransmit or give-up through
// the one RetryPolicy (support/fault.hpp). What they share here is the
// receive side, the canonical counter names and the link msgId packing.
// The core is pure, thread-free and clock-free. Drivers own threads,
// clocks, sockets and — critically — the fault-injection dice: the
// simulator numbers transmissions in deterministic event order and its
// bit-exact fault schedules depend on that ordering, so FaultPlan rolls
// stay outside this file.
//
// The protocol every driver implements:
//   * Sender: every in-flight message has a 1-based attempt count. A
//     timeout either retransmits with exponential backoff (RetryPolicy:
//     rto << min(attempt-1, cap)) or gives up after maxAttempts with a
//     structured error — never silent loss. Stale timeouts (message already
//     acked, or superseded by a newer retransmit timer) are ignored.
//   * Receiver dedup: tokens carry msgIds; redelivery of a seen msgId is
//     suppressed (and re-acked by drivers that ack at all, healing lost
//     acks). Single-assignment slots make redelivery of *data* harmless;
//     dedup is what protects the non-idempotent tokens (ADDC counters,
//     spawn-by-token).
//   * Counter accounting: one canonical `net.*` / `fault.*` namespace, zero
//     registered up front so both engines emit the identical *set* of
//     counter names whether or not an event ever fired.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

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

/// One PE's receive ledger: the msgIds it has seen. The simulator keeps one
/// per PE and each native worker one; a native worker consults it only on
/// the inbox transport, the one transport that can hand it two copies of a
/// token (the UDP receive windows drop duplicates before the inbox). What
/// happens to a token past this ledger (straggler triage, replay dedup and
/// the receive log) is the receive core's (runtime/receive.hpp).
class Delivery {
 public:
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

  // ---- Receiver ledger -----------------------------------------------
  /// First delivery of msgId? Counts kDupSuppressed and returns false on a
  /// redelivery. msgId 0 means "not routed through reliable delivery" and
  /// is always fresh.
  bool accept(std::uint64_t msgId);

  /// Fail-stop wipe: a killed PE loses its volatile ledger but its counter
  /// describes history and survives.
  void resetReceiver() { seen_.clear(); }

  // ---- Accounting ----------------------------------------------------
  /// Adds this ledger's counts to `out`, pre-registering zeros for the
  /// protocol counter set so every engine reports the same names.
  void addStats(Counters& out) const;

  /// Zero-register the protocol counter set (kResent, kAcks,
  /// kDupSuppressed, kGiveUps, kStragglers) — for drivers that count
  /// protocol events themselves, as every sender does.
  static void registerProtocolCounters(Counters& out);

  /// Zero-register the injection counters (kFault*) — for drivers that run
  /// fault dice themselves and count the hits.
  static void registerInjectionCounters(Counters& out);

 private:
  std::unordered_set<std::uint64_t> seen_;
  std::int64_t dupSuppressed_ = 0;
};

}  // namespace proto
}  // namespace pods
