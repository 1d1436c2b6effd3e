// Fail-stop recovery state shared by the simulated and native engines; the
// rules that write and replay it are in runtime/{receive,sp_exec}.hpp.
//
// PODS needs no checkpoints to survive a PE fail-stop: single assignment
// (I-structure arrays, write-once frame slots) makes re-execution of a lost
// frame produce bit-identical tokens, so recovery is "message logging +
// deterministic replay" in its cheapest form. Each PE keeps an ordered
// *receive log* of every token delivered to it (the allocate/spawn log of
// the ROADMAP: spawn-by-token IS frame allocation here) plus a mint log of
// the identities it handed out (NEWCTX context ids, ALLOC array ids). On
// restart the PE
//   1. rebuilds its frame table by replaying the receive log in order —
//      context-addressed tokens recreate frames at their original indices
//      (and original generations in the native engine), END records turn
//      frames back into retired stubs and their contexts back into retired
//      match-table entries, so straggler continuations and context tokens
//      still resolve to "dead" instead of aliasing or respawning;
//   2. re-executes every frame that was live at the kill from pc 0; the
//      mint log makes NEWCTX/ALLOC idempotent (the n-th mint by a given
//      context returns its original identity), and array writes /
//      RESULT stores of an already-present identical value are no-ops;
//   3. holds back logged *continuation-addressed* deliveries (call results,
//      loop yields, join-counter increments) and re-delivers them only when
//      the re-executing frame re-sends to the original sender's context —
//      this keeps multi-round slots (CLEARed once per call) from being
//      filled with a later round's value before the earlier round re-runs.
//
// Duplicate suppression under replay cannot use message ids (a re-executed
// send is a *new* message carrying an old payload), so in kill mode every
// token also carries a logical send key: context-addressed tokens are
// deduplicated by (target ctx, slot) — each argument of each context is
// sent exactly once per instance — and continuation-addressed tokens by
// (sender ctx, sender PE, per-frame send sequence), which deterministic
// re-execution reproduces exactly.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/value.hpp"

namespace pods {

/// One record of the per-PE receive log.
struct RecEntry {
  enum class Kind : std::uint8_t {
    Boot,      // the bootstrap main frame (created without a spawn token)
    CtxToken,  // context-addressed delivery (spawn/call argument)
    ConToken,  // continuation-addressed delivery (result / yield / join add)
    End,       // frame retirement (its ctx is retired in the match table)
    Recv,      // multi-process: wire-accepted inbound token (msgId only) —
               // replayed to rebuild the UDP receive/ack windows so a
               // survivor's old-numbered retransmits still dedup and ack
    Am,        // wire array store (multi-process): a serviced array message
               // (AmKind in spCode; ctx = array id, senderCtx = offset,
               // v = value, sendKey = packed requester continuation, slot =
               // requester PE / rank) or the allocator's AllocMeta shape
               // record. Replayed to rebuild the PE's owned-element map,
               // parked deferred reads, and shape table — re-applied writes
               // are idempotent identical overwrites, re-answered reads and
               // shape queries are deduplicated at the requester.
  };
  Kind kind = Kind::CtxToken;
  std::uint16_t spCode = 0;    // Boot / frame-creating CtxToken
  std::uint64_t ctx = 0;       // target ctx (Boot/CtxToken/End)
  std::uint16_t slot = 0;      // target slot (CtxToken) — ConToken uses cont
  Value v{};
  bool add = false;            // ConToken: accumulate instead of set
  std::uint32_t frame = 0;     // ConToken target / CtxToken created index
  std::uint16_t gen = 0;       // native: generation at creation / targeting
  std::uint64_t senderCtx = 0; // ConToken: sending frame's context
  std::uint64_t sendKey = 0;   // ConToken: (sender PE << 32 | sender seq)
  std::uint64_t msgId = 0;     // network message id (0 for local sends)
};

/// Per-PE stable recovery state. Conceptually this lives off-PE (stable
/// storage / the surviving fabric); in-process it is owned by the machine
/// Impl so a kill that wipes the PE's volatile state leaves it intact.
struct RecoveryLog {
  std::vector<RecEntry> entries;
  /// Mint log: identities handed out by frames of this PE, keyed by
  /// (minting context, per-frame mint sequence). The sequence number is
  /// stamped in program order, but records can *land* out of order: a
  /// NEWCTX mint is recorded inline while an ALLOC mint is recorded when
  /// the Array Manager gets to the request, so the map is keyed by the
  /// exact sequence rather than append order.
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint32_t, Value>>
      mints;
  /// High-water of the PE's context counter, persisted so a restarted PE
  /// never re-mints a context id already given out before the kill.
  std::uint64_t ctxCounter = 0;

  void recordMint(std::uint64_t ctx, std::uint32_t seq, const Value& v) {
    mints[ctx].emplace(seq, v);  // replayed mints keep the original identity
  }
  const Value* findMint(std::uint64_t ctx, std::uint32_t seq) const {
    auto it = mints.find(ctx);
    if (it == mints.end()) return nullptr;
    auto jt = it->second.find(seq);
    return jt == it->second.end() ? nullptr : &jt->second;
  }
};

/// Receiver-side logical dedup for kill mode (exactly-once delivery that is
/// stable under sender re-execution). Every PE keeps one — survivors need it
/// to absorb a restarted neighbor's re-sent tokens.
///
/// Both ledgers are keyed by the *consuming* context so retire() can shed an
/// instance's keys the moment it ENDs. That is sound because the receive
/// core (runtime/receive.hpp) checks frame liveness before consulting dedup:
/// a late duplicate addressed to a retired instance is dropped (dead frame)
/// or triaged as a straggler before the pruned entry would ever be missed.
/// Without pruning the ledgers grow with the total instance count of the
/// run; with it they are bounded by the number of concurrently-live
/// instances.
struct ReplayDedup {
  // (target ctx) -> slots already filled by a context-addressed token.
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint32_t>> ctxSlots;
  // (consumer ctx) -> (sender ctx) ->
  //     (sender PE << 32 | per-frame send seq) already applied.
  std::unordered_map<
      std::uint64_t,
      std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>>
      contKeys;

  /// True the first time this context-addressed (ctx, slot) is seen.
  bool firstCtx(std::uint64_t ctx, std::uint16_t slot) {
    return ctxSlots[ctx].insert(slot).second;
  }
  /// True the first time consumer `consumerCtx` sees this (sender ctx,
  /// send key) pair.
  bool firstCont(std::uint64_t consumerCtx, std::uint64_t senderCtx,
                 std::uint64_t sendKey) {
    return contKeys[consumerCtx][senderCtx].insert(sendKey).second;
  }
  /// The instance ENDed: release everything keyed by it.
  void retire(std::uint64_t ctx) {
    ctxSlots.erase(ctx);
    contKeys.erase(ctx);
  }
  /// Ledger residency (for the bounded-recovery-state counters/tests).
  std::int64_t liveKeys() const {
    std::int64_t n = 0;
    for (const auto& [ctx, slots] : ctxSlots)
      n += static_cast<std::int64_t>(slots.size());
    for (const auto& [ctx, senders] : contKeys)
      for (const auto& [sender, keys] : senders)
        n += static_cast<std::int64_t>(keys.size());
    return n;
  }
  void clear() {
    ctxSlots.clear();
    contKeys.clear();
  }
};

inline std::uint64_t packSendKey(int pe, std::uint32_t seq) {
  return (std::uint64_t(std::uint32_t(pe)) << 32) | seq;
}

}  // namespace pods
