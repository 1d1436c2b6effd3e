// The receive core shared by the simulator (src/sim) and the native engine
// (src/native): what a PE does when a token reaches it (receive), when one
// of its frames ENDs (retire), and when it rebuilds itself from its receive
// log after a fail-stop (rebuild).
//
// The paper's Matching Unit (section 5.1) creates an SP's frame when the
// first token for its (SP, context) arrives. Fail-stop recovery
// (support/recovery.hpp) adds four rules around that match, written here
// once: straggler triage (a context token that finds its context retired
// in the match table is discarded: contexts are never reused, so the
// instance ended without it; such tokens come from reordering by injected
// delays and retransmits and, after a kill, from re-sends of re-executed
// frames and deliveries held while the PE was down), replay dedup by
// logical send key, parking a keyed reply for a replaying frame until that
// frame re-sends to the reply's sender, and the receive log that rebuild()
// replays. Under recovery every token but an unkeyed continuation fill (an
// Array Manager or wake-up reply, which a replayed read regenerates) is
// deduplicated and logged.
//
// The rules bind to each engine through the adapter the SP executor's run()
// uses (sp_exec.hpp), whose inline hooks add:
//
//   liveFrame(idx)          the live frame stored at idx; nullptr past the
//                           frame table or for a dead frame
//   wellFormed(tok, f)      whether a sender can have built tok (f: the
//                           frame it names, or nullptr); counts the rest
//   drop(why)               count a discarded token
//   spawn(spCode, ctx)      make a frame for a context's first token;
//                           kNoFrame when the frame table is full
//   logRecord(e)            append e to the receive log
//   parkedEarly()           count a reply parked for a replaying frame
//   wake(idx, f, slot)      requeue f if it blocked on slot
//   tracksStragglers()      keep retired contexts in the match table
//   retiredEntry(idx)       the match-table value of the retired frame idx
//   holdsEnd()              the End record waits for an END barrier
//   restore(e)              rebuild the frame a Boot or CtxToken record made
//   restoreEnd(f)           retire a rebuilt frame again at its End record
//   replayRecord(e)         replay an engine's own record kind (Recv, Am)
#pragma once

#include <cstdint>
#include <unordered_map>

#include "runtime/sp_exec.hpp"
#include "runtime/value.hpp"
#include "support/check.hpp"
#include "support/recovery.hpp"

namespace pods {

/// Why receive() discarded a token.
enum class Drop : std::uint8_t {
  Stale,      // a continuation into a frame that is gone
  ReplayDup,  // a copy of a logical token already applied
  Straggler,  // a context token for a retired context
};

/// spawn()'s answer when the engine could not make a frame (it reported why).
inline constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};

/// One PE's receive state. It is volatile: a fail-stop wipes it, and
/// rebuild() restores it from the receive log.
struct ReceiveState {
  /// The Matching Unit's table: context -> frame. Where stragglers are
  /// tracked, a retired context keeps its entry, holding a value that
  /// liveFrame() resolves to no frame (retiredEntry()).
  std::unordered_map<std::uint64_t, std::uint32_t> match;
  /// Logical exactly-once filter under recovery.
  ReplayDedup dedup;
  /// Logged continuation deliveries held for a replaying frame.
  ParkedReplies parked;
  /// Stragglers discarded (tokens.straggler). History, so a wipe keeps it.
  std::int64_t stragglers = 0;

  void wipe() {
    match.clear();
    dedup.clear();
    parked.clear();
  }
};

/// The log record of a token applied (or parked) into frame `frameIdx` of
/// generation `gen`.
template <class Tok>
RecEntry receiveRecord(const Tok& tok, std::uint32_t frameIdx,
                       std::uint16_t gen) {
  RecEntry e;
  e.frame = frameIdx;
  e.gen = gen;
  e.v = tok.v;
  if (tok.toCont) {
    e.kind = RecEntry::Kind::ConToken;
    e.slot = tok.cont.slot;
    e.add = tok.add;
    e.senderCtx = tok.senderCtx;
    e.sendKey = tok.sendKey;
  } else {
    e.kind = RecEntry::Kind::CtxToken;
    e.spCode = tok.spCode;
    e.ctx = tok.ctx;
    e.slot = tok.slot;
  }
  return e;
}

/// The live frame a continuation token names, or nullptr (counted as a
/// stale drop) when that frame has retired or its storage holds another
/// instance.
template <class Engine, class Tok>
[[gnu::always_inline]] inline auto replyTarget(Engine& E, const Tok& tok) {
  auto* f = E.liveFrame(tok.cont.frame);
  if (f != nullptr && f->gen == tok.cont.gen) return f;
  E.drop(Drop::Stale);
  return decltype(f){nullptr};
}

/// Logs keyed continuation token `tok` for frame `frameIdx` and holds it
/// until that frame re-sends to the token's sender context.
template <class Engine, class Tok>
void parkReply(Engine& E, ReceiveState& R, const Tok& tok,
               std::uint32_t frameIdx, std::uint16_t gen) {
  R.parked[tok.senderCtx].push_back(E.recoveryLog()->entries.size());
  E.logRecord(receiveRecord(tok, frameIdx, gen));
}

/// A PE's Matching Unit: delivers `tok` to its frame, spawning the frame for
/// a context's first token, under the rules above. Forced inline into each
/// engine's per-token path, as run() is into its slice loop.
template <class Engine, class Tok>
[[gnu::always_inline]] inline void receive(Engine& E, ReceiveState& R,
                                          const Tok& tok) {
  RecoveryLog* const L = E.recoveryLog();
  decltype(E.liveFrame(0)) f = nullptr;
  std::uint32_t frameIdx;
  std::uint16_t slot;
  if (tok.toCont) {
    frameIdx = tok.cont.frame;
    slot = tok.cont.slot;
    f = replyTarget(E, tok);
    if (f == nullptr || !E.wellFormed(tok, f)) return;
    if (L != nullptr && tok.sendKey != 0) {
      // The ledger is keyed by the consuming context, which is live here,
      // so END can shed an instance's keys.
      if (!R.dedup.firstCont(f->ctx, tok.senderCtx, tok.sendKey)) {
        E.drop(Drop::ReplayDup);
        return;
      }
      if (f->replaying && !f->sentTo(tok.senderCtx)) {
        parkReply(E, R, tok, frameIdx, f->gen);
        E.parkedEarly();
        return;
      }
    }
  } else {
    const auto it = R.match.find(tok.ctx);
    const bool matched = it != R.match.end();
    f = matched ? E.liveFrame(it->second) : nullptr;
    if (!E.wellFormed(tok, f)) return;
    if (matched && f == nullptr) {
      ++R.stragglers;
      E.drop(Drop::Straggler);
      return;
    }
    if (L != nullptr && !R.dedup.firstCtx(tok.ctx, tok.slot)) {
      E.drop(Drop::ReplayDup);
      return;
    }
    if (matched) {
      frameIdx = it->second;
    } else {
      frameIdx = E.spawn(tok.spCode, tok.ctx);
      if (frameIdx == kNoFrame) return;
      R.match.emplace(tok.ctx, frameIdx);
      f = E.liveFrame(frameIdx);
    }
    slot = tok.slot;
  }
  if (L != nullptr && !(tok.toCont && tok.sendKey == 0))
    E.logRecord(receiveRecord(tok, frameIdx, f->gen));
  f->apply(slot, tok.v, tok.add);
  E.wake(frameIdx, *f, slot);
}

/// A continuation token that reached the PE while it was down, re-injected
/// at its restart: the only copy left, since its sender was acked before
/// the kill. It is parked, whatever the frame's replay state, so it re-applies
/// in program order; a stale one is dropped, and a copy of a token the log
/// already holds is released uncounted.
template <class Engine, class Tok>
void parkHeldReply(Engine& E, ReceiveState& R, const Tok& tok) {
  auto* f = replyTarget(E, tok);
  if (f != nullptr && R.dedup.firstCont(f->ctx, tok.senderCtx, tok.sendKey))
    parkReply(E, R, tok, tok.cont.frame, f->gen);
}

/// Enters main's frame `frameIdx`, which no token spawns, in the match table,
/// logging a Boot record in its place so a rebuild can restore it.
template <class Engine>
void bootMain(Engine& E, ReceiveState& R, std::uint16_t spCode,
              std::uint64_t ctx, std::uint32_t frameIdx) {
  if (E.recoveryLog() != nullptr) {
    RecEntry e;
    e.kind = RecEntry::Kind::Boot;
    e.spCode = spCode;
    e.ctx = ctx;
    e.frame = frameIdx;
    e.gen = E.liveFrame(frameIdx)->gen;
    E.logRecord(e);
  }
  R.match.emplace(ctx, frameIdx);
}

/// Marks the context at match entry `it`, whose frame `frameIdx` retired:
/// a retired entry where stragglers are tracked, no entry elsewhere.
template <class Engine>
void markRetired(Engine& E, ReceiveState& R,
                 std::unordered_map<std::uint64_t, std::uint32_t>::iterator it,
                 std::uint32_t frameIdx) {
  if (E.tracksStragglers()) {
    it->second = E.retiredEntry(frameIdx);
  } else {
    R.match.erase(it);
  }
}

/// Writes context `ctx`'s End record and sheds its minted identities, which
/// nothing can consult again.
template <class Engine>
void writeEnd(Engine& E, std::uint64_t ctx) {
  RecEntry e;
  e.kind = RecEntry::Kind::End;
  e.ctx = ctx;
  E.logRecord(e);
  E.recoveryLog()->mints.erase(ctx);
}

/// Frame `frameIdx` of context `ctx` executed END. Tokens to a retired
/// instance are dropped or triaged as stragglers before the replay ledger is
/// consulted, so the context's keys go now, and its End record too unless
/// the engine holds it behind a barrier (it then calls writeEnd itself).
template <class Engine>
void retire(Engine& E, ReceiveState& R, std::uint64_t ctx,
            std::uint32_t frameIdx) {
  if (E.recoveryLog() != nullptr) {
    R.dedup.retire(ctx);
    if (!E.holdsEnd()) writeEnd(E, ctx);
  }
  const auto it = R.match.find(ctx);
  PODS_CHECK_MSG(it != R.match.end(), "retiring an unmatched context");
  markRetired(E, R, it, frameIdx);
}

/// Restores a wiped PE's receive state and frames from its receive log, in
/// log order: Boot and CtxToken records recreate frames at their original
/// indices and refill their context slots, ConToken records re-enter the
/// replay ledger and are parked for their consumer's re-send, and End
/// records retire their frames again. A consumer retired later in the log
/// never re-sends, so its parked replies go. Every rebuilt frame replays
/// from pc 0; the engine requeues the live ones.
template <class Engine>
void rebuild(Engine& E, ReceiveState& R) {
  RecoveryLog& L = *E.recoveryLog();
  for (std::size_t i = 0; i < L.entries.size(); ++i) {
    const RecEntry& e = L.entries[i];
    switch (e.kind) {
      case RecEntry::Kind::Boot:
      case RecEntry::Kind::CtxToken: {
        auto it = R.match.find(e.ctx);
        if (it == R.match.end()) {
          it = R.match.emplace(e.ctx, E.restore(e)).first;
          E.liveFrame(it->second)->replaying = true;
        }
        if (e.kind == RecEntry::Kind::Boot) break;
        auto* f = E.liveFrame(it->second);
        PODS_CHECK_MSG(f != nullptr,
                       "recovery log delivers to a retired context");
        R.dedup.firstCtx(e.ctx, e.slot);
        f->slots[e.slot] = e.v;
        break;
      }
      case RecEntry::Kind::ConToken: {
        // By log order the consumer exists in the incarnation the record
        // names: its creating record precedes every delivery into it.
        const auto* f = E.liveFrame(e.frame);
        PODS_CHECK_MSG(f != nullptr,
                       "replayed delivery targets an unknown frame");
        R.dedup.firstCont(f->ctx, e.senderCtx, e.sendKey);
        R.parked[e.senderCtx].push_back(i);
        break;
      }
      case RecEntry::Kind::End: {
        const auto it = R.match.find(e.ctx);
        auto* f = it == R.match.end() ? nullptr : E.liveFrame(it->second);
        PODS_CHECK_MSG(f != nullptr, "recovery log retires an unknown context");
        E.restoreEnd(*f);
        R.dedup.retire(e.ctx);
        L.mints.erase(e.ctx);
        markRetired(E, R, it, it->second);
        break;
      }
      default:
        E.replayRecord(e);
    }
  }
  for (auto it = R.parked.begin(); it != R.parked.end();) {
    std::erase_if(it->second, [&](std::size_t i) {
      const RecEntry& e = L.entries[i];
      const auto* f = E.liveFrame(e.frame);
      return f == nullptr || f->gen != e.gen;
    });
    it = it->second.empty() ? R.parked.erase(it) : std::next(it);
  }
}

}  // namespace pods
