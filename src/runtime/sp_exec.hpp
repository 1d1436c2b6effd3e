// The Subcompact Process executor shared by the simulator (src/sim) and the
// native engine (src/native).
//
// One function interprets the SP instruction set for both engines. It owns
// everything the hybrid model (paper section 3) defines per instruction:
// operand readiness (an empty operand slot disables the instruction and
// blocks the frame), control flow, arithmetic, context and continuation
// identity, the fail-stop recovery rules for minted identities and logical
// send keys, the replay of parked responses, and the type check on array
// operands. What really differs between the engines comes in through an
// Engine adapter whose inline hooks bind at compile time:
//
//   pe, numPEs()            this PE and the machine's PE count
//   kMaxArrayElems          the largest allocation the engine's store holds
//   charge(f, in, realOp)   account one executed instruction: EU time in the
//                           simulator, the instruction count natively
//   fail(msg)               report a runtime error
//   alloc/read/write/rangeFilter/dimQuery(frameIdx, f, in, ...)
//                           ALLOC(D), ARD, AWR, RFLO/RFHI and DIMQ against the
//                           engine's own array store
//   sendArg(broadcast, sp, slot, ctx, v)
//   sendCont(cont, v, add, senderCtx, sendKey)
//                           token sends: SENDA/SENDD, SENDC/ADDC
//   result(idx, v)          RESULT (the index is already range-checked)
//   end(frameIdx, f)        END: retire the frame, return Step::Ended
//   ctxBase(), ctxCounter() NEWCTX's job prefix and per-PE counter
//   recoveryLog(), recordMint(ctx, seq, v), parkedReplies(), replayedToken()
//                           the fail-stop recovery state, when it is live
//
// A hook may block (return Step::Blocked, leaving f.blockedSlot at kNoSlot
// when only the engine's own wake will requeue the frame — the wire store's
// shape wait) or stop (report through fail() and return Step::Stopped — the
// store is exhausted), but it never moves the pc: execute() advances it only
// when the instruction completed.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/array_layout.hpp"
#include "runtime/isa.hpp"
#include "runtime/ops.hpp"
#include "runtime/value.hpp"
#include "support/check.hpp"
#include "support/recovery.hpp"

namespace pods {

/// Outcome of one executed instruction.
enum class Step : std::uint8_t {
  Continue,  // done; the pc moved on
  Blocked,   // waiting; f.blockedSlot names the slot whose fill wakes it
  Ended,     // END retired the frame
  Stopped,   // an error was reported; the frame goes no further
};

/// Logged continuation deliveries held for replay after a restart: sender
/// context -> indices into the PE's receive log. A re-executing frame's send
/// to that context releases the ones addressed to it (replayParked).
using ParkedReplies =
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>;

/// The frame record both engines share; each engine adds its scheduling
/// state on top.
struct SpFrame {
  std::uint16_t spCode = 0;
  std::uint64_t ctx = 0;
  std::uint32_t pc = 0;
  /// The empty slot a blocked frame waits on; kNoSlot when only an engine
  /// hook's own wake requeues it.
  std::uint16_t blockedSlot = kNoSlot;
  /// Generation of recycled frame storage (the native free list bumps it at
  /// every retirement); the simulator never recycles and keeps 0.
  std::uint16_t gen = 0;
  std::vector<Value> slots;
  // Kill mode: deterministic per-frame streams so a re-executed frame
  // reproduces the same send keys and minted identities.
  std::uint32_t sendSeq = 0;
  std::uint32_t mintSeq = 0;
  // Kill mode: true on frames rebuilt from the receive log. A replaying
  // frame only accepts continuation results from contexts it has re-sent to
  // (sentCtxs); earlier arrivals are parked so a multi-round slot cannot be
  // filled with a later round's value before the earlier round re-runs.
  bool replaying = false;
  std::unordered_set<std::uint64_t> sentCtxs;

  /// Re-seats this record on a new instance (spawn or log rebuild); the
  /// generation is the storage's and survives.
  void reset(std::uint16_t code, std::uint64_t context,
             std::uint16_t numSlots) {
    spCode = code;
    ctx = context;
    pc = 0;
    blockedSlot = kNoSlot;
    sendSeq = 0;
    mintSeq = 0;
    replaying = false;
    sentCtxs.clear();
    slots.assign(numSlots, Value{});
  }

  /// Delivers one token value into `slot`: a join-counter token adds to the
  /// slot (an empty slot counts as 0), any other token sets it.
  void apply(std::uint16_t slot, const Value& v, bool add) {
    PODS_CHECK_MSG(slot < slots.size(), "token slot out of range");
    if (add) {
      const std::int64_t cur = slots[slot].empty() ? 0 : slots[slot].asInt();
      slots[slot] = Value::intv(cur + v.asInt());
    } else {
      slots[slot] = v;
    }
  }
};

/// The recovery rule for every identity a frame mints (NEWCTX contexts,
/// ALLOC array ids): with recovery live, the n-th mint of a context returns
/// what it returned before a kill, so children spawned under that identity
/// (and their continuations back) stay valid. `fresh` mints a new one.
template <class Engine, class Fresh>
Value mintOnce(Engine& E, SpFrame& f, Fresh fresh) {
  RecoveryLog* L = E.recoveryLog();
  if (L == nullptr) return fresh();
  const std::uint32_t seq = f.mintSeq++;
  if (const Value* m = L->findMint(f.ctx, seq)) return *m;
  const Value v = fresh();
  E.recordMint(f.ctx, seq, v);
  return v;
}

/// Replay trigger: a replaying frame (re-)sent to context `target`, so every
/// logged continuation delivery from that context into this frame instance
/// is due now. Deliveries addressed to other frames stay parked.
template <class Engine, class Frame>
void replayParked(Engine& E, std::uint32_t frameIdx, Frame& f,
                  std::uint64_t target) {
  f.sentCtxs.insert(target);
  ParkedReplies& parked = E.parkedReplies();
  if (parked.empty()) return;
  auto it = parked.find(target);
  if (it == parked.end()) return;
  const RecoveryLog& L = *E.recoveryLog();
  std::vector<std::size_t>& idxs = it->second;
  for (std::size_t i = 0; i < idxs.size();) {
    const RecEntry& e = L.entries[idxs[i]];
    if (e.frame != frameIdx || e.gen != f.gen) {
      ++i;
      continue;
    }
    f.apply(e.slot, e.v, e.add);
    E.replayedToken();
    idxs.erase(idxs.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (idxs.empty()) parked.erase(it);
}

/// Operand availability, the data-driven half of the hybrid model: false
/// (with f.blockedSlot set) when an operand the instruction reads is empty.
inline bool operandsReady(const Instr& in, SpFrame& f) {
  const auto has = [&](std::uint16_t slot) {
    if (slot == kNoSlot || !f.slots[slot].empty()) return true;
    f.blockedSlot = slot;
    return false;
  };
  switch (in.op) {
    case Op::LIT: case Op::JMP: case Op::NUMPE: case Op::NEWCTX:
    case Op::MKCONT: case Op::CLEAR: case Op::END:
      return true;
    case Op::AWAITN:
      return has(in.b);  // an empty counter reads as 0
    case Op::AWR:
      return has(in.a) && has(in.b) && has(in.c) && has(in.dst);
    case Op::RFLO: case Op::RFHI:
      return has(in.a) && has(in.b);
    default:
      return has(in.a) && has(in.b) && has(in.c);
  }
}

/// What an array instruction is called in error reports.
inline const char* arrayOpWhat(Op op) {
  switch (op) {
    case Op::ARD: return "array read";
    case Op::AWR: return "array write";
    case Op::DIMQ: return "dimension query";
    default: return "range filter";
  }
}

/// Executes the instruction at frame `frameIdx`'s pc on engine `E`. Forced
/// inline into the engine's run loop, like the hot hooks it calls: a call per
/// instruction there slows the native engine by a fifth.
template <class Engine, class Frame>
[[gnu::always_inline]] inline Step execute(const SpProgram& prog, Engine& E,
                                          std::uint32_t frameIdx, Frame& f) {
  const SpCode& sp = prog.sp(f.spCode);
  PODS_CHECK_MSG(f.pc < sp.code.size(), "pc ran off the end of an SP");
  const Instr& in = sp.code[f.pc];
  if (!operandsReady(in, f)) return Step::Blocked;
  std::vector<Value>& s = f.slots;

  if (isBinaryOp(in.op)) {
    E.charge(f, in, binIsReal(s[in.a], s[in.b]));
    s[in.dst] = applyBin(in.op, s[in.a], s[in.b]);
    ++f.pc;
    return Step::Continue;
  }
  if (isUnaryOp(in.op)) {
    E.charge(f, in, s[in.a].isReal());
    s[in.dst] = applyUn(in.op, s[in.a]);
    ++f.pc;
    return Step::Continue;
  }

  E.charge(f, in, false);
  std::uint32_t nextPc = f.pc + 1;
  Step st = Step::Continue;
  switch (in.op) {
    case Op::LIT:
      s[in.dst] = in.imm;
      break;
    case Op::JMP:
      nextPc = in.aux;
      break;
    case Op::BRF:
      if (!s[in.a].truthy()) nextPc = in.aux;
      break;
    case Op::NUMPE:
      s[in.dst] = Value::intv(E.numPEs());
      break;
    case Op::NEWCTX:
      // PE-unique, never reused context tags. Under recovery the counter
      // lives in the stable log, so a restart never re-mints a pre-kill
      // context.
      s[in.dst] = mintOnce(E, f, [&] {
        RecoveryLog* L = E.recoveryLog();
        std::uint64_t& counter = L != nullptr ? L->ctxCounter : E.ctxCounter();
        return Value::intv(static_cast<std::int64_t>(
            E.ctxBase() | (std::uint64_t(static_cast<unsigned>(E.pe)) << 40) |
            ++counter));
      });
      break;
    case Op::MKCONT:
      s[in.dst] = Value::contv(Cont{static_cast<std::uint16_t>(E.pe), frameIdx,
                                    static_cast<std::uint16_t>(in.aux), f.gen});
      break;
    case Op::CLEAR:
      s[in.a] = Value{};
      break;
    case Op::BLKLO:
    case Op::BLKHI: {
      const IdxRange r =
          blockPartition(s[in.a].asInt(), s[in.b].asInt(), E.pe, E.numPEs());
      s[in.dst] = Value::intv(in.op == Op::BLKHI ? r.hi : r.lo);
      break;
    }
    case Op::ALLOC:
    case Op::ALLOCD: {
      ArrayShape shape;
      shape.rank = in.dim;
      shape.dim0 = s[in.a].asInt();
      shape.dim1 = in.dim == 2 ? s[in.b].asInt() : 1;
      if (shape.dim0 < 0 || shape.dim1 < 0 ||
          shape.numElems() > Engine::kMaxArrayElems) {
        E.fail("bad allocation dimensions");
        return Step::Stopped;
      }
      st = E.alloc(frameIdx, f, in, shape);
      break;
    }
    case Op::ARD:
    case Op::AWR:
    case Op::RFLO:
    case Op::RFHI:
    case Op::DIMQ: {
      const Value& arr = s[in.a];
      if (!arr.isArray()) {
        E.fail(std::string(arrayOpWhat(in.op)) + " on non-array operand " +
               arr.str() + " in " + sp.name);
        return Step::Stopped;
      }
      const ArrayId id = arr.asArray();
      if (in.op == Op::ARD) {
        st = E.read(frameIdx, f, in, id);
      } else if (in.op == Op::AWR) {
        st = E.write(frameIdx, f, in, id);
      } else if (in.op == Op::DIMQ) {
        st = E.dimQuery(frameIdx, f, in, id);
      } else {
        st = E.rangeFilter(frameIdx, f, in, id);
      }
      break;
    }
    case Op::SENDA:
    case Op::SENDD: {
      const auto target = static_cast<std::uint64_t>(s[in.b].asInt());
      E.sendArg(in.op == Op::SENDD, in.targetSp(), in.targetSlot(), target,
                s[in.a]);
      // A restarted PE parks logged continuation results until the frame
      // that consumed them re-runs; the first send *to* the callee's context
      // is the replay point where its logged replies re-apply.
      if (f.replaying) replayParked(E, frameIdx, f, target);
      break;
    }
    case Op::SENDC:
    case Op::ADDC: {
      const Cont c = s[in.b].asCont();
      // Logical send identity under recovery: deterministic re-execution
      // reproduces the same (sender ctx, sender PE, seq) triple, so receivers
      // drop the duplicate even though it travels as a brand-new message.
      // Pre-increment: seq 0 on PE 0 would pack to the "unkeyed" 0.
      const bool keyed = E.recoveryLog() != nullptr;
      E.sendCont(c, s[in.a], in.op == Op::ADDC, keyed ? f.ctx : 0,
                 keyed ? packSendKey(E.pe, ++f.sendSeq) : 0);
      break;
    }
    case Op::AWAITN: {
      const std::int64_t count = s[in.a].empty() ? 0 : s[in.a].asInt();
      if (count < s[in.b].asInt()) {
        f.blockedSlot = in.a;
        return Step::Blocked;
      }
      break;
    }
    case Op::RESULT:
      if (in.aux >= static_cast<std::uint32_t>(prog.numResults)) {
        E.fail("result index " + std::to_string(in.aux) +
               " out of range [0, " + std::to_string(prog.numResults) +
               ") in " + sp.name);
        return Step::Stopped;
      }
      E.result(in.aux, s[in.a]);
      break;
    case Op::END:
      return E.end(frameIdx, f);
    default:
      PODS_UNREACHABLE("unhandled opcode");
  }
  if (st == Step::Continue) f.pc = nextPc;
  return st;
}

}  // namespace pods
