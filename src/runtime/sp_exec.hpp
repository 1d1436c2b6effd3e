// The Subcompact Process executor shared by the simulator (src/sim) and the
// native engine (src/native).
//
// One function interprets the SP instruction set for both engines. It owns
// everything the hybrid model (paper section 3) defines per instruction:
// operand readiness (an empty operand slot disables the instruction and
// blocks the frame), control flow, arithmetic and its run-time errors,
// context and continuation identity, the fail-stop recovery rules for
// minted identities and logical send keys, the replay of parked responses,
// and the type check on array operands. Each instruction costs one dispatch:
// a single switch on the opcode, whose case checks exactly the operands that
// instruction reads and then runs it. What really differs between the
// engines comes in through an Engine adapter whose inline hooks bind at
// compile time:
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
#include <memory>
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
/// state on top. The fields are ordered so the record ends in padding that
/// the engines' flags fill (NFrame::blocked/dead, the simulator's state):
/// everything the run loop touches per instruction sits in the first 64
/// bytes.
struct SpFrame {
  std::uint64_t ctx = 0;
  std::vector<Value> slots;
  /// Kill mode, replaying frames only: the contexts this frame has re-sent
  /// to (see `replaying`). Out of line, because no other frame needs it.
  std::unique_ptr<std::unordered_set<std::uint64_t>> sentCtxs;
  std::uint32_t pc = 0;
  // Kill mode: deterministic per-frame streams so a re-executed frame
  // reproduces the same send keys and minted identities.
  std::uint32_t sendSeq = 0;
  std::uint32_t mintSeq = 0;
  std::uint16_t spCode = 0;
  /// The empty slot a blocked frame waits on; kNoSlot when only an engine
  /// hook's own wake requeues it.
  std::uint16_t blockedSlot = kNoSlot;
  /// Generation of recycled frame storage (the native free list bumps it at
  /// every retirement); the simulator never recycles and keeps 0.
  std::uint16_t gen = 0;
  // Kill mode: true on frames rebuilt from the receive log. A replaying
  // frame only accepts continuation results from contexts it has re-sent to
  // (sentTo); earlier arrivals are parked so a multi-round slot cannot be
  // filled with a later round's value before the earlier round re-runs.
  bool replaying = false;

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
    sentCtxs.reset();
    slots.assign(numSlots, Value{});
  }

  /// Whether this (replaying) frame has re-sent to context `target`.
  bool sentTo(std::uint64_t target) const {
    return sentCtxs != nullptr && sentCtxs->count(target) != 0;
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
  if (f.sentCtxs == nullptr)
    f.sentCtxs = std::make_unique<std::unordered_set<std::uint64_t>>();
  f.sentCtxs->insert(target);
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

/// Operand availability, the data-driven half of the hybrid model: true when
/// `slot` holds a token or names no slot; false, with f.blockedSlot set,
/// when the instruction reading it must wait.
[[gnu::always_inline]] inline bool operandReady(SpFrame& f,
                                               std::uint16_t slot) {
  if (slot == kNoSlot || !f.slots[slot].empty()) return true;
  f.blockedSlot = slot;
  return false;
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

/// Binary instruction `kOp` (arithmetic, comparison, logic) on [a], [b].
/// Instantiated per opcode, so applyBin's own switch folds away.
template <Op kOp, class Engine, class Frame>
[[gnu::always_inline]] inline Step binaryOp(Engine& E, const SpCode& sp,
                                           Frame& f, const Instr& in) {
  if (!operandReady(f, in.a) || !operandReady(f, in.b)) return Step::Blocked;
  std::vector<Value>& s = f.slots;
  E.charge(f, in, binIsReal(s[in.a], s[in.b]));
  if constexpr (kOp == Op::DIV || kOp == Op::MOD) {
    if (const char* err = binOpError(kOp, s[in.a], s[in.b])) {
      E.fail(std::string(err) + " in " + sp.name);
      return Step::Stopped;
    }
  }
  s[in.dst] = applyBin(kOp, s[in.a], s[in.b]);
  ++f.pc;
  return Step::Continue;
}

/// Unary instruction `kOp` on [a].
template <Op kOp, class Engine, class Frame>
[[gnu::always_inline]] inline Step unaryOp(Engine& E, Frame& f,
                                          const Instr& in) {
  if (!operandReady(f, in.a)) return Step::Blocked;
  std::vector<Value>& s = f.slots;
  E.charge(f, in, s[in.a].isReal());
  s[in.dst] = applyUn(kOp, s[in.a]);
  ++f.pc;
  return Step::Continue;
}

/// Charges an array instruction whose operands are ready and checks that
/// [a] is an array; false after reporting that it is not.
template <class Engine, class Frame>
[[gnu::always_inline]] inline bool arrayOperand(Engine& E, const SpCode& sp,
                                               Frame& f, const Instr& in) {
  E.charge(f, in, false);
  const Value& arr = f.slots[in.a];
  if (arr.isArray()) return true;
  E.fail(std::string(arrayOpWhat(in.op)) + " on non-array operand " +
         arr.str() + " in " + sp.name);
  return false;
}

/// Executes the instruction at frame `frameIdx`'s pc on engine `E`; `sp` is
/// the frame's code (prog.sp(f.spCode)), resolved once by the caller's run
/// loop. Forced inline into that loop, like the hot hooks it calls: a call
/// per instruction there slows the native engine by a fifth.
template <class Engine, class Frame>
[[gnu::always_inline]] inline Step execute(const SpProgram& prog,
                                          const SpCode& sp, Engine& E,
                                          std::uint32_t frameIdx, Frame& f) {
  PODS_CHECK_MSG(f.pc < sp.code.size(), "pc ran off the end of an SP");
  const Instr& in = sp.code[f.pc];
  std::vector<Value>& s = f.slots;
  const auto ready = [&f](std::uint16_t slot) { return operandReady(f, slot); };

  // One switch: each case checks exactly the operands it reads, in a, b,
  // c, dst order, charges, and runs. `break` means the instruction
  // completed and the pc moves on; a hook's Blocked or Stopped leaves it.
  Step st = Step::Continue;
  switch (in.op) {
    case Op::ADD: return binaryOp<Op::ADD>(E, sp, f, in);
    case Op::SUB: return binaryOp<Op::SUB>(E, sp, f, in);
    case Op::MUL: return binaryOp<Op::MUL>(E, sp, f, in);
    case Op::DIV: return binaryOp<Op::DIV>(E, sp, f, in);
    case Op::MOD: return binaryOp<Op::MOD>(E, sp, f, in);
    case Op::POW: return binaryOp<Op::POW>(E, sp, f, in);
    case Op::MIN2: return binaryOp<Op::MIN2>(E, sp, f, in);
    case Op::MAX2: return binaryOp<Op::MAX2>(E, sp, f, in);
    case Op::CMPLT: return binaryOp<Op::CMPLT>(E, sp, f, in);
    case Op::CMPLE: return binaryOp<Op::CMPLE>(E, sp, f, in);
    case Op::CMPGT: return binaryOp<Op::CMPGT>(E, sp, f, in);
    case Op::CMPGE: return binaryOp<Op::CMPGE>(E, sp, f, in);
    case Op::CMPEQ: return binaryOp<Op::CMPEQ>(E, sp, f, in);
    case Op::CMPNE: return binaryOp<Op::CMPNE>(E, sp, f, in);
    case Op::AND: return binaryOp<Op::AND>(E, sp, f, in);
    case Op::OR: return binaryOp<Op::OR>(E, sp, f, in);
    case Op::MOV: return unaryOp<Op::MOV>(E, f, in);
    case Op::NEG: return unaryOp<Op::NEG>(E, f, in);
    case Op::ABS: return unaryOp<Op::ABS>(E, f, in);
    case Op::SQRT: return unaryOp<Op::SQRT>(E, f, in);
    case Op::EXP: return unaryOp<Op::EXP>(E, f, in);
    case Op::LOG: return unaryOp<Op::LOG>(E, f, in);
    case Op::SIN: return unaryOp<Op::SIN>(E, f, in);
    case Op::COS: return unaryOp<Op::COS>(E, f, in);
    case Op::FLOOR: return unaryOp<Op::FLOOR>(E, f, in);
    case Op::CVTI: return unaryOp<Op::CVTI>(E, f, in);
    case Op::CVTR: return unaryOp<Op::CVTR>(E, f, in);
    case Op::NOT: return unaryOp<Op::NOT>(E, f, in);
    case Op::LIT:
      E.charge(f, in, false);
      s[in.dst] = in.imm;
      break;
    case Op::JMP:
      E.charge(f, in, false);
      f.pc = in.aux;
      return Step::Continue;
    case Op::BRF:
      if (!ready(in.a)) return Step::Blocked;
      E.charge(f, in, false);
      if (!s[in.a].truthy()) {
        f.pc = in.aux;
        return Step::Continue;
      }
      break;
    case Op::NUMPE:
      E.charge(f, in, false);
      s[in.dst] = Value::intv(E.numPEs());
      break;
    case Op::NEWCTX:
      E.charge(f, in, false);
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
      E.charge(f, in, false);
      s[in.dst] = Value::contv(Cont{static_cast<std::uint16_t>(E.pe), frameIdx,
                                    static_cast<std::uint16_t>(in.aux), f.gen});
      break;
    case Op::CLEAR:
      E.charge(f, in, false);
      s[in.a] = Value{};
      break;
    case Op::BLKLO:
    case Op::BLKHI: {
      if (!ready(in.a) || !ready(in.b)) return Step::Blocked;
      E.charge(f, in, false);
      const IdxRange r =
          blockPartition(s[in.a].asInt(), s[in.b].asInt(), E.pe, E.numPEs());
      s[in.dst] = Value::intv(in.op == Op::BLKHI ? r.hi : r.lo);
      break;
    }
    case Op::ALLOC:
    case Op::ALLOCD: {
      if (!ready(in.a) || !ready(in.b)) return Step::Blocked;
      E.charge(f, in, false);
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
      if (!ready(in.a) || !ready(in.b) || !ready(in.c)) return Step::Blocked;
      if (!arrayOperand(E, sp, f, in)) return Step::Stopped;
      st = E.read(frameIdx, f, in, s[in.a].asArray());
      break;
    case Op::AWR:
      if (!ready(in.a) || !ready(in.b) || !ready(in.c) || !ready(in.dst))
        return Step::Blocked;
      if (!arrayOperand(E, sp, f, in)) return Step::Stopped;
      st = E.write(frameIdx, f, in, s[in.a].asArray());
      break;
    case Op::RFLO:
    case Op::RFHI:
      if (!ready(in.a) || !ready(in.b)) return Step::Blocked;
      if (!arrayOperand(E, sp, f, in)) return Step::Stopped;
      st = E.rangeFilter(frameIdx, f, in, s[in.a].asArray());
      break;
    case Op::DIMQ:
      if (!ready(in.a)) return Step::Blocked;
      if (!arrayOperand(E, sp, f, in)) return Step::Stopped;
      st = E.dimQuery(frameIdx, f, in, s[in.a].asArray());
      break;
    case Op::SENDA:
    case Op::SENDD: {
      if (!ready(in.a) || !ready(in.b)) return Step::Blocked;
      E.charge(f, in, false);
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
      if (!ready(in.a) || !ready(in.b)) return Step::Blocked;
      E.charge(f, in, false);
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
      if (!ready(in.b)) return Step::Blocked;  // an empty counter reads as 0
      E.charge(f, in, false);
      const std::int64_t count = s[in.a].empty() ? 0 : s[in.a].asInt();
      if (count < s[in.b].asInt()) {
        f.blockedSlot = in.a;
        return Step::Blocked;
      }
      break;
    }
    case Op::RESULT:
      if (!ready(in.a)) return Step::Blocked;
      E.charge(f, in, false);
      if (in.aux >= static_cast<std::uint32_t>(prog.numResults)) {
        E.fail("result index " + std::to_string(in.aux) +
               " out of range [0, " + std::to_string(prog.numResults) +
               ") in " + sp.name);
        return Step::Stopped;
      }
      E.result(in.aux, s[in.a]);
      break;
    case Op::END:
      E.charge(f, in, false);
      return E.end(frameIdx, f);
    default:
      PODS_UNREACHABLE("unhandled opcode");
  }
  if (st == Step::Continue) ++f.pc;
  return st;
}

}  // namespace pods
