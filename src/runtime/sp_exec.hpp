// The Subcompact Process executor shared by the simulator (src/sim) and the
// native engine (src/native).
//
// One function, run(), interprets the SP instruction set for both engines:
// it executes a frame under program-counter control until the frame blocks,
// ends or stops, or the engine preempts it. It owns everything the hybrid
// model (paper section 3) defines per instruction: operand readiness (an
// empty operand slot disables the instruction and blocks the frame),
// control flow, arithmetic and its run-time errors, context and
// continuation identity, the fail-stop recovery rules for minted identities
// and logical send keys, the replay of parked responses, and the type check
// on array operands. Each instruction costs one dispatch: a single switch on
// the opcode, whose case checks exactly the operands that instruction reads
// and then runs it. The bounds no instruction re-tests (the pc inside the
// code, operands inside the frame) are proven once per program by
// checkProgram (isa.hpp), which both engines' constructors run. What really
// differs between the engines comes in through an Engine adapter whose
// inline hooks bind at compile time:
//
//   pe, numPEs()            this PE and the machine's PE count
//   kMaxArrayElems          the largest allocation the engine's store holds
//   preempt()               asked before each instruction: true to yield
//                           (the native slice budget; the simulator's queue
//                           head, livelock bound and runaway-error stop)
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
// store is exhausted), but it never moves the pc: run() advances it only
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

/// How run() left a frame, and how a hook's instruction went.
enum class Step : std::uint8_t {
  Continue,  // run(): preempted, the pc on the next instruction; a hook: done
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

/// Operand availability, the data-driven half of the hybrid model, for an
/// operand checkProgram proved names a slot of `s` (the frame's slots): one
/// tag test. True when the slot holds a token; false, with f.blockedSlot
/// set, when the instruction reading it must wait.
[[gnu::always_inline]] inline bool operandReady(SpFrame& f, const Value* s,
                                               std::uint16_t slot) {
  if (!s[slot].empty()) return true;
  f.blockedSlot = slot;
  return false;
}

/// The same for an operand that may be kNoSlot, no operand (ARD/AWR c,
/// ALLOC/ALLOCD b at rank 1, RFLO/RFHI b at dim 0).
[[gnu::always_inline]] inline bool optionalReady(SpFrame& f, const Value* s,
                                                std::uint16_t slot) {
  return slot == kNoSlot || operandReady(f, s, slot);
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
                                           Frame& f, Value* s,
                                           const Instr& in) {
  if (!operandReady(f, s, in.a) || !operandReady(f, s, in.b))
    return Step::Blocked;
  E.charge(f, in, binIsReal(s[in.a], s[in.b]));
  if constexpr (kOp == Op::DIV || kOp == Op::MOD) {
    if (const char* err = binOpError(kOp, s[in.a], s[in.b])) {
      E.fail(std::string(err) + " in " + sp.name);
      return Step::Stopped;
    }
  }
  s[in.dst] = applyBin(kOp, s[in.a], s[in.b]);
  return Step::Continue;
}

/// Unary instruction `kOp` on [a].
template <Op kOp, class Engine, class Frame>
[[gnu::always_inline]] inline Step unaryOp(Engine& E, Frame& f, Value* s,
                                          const Instr& in) {
  if (!operandReady(f, s, in.a)) return Step::Blocked;
  E.charge(f, in, s[in.a].isReal());
  s[in.dst] = applyUn(kOp, s[in.a]);
  return Step::Continue;
}

/// Charges an array instruction whose operands are ready and checks that
/// [a] is an array; false after reporting that it is not.
template <class Engine, class Frame>
[[gnu::always_inline]] inline bool arrayOperand(Engine& E, const SpCode& sp,
                                               Frame& f, const Value* s,
                                               const Instr& in) {
  E.charge(f, in, false);
  const Value& arr = s[in.a];
  if (arr.isArray()) return true;
  E.fail(std::string(arrayOpWhat(in.op)) + " on non-array operand " +
         arr.str() + " in " + sp.name);
  return false;
}

/// Runs frame `frameIdx` of engine `E` from its pc until it blocks, ends or
/// stops, or until E.preempt(), asked before each instruction, says to
/// yield: then it returns Continue with the pc on the next instruction,
/// which is neither charged nor started. The program must have passed
/// checkProgram: the pc is not bounds-checked and a required operand is
/// not tested for kNoSlot. The instruction pointer and the slots live in
/// locals, and f.pc is written back only on return, so no hook reads it;
/// nor may a hook resize the running frame's slots. Forced inline into the
/// engine's slice loop, like the hot hooks it calls.
template <class Engine, class Frame>
[[gnu::always_inline]] inline Step run(const SpProgram& prog, Engine& E,
                                      std::uint32_t frameIdx, Frame& f) {
  const SpCode& sp = prog.sps[f.spCode];
  const Instr* const code = sp.code.data();
  Value* const s = f.slots.data();
  const Instr* ip = code + f.pc;
  const auto ready = [&f, s](std::uint16_t slot) {
    return operandReady(f, s, slot);
  };
  const auto readyOpt = [&f, s](std::uint16_t slot) {
    return optionalReady(f, s, slot);
  };

  // Leaves run() with the pc on the instruction `ip` points at.
  const auto leave = [&f, &ip, code](Step st) {
    f.pc = static_cast<std::uint32_t>(ip - code);
    return st;
  };

  // One switch per instruction: each case checks exactly the operands it
  // reads, in a, b, c, dst order, charges, and runs. `st` stays Continue
  // when the instruction completed, and `ip` moves on; JMP and a taken BRF
  // set `ip` and `continue`. A blocked, ended or stopped instruction leaves
  // run() with the pc on it.
  for (;;) {
    if (E.preempt()) return leave(Step::Continue);
    const Instr& in = *ip;
    Step st = Step::Continue;
    switch (in.op) {
      case Op::ADD: st = binaryOp<Op::ADD>(E, sp, f, s, in); break;
      case Op::SUB: st = binaryOp<Op::SUB>(E, sp, f, s, in); break;
      case Op::MUL: st = binaryOp<Op::MUL>(E, sp, f, s, in); break;
      case Op::DIV: st = binaryOp<Op::DIV>(E, sp, f, s, in); break;
      case Op::MOD: st = binaryOp<Op::MOD>(E, sp, f, s, in); break;
      case Op::POW: st = binaryOp<Op::POW>(E, sp, f, s, in); break;
      case Op::MIN2: st = binaryOp<Op::MIN2>(E, sp, f, s, in); break;
      case Op::MAX2: st = binaryOp<Op::MAX2>(E, sp, f, s, in); break;
      case Op::CMPLT: st = binaryOp<Op::CMPLT>(E, sp, f, s, in); break;
      case Op::CMPLE: st = binaryOp<Op::CMPLE>(E, sp, f, s, in); break;
      case Op::CMPGT: st = binaryOp<Op::CMPGT>(E, sp, f, s, in); break;
      case Op::CMPGE: st = binaryOp<Op::CMPGE>(E, sp, f, s, in); break;
      case Op::CMPEQ: st = binaryOp<Op::CMPEQ>(E, sp, f, s, in); break;
      case Op::CMPNE: st = binaryOp<Op::CMPNE>(E, sp, f, s, in); break;
      case Op::AND: st = binaryOp<Op::AND>(E, sp, f, s, in); break;
      case Op::OR: st = binaryOp<Op::OR>(E, sp, f, s, in); break;
      case Op::MOV: st = unaryOp<Op::MOV>(E, f, s, in); break;
      case Op::NEG: st = unaryOp<Op::NEG>(E, f, s, in); break;
      case Op::ABS: st = unaryOp<Op::ABS>(E, f, s, in); break;
      case Op::SQRT: st = unaryOp<Op::SQRT>(E, f, s, in); break;
      case Op::EXP: st = unaryOp<Op::EXP>(E, f, s, in); break;
      case Op::LOG: st = unaryOp<Op::LOG>(E, f, s, in); break;
      case Op::SIN: st = unaryOp<Op::SIN>(E, f, s, in); break;
      case Op::COS: st = unaryOp<Op::COS>(E, f, s, in); break;
      case Op::FLOOR: st = unaryOp<Op::FLOOR>(E, f, s, in); break;
      case Op::CVTI: st = unaryOp<Op::CVTI>(E, f, s, in); break;
      case Op::CVTR: st = unaryOp<Op::CVTR>(E, f, s, in); break;
      case Op::NOT: st = unaryOp<Op::NOT>(E, f, s, in); break;
      case Op::LIT:
        E.charge(f, in, false);
        s[in.dst] = in.imm;
        break;
      case Op::JMP:
        E.charge(f, in, false);
        ip = code + in.aux;
        continue;
      case Op::BRF:
        if (!ready(in.a)) return leave(Step::Blocked);
        E.charge(f, in, false);
        if (!s[in.a].truthy()) {
          ip = code + in.aux;
          continue;
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
          std::uint64_t& counter =
              L != nullptr ? L->ctxCounter : E.ctxCounter();
          return Value::intv(static_cast<std::int64_t>(
              E.ctxBase() |
              (std::uint64_t(static_cast<unsigned>(E.pe)) << 40) | ++counter));
        });
        break;
      case Op::MKCONT:
        E.charge(f, in, false);
        s[in.dst] =
            Value::contv(Cont{static_cast<std::uint16_t>(E.pe), frameIdx,
                              static_cast<std::uint16_t>(in.aux), f.gen});
        break;
      case Op::CLEAR:
        E.charge(f, in, false);
        s[in.a] = Value{};
        break;
      case Op::BLKLO:
      case Op::BLKHI: {
        if (!ready(in.a) || !ready(in.b)) return leave(Step::Blocked);
        E.charge(f, in, false);
        const IdxRange r =
            blockPartition(s[in.a].asInt(), s[in.b].asInt(), E.pe, E.numPEs());
        s[in.dst] = Value::intv(in.op == Op::BLKHI ? r.hi : r.lo);
        break;
      }
      case Op::ALLOC:
      case Op::ALLOCD: {
        if (!ready(in.a) || !readyOpt(in.b)) return leave(Step::Blocked);
        E.charge(f, in, false);
        ArrayShape shape;
        shape.rank = in.dim;
        shape.dim0 = s[in.a].asInt();
        shape.dim1 = in.dim == 2 ? s[in.b].asInt() : 1;
        if (shape.dim0 < 0 || shape.dim1 < 0 ||
            shape.numElems() > Engine::kMaxArrayElems) {
          E.fail("bad allocation dimensions");
          return leave(Step::Stopped);
        }
        st = E.alloc(frameIdx, f, in, shape);
        break;
      }
      case Op::ARD:
        if (!ready(in.a) || !ready(in.b) || !readyOpt(in.c))
          return leave(Step::Blocked);
        if (!arrayOperand(E, sp, f, s, in)) return leave(Step::Stopped);
        st = E.read(frameIdx, f, in, s[in.a].asArray());
        break;
      case Op::AWR:
        if (!ready(in.a) || !ready(in.b) || !readyOpt(in.c) ||
            !ready(in.dst))
          return leave(Step::Blocked);
        if (!arrayOperand(E, sp, f, s, in)) return leave(Step::Stopped);
        st = E.write(frameIdx, f, in, s[in.a].asArray());
        break;
      case Op::RFLO:
      case Op::RFHI:
        if (!ready(in.a) || !readyOpt(in.b)) return leave(Step::Blocked);
        if (!arrayOperand(E, sp, f, s, in)) return leave(Step::Stopped);
        st = E.rangeFilter(frameIdx, f, in, s[in.a].asArray());
        break;
      case Op::DIMQ:
        if (!ready(in.a)) return leave(Step::Blocked);
        if (!arrayOperand(E, sp, f, s, in)) return leave(Step::Stopped);
        st = E.dimQuery(frameIdx, f, in, s[in.a].asArray());
        break;
      case Op::SENDA:
      case Op::SENDD: {
        if (!ready(in.a) || !ready(in.b)) return leave(Step::Blocked);
        E.charge(f, in, false);
        const auto target = static_cast<std::uint64_t>(s[in.b].asInt());
        E.sendArg(in.op == Op::SENDD, in.targetSp(), in.targetSlot(), target,
                  s[in.a]);
        // A restarted PE parks logged continuation results until the frame
        // that consumed them re-runs; the first send *to* the callee's
        // context is the replay point where its logged replies re-apply.
        if (f.replaying) replayParked(E, frameIdx, f, target);
        break;
      }
      case Op::SENDC:
      case Op::ADDC: {
        if (!ready(in.a) || !ready(in.b)) return leave(Step::Blocked);
        E.charge(f, in, false);
        const Cont c = s[in.b].asCont();
        // Logical send identity under recovery: deterministic re-execution
        // reproduces the same (sender ctx, sender PE, seq) triple, so
        // receivers drop the duplicate even though it travels as a
        // brand-new message. Pre-increment: seq 0 on PE 0 would pack to the
        // "unkeyed" 0.
        const bool keyed = E.recoveryLog() != nullptr;
        E.sendCont(c, s[in.a], in.op == Op::ADDC, keyed ? f.ctx : 0,
                   keyed ? packSendKey(E.pe, ++f.sendSeq) : 0);
        break;
      }
      case Op::AWAITN: {
        // An empty counter reads as 0, so only the target is an operand.
        if (!ready(in.b)) return leave(Step::Blocked);
        E.charge(f, in, false);
        const std::int64_t count = s[in.a].empty() ? 0 : s[in.a].asInt();
        if (count < s[in.b].asInt()) {
          f.blockedSlot = in.a;
          return leave(Step::Blocked);
        }
        break;
      }
      case Op::RESULT:
        if (!ready(in.a)) return leave(Step::Blocked);
        E.charge(f, in, false);
        if (in.aux >= static_cast<std::uint32_t>(prog.numResults)) {
          E.fail("result index " + std::to_string(in.aux) +
                 " out of range [0, " + std::to_string(prog.numResults) +
                 ") in " + sp.name);
          return leave(Step::Stopped);
        }
        E.result(in.aux, s[in.a]);
        break;
      case Op::END:
        E.charge(f, in, false);
        return leave(E.end(frameIdx, f));
      default:
        PODS_UNREACHABLE("unhandled opcode");
    }
    if (st != Step::Continue) return leave(st);
    ++ip;
  }
}

}  // namespace pods
