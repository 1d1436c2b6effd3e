// The SP executor's contract (src/runtime/sp_exec.hpp), driven directly
// through a recording stub engine: which operand slots each opcode reads
// before it may run, where a blocked frame waits, that a blocked
// instruction neither moves the pc, nor is charged, nor reaches a hook, and
// that preempting run() between any two instructions changes nothing. Both
// engines run this one function, so the rule pinned here is the data-driven
// half of the hybrid model on the simulator and the native engine alike.
// The division cases then check that every engine reports an integer
// division or modulo by zero, or the INT64_MIN / -1 overflow, as a run error.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/pods.hpp"
#include "runtime/sp_exec.hpp"

namespace pods {
namespace {

/// A stub engine that records what the executor asks of it.
struct Recorder {
  static constexpr std::int64_t kMaxArrayElems = std::int64_t(1) << 20;
  int pe = 0;
  /// Instructions run() may start before preempt() yields; 1 runs exactly
  /// one, which is all a one-instruction SP has.
  int budget = 1;
  int charges = 0;
  std::vector<std::string> hooks;  // hook calls, in order
  std::string error;
  std::uint64_t counter = 0;
  ParkedReplies parked;

  int numPEs() const { return 2; }
  bool preempt() { return budget-- <= 0; }
  void charge(const SpFrame&, const Instr&, bool) { ++charges; }
  void fail(const std::string& msg) { error = msg; }
  std::uint64_t ctxBase() const { return 0; }
  std::uint64_t& ctxCounter() { return counter; }
  RecoveryLog* recoveryLog() { return nullptr; }
  void recordMint(std::uint64_t, std::uint32_t, const Value&) {}
  ParkedReplies& parkedReplies() { return parked; }
  void replayedToken() {}

  Step alloc(std::uint32_t, SpFrame& f, const Instr& in, const ArrayShape&) {
    hooks.push_back("alloc");
    f.slots[in.dst] = Value::arrayv(7);
    return Step::Continue;
  }
  Step read(std::uint32_t, SpFrame& f, const Instr& in, ArrayId) {
    hooks.push_back("read");
    f.slots[in.dst] = Value{};
    return Step::Continue;
  }
  Step write(std::uint32_t, SpFrame&, const Instr&, ArrayId) {
    hooks.push_back("write");
    return Step::Continue;
  }
  Step rangeFilter(std::uint32_t, SpFrame& f, const Instr& in, ArrayId) {
    hooks.push_back("rangeFilter");
    f.slots[in.dst] = Value::intv(0);
    return Step::Continue;
  }
  Step dimQuery(std::uint32_t, SpFrame& f, const Instr& in, ArrayId) {
    hooks.push_back("dimQuery");
    f.slots[in.dst] = Value::intv(4);
    return Step::Continue;
  }
  void sendArg(bool, std::uint16_t, std::uint16_t, std::uint64_t,
               const Value& v) {
    hooks.push_back("sendArg " + v.str());
  }
  void sendCont(Cont, const Value&, bool, std::uint64_t, std::uint64_t) {
    hooks.push_back("sendCont");
  }
  void result(std::uint32_t, const Value&) { hooks.push_back("result"); }
  Step end(std::uint32_t, SpFrame&) {
    hooks.push_back("end");
    return Step::Ended;
  }
};

// Operand slots of the one-instruction SPs below: a, b, c and dst each get
// their own slot, plus a spare that no role uses.
constexpr std::uint16_t kA = 0, kB = 1, kC = 2, kDst = 3;
constexpr std::uint16_t kNumSlots = 5;

/// One opcode's test instruction, the values its operands hold when ready,
/// and the slots it reads, in the order the executor checks them.
struct OpCase {
  Instr in;
  Value a, b, c, dst;
  std::vector<std::uint16_t> reads;
};

Instr instr(Op op, std::uint16_t a = kNoSlot, std::uint16_t b = kNoSlot,
            std::uint16_t c = kNoSlot, std::uint16_t dst = kNoSlot) {
  Instr in;
  in.op = op;
  in.a = a;
  in.b = b;
  in.c = c;
  in.dst = dst;
  return in;
}

/// Every opcode of the instruction set, each with the operands it reads.
std::vector<OpCase> everyOpcode() {
  std::vector<OpCase> cases;
  const Value six = Value::intv(6), three = Value::intv(3);
  for (Op op : {Op::ADD, Op::SUB, Op::MUL, Op::DIV, Op::MOD, Op::POW,
                Op::MIN2, Op::MAX2, Op::CMPLT, Op::CMPLE, Op::CMPGT,
                Op::CMPGE, Op::CMPEQ, Op::CMPNE, Op::AND, Op::OR})
    cases.push_back({instr(op, kA, kB, kNoSlot, kDst), six, three, {}, {},
                     {kA, kB}});
  for (Op op : {Op::MOV, Op::NEG, Op::ABS, Op::SQRT, Op::EXP, Op::LOG,
                Op::SIN, Op::COS, Op::FLOOR, Op::CVTI, Op::CVTR, Op::NOT})
    cases.push_back({instr(op, kA, kNoSlot, kNoSlot, kDst), six, {}, {}, {},
                     {kA}});
  cases.push_back({instr(Op::BRF, kA), Value::intv(1), {}, {}, {}, {kA}});
  for (Op op : {Op::BLKLO, Op::BLKHI})
    cases.push_back({instr(op, kA, kB, kNoSlot, kDst), Value::intv(0),
                     Value::intv(9), {}, {}, {kA, kB}});
  OpCase alloc1{instr(Op::ALLOC, kA, kNoSlot, kNoSlot, kDst),
                Value::intv(4), {}, {}, {}, {kA}};
  alloc1.in.dim = 1;
  cases.push_back(alloc1);
  OpCase alloc2{instr(Op::ALLOCD, kA, kB, kNoSlot, kDst), Value::intv(4),
                Value::intv(4), {}, {}, {kA, kB}};
  alloc2.in.dim = 2;
  cases.push_back(alloc2);
  const Value arr = Value::arrayv(7), zero = Value::intv(0);
  cases.push_back({instr(Op::ARD, kA, kB, kNoSlot, kDst), arr, zero, {}, {},
                   {kA, kB}});
  cases.push_back({instr(Op::ARD, kA, kB, kC, kDst), arr, zero, zero, {},
                   {kA, kB, kC}});
  // AWR also reads dst: the value it writes.
  cases.push_back({instr(Op::AWR, kA, kB, kNoSlot, kDst), arr, zero, {},
                   Value::intv(1), {kA, kB, kDst}});
  cases.push_back({instr(Op::AWR, kA, kB, kC, kDst), arr, zero, zero,
                   Value::intv(1), {kA, kB, kC, kDst}});
  cases.push_back({instr(Op::DIMQ, kA, kNoSlot, kNoSlot, kDst), arr, {}, {},
                   {}, {kA}});
  for (Op op : {Op::RFLO, Op::RFHI}) {
    cases.push_back({instr(op, kA, kNoSlot, kNoSlot, kDst), arr, {}, {}, {},
                     {kA}});
    OpCase byRow{instr(op, kA, kB, kNoSlot, kDst), arr, zero, {}, {},
                 {kA, kB}};
    byRow.in.dim = 1;
    cases.push_back(byRow);
  }
  for (Op op : {Op::SENDA, Op::SENDD})
    cases.push_back({instr(op, kA, kB), Value::intv(1), Value::intv(5), {}, {},
                     {kA, kB}});
  for (Op op : {Op::SENDC, Op::ADDC})
    cases.push_back({instr(op, kA, kB), Value::intv(1),
                     Value::contv(Cont{0, 0, kA, 0}), {}, {}, {kA, kB}});
  cases.push_back({instr(Op::AWAITN, kA, kB), Value::intv(2), Value::intv(1),
                   {}, {}, {kB}});
  cases.push_back({instr(Op::RESULT, kA), Value::intv(1), {}, {}, {}, {kA}});
  // Read nothing: their operand slots stay empty throughout.
  for (Op op : {Op::LIT, Op::JMP, Op::NUMPE, Op::NEWCTX, Op::MKCONT, Op::CLEAR,
                Op::END}) {
    OpCase none{instr(op, kA, kB, kC, kDst), {}, {}, {}, {}, {}};
    none.in.imm = Value::intv(1);
    cases.push_back(none);
  }
  return cases;
}

SpProgram oneInstruction(const Instr& in) {
  SpProgram prog;
  SpCode sp;
  sp.name = "unit";
  sp.numSlots = kNumSlots;
  sp.code.push_back(in);
  prog.sps.push_back(std::move(sp));
  prog.numResults = 1;
  return prog;
}

/// A frame holding `c`'s ready operand values, minus the slots in `empty`.
SpFrame frameFor(const OpCase& c, const std::vector<std::uint16_t>& empty) {
  SpFrame f;
  f.reset(0, 1, kNumSlots);
  const Value vals[] = {c.a, c.b, c.c, c.dst};
  for (std::uint16_t slot = kA; slot <= kDst; ++slot) {
    bool skip = false;
    for (std::uint16_t e : empty) skip = skip || e == slot;
    if (!skip) f.slots[slot] = vals[slot];
  }
  return f;
}

Step runSp(const SpProgram& prog, Recorder& E, SpFrame& f) {
  return pods::run(prog, E, 0, f);
}

TEST(SpExec, EveryOpcodeBlocksOnEachOperandItReads) {
  for (const OpCase& c : everyOpcode()) {
    const SpProgram prog = oneInstruction(c.in);
    for (std::uint16_t slot : c.reads) {
      SCOPED_TRACE(std::string(opName(c.in.op)) + " with slot " +
                   std::to_string(slot) + " empty");
      Recorder E;
      SpFrame f = frameFor(c, {slot});
      EXPECT_EQ(runSp(prog, E, f), Step::Blocked);
      EXPECT_EQ(f.blockedSlot, slot);
      EXPECT_EQ(f.pc, 0u);
      EXPECT_EQ(E.charges, 0);
      EXPECT_TRUE(E.hooks.empty());
      EXPECT_TRUE(E.error.empty()) << E.error;
    }
  }
}

TEST(SpExec, BlocksOnTheFirstEmptyOperandInReadOrder) {
  for (const OpCase& c : everyOpcode()) {
    if (c.reads.empty()) continue;
    SCOPED_TRACE(opName(c.in.op));
    const SpProgram prog = oneInstruction(c.in);
    Recorder E;
    SpFrame f = frameFor(c, c.reads);
    EXPECT_EQ(runSp(prog, E, f), Step::Blocked);
    EXPECT_EQ(f.blockedSlot, c.reads.front());
  }
}

TEST(SpExec, EveryOpcodeRunsOnceItsOperandsAreReady) {
  for (const OpCase& c : everyOpcode()) {
    SCOPED_TRACE(opName(c.in.op));
    const SpProgram prog = oneInstruction(c.in);
    Recorder E;
    SpFrame f = frameFor(c, {});
    const Step st = runSp(prog, E, f);
    EXPECT_NE(st, Step::Blocked);
    EXPECT_NE(st, Step::Stopped) << E.error;
    EXPECT_EQ(E.charges, 1);
  }
}

TEST(SpExec, RangeFiltersIgnoreC) {
  for (Op op : {Op::RFLO, Op::RFHI}) {
    SCOPED_TRACE(opName(op));
    const OpCase c{instr(op, kA, kB, kC, kDst), Value::arrayv(7),
                   Value::intv(0), {}, {}, {}};
    const SpProgram prog = oneInstruction(c.in);
    Recorder E;
    SpFrame f = frameFor(c, {kC});
    EXPECT_EQ(runSp(prog, E, f), Step::Continue);
    EXPECT_EQ(f.pc, 1u);
    EXPECT_EQ(E.hooks, std::vector<std::string>{"rangeFilter"});
  }
}

TEST(SpExec, AwaitnReadsAnEmptyCounterAsZero) {
  const Instr in = instr(Op::AWAITN, kA, kB);
  const SpProgram prog = oneInstruction(in);
  {  // 0 >= 0: passes with the counter still empty
    Recorder E;
    SpFrame f;
    f.reset(0, 1, kNumSlots);
    f.slots[kB] = Value::intv(0);
    EXPECT_EQ(runSp(prog, E, f), Step::Continue);
    EXPECT_EQ(f.pc, 1u);
  }
  {  // 0 < 1: waits on the counter, charged for the test it made
    Recorder E;
    SpFrame f;
    f.reset(0, 1, kNumSlots);
    f.slots[kB] = Value::intv(1);
    EXPECT_EQ(runSp(prog, E, f), Step::Blocked);
    EXPECT_EQ(f.blockedSlot, kA);
    EXPECT_EQ(f.pc, 0u);
    EXPECT_EQ(E.charges, 1);
  }
  {  // a counter at its target passes
    Recorder E;
    SpFrame f;
    f.reset(0, 1, kNumSlots);
    f.slots[kA] = Value::intv(1);
    f.slots[kB] = Value::intv(1);
    EXPECT_EQ(runSp(prog, E, f), Step::Continue);
  }
}

TEST(SpExec, OperandFreeOpcodesNeverBlock) {
  for (const OpCase& c : everyOpcode()) {
    if (!c.reads.empty()) continue;
    SCOPED_TRACE(opName(c.in.op));
    const SpProgram prog = oneInstruction(c.in);
    Recorder E;
    SpFrame f = frameFor(c, {kA, kB, kC, kDst});
    const Step st = runSp(prog, E, f);
    EXPECT_EQ(st, c.in.op == Op::END ? Step::Ended : Step::Continue);
    EXPECT_EQ(f.blockedSlot, kNoSlot);
  }
}

TEST(SpExec, IntegerDivisionFaultsStopTheFrame) {
  for (Op op : {Op::DIV, Op::MOD}) {
    SCOPED_TRACE(opName(op));
    const SpProgram prog = oneInstruction(instr(op, kA, kB, kNoSlot, kDst));
    Recorder E;
    SpFrame f;
    f.reset(0, 1, kNumSlots);
    f.slots[kA] = Value::intv(10);
    f.slots[kB] = Value::intv(0);
    EXPECT_EQ(runSp(prog, E, f), Step::Stopped);
    EXPECT_EQ(E.error, op == Op::DIV ? "integer division by zero in unit"
                                     : "modulo by zero in unit");
    EXPECT_EQ(f.pc, 0u);
    EXPECT_TRUE(f.slots[kDst].empty());
  }
  // The one quotient an int64 cannot hold, and its remainder.
  for (Op op : {Op::DIV, Op::MOD}) {
    SCOPED_TRACE(opName(op));
    const SpProgram prog = oneInstruction(instr(op, kA, kB, kNoSlot, kDst));
    Recorder E;
    SpFrame f;
    f.reset(0, 1, kNumSlots);
    f.slots[kA] = Value::intv(std::numeric_limits<std::int64_t>::min());
    f.slots[kB] = Value::intv(-1);
    EXPECT_EQ(runSp(prog, E, f), Step::Stopped);
    EXPECT_EQ(E.error, "integer division overflow in unit");
  }
  // A real divisor divides in IEEE arithmetic, as it always has.
  const SpProgram prog = oneInstruction(instr(Op::DIV, kA, kB, kNoSlot, kDst));
  Recorder E;
  SpFrame f;
  f.reset(0, 1, kNumSlots);
  f.slots[kA] = Value::intv(1);
  f.slots[kB] = Value::realv(0.0);
  EXPECT_EQ(runSp(prog, E, f), Step::Continue);
  EXPECT_TRUE(E.error.empty());
}

// Slots of the loop SP below.
constexpr std::uint16_t kI = 0, kN = 1, kArr = 2, kCond = 3, kOne = 4,
                        kVal = 5, kCnt = 6, kTarget = 7, kCtx = 8;

/// for i = 0 while i < n { arr[i] = i; val = arr[i]; send i; i = i + 1 },
/// then a join that is already met, then END: a branch, a loop, an AWR/ARD
/// pair, a send, AWAITN and END in one SP.
SpProgram loopProgram() {
  Instr zero = instr(Op::LIT, kNoSlot, kNoSlot, kNoSlot, kI);
  zero.imm = Value::intv(0);
  SpProgram prog = oneInstruction(zero);                            // 0
  SpCode& sp = prog.sps[0];
  sp.numSlots = 9;
  Instr one = instr(Op::LIT, kNoSlot, kNoSlot, kNoSlot, kOne);
  one.imm = Value::intv(1);
  Instr brf = instr(Op::BRF, kCond);
  brf.aux = 9;
  Instr send = instr(Op::SENDA, kI, kCtx);
  send.aux = Instr::packTarget(0, kCnt);
  Instr jmp = instr(Op::JMP);
  jmp.aux = 2;
  sp.code.insert(sp.code.end(),
                 {one,                                                  // 1
                  instr(Op::CMPLT, kI, kN, kNoSlot, kCond),             // 2
                  brf,                                                  // 3
                  instr(Op::AWR, kArr, kI, kNoSlot, kI),                // 4
                  instr(Op::ARD, kArr, kI, kNoSlot, kVal),              // 5
                  send,                                                 // 6
                  instr(Op::ADD, kI, kOne, kNoSlot, kI),                // 7
                  jmp,                                                  // 8
                  instr(Op::AWAITN, kCnt, kTarget),                     // 9
                  instr(Op::END)});                                     // 10
  return prog;
}

SpFrame loopFrame() {
  SpFrame f;
  f.reset(0, 1, 9);
  f.slots[kN] = Value::intv(3);
  f.slots[kArr] = Value::arrayv(7);
  f.slots[kCnt] = Value::intv(1);
  f.slots[kTarget] = Value::intv(1);
  f.slots[kCtx] = Value::intv(5);
  return f;
}

TEST(SpExec, PreemptionAtEveryBoundaryChangesNothing) {
  const SpProgram prog = loopProgram();
  ASSERT_EQ(checkProgram(prog), "");
  // The pcs the loop executes, in order: the pc a preempted run() must
  // leave after its n-th instruction is executed[n].
  std::vector<std::uint32_t> executed = {0, 1};
  for (int round = 0; round < 3; ++round)
    for (std::uint32_t pc = 2; pc <= 8; ++pc) executed.push_back(pc);
  executed.insert(executed.end(), {2, 3, 9, 10});

  Recorder ref;
  ref.budget = std::numeric_limits<int>::max();
  SpFrame refFrame = loopFrame();
  ASSERT_EQ(runSp(prog, ref, refFrame), Step::Ended);
  ASSERT_EQ(ref.charges, static_cast<int>(executed.size()));
  EXPECT_EQ(ref.hooks,
            (std::vector<std::string>{"write", "read", "sendArg 0", "write",
                                      "read", "sendArg 1", "write", "read",
                                      "sendArg 2", "end"}));
  EXPECT_EQ(refFrame.pc, 10u);

  for (int k = 1; k <= ref.charges; ++k) {
    SCOPED_TRACE("preempted every " + std::to_string(k) + " instructions");
    Recorder E;
    SpFrame f = loopFrame();
    Step st = Step::Continue;
    for (int slices = 0; st == Step::Continue; ++slices) {
      ASSERT_LE(slices, ref.charges);
      const int before = E.charges;
      E.budget = k;
      st = runSp(prog, E, f);
      if (st != Step::Continue) break;
      // Exactly k instructions ran; the next one was not charged or begun.
      EXPECT_EQ(E.charges - before, k);
      ASSERT_LT(static_cast<std::size_t>(E.charges), executed.size());
      EXPECT_EQ(f.pc, executed[static_cast<std::size_t>(E.charges)]);
    }
    EXPECT_EQ(st, Step::Ended);
    EXPECT_EQ(E.hooks, ref.hooks);
    EXPECT_EQ(E.charges, ref.charges);
    EXPECT_EQ(f.pc, refFrame.pc);
    EXPECT_EQ(f.blockedSlot, refFrame.blockedSlot);
    for (std::uint16_t slot = 0; slot < f.slots.size(); ++slot)
      EXPECT_TRUE(f.slots[slot].identical(refFrame.slots[slot]))
          << "slot " << slot << ": " << f.slots[slot].str() << " vs "
          << refFrame.slots[slot].str();
  }
}

// The division's divisor is computed at run time, so no compile-time check
// can see it; every engine must report it and return, not abort.
void expectRunError(const std::string& src, const std::string& want) {
  CompileResult cr = compile(src);
  ASSERT_TRUE(cr.ok) << cr.diagnostics;
  const Compiled& c = *cr.compiled;
  auto has = [&](const std::string& error) {
    return error.find(want) != std::string::npos;
  };
  const BaselineRun seq = runSequentialBaseline(c);
  EXPECT_FALSE(seq.stats.ok);
  EXPECT_TRUE(has(seq.stats.error)) << "seq: " << seq.stats.error;
  for (int pes : {1, 2}) {
    SCOPED_TRACE("pes " + std::to_string(pes));
    const BaselineRun st = runStaticBaseline(c, pes);
    EXPECT_FALSE(st.stats.ok);
    EXPECT_TRUE(has(st.stats.error)) << "static: " << st.stats.error;
    sim::MachineConfig mc;
    mc.numPEs = pes;
    const PodsRun pr = runPods(c, mc);
    EXPECT_FALSE(pr.stats.ok);
    EXPECT_TRUE(has(pr.stats.error)) << "pods: " << pr.stats.error;
    for (auto store : {native::StoreKind::Local, native::StoreKind::Wire}) {
      native::NativeConfig nc;
      nc.numWorkers = pes;
      nc.store = store;
      const NativeRun nr = runNative(c, nc);
      EXPECT_FALSE(nr.stats.ok);
      EXPECT_TRUE(has(nr.stats.error))
          << "native/" << native::storeKindName(store) << ": "
          << nr.stats.error;
    }
  }
}

TEST(SpExec, IntegerDivisionByZeroIsARunErrorOnEveryEngine) {
  expectRunError(R"(
def main() -> int { let a = array(4); let z = len(a) - 4; return 10 / z; }
)",
                 "integer division by zero in main");
}

TEST(SpExec, ModuloByZeroIsARunErrorOnEveryEngine) {
  expectRunError(R"(
def main() -> int { let a = array(4); let z = len(a) - 4; return 10 % z; }
)",
                 "modulo by zero in main");
}

TEST(SpExec, IntegerDivisionOverflowIsARunErrorOnEveryEngine) {
  expectRunError(R"(
def main() -> int {
  let a = array(4);
  let m = 0 - 9223372036854775807 - (len(a) - 3);
  return m / (3 - len(a));
}
)",
                 "integer division overflow in main");
}

}  // namespace
}  // namespace pods
