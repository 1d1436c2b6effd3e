// The SP executor's contract (src/runtime/sp_exec.hpp), driven directly
// through a recording stub engine: which operand slots each opcode reads
// before it may run, where a blocked frame waits, and that a blocked
// instruction neither moves the pc, nor is charged, nor reaches a hook. Both
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
  int charges = 0;
  std::vector<std::string> hooks;  // hook calls, in order
  std::string error;
  std::uint64_t counter = 0;
  ParkedReplies parked;

  int numPEs() const { return 2; }
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
               const Value&) {
    hooks.push_back("sendArg");
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

Step run(const SpProgram& prog, Recorder& E, SpFrame& f) {
  return execute(prog, prog.sps[0], E, 0, f);
}

TEST(SpExec, EveryOpcodeBlocksOnEachOperandItReads) {
  for (const OpCase& c : everyOpcode()) {
    const SpProgram prog = oneInstruction(c.in);
    for (std::uint16_t slot : c.reads) {
      SCOPED_TRACE(std::string(opName(c.in.op)) + " with slot " +
                   std::to_string(slot) + " empty");
      Recorder E;
      SpFrame f = frameFor(c, {slot});
      EXPECT_EQ(run(prog, E, f), Step::Blocked);
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
    EXPECT_EQ(run(prog, E, f), Step::Blocked);
    EXPECT_EQ(f.blockedSlot, c.reads.front());
  }
}

TEST(SpExec, EveryOpcodeRunsOnceItsOperandsAreReady) {
  for (const OpCase& c : everyOpcode()) {
    SCOPED_TRACE(opName(c.in.op));
    const SpProgram prog = oneInstruction(c.in);
    Recorder E;
    SpFrame f = frameFor(c, {});
    const Step st = run(prog, E, f);
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
    EXPECT_EQ(run(prog, E, f), Step::Continue);
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
    EXPECT_EQ(run(prog, E, f), Step::Continue);
    EXPECT_EQ(f.pc, 1u);
  }
  {  // 0 < 1: waits on the counter, charged for the test it made
    Recorder E;
    SpFrame f;
    f.reset(0, 1, kNumSlots);
    f.slots[kB] = Value::intv(1);
    EXPECT_EQ(run(prog, E, f), Step::Blocked);
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
    EXPECT_EQ(run(prog, E, f), Step::Continue);
  }
}

TEST(SpExec, OperandFreeOpcodesNeverBlock) {
  for (const OpCase& c : everyOpcode()) {
    if (!c.reads.empty()) continue;
    SCOPED_TRACE(opName(c.in.op));
    const SpProgram prog = oneInstruction(c.in);
    Recorder E;
    SpFrame f = frameFor(c, {kA, kB, kC, kDst});
    const Step st = run(prog, E, f);
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
    EXPECT_EQ(run(prog, E, f), Step::Stopped);
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
    EXPECT_EQ(run(prog, E, f), Step::Stopped);
    EXPECT_EQ(E.error, "integer division overflow in unit");
  }
  // A real divisor divides in IEEE arithmetic, as it always has.
  const SpProgram prog = oneInstruction(instr(Op::DIV, kA, kB, kNoSlot, kDst));
  Recorder E;
  SpFrame f;
  f.reset(0, 1, kNumSlots);
  f.slots[kA] = Value::intv(1);
  f.slots[kB] = Value::realv(0.0);
  EXPECT_EQ(run(prog, E, f), Step::Continue);
  EXPECT_TRUE(E.error.empty());
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
