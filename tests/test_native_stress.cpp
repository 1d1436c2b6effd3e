// Native runtime hardening tests: determinism under worker-count sweeps and
// repetition, frame free-list accounting (no leaked live frames), and the
// error paths that must report cleanly instead of crashing or hanging —
// unknown array ids, non-array operands and out-of-range result indices (on
// the simulator too), and genuine deadlocks detected by the counting
// quiescence protocol within a bounded wall-clock time.
#include <gtest/gtest.h>

#include <chrono>

#include "core/pods.hpp"
#include "native/native_machine.hpp"
#include "runtime/isa.hpp"
#include "workloads/kernels.hpp"

namespace pods {
namespace {

std::unique_ptr<Compiled> compileOk(const std::string& src,
                                    CompileOptions opts = {}) {
  CompileResult cr = compile(src, opts);
  EXPECT_TRUE(cr.ok) << cr.diagnostics;
  return std::move(cr.compiled);
}

/// Asserts the frame ledger of a finished run balances: every created frame
/// was retired (peak vs retired is the leak check), globally and per worker.
void expectNoLeakedFrames(const native::NativeResult& stats) {
  EXPECT_EQ(stats.counters.get("native.framesCreated"),
            stats.counters.get("native.framesRetired"));
  EXPECT_EQ(stats.counters.get("native.framesLive"), 0);
  EXPECT_LE(stats.counters.get("native.framesPeak"),
            stats.counters.get("native.framesCreated"));
  for (const Counters& w : stats.perWorker) {
    EXPECT_EQ(w.get("framesCreated"), w.get("framesRetired"));
    EXPECT_EQ(w.get("framesLive"), 0);
  }
}

TEST(NativeStress, DeterministicAcrossWorkersAndReps) {
  auto c = compileOk(workloads::stencilSource(10, 2));
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;
  for (int workers : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      native::NativeConfig nc;
      nc.numWorkers = workers;
      NativeRun run = runNative(*c, nc);
      ASSERT_TRUE(run.stats.ok)
          << "workers=" << workers << " rep=" << rep << ": " << run.stats.error;
      std::string why;
      EXPECT_TRUE(sameOutputs(run.out, seq.out, &why))
          << "workers=" << workers << " rep=" << rep << ": " << why;
      expectNoLeakedFrames(run.stats);
    }
  }
}

TEST(NativeStress, FreeListRecyclesRetiredFrames) {
  // Thousands of short-lived frames (one per recursive call) with a much
  // smaller live set: the free list must serve later calls from recycled
  // storage instead of growing the frame table monotonically.
  auto c = compileOk(R"(
def fib(n: int) -> int {
  let r = if n < 2 then n else fib(n - 1) + fib(n - 2);
  return r;
}
def main() -> int { return fib(16); }
)");
  native::NativeConfig nc;
  nc.numWorkers = 2;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  EXPECT_EQ(run.out.results[0].asInt(), 987);
  expectNoLeakedFrames(run.stats);
  EXPECT_GT(run.stats.counters.get("native.framesReused"), 0);
  EXPECT_LT(run.stats.counters.get("native.framesPeak"),
            run.stats.counters.get("native.framesCreated"));
}

TEST(NativeStress, PerWorkerCountersCoverAllWorkers) {
  auto c = compileOk(workloads::matmulSource(8));
  native::NativeConfig nc;
  nc.numWorkers = 4;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  ASSERT_EQ(run.stats.perWorker.size(), 4u);
  std::int64_t instrs = 0;
  for (const Counters& w : run.stats.perWorker) instrs += w.get("instructions");
  EXPECT_EQ(instrs, run.stats.counters.get("native.instructions"));
  EXPECT_GT(run.stats.counters.get("native.idleTransitions"), 0);
}

// --- error paths -----------------------------------------------------------

/// Hand-assembles a one-SP program so the error paths can be driven with
/// values the frontend could never produce (stale ids, ill-typed operands).
SpProgram singleSpProgram(std::vector<Instr> code, std::uint16_t numSlots) {
  SpProgram prog;
  SpCode sp;
  sp.id = 0;
  sp.name = "handmade";
  sp.numSlots = numSlots;
  sp.code = std::move(code);
  prog.sps.push_back(std::move(sp));
  prog.mainSp = 0;
  prog.numResults = 1;
  return prog;
}

Instr lit(std::uint16_t dst, Value v) {
  Instr in;
  in.op = Op::LIT;
  in.dst = dst;
  in.imm = v;
  return in;
}

/// The same hand-assembled program on the simulator, at 2 PEs.
sim::RunStats runSim(const SpProgram& prog) {
  sim::MachineConfig mc;
  mc.numPEs = 2;
  return sim::Machine(prog, mc).run();
}

native::NativeResult runNativeProg(const SpProgram& prog, int workers) {
  native::NativeConfig nc;
  nc.numWorkers = workers;
  return native::NativeMachine(prog, nc).run();
}

// Both engines run one SP executor, so an ill-typed or out-of-range operand
// is one structured error on either — never a crash of the whole process.

TEST(NativeErrors, UnknownArrayIdReportedNotDereferenced) {
  // ARD on an array id no allocation ever produced: must fail with the SP
  // name, not dereference an array the store never created.
  Instr ard;
  ard.op = Op::ARD;
  ard.dst = 2;
  ard.a = 0;
  ard.b = 1;
  Instr end;
  end.op = Op::END;
  SpProgram prog = singleSpProgram(
      {lit(0, Value::arrayv(999)), lit(1, Value::intv(0)), ard, end}, 3);
  native::NativeResult res = runNativeProg(prog, 2);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("unknown array id 999"), std::string::npos)
      << res.error;
  EXPECT_NE(res.error.find("handmade"), std::string::npos) << res.error;
  // The simulator's Array Manager waits for the header of an array it has
  // not seen, so the run ends in its deadlock report.
  const sim::RunStats rs = runSim(prog);
  EXPECT_FALSE(rs.ok);
  EXPECT_FALSE(rs.error.empty());
}

TEST(NativeErrors, NonArrayOperandToArdReported) {
  Instr ard;
  ard.op = Op::ARD;
  ard.dst = 2;
  ard.a = 0;
  ard.b = 1;
  Instr end;
  end.op = Op::END;
  SpProgram prog = singleSpProgram(
      {lit(0, Value::intv(5)), lit(1, Value::intv(0)), ard, end}, 3);
  native::NativeResult res = runNativeProg(prog, 2);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("non-array operand"), std::string::npos)
      << res.error;
  const sim::RunStats rs = runSim(prog);
  EXPECT_FALSE(rs.ok);
  EXPECT_NE(rs.error.find("array read on non-array operand 5 in handmade"),
            std::string::npos)
      << rs.error;
}

TEST(NativeErrors, NonArrayOperandToDimqReported) {
  Instr dimq;
  dimq.op = Op::DIMQ;
  dimq.dst = 1;
  dimq.a = 0;
  Instr end;
  end.op = Op::END;
  SpProgram prog =
      singleSpProgram({lit(0, Value::realv(1.5)), dimq, end}, 2);
  native::NativeResult res = runNativeProg(prog, 1);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("non-array operand"), std::string::npos)
      << res.error;
  const sim::RunStats rs = runSim(prog);
  EXPECT_FALSE(rs.ok);
  EXPECT_NE(rs.error.find("dimension query on non-array operand 1.5"),
            std::string::npos)
      << rs.error;
}

TEST(NativeErrors, ResultIndexOutOfRangeReported) {
  // RESULT #3 in a program with one result slot: an error on both engines,
  // never a write past the end of the results.
  Instr result;
  result.op = Op::RESULT;
  result.a = 0;
  result.aux = 3;
  Instr end;
  end.op = Op::END;
  SpProgram prog =
      singleSpProgram({lit(0, Value::intv(7)), result, end}, 1);
  native::NativeResult res = runNativeProg(prog, 2);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("result index 3 out of range"), std::string::npos)
      << res.error;
  const sim::RunStats rs = runSim(prog);
  EXPECT_FALSE(rs.ok);
  EXPECT_NE(rs.error.find("result index 3 out of range"), std::string::npos)
      << rs.error;
}

TEST(NativeErrors, DeadlockReportedWithinBoundedTime) {
  // A read of an element nobody writes: every worker goes idle with live
  // blocked SPs. The quiescence protocol must report it as a deadlock —
  // quickly and deterministically, not as a hang.
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[0] = 1.0;
  return a[3];
}
)", {.distribute = false});
  auto t0 = std::chrono::steady_clock::now();
  native::NativeConfig nc;
  nc.numWorkers = 4;
  NativeRun run = runNative(*c, nc);
  auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("deadlock"), std::string::npos)
      << run.stats.error;
  EXPECT_LT(elapsed, 5.0);
}

#if GTEST_HAS_DEATH_TEST
TEST(NativeErrors, ZeroSliceBudgetRejected) {
  SpProgram prog;
  SpCode sp;
  sp.numSlots = 1;
  Instr end;
  end.op = Op::END;
  sp.code.push_back(end);
  prog.sps.push_back(std::move(sp));
  prog.numResults = 0;
  native::NativeConfig nc;
  nc.sliceInstructions = 0;
  EXPECT_DEATH({ native::NativeMachine m(prog, nc); }, "sliceInstructions");
}
#endif

}  // namespace
}  // namespace pods
