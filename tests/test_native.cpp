// Native threaded-runtime tests: the same SP programs executing on real
// host threads must produce bit-identical results to every other engine,
// under repetition (to shake out races) and across worker counts, and must
// detect the same program errors (violations, deadlocks).
#include <gtest/gtest.h>

#include "core/pods.hpp"
#include "workloads/kernels.hpp"
#include "workloads/simple.hpp"

namespace pods {
namespace {

std::unique_ptr<Compiled> compileOk(const std::string& src,
                                    CompileOptions opts = {}) {
  CompileResult cr = compile(src, opts);
  EXPECT_TRUE(cr.ok) << cr.diagnostics;
  return std::move(cr.compiled);
}

TEST(Native, MatchesSequentialOnKernels) {
  struct Case {
    const char* name;
    std::string src;
  };
  const Case cases[] = {
      {"fill2d", workloads::fill2dSource(12, 7)},
      {"matmul", workloads::matmulSource(10)},
      {"stencil", workloads::stencilSource(12, 2)},
      {"reduce", workloads::reduceSource(150)},
      {"triangular", workloads::triangularSource(20)},
  };
  for (const Case& c : cases) {
    auto compiled = compileOk(c.src);
    BaselineRun seq = runSequentialBaseline(*compiled);
    ASSERT_TRUE(seq.stats.ok) << c.name << ": " << seq.stats.error;
    native::NativeConfig nc;
    nc.numWorkers = 4;
    NativeRun run = runNative(*compiled, nc);
    ASSERT_TRUE(run.stats.ok) << c.name << ": " << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << c.name << ": " << why;
  }
}

TEST(Native, SimpleBenchmarkEndToEnd) {
  auto c = compileOk(workloads::simpleSource(12, 2));
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok);
  native::NativeConfig nc;
  nc.numWorkers = 8;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << why;
  EXPECT_GT(run.stats.counters.get("native.framesCreated"), 10);
  EXPECT_GT(run.stats.counters.get("native.instructions"), 1000);
  // Frame ledger balances: every created frame was retired through END.
  EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
            run.stats.counters.get("native.framesRetired"));
  EXPECT_EQ(run.stats.counters.get("native.framesLive"), 0);
}

TEST(Native, DeterministicAcrossWorkerCountsAndReruns) {
  auto c = compileOk(workloads::stencilSource(10, 2));
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok);
  for (int workers : {1, 2, 3, 8, 16}) {
    for (int rep = 0; rep < 3; ++rep) {
      native::NativeConfig nc;
      nc.numWorkers = workers;
      NativeRun run = runNative(*c, nc);
      ASSERT_TRUE(run.stats.ok)
          << "workers=" << workers << " rep=" << rep << ": "
          << run.stats.error;
      std::string why;
      EXPECT_TRUE(sameOutputs(run.out, seq.out, &why))
          << "workers=" << workers << " rep=" << rep << ": " << why;
    }
  }
}

TEST(Native, SmallSliceBudgetStillCorrect) {
  // Tiny slices force frequent inbox drains and requeues.
  auto c = compileOk(workloads::matmulSource(8));
  BaselineRun seq = runSequentialBaseline(*c);
  native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.sliceInstructions = 3;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << why;
}

TEST(Native, SingleAssignmentViolationDetected) {
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[1] = 1.0;
  a[1] = 2.0;
  return a[1];
}
)", {.distribute = false});
  native::NativeConfig nc;
  nc.numWorkers = 2;
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("single-assignment"), std::string::npos);
}

TEST(Native, DeadlockDetected) {
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[0] = 1.0;
  return a[3];
}
)", {.distribute = false});
  native::NativeConfig nc;
  nc.numWorkers = 3;
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("deadlock"), std::string::npos);
}

TEST(Native, OutOfBoundsDetected) {
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[9] = 1.0;
  return 0.0;
}
)", {.distribute = false});
  native::NativeConfig nc;
  nc.numWorkers = 2;
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("out of bounds"), std::string::npos);
}

TEST(Native, RecursionWorks) {
  auto c = compileOk(R"(
def fib(n: int) -> int {
  let r = if n < 2 then n else fib(n - 1) + fib(n - 2);
  return r;
}
def main() -> int { return fib(15); }
)");
  native::NativeConfig nc;
  nc.numWorkers = 4;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  EXPECT_EQ(run.out.results[0].asInt(), 610);
}

TEST(Native, TupleResultsGathered) {
  auto c = compileOk(R"(
def main() {
  let a = array(5);
  for i = 0 to 4 { a[i] = real(i) * 1.5; }
  return a, 99;
}
)");
  native::NativeConfig nc;
  nc.numWorkers = 3;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  ASSERT_EQ(run.out.results.size(), 2u);
  ASSERT_TRUE(run.out.arrays[0].has_value());
  EXPECT_DOUBLE_EQ((*run.out.arrays[0]).elems[4].asReal(), 6.0);
  EXPECT_EQ(run.out.results[1].asInt(), 99);
}

TEST(Native, MatchesSimulatorOutputs) {
  // The two machines implement the same model at different fidelity; their
  // *results* must agree exactly.
  auto c = compileOk(workloads::conductionOnlySource(10, 1));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  PodsRun simRun = runPods(*c, mc);
  ASSERT_TRUE(simRun.stats.ok) << simRun.stats.error;
  native::NativeConfig nc;
  nc.numWorkers = 4;
  NativeRun natRun = runNative(*c, nc);
  ASSERT_TRUE(natRun.stats.ok) << natRun.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(natRun.out, simRun.out, &why)) << why;
}

// --- wire array store (--store=wire) ----------------------------------------

/// The net.am.* request/serve ledgers must balance in any fault-free run:
/// every remote read answered, every write applied, every shape query
/// served, every deferred read eventually filled.
void expectBalancedAmLedger(const NativeRun& run, const std::string& what) {
  EXPECT_EQ(run.stats.counters.get("net.am.readReqSent"),
            run.stats.counters.get("net.am.readReqServed"))
      << what;
  EXPECT_EQ(run.stats.counters.get("net.am.writeSent"),
            run.stats.counters.get("net.am.writeApplied"))
      << what;
  EXPECT_EQ(run.stats.counters.get("net.am.dimReqSent"),
            run.stats.counters.get("net.am.dimReqServed"))
      << what;
  EXPECT_EQ(run.stats.counters.get("net.am.parks"),
            run.stats.counters.get("net.am.parkFills"))
      << what;
  // The wire store must never touch the shared heap / shm segment.
  EXPECT_EQ(run.stats.counters.get("native.shmArrayOps"), 0) << what;
}

TEST(WireStore, KernelsBitIdenticalToLocalStore) {
  constexpr const char* kFib = R"(
def fib(n: int) -> int {
  let r = if n < 2 then n else fib(n - 1) + fib(n - 2);
  return r;
}
def main() -> int { return fib(13); }
)";
  const std::string sources[] = {
      workloads::simpleSource(16, 2),  std::string(kFib),
      workloads::fill2dSource(12, 7),  workloads::matmulSource(10),
      workloads::stencilSource(12, 2), workloads::reduceSource(150),
      workloads::triangularSource(20)};
  std::int64_t remoteWrites = 0;
  for (const std::string& src : sources) {
    auto c = compileOk(src);
    native::NativeConfig local;
    local.numWorkers = 4;
    NativeRun ref = runNative(*c, local);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

    native::NativeConfig wire = local;
    wire.store = native::StoreKind::Wire;
    NativeRun run = runNative(*c, wire);
    ASSERT_TRUE(run.stats.ok) << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
    expectBalancedAmLedger(run, "kernel");
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"));
    remoteWrites += run.stats.counters.get("net.am.writeSent");
  }
  // Iteration placement keeps most writes owner-local, but the suite as a
  // whole must exercise the remote-write path (stencil boundary rows land
  // on foreign pages).
  EXPECT_GT(remoteWrites, 0);
}

TEST(WireStore, AdversarialOwnershipMatchesSequential) {
  // Every read in b's loop targets the block-layout mirror element — the
  // worst case for owner-serviced reads. Swept across uniform and skewed
  // page ownership; always compared against the sequential evaluator.
  auto c = compileOk(workloads::reversalSource(96));
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;
  for (const std::vector<std::int64_t>& weights :
       {std::vector<std::int64_t>{}, std::vector<std::int64_t>{1, 7, 1, 7}}) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.pageElems = 8;  // small pages spread ownership across all PEs
    nc.peWeights = weights;
    nc.store = native::StoreKind::Wire;
    NativeRun run = runNative(*c, nc);
    const std::string what = weights.empty() ? "uniform" : "skewed";
    ASSERT_TRUE(run.stats.ok) << what << ": " << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << what << ": " << why;
    expectBalancedAmLedger(run, what);
    // The reversal pattern must actually generate remote reads. Writes
    // stay owner-local here by design: iteration placement follows the
    // written element's ownership (Data-Distributed Execution), and the
    // mirror read is what crosses PEs.
    EXPECT_GT(run.stats.counters.get("net.am.readReqSent"), 0) << what;
    EXPECT_EQ(run.stats.counters.get("net.am.writeSent"), 0) << what;
  }
}

TEST(WireStore, RepeatRunsBitIdentical) {
  auto c = compileOk(workloads::reversalSource(64));
  native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.store = native::StoreKind::Wire;
  NativeRun first = runNative(*c, nc);
  ASSERT_TRUE(first.stats.ok) << first.stats.error;
  for (int rep = 0; rep < 3; ++rep) {
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "rep=" << rep << ": " << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, first.out, &why))
        << "rep=" << rep << ": " << why;
  }
}

TEST(WireStore, SingleAssignmentViolationStillDetected) {
  // The owner-side write path must keep LocalStore's strictness: a remote
  // double write is a detected violation, not a silent overwrite.
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[1] = 1.0;
  a[1] = 2.0;
  return a[1];
}
)", {.distribute = false});
  native::NativeConfig nc;
  nc.numWorkers = 2;
  nc.store = native::StoreKind::Wire;
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("single-assignment"), std::string::npos);
}

TEST(WireStore, DeadlockStillDetected) {
  // A read of a never-written element parks at the owner forever; counting
  // quiescence must still converge and call it a deadlock.
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[0] = 1.0;
  return a[3];
}
)", {.distribute = false});
  native::NativeConfig nc;
  nc.numWorkers = 3;
  nc.store = native::StoreKind::Wire;
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("deadlock"), std::string::npos);
}

TEST(Native, UdpTransportMatchesInboxOnKernels) {
  // Smoke coverage of the real-socket transport inside the main suite; the
  // full sweeps (fault fuzz, kill+restart, per-link counters) live in
  // pods_transport_tests.
  for (const std::string& src :
       {workloads::matmulSource(10), workloads::reduceSource(150)}) {
    auto c = compileOk(src);
    native::NativeConfig inbox;
    inbox.numWorkers = 4;
    NativeRun ref = runNative(*c, inbox);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
    native::NativeConfig udp = inbox;
    udp.transport = native::TransportKind::Udp;
    NativeRun run = runNative(*c, udp);
    ASSERT_TRUE(run.stats.ok) << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
    EXPECT_GT(run.stats.counters.get("net.udp.tokensSent"), 0);
    EXPECT_EQ(run.stats.counters.get("native.framesLive"), 0);
  }
}

}  // namespace
}  // namespace pods
