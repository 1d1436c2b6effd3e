// Native threaded-runtime tests: the same SP programs executing on real
// host threads must produce bit-identical results to every other engine,
// under repetition (to shake out races) and across worker counts, and must
// detect the same program errors (violations, deadlocks).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

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

/// Unary minus, `!`, `&&`, `>`, floor, pow and exp on values that depend on
/// the loop index, so the frontend cannot fold them: every one of those
/// opcodes reaches both engines' executor.
constexpr const char* kOpMix = R"(
def main() -> real {
  let n = 12;
  let a = array(n);
  for i = 0 to n - 1 {
    let x = real(i) * 0.25 - 1.0;
    let flag = if x > 0.5 && !(i == 7) then 1.0 else 0.0;
    a[i] = floor(-x * 3.0) + pow(1.5, x) + exp(-x) + flag;
  }
  let s = for i = 0 to n - 1 carry (acc = 0.0) {
    next acc = acc + a[i];
  } yield acc;
  return s;
}
)";

TEST(Native, MatchesSimulatorOutputs) {
  // The two machines implement the same model at different fidelity; their
  // *results* must agree exactly, and with the sequential engine's.
  for (const std::string& src :
       {workloads::conductionOnlySource(10, 1), std::string(kOpMix)}) {
    auto c = compileOk(src);
    BaselineRun seq = runSequentialBaseline(*c);
    ASSERT_TRUE(seq.stats.ok) << seq.stats.error;
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
    EXPECT_TRUE(sameOutputs(natRun.out, seq.out, &why)) << why;
  }
  const auto mix = compileOk(kOpMix);
  std::set<Op> emitted;
  for (const SpCode& sp : mix->program.sps)
    for (const Instr& in : sp.code) emitted.insert(in.op);
  for (Op op : {Op::NEG, Op::NOT, Op::AND, Op::CMPGT, Op::FLOOR, Op::POW,
                Op::EXP})
    EXPECT_EQ(emitted.count(op), 1u) << opName(op) << " not emitted";
}

// --- wire array store (--store=wire) ----------------------------------------

/// The net.am.* request/serve ledgers must balance in any fault-free run:
/// every remote read answered, every write applied, every shape query
/// served, every deferred read eventually filled, every page fill cached.
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
  EXPECT_EQ(run.stats.counters.get("net.am.pageRunsSent"),
            run.stats.counters.get("net.am.pageRunsApplied"))
      << what;
  EXPECT_EQ(run.stats.counters.get("net.am.pageFillsSent"),
            run.stats.counters.get("net.am.pageFillsApplied"))
      << what;
  // The wire store must never touch the cell store.
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

/// A machine where owners hold arrays they have no shape for: with
/// distribution off every iteration runs on PE 0 (the allocator), and with
/// one-element pages over 4 PEs three quarters of the elements live on PEs
/// that never allocate or query the array — they serve Writes and ReadReqs
/// blind. Descending sweeps make each such owner see offsets below the
/// first one it saw.
native::NativeConfig shapelessOwnersConfig() {
  native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.pageElems = 1;
  nc.store = native::StoreKind::Wire;
  return nc;
}

TEST(WireStore, AdversarialOwnershipMatchesSequential) {
  // Ownership at its worst for owner-serviced access, always compared
  // against the sequential evaluator. Reversal: every read in b's loop
  // targets the block-layout mirror element, under uniform and skewed page
  // ownership (small pages spread it across all PEs); writes stay
  // owner-local by design — iteration placement follows the written
  // element's ownership (Data-Distributed Execution), and the mirror read
  // is what crosses PEs. Shapeless owners: three quarters of the writes
  // and reads are remote, served by owners that never learn the shape.
  struct Case {
    const char* what;
    std::string src;
    CompileOptions opts;
    native::NativeConfig nc;
    bool blindOwners;
  };
  native::NativeConfig uniform;
  uniform.numWorkers = 4;
  uniform.pageElems = 8;
  uniform.store = native::StoreKind::Wire;
  native::NativeConfig skewed = uniform;
  skewed.peWeights = {1, 7, 1, 7};
  const Case cases[] = {
      {"uniform", workloads::reversalSource(96), {}, uniform, false},
      {"skewed", workloads::reversalSource(96), {}, skewed, false},
      {"shapeless owners", R"(
def main() {
  let n = 24;
  let a = array(n);
  for i = n - 1 downto 0 { a[i] = real(i) * 0.5 + 1.0; }
  let b = array(n);
  for i = n - 1 downto 0 { b[i] = a[n - 1 - i] * 2.0; }
  let s = for i = n - 1 downto 0 carry (acc = 0.0) {
    next acc = acc + a[i] * b[i];
  } yield acc;
  return s, b;
}
)",
       {.distribute = false}, shapelessOwnersConfig(), true},
  };
  for (const Case& k : cases) {
    auto c = compileOk(k.src, k.opts);
    BaselineRun seq = runSequentialBaseline(*c);
    ASSERT_TRUE(seq.stats.ok) << k.what << ": " << seq.stats.error;
    NativeRun run = runNative(*c, k.nc);
    ASSERT_TRUE(run.stats.ok) << k.what << ": " << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << k.what << ": " << why;
    expectBalancedAmLedger(run, k.what);
    const Counters& ctr = run.stats.counters;
    EXPECT_GT(ctr.get("net.am.readReqSent"), 0) << k.what;
    if (k.blindOwners) {
      EXPECT_GT(ctr.get("net.am.writeSent"), 0) << k.what;
      EXPECT_EQ(ctr.get("net.am.dimReqSent"), 0) << k.what;  // no PE asked
    } else {
      EXPECT_EQ(ctr.get("net.am.writeSent"), 0) << k.what;
    }
  }
}

/// Runs `src` on 2 wire-store PEs over the inbox and the UDP transport,
/// checks each run bit-identical to the sequential evaluator with balanced
/// ledgers, and hands its counters to `check`.
template <class Check>
void forWireTransports(const std::string& src, Check check) {
  auto c = compileOk(src);
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;
  for (const native::TransportKind t :
       {native::TransportKind::Inbox, native::TransportKind::Udp}) {
    const std::string what = native::transportKindName(t);
    native::NativeConfig nc;
    nc.numWorkers = 2;
    nc.store = native::StoreKind::Wire;
    nc.transport = t;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << what << ": " << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << what << ": " << why;
    expectBalancedAmLedger(run, what);
    check(run.stats.counters, what);
  }
}

TEST(WireStore, PageCacheAnswersReadsOfPresentElements) {
  // Every read of b's loop waits for t, so it can only issue once all of a
  // is present: the first read of each PE's loop ships the whole remote
  // page, and the rest hit the cache. The carry loop reads its 32 remote
  // elements one after another and may miss on each, but its misses leave
  // the other half of a cached on its PE. Remote reads: 32 in the sum, 32
  // in each PE's half of b.
  constexpr const char* kSrc = R"(
def main() {
  let n = 64;
  let a = array(n);
  for i = 0 to n - 1 { a[i] = real(i) * 0.5 + 1.0; }
  let t = for i = 0 to n - 1 carry (acc = 0.0) {
    next acc = acc + a[i];
  } yield acc;
  let z = int(t) - int(t);
  let b = array(n);
  for i = 0 to n - 1 { b[i] = a[n - 1 - i + z] * 2.0; }
  return t, b;
}
)";
  forWireTransports(kSrc, [](const Counters& ctr, const std::string& what) {
    const std::int64_t sent = ctr.get("net.am.readReqSent");
    EXPECT_EQ(ctr.get("net.am.pageHits") + sent, 96) << what;
    EXPECT_LE(sent, 33) << what;
  });
}

TEST(WireStore, StencilRemoteReadsSplitIntoHitsAndRequests) {
  // Which reads hit depends on timing; how many remote reads the stencil
  // makes does not.
  forWireTransports(
      workloads::stencilSource(48, 10),
      [](const Counters& ctr, const std::string& what) {
        EXPECT_EQ(
            ctr.get("net.am.pageHits") + ctr.get("net.am.readReqSent"), 920)
            << what;
      });
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
  // double write is a detected violation, not a silent overwrite — also at
  // an owner that holds the element without knowing the array's shape.
  native::NativeConfig twoPes;
  twoPes.numWorkers = 2;
  twoPes.store = native::StoreKind::Wire;
  const std::pair<std::string, native::NativeConfig> cases[] = {
      {R"(
def main() -> real {
  let a = array(4);
  a[1] = 1.0;
  a[1] = 2.0;
  return a[1];
}
)",
       twoPes},
      {R"(
def main() -> real {
  let a = array(8);
  a[7] = 1.0;
  a[6] = 3.0;
  a[7] = 2.0;
  return a[0];
}
)",
       shapelessOwnersConfig()},
  };
  for (const auto& [src, nc] : cases) {
    auto c = compileOk(src, {.distribute = false});
    NativeRun run = runNative(*c, nc);
    EXPECT_FALSE(run.stats.ok) << nc.numWorkers << " PEs";
    EXPECT_NE(run.stats.error.find("single-assignment"), std::string::npos)
        << nc.numWorkers << " PEs: " << run.stats.error;
  }
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

// 70,000 arrays from one PE's loop: past the 65,536 arrays the old hashed
// shm table held, on the per-PE cell-store table.
constexpr const char* kManyArraysSource = R"(
def main() -> int {
  let last = loop carry (a = array(1), s = 0) while s < 70000 {
    let b = array(1);
    b[0] = s;
    next a = b;
    next s = s + 1;
  } yield a[0];
  return last;
}
)";

TEST(Native, SeventyThousandArraysBitIdentical) {
  auto c = compileOk(kManyArraysSource);
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;
  for (const native::StoreKind store :
       {native::StoreKind::Local, native::StoreKind::Wire}) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.store = store;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << why;
  }
}

TEST(Native, LargestArrayAllocates) {
  // ALLOC's cap is 2^26 elements; the cell store must hold one that big
  // (only the touched cells cost memory).
  auto c = compileOk(R"(
def main() -> real {
  let a = array(67108864);
  a[67108863] = 2.5;
  return a[67108863];
}
)", {.distribute = false});
  native::NativeConfig nc;
  nc.numWorkers = 2;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  ASSERT_EQ(run.stats.results.size(), 1u);
  EXPECT_TRUE(run.stats.results[0].identical(Value::realv(2.5)));
}

TEST(Native, AbortFlagAddsNoLatency) {
  // The abort monitor polls its flag, but run() must not wait out a poll
  // period once the workers are done.
  auto c = compileOk(R"(
def main() -> int { return 6 * 7; }
)");
  std::atomic<bool> never{false};
  std::vector<double> plain, watched;
  for (int i = 0; i < 21; ++i) {
    for (const bool withAbort : {false, true}) {
      native::NativeConfig nc;
      nc.numWorkers = 4;
      if (withAbort) nc.abort = &never;
      native::NativeMachine m(c->program, nc);
      const native::NativeResult r = m.run();
      ASSERT_TRUE(r.ok) << r.error;
      (withAbort ? watched : plain).push_back(r.wallSeconds * 1e3);
    }
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_LT(median(watched), median(plain) + 1.0)
      << "median run() " << median(watched) << " ms with abort set vs "
      << median(plain) << " ms without";
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
