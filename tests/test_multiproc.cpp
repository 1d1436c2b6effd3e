// Multi-process PODS tests (docs/ARCHITECTURE.md, "Multi-process execution").
//
// The supervisor in this binary forks worker processes from THIS BINARY
// (fork + exec of /proc/self/exe with --pods-worker=CTLFD,SOCKFD), so main()
// below hands forked invocations to the worker entry point before gtest ever
// parses argv.
//
// Properties under test:
//   - parity: a multi-process run is bit-identical to the in-process engine
//     on the same program (Church-Rosser — placement and process boundaries
//     must not show in the answer);
//   - supervised kill -9 recovery: SIGKILLing a worker at a seeded time (or
//     externally, from outside the supervisor) respawns it from the
//     supervisor's copy of its receive/allocate log and the run still
//     completes bit-identical, with balanced frame ledgers;
//   - hung-PE recovery: a worker that stops heartbeating (but stays alive)
//     is SIGKILLed by the supervisor's watchdog and recovered the same way;
//   - canonical counter namespaces (net.ctl.*, proc.*, native.*) survive the
//     supervisor's merge.
//
// PODS_MULTIPROC_SEEDS raises the kill-soak width (the CI multiproc-soak job
// sets it); the default keeps local runs fast.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "core/pods.hpp"
#include "native/procmgr.hpp"
#include "support/fault.hpp"
#include "workloads/kernels.hpp"
#include "workloads/simple.hpp"

namespace pods {
namespace {

constexpr const char* kFibSource = R"(
def fib(n: int) -> int {
  let r = if n < 2 then n else fib(n - 1) + fib(n - 2);
  return r;
}
def main() -> int { return fib(13); }
)";

std::unique_ptr<Compiled> compileOk(const std::string& src) {
  CompileResult cr = compile(src, {});
  EXPECT_TRUE(cr.ok) << cr.diagnostics;
  return std::move(cr.compiled);
}

/// Seed count for the kill soak: PODS_MULTIPROC_SEEDS overrides (the CI
/// multiproc-soak job raises it), default 6 — each seed is a full
/// fork-per-PE run, so the local default stays modest.
int multiprocSeeds() {
  if (const char* env = std::getenv("PODS_MULTIPROC_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 6;
}

native::NativeConfig multiprocConfig(int pes) {
  native::NativeConfig nc;
  nc.numWorkers = pes;
  nc.transport = native::TransportKind::UdpMultiproc;
  return nc;
}

// --- parity -----------------------------------------------------------------

TEST(Multiproc, SimpleBitIdenticalToInProcess) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig inproc;
  inproc.numWorkers = 4;
  NativeRun ref = runNative(*c, inproc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  NativeRun run = runNative(*c, multiprocConfig(4));
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  ASSERT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
  EXPECT_EQ(run.stats.counters.get("native.workers"), 4);
  EXPECT_EQ(run.stats.counters.get("net.ctl.badFrames"), 0);
  EXPECT_GT(run.stats.counters.get("net.ctl.frames"), 0);
  EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
            run.stats.counters.get("native.framesRetired"));
}

TEST(Multiproc, FibBitIdenticalToInProcessEightPes) {
  auto c = compileOk(kFibSource);
  native::NativeConfig inproc;
  inproc.numWorkers = 8;
  NativeRun ref = runNative(*c, inproc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  NativeRun run = runNative(*c, multiprocConfig(8));
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  ASSERT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
  EXPECT_EQ(run.stats.counters.get("proc.respawns"), 0);
}

// 70,000 arrays from one worker's loop: the hashed shm table this store
// replaced held 65,536 and failed the run with "store exhausted".
TEST(Multiproc, SeventyThousandArraysBitIdentical) {
  auto c = compileOk(R"(
def main() -> int {
  let last = loop carry (a = array(1), s = 0) while s < 70000 {
    let b = array(1);
    b[0] = s;
    next a = b;
    next s = s + 1;
  } yield a[0];
  return last;
}
)");
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;
  NativeRun run = runNative(*c, multiprocConfig(2));
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << why;
}

// The canonical namespaces must survive the supervisor's merge: a rename on
// either side of the ctl channel would silently break dashboards and the CI
// stats checks keyed on these names.
TEST(Multiproc, CanonicalCounterNamespaces) {
  auto c = compileOk(workloads::simpleSource(8, 1));
  NativeRun run = runNative(*c, multiprocConfig(2));
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  for (const char* name :
       {"native.workers", "native.framesCreated", "native.framesRetired",
        "net.ctl.frames", "net.ctl.badFrames", "proc.respawns",
        "proc.heartbeatTimeouts"}) {
    bool found = false;
    for (const auto& [k, v] : run.stats.counters.all()) {
      (void)v;
      if (k == name) found = true;
    }
    EXPECT_TRUE(found) << "missing canonical counter: " << name;
  }
  // Fault-free, every worker counts each ack it builds once, as it sends it.
  EXPECT_GT(run.stats.counters.get("net.udp.acksSent"), 0);
  EXPECT_EQ(run.stats.counters.get("net.retx.acks"),
            run.stats.counters.get("net.udp.acksSent"));
}

// --- wire array store (no cell store at all) ---------------------------------
//
// --store=wire is the layering remote-host workers need: the supervisor
// creates NO cell store, each PE holds only the array pages it owns, every
// cross-PE access is an owner-serviced message on the UDP data plane, and
// the workers ship their owned slices back inside their Result frames.

TEST(MultiprocWire, SimpleBitIdenticalWithZeroShmOps) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig inproc;
  inproc.numWorkers = 4;
  NativeRun ref = runNative(*c, inproc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  native::NativeConfig nc = multiprocConfig(4);
  nc.store = native::StoreKind::Wire;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  ASSERT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
  // The whole point: not one array element moved through shared memory.
  EXPECT_EQ(run.stats.counters.get("native.shmArrayOps"), 0);
  EXPECT_EQ(run.stats.counters.get("net.am.readReqSent"),
            run.stats.counters.get("net.am.readReqServed"));
  EXPECT_EQ(run.stats.counters.get("net.am.writeSent"),
            run.stats.counters.get("net.am.writeApplied"));
  EXPECT_EQ(run.stats.counters.get("net.am.dimReqSent"),
            run.stats.counters.get("net.am.dimReqServed"));
  EXPECT_EQ(run.stats.counters.get("net.am.parks"),
            run.stats.counters.get("net.am.parkFills"));
  EXPECT_EQ(run.stats.counters.get("net.am.pageRunsSent"),
            run.stats.counters.get("net.am.pageRunsApplied"));
  EXPECT_EQ(run.stats.counters.get("net.am.pageFillsSent"),
            run.stats.counters.get("net.am.pageFillsApplied"));
  EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
            run.stats.counters.get("native.framesRetired"));
  EXPECT_EQ(run.stats.counters.get("net.ctl.badFrames"), 0);
}

TEST(MultiprocWire, AdversarialOwnershipAcrossWeights) {
  auto c = compileOk(workloads::reversalSource(96));
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;
  for (const std::vector<std::int64_t>& weights :
       {std::vector<std::int64_t>{}, std::vector<std::int64_t>{1, 7, 1, 7}}) {
    native::NativeConfig nc = multiprocConfig(4);
    nc.pageElems = 8;
    nc.peWeights = weights;
    nc.store = native::StoreKind::Wire;
    NativeRun run = runNative(*c, nc);
    const std::string what = weights.empty() ? "uniform" : "skewed";
    ASSERT_TRUE(run.stats.ok) << what << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, seq.out, &why)) << what << ": " << why;
    EXPECT_EQ(run.stats.counters.get("native.shmArrayOps"), 0) << what;
    EXPECT_GT(run.stats.counters.get("net.am.readReqSent"), 0) << what;
    EXPECT_EQ(run.stats.counters.get("net.am.parks"),
              run.stats.counters.get("net.am.parkFills"))
        << what;
  }
}

TEST(MultiprocWireKill, KillRecoveryBitIdentical) {
  // kill -9 a worker mid-run under the wire store: its owned elements,
  // parked readers, and shape table are rebuilt from the supervisor's copy
  // of its Am log; deferred replies regenerate on replay.
  auto c = compileOk(workloads::reversalSource(96));
  BaselineRun seq = runSequentialBaseline(*c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;

  const int seeds = std::max(3, multiprocSeeds() / 2);
  std::int64_t kills = 0;
  // Seed 0 kills PE 0 late, after its own fill loop has retired: the
  // elements it wrote to itself can only come back from its log.
  for (int seed = 0; seed <= seeds; ++seed) {
    native::NativeConfig nc = multiprocConfig(4);
    nc.pageElems = 8;
    nc.store = native::StoreKind::Wire;
    nc.faults.killPe = seed % 4;
    nc.faults.killTimeUs =
        seed == 0 ? 30000.0 : 200.0 + (seed * 1733) % 12000;
    nc.faults.killRestartUs = 200.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, seq.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("native.shmArrayOps"), 0)
        << "seed=" << seed;
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"))
        << "seed=" << seed;
    kills += run.stats.counters.get("fault.kills");
  }
  EXPECT_GT(kills, 0);
}

// --- supervised kill -9 recovery --------------------------------------------

TEST(MultiprocKill, SeededSoakBitIdentical) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig inproc;
  inproc.numWorkers = 4;
  NativeRun ref = runNative(*c, inproc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = multiprocSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc = multiprocConfig(4);
    nc.faults.killPe = seed % 4;
    // Spread kills across the whole run including "too late to fire".
    nc.faults.killTimeUs = 200.0 + (seed * 1733) % 12000;
    nc.faults.killRestartUs = 200.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    const std::int64_t kills = run.stats.counters.get("fault.kills");
    EXPECT_EQ(run.stats.counters.get("proc.respawns"), kills)
        << "seed=" << seed;
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"))
        << "seed=" << seed;
    EXPECT_EQ(run.stats.counters.get("net.ctl.badFrames"), 0)
        << "seed=" << seed;
  }
}

TEST(MultiprocKill, FibKillEveryPe) {
  auto c = compileOk(kFibSource);
  native::NativeConfig inproc;
  inproc.numWorkers = 4;
  NativeRun ref = runNative(*c, inproc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  for (int pe = 0; pe < 4; ++pe) {
    native::NativeConfig nc = multiprocConfig(4);
    nc.faults.killPe = pe;
    nc.faults.killTimeUs = 1500.0;
    nc.faults.killRestartUs = 200.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "pe=" << pe << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "pe=" << pe << ": " << why;
  }
}

// A real external `kill -9` — sent by this test from outside the supervisor,
// exactly as an operator (or the OOM killer) would. PODS_TEST_PIDFILE makes
// the supervisor append "pe pid epoch" per spawned worker; the test snipes a
// worker as soon as its pid appears and the run must still come out
// bit-identical, with the kill visible in proc.respawns.
TEST(MultiprocKill, ExternalSigkillRecovered) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig inproc;
  inproc.numWorkers = 4;
  NativeRun ref = runNative(*c, inproc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const std::string pidfile =
      "/tmp/pods_multiproc_pids." + std::to_string(::getpid());
  std::remove(pidfile.c_str());
  ::setenv("PODS_TEST_PIDFILE", pidfile.c_str(), 1);

  std::thread sniper([&] {
    // Poll for worker PE 2, epoch 0, then SIGKILL it. If the run finishes
    // first (pid never appears), the test degenerates to fault-free parity.
    for (int i = 0; i < 2000; ++i) {
      std::ifstream in(pidfile);
      int pe = 0, epoch = 0;
      long pid = 0;
      while (in >> pe >> pid >> epoch) {
        if (pe == 2 && epoch == 0) {
          ::kill(static_cast<pid_t>(pid), SIGKILL);
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  NativeRun run = runNative(*c, multiprocConfig(4));
  sniper.join();
  ::unsetenv("PODS_TEST_PIDFILE");
  std::remove(pidfile.c_str());

  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  ASSERT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
  EXPECT_GE(run.stats.counters.get("proc.respawns"), 1);
  EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
            run.stats.counters.get("native.framesRetired"));
}

// --- hung-PE heartbeat recovery ---------------------------------------------

// PODS_TEST_STOP_HEARTBEAT="pe@ms" freezes worker PE 1's ctl thread 5 ms in
// (epoch 0 only): no heartbeats, no Status replies, no log shipping — alive
// but indistinguishable from a wedged process. Only the supervisor's
// heartbeat watchdog can recover the run; the respawned epoch-1 incarnation
// (which the hook leaves alone) must finish it bit-identically.
TEST(MultiprocHang, HeartbeatTimeoutRestartsHungPe) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig inproc;
  inproc.numWorkers = 4;
  NativeRun ref = runNative(*c, inproc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  ::setenv("PODS_TEST_STOP_HEARTBEAT", "1@5", 1);
  native::NativeConfig nc = multiprocConfig(4);
  nc.heartbeatPeriodMs = 10;
  nc.heartbeatTimeoutMs = 300;  // keep the stall (and the test) short
  NativeRun run = runNative(*c, nc);
  ::unsetenv("PODS_TEST_STOP_HEARTBEAT");

  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  ASSERT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
  EXPECT_GE(run.stats.counters.get("proc.heartbeatTimeouts"), 1);
  EXPECT_GE(run.stats.counters.get("proc.respawns"), 1);
}

}  // namespace
}  // namespace pods

int main(int argc, char** argv) {
  // Forked worker invocations (--pods-worker=CTLFD,SOCKFD) never reach
  // gtest: the worker entry point takes over the process and _exits.
  pods::native::procmgr::maybeRunPodsWorker(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
