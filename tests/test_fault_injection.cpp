// Fault-injection and reliable-delivery tests (docs/ARCHITECTURE.md, "Fault
// model & delivery guarantees").
//
// The property under test is Church-Rosser under an unreliable network: for
// any fault seed and any drop/dup/delay/stall rates up to 5%, both engines
// must complete and produce results bit-identical to a fault-free run —
// single assignment makes redelivered data harmless, message-id dedup makes
// non-idempotent tokens (ADDC, spawn-by-token) exactly-once, and the
// receive core triages stragglers reordered past an instance's END. The
// sweeps run PODS_FAULT_SEEDS seeds (default 32; CI soak raises it) across
// engines and PE counts, on SIMPLE 16x16 and a recursive workload that runs
// on every PE.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "core/pods.hpp"
#include "support/fault.hpp"
#include "workloads/kernels.hpp"
#include "workloads/simple.hpp"

namespace pods {
namespace {

std::unique_ptr<Compiled> compileOk(const std::string& src) {
  CompileResult cr = compile(src, {});
  EXPECT_TRUE(cr.ok) << cr.diagnostics;
  return std::move(cr.compiled);
}

/// Seed count for the fuzz sweeps: PODS_FAULT_SEEDS overrides (the CI soak
/// job raises it), default 32.
int faultSeeds() {
  if (const char* env = std::getenv("PODS_FAULT_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 32;
}

FaultConfig faultRates(std::uint64_t seed) {
  FaultConfig fc;
  EXPECT_TRUE(FaultConfig::parse("drop:0.05,dup:0.02,delay:0.05", fc));
  fc.seed = seed;
  // Keep the native sweeps fast: short retry/delay clocks.
  fc.retry.rtoUs = 50.0;
  fc.nativeDelayUs = 20.0;
  return fc;
}

/// Injected network faults of a run.
std::int64_t injectedFaults(const Counters& c) {
  return c.get("fault.drops") + c.get("fault.dups") + c.get("fault.delays");
}

std::map<std::string, std::int64_t> counterMap(const Counters& c) {
  std::map<std::string, std::int64_t> m;
  for (const auto& [k, v] : c.all()) m.emplace(k, v);
  return m;
}

TEST(FaultConfigParse, AcceptsWellFormedSpecs) {
  FaultConfig fc;
  ASSERT_TRUE(FaultConfig::parse("drop:0.01,dup:0.005,delay:0.02", fc));
  EXPECT_DOUBLE_EQ(fc.dropProb, 0.01);
  EXPECT_DOUBLE_EQ(fc.dupProb, 0.005);
  EXPECT_DOUBLE_EQ(fc.delayProb, 0.02);
  EXPECT_DOUBLE_EQ(fc.stallProb, 0.0);
  EXPECT_TRUE(fc.enabled());

  FaultConfig one;
  ASSERT_TRUE(FaultConfig::parse("stall:0.5", one));
  EXPECT_DOUBLE_EQ(one.stallProb, 0.5);

  FaultConfig none;
  EXPECT_FALSE(none.enabled());
}

TEST(FaultConfigParse, RejectsMalformedSpecs) {
  FaultConfig fc;
  std::string err;
  EXPECT_FALSE(FaultConfig::parse("drop", fc, &err));
  EXPECT_NE(err.find("key:prob"), std::string::npos);
  EXPECT_FALSE(FaultConfig::parse("drop:0.6", fc, &err));  // > 0.5
  EXPECT_NE(err.find("not in [0, 0.5]"), std::string::npos);
  EXPECT_FALSE(FaultConfig::parse("drop:zap", fc, &err));
  EXPECT_FALSE(FaultConfig::parse("teleport:0.1", fc, &err));
  EXPECT_NE(err.find("unknown key"), std::string::npos);
  EXPECT_FALSE(FaultConfig::parse("drop:0.1,,dup:0.1", fc, &err));
  EXPECT_NE(err.find("empty entry"), std::string::npos);
}

TEST(FaultPlanDraws, DeterministicAndSeedSensitive) {
  FaultConfig fc = faultRates(7);
  FaultPlan a(fc), b(fc);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(static_cast<int>(a.action(id)), static_cast<int>(b.action(id)));
  }
  fc.seed = 8;
  FaultPlan other(fc);
  int differs = 0;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    if (a.action(id) != other.action(id)) ++differs;
  }
  EXPECT_GT(differs, 0);  // a new seed is a new schedule
}

// --- simulator sweeps -------------------------------------------------------

TEST(FaultFuzz, SimSimpleBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  const int seeds = faultSeeds();
  std::int64_t resent = 0, dedup = 0, injected = 0;
  // The 16-PE cell keeps the default 500 us RTO: at the sweep's 50 us every
  // 16-PE lossy run gives up (ROADMAP item 7). Its backed-off retransmit
  // timers, up to 32 ms out, reach the event queue's highest buckets.
  struct Cell {
    int pes;
    double rtoUs;
  };
  const double sweepRto = faultRates(1).retry.rtoUs;
  const double defaultRto = proto::RetryPolicy{}.rtoUs;
  for (const auto [pes, rtoUs] : {Cell{1, sweepRto}, Cell{4, sweepRto},
                                  Cell{8, sweepRto}, Cell{16, defaultRto}}) {
    sim::MachineConfig clean;
    clean.numPEs = pes;
    PodsRun ref = runPods(*c, clean);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
    for (int seed = 1; seed <= seeds; ++seed) {
      sim::MachineConfig mc;
      mc.numPEs = pes;
      mc.faults = faultRates(static_cast<std::uint64_t>(seed));
      mc.faults.retry.rtoUs = rtoUs;
      PodsRun run = runPods(*c, mc);
      ASSERT_TRUE(run.stats.ok)
          << "pes=" << pes << " seed=" << seed << ": " << run.stats.error;
      std::string why;
      ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
          << "pes=" << pes << " seed=" << seed << ": " << why;
      // Leaked-frame check: every instantiated SP must retire even when the
      // run completed through drops, duplicates, and delays.
      EXPECT_EQ(run.stats.counters.get("sp.instantiated"),
                run.stats.counters.get("sp.completed"))
          << "pes=" << pes << " seed=" << seed;
      resent += run.stats.counters.get("net.retx.resent");
      dedup += run.stats.counters.get("net.retx.dupSuppressed");
      injected += injectedFaults(run.stats.counters);
    }
  }
  // The protocol must actually have been exercised across the sweep.
  EXPECT_GT(injected, 0);
  EXPECT_GT(resent, 0);
  EXPECT_GT(dedup, 0);
}

// The recursion runs on every PE (fib(13) alone keeps every frame on PE 0,
// so its sweeps rolled no fault dice), and the sweep must inject faults.
TEST(FaultFuzz, SimRecursiveWorkload) {
  auto c = compileOk(workloads::spreadFibSource(256));
  sim::MachineConfig clean;
  clean.numPEs = 4;
  PodsRun ref = runPods(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = faultSeeds();
  std::int64_t injected = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    sim::MachineConfig mc;
    mc.numPEs = 4;
    mc.faults = faultRates(static_cast<std::uint64_t>(seed));
    mc.faults.stallProb = 0.02;
    PodsRun run = runPods(*c, mc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("sp.instantiated"),
              run.stats.counters.get("sp.completed"))
        << "seed=" << seed;
    injected += injectedFaults(run.stats.counters);
  }
  EXPECT_GT(injected, 0);
}

TEST(FaultFuzz, SimBitDeterministicAcrossRepeats) {
  // Same seed => identical event schedule: simulated completion time and
  // every counter (including the injected-fault tallies) must match exactly.
  auto c = compileOk(workloads::simpleSource(16, 2));
  for (int seed : {1, 5, 23}) {
    sim::MachineConfig mc;
    mc.numPEs = 8;
    mc.faults = faultRates(static_cast<std::uint64_t>(seed));
    PodsRun a = runPods(*c, mc);
    PodsRun b = runPods(*c, mc);
    ASSERT_TRUE(a.stats.ok) << a.stats.error;
    ASSERT_TRUE(b.stats.ok) << b.stats.error;
    EXPECT_EQ(a.stats.total.ns, b.stats.total.ns) << "seed=" << seed;
    EXPECT_EQ(counterMap(a.stats.counters), counterMap(b.stats.counters))
        << "seed=" << seed;
    std::string why;
    EXPECT_TRUE(sameOutputs(a.out, b.out, &why)) << why;
  }
}

// --- native sweeps ----------------------------------------------------------

TEST(FaultFuzz, NativeSimpleBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = faultSeeds();
  std::int64_t injected = 0;
  for (int workers : {1, 4, 8}) {
    for (int seed = 1; seed <= seeds; ++seed) {
      native::NativeConfig nc;
      nc.numWorkers = workers;
      nc.faults = faultRates(static_cast<std::uint64_t>(seed));
      NativeRun run = runNative(*c, nc);
      ASSERT_TRUE(run.stats.ok)
          << "workers=" << workers << " seed=" << seed << ": "
          << run.stats.error;
      std::string why;
      ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
          << "workers=" << workers << " seed=" << seed << ": " << why;
      // Zero leaked frames: the ledger balances even with injected faults.
      EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
                run.stats.counters.get("native.framesRetired"))
          << "workers=" << workers << " seed=" << seed;
      EXPECT_EQ(run.stats.counters.get("native.framesLive"), 0);
      // The inbox deposits both copies of an injected duplicate, and the
      // receiving worker's msgId ledger suppresses exactly the second. The
      // checks above would not show a missed one: with the suppression
      // disabled these runs still match the fault-free outputs and balance
      // their frame ledgers.
      EXPECT_EQ(run.stats.counters.get("native.dupSuppressed"),
                run.stats.counters.get("fault.dups"))
          << "workers=" << workers << " seed=" << seed;
      injected += injectedFaults(run.stats.counters);
    }
  }
  EXPECT_GT(injected, 0);
}

TEST(FaultFuzz, NativeRecursiveWorkload) {
  auto c = compileOk(workloads::spreadFibSource(256));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = faultSeeds();
  std::int64_t injected = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 8;
    nc.faults = faultRates(static_cast<std::uint64_t>(seed));
    nc.faults.stallProb = 0.01;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"));
    injected += injectedFaults(run.stats.counters);
  }
  EXPECT_GT(injected, 0);
}

// --- wire-store sweeps ------------------------------------------------------
//
// With --store=wire the array plane rides the token transport, so the same
// fault dice that land on tokens now land on array reads, writes, shape
// queries, and value replies — by construction, not by a second shim. The
// sweeps fuzz an array-heavy adversarial-ownership workload (every read
// remotely owned) and must stay bit-identical to a fault-free run.

TEST(FaultFuzz, NativeWireStoreArrayHeavyBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::reversalSource(64));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = faultSeeds();
  std::int64_t injected = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.pageElems = 8;
    nc.store = native::StoreKind::Wire;
    nc.faults = faultRates(static_cast<std::uint64_t>(seed));
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"))
        << "seed=" << seed;
    EXPECT_EQ(run.stats.counters.get("native.shmArrayOps"), 0)
        << "seed=" << seed;
    injected += injectedFaults(run.stats.counters);
    // The workload is array-message dominated: remote reads must have
    // happened for the dice to have had anything array-shaped to hit.
    EXPECT_GT(run.stats.counters.get("net.am.readReqSent"), 0)
        << "seed=" << seed;
  }
  EXPECT_GT(injected, 0);
}

TEST(FaultFuzz, NativeWireStoreKillPlusLossyArrayHeavy) {
  // Kill × drop/dup/delay on the array-heavy workload: the respawned PE
  // rebuilds its owned elements, parked readers, and shape table from its
  // Am log while the lossy dice keep rolling.
  auto c = compileOk(workloads::reversalSource(64));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = std::max(4, faultSeeds() / 2);
  std::int64_t kills = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.pageElems = 8;
    nc.store = native::StoreKind::Wire;
    nc.faults = faultRates(static_cast<std::uint64_t>(seed));
    nc.faults.killPe = seed % 4;
    nc.faults.killTimeUs = 100.0 + (seed * 211) % 2500;
    nc.faults.killRestartUs = 100.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"))
        << "seed=" << seed;
    kills += run.stats.counters.get("fault.kills");
  }
  EXPECT_GT(kills, 0);
}

// --- give-up ----------------------------------------------------------------
//
// A message dropped on every one of its RetryPolicy::maxAttempts
// transmissions is a partition, not a silent loss: the driver that holds
// it gives up with a structured error and counts it. At drop:0.5 and two
// attempts a quarter of all messages give up.

FaultConfig giveUpRates() {
  FaultConfig fc;
  EXPECT_TRUE(FaultConfig::parse("drop:0.5", fc));
  fc.retry.maxAttempts = 2;
  fc.retry.rtoUs = 50.0;
  return fc;
}

TEST(DeliveryGiveUp, SimRoutingUnitGivesUpAtMaxAttempts) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  mc.faults = giveUpRates();
  PodsRun run = runPods(*c, mc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("reliable delivery gave up on a message to "
                                 "PE "),
            std::string::npos)
      << run.stats.error;
  EXPECT_NE(run.stats.error.find(" after 2 attempts"), std::string::npos)
      << run.stats.error;
  EXPECT_GE(run.stats.counters.get("net.retx.giveUps"), 1);
}

TEST(DeliveryGiveUp, NativeInboxGivesUpAtMaxAttempts) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.faults = giveUpRates();
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("reliable delivery gave up on a token to "
                                 "worker "),
            std::string::npos)
      << run.stats.error;
  EXPECT_NE(run.stats.error.find(" after 2 attempts"), std::string::npos)
      << run.stats.error;
  EXPECT_GE(run.stats.counters.get("net.retx.giveUps"), 1);
}

// --- forensics & watchdog ---------------------------------------------------

TEST(MachineForensics, EventBudgetNamesTrippingEventAndLiveSps) {
  auto c = compileOk(workloads::simpleSource(12, 2));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  mc.maxEvents = 100;
  PodsRun run = runPods(*c, mc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("event budget exhausted"), std::string::npos)
      << run.stats.error;
  EXPECT_NE(run.stats.error.find("maxEvents=100"), std::string::npos)
      << run.stats.error;
  EXPECT_NE(run.stats.error.find("on PE "), std::string::npos)
      << run.stats.error;
  EXPECT_NE(run.stats.error.find("SPs live"), std::string::npos)
      << run.stats.error;
  // stats.total is stamped from the tripping event itself, so the reported
  // total and the "t=...us" in the message agree exactly (they used to lag
  // one event apart: total was taken from `now` before it advanced).
  EXPECT_NE(run.stats.error.find(
                "t=" + std::to_string(run.stats.total.us()) + "us"),
            std::string::npos)
      << run.stats.error << " vs total=" << run.stats.total.us();
}

TEST(MachineForensics, SimAbortFlagStopsRun) {
  auto c = compileOk(workloads::simpleSource(12, 2));
  std::atomic<bool> abortFlag{true};  // pre-raised: stop on the first event
  sim::MachineConfig mc;
  mc.numPEs = 4;
  mc.abort = &abortFlag;
  PodsRun run = runPods(*c, mc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("aborted"), std::string::npos)
      << run.stats.error;
  // Same total/tripping-time consistency contract as the event budget.
  EXPECT_NE(run.stats.error.find(
                "t=" + std::to_string(run.stats.total.us()) + "us"),
            std::string::npos)
      << run.stats.error << " vs total=" << run.stats.total.us();
}

TEST(MachineForensics, NativeAbortFlagStopsRun) {
  auto c = compileOk(workloads::simpleSource(12, 2));
  std::atomic<bool> abortFlag{false};
  native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.abort = &abortFlag;
  std::thread raiser([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    abortFlag.store(true);
  });
  NativeRun run = runNative(*c, nc);
  raiser.join();
  // Either the run won the race (finished in time) or it was aborted — it
  // must never hang or crash, and an abort must be reported as one.
  if (!run.stats.ok) {
    EXPECT_NE(run.stats.error.find("aborted"), std::string::npos)
        << run.stats.error;
  }
}

TEST(MachineForensics, NativeAbortPreRaisedAlwaysAborts) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  std::atomic<bool> abortFlag{true};
  native::NativeConfig nc;
  nc.numWorkers = 2;
  nc.faults = faultRates(3);  // slow the run so the monitor always wins
  nc.faults.retry.rtoUs = 5000.0;
  nc.abort = &abortFlag;
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("aborted"), std::string::npos)
      << run.stats.error;
}

}  // namespace
}  // namespace pods
