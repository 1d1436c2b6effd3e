// PE fail-stop recovery tests (docs/ARCHITECTURE.md, "Fail-stop recovery").
//
// The property under test: killing any single PE at any point in the run and
// restarting it from its receive/allocate log must leave the results
// bit-identical to a fault-free run, with no leaked frames and no hang.
// Recovery is deterministic replay — single assignment makes re-executed
// frames produce identical tokens, the mint log makes NEWCTX/ALLOC
// idempotent, and logical send keys (not message ids, which a re-executed
// send mints afresh) deduplicate the replayed traffic.
//
// The sweeps spread the kill time across the whole run (the simulator kills
// at a fraction of the fault-free simulated completion time; the native
// runtime sweeps a wall-clock grid, where late kills may simply not fire
// before completion — also a case worth covering) and rotate the victim PE
// through every position. PODS_KILL_SEEDS raises the sweep width in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

#include "core/pods.hpp"
#include "support/fault.hpp"
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

/// Seed count for the kill sweeps: PODS_KILL_SEEDS overrides (the CI
/// recovery-soak job raises it), default 32.
int killSeeds() {
  if (const char* env = std::getenv("PODS_KILL_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 32;
}

/// Kill `pe` at a simulated time `frac` of the way through a run that takes
/// `totalUs` fault-free. The restart delay stays at its default.
FaultConfig killAt(int pe, double timeUs) {
  FaultConfig fc;
  fc.killPe = pe;
  fc.killTimeUs = timeUs;
  return fc;
}

std::map<std::string, std::int64_t> counterMap(const Counters& c) {
  std::map<std::string, std::int64_t> m;
  for (const auto& [k, v] : c.all()) m.emplace(k, v);
  return m;
}

/// PE counts for the simulator kill sweeps. PODS_KILL_PES_EXTRA appends one
/// larger machine (the CI recovery-soak job sets 32, the paper's full
/// Figure 10 width).
std::vector<int> killPes() {
  std::vector<int> pes = {4, 8};
  if (const char* env = std::getenv("PODS_KILL_PES_EXTRA")) {
    const int n = std::atoi(env);
    if (n > 0) pes.push_back(n);
  }
  return pes;
}

// --- spec parsing -----------------------------------------------------------

TEST(KillSpecParse, AcceptsWellFormedSpecs) {
  FaultConfig fc;
  ASSERT_TRUE(FaultConfig::parse("kill:2@350", fc));
  EXPECT_EQ(fc.killPe, 2);
  EXPECT_DOUBLE_EQ(fc.killTimeUs, 350.0);
  EXPECT_DOUBLE_EQ(fc.killRestartUs, 400.0);  // default restart delay
  EXPECT_TRUE(fc.killEnabled());
  EXPECT_TRUE(fc.enabled());  // a kill alone turns the delivery layer on

  FaultConfig withRestart;
  ASSERT_TRUE(FaultConfig::parse("kill:0@125+800", withRestart));
  EXPECT_EQ(withRestart.killPe, 0);
  EXPECT_DOUBLE_EQ(withRestart.killTimeUs, 125.0);
  EXPECT_DOUBLE_EQ(withRestart.killRestartUs, 800.0);

  FaultConfig combined;
  ASSERT_TRUE(FaultConfig::parse("drop:0.01,kill:1@100,dup:0.005", combined));
  EXPECT_EQ(combined.killPe, 1);
  EXPECT_DOUBLE_EQ(combined.dropProb, 0.01);
  EXPECT_DOUBLE_EQ(combined.dupProb, 0.005);
}

TEST(KillSpecParse, RejectsMalformedSpecs) {
  FaultConfig fc;
  std::string err;
  EXPECT_FALSE(FaultConfig::parse("kill", fc, &err));
  EXPECT_FALSE(FaultConfig::parse("kill:1", fc, &err));
  EXPECT_NE(err.find("kill:PE@TIMEUS"), std::string::npos) << err;
  EXPECT_FALSE(FaultConfig::parse("kill:x@5", fc, &err));
  EXPECT_FALSE(FaultConfig::parse("kill:-1@5", fc, &err));
  EXPECT_FALSE(FaultConfig::parse("kill:1@zap", fc, &err));
  EXPECT_FALSE(FaultConfig::parse("kill:1@-5", fc, &err));
  EXPECT_FALSE(FaultConfig::parse("kill:1@5+", fc, &err));
  EXPECT_FALSE(FaultConfig::parse("kill:1@5+-2", fc, &err));
  EXPECT_FALSE(fc.killEnabled());  // failed parses left the config alone
}

// --- simulator sweeps -------------------------------------------------------

// Kill each PE in turn at times spread over the whole run; the results must
// be bit-identical to the fault-free reference on every seed.
TEST(KillFuzz, SimSimpleBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  const int seeds = killSeeds();
  std::int64_t replayed = 0;
  for (int pes : killPes()) {
    sim::MachineConfig clean;
    clean.numPEs = pes;
    PodsRun ref = runPods(*c, clean);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
    const double totalUs = ref.stats.total.ns / 1e3;
    for (int seed = 1; seed <= seeds; ++seed) {
      sim::MachineConfig mc;
      mc.numPEs = pes;
      mc.faults = killAt(seed % pes, totalUs * seed / (seeds + 1.0));
      PodsRun run = runPods(*c, mc);
      ASSERT_TRUE(run.stats.ok)
          << "pes=" << pes << " seed=" << seed << ": " << run.stats.error;
      std::string why;
      ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
          << "pes=" << pes << " seed=" << seed << ": " << why;
      EXPECT_EQ(run.stats.counters.get("fault.kills"), 1);
      EXPECT_EQ(run.stats.counters.get("fault.restarts"), 1);
      // No leaked SP instances: every instantiation completed despite the
      // wipe (rebuilt frames are the *same* instances, not new ones).
      EXPECT_EQ(run.stats.counters.get("sp.instantiated"),
                run.stats.counters.get("sp.completed"))
          << "pes=" << pes << " seed=" << seed;
      replayed += run.stats.counters.get("recovery.replayedFrames");
    }
  }
  // The sweep must actually exercise recovery, not just early/late kills
  // with nothing live on the victim.
  EXPECT_GT(replayed, 0);
}

// A long dead window forces allocations to happen while the victim is down:
// distributed arrays born then must remap the dead PE's page segment onto a
// survivor (and stay remapped after the restart), still bit-exact.
TEST(KillFuzz, SimDeadWindowAllocationsMigrate) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  sim::MachineConfig clean;
  clean.numPEs = 4;
  PodsRun ref = runPods(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const double totalUs = ref.stats.total.ns / 1e3;
  // Victim 0 is excluded: the driver frame doing the allocating lives on
  // PE 0, so while it is down nothing allocates and nothing can migrate.
  for (int victim : {1, 3}) {
    sim::MachineConfig mc;
    mc.numPEs = 4;
    mc.faults.killPe = victim;
    mc.faults.killTimeUs = totalUs * 0.05;
    mc.faults.killRestartUs = totalUs * 0.5;  // down for half the run
    PodsRun run = runPods(*c, mc);
    ASSERT_TRUE(run.stats.ok) << "victim=" << victim << ": "
                              << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "victim=" << victim << ": " << why;
    EXPECT_GT(run.stats.counters.get("recovery.migratedArrays"), 0)
        << "victim=" << victim;
    EXPECT_EQ(run.stats.counters.get("sp.instantiated"),
              run.stats.counters.get("sp.completed"))
        << "victim=" << victim;
  }
}

TEST(KillFuzz, SimRecursiveWorkload) {
  auto c = compileOk(kFibSource);
  sim::MachineConfig clean;
  clean.numPEs = 4;
  PodsRun ref = runPods(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const double totalUs = ref.stats.total.ns / 1e3;
  const int seeds = killSeeds();
  std::int64_t replayed = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    sim::MachineConfig mc;
    mc.numPEs = 4;
    mc.faults = killAt(seed % 4, totalUs * seed / (seeds + 1.0));
    PodsRun run = runPods(*c, mc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("sp.instantiated"),
              run.stats.counters.get("sp.completed"))
        << "seed=" << seed;
    replayed += run.stats.counters.get("recovery.replayedFrames");
  }
  EXPECT_GT(replayed, 0);
}

// A fail-stop on top of a lossy, duplicating, delaying network: the kill's
// recovery traffic itself rides the unreliable transport.
TEST(KillFuzz, SimKillPlusLossyNetwork) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  const int seeds = killSeeds();
  for (int pes : killPes()) {
    sim::MachineConfig clean;
    clean.numPEs = pes;
    PodsRun ref = runPods(*c, clean);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
    const double totalUs = ref.stats.total.ns / 1e3;
    for (int seed = 1; seed <= seeds; ++seed) {
      sim::MachineConfig mc;
      mc.numPEs = pes;
      ASSERT_TRUE(
          FaultConfig::parse("drop:0.03,dup:0.02,delay:0.03", mc.faults));
      mc.faults.seed = static_cast<std::uint64_t>(seed);
      mc.faults.killPe = seed % pes;
      mc.faults.killTimeUs = totalUs * seed / (seeds + 1.0);
      PodsRun run = runPods(*c, mc);
      ASSERT_TRUE(run.stats.ok)
          << "pes=" << pes << " seed=" << seed << ": " << run.stats.error;
      std::string why;
      ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
          << "pes=" << pes << " seed=" << seed << ": " << why;
      EXPECT_EQ(run.stats.counters.get("fault.kills"), 1)
          << "pes=" << pes << " seed=" << seed;
    }
  }
}

// Weighted ownership (--pe-weights) composes with fail-stop recovery: the
// skewed page cut changes which allocations/tokens land on the victim and
// the migrated segment map inherits the skew, but the results must still be
// bit-identical — both to the fault-free *weighted* run and to the uniform
// reference (placement is invisible under single assignment).
TEST(KillFuzz, SimWeightedOwnershipBitIdentical) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  sim::MachineConfig clean;
  clean.numPEs = 4;
  PodsRun uniform = runPods(*c, clean);
  ASSERT_TRUE(uniform.stats.ok) << uniform.stats.error;

  sim::MachineConfig weightedClean = clean;
  weightedClean.peWeights = {6, 1, 1, 1};
  PodsRun ref = runPods(*c, weightedClean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  std::string why;
  ASSERT_TRUE(sameOutputs(ref.out, uniform.out, &why)) << why;

  const double totalUs = ref.stats.total.ns / 1e3;
  const int seeds = std::max(4, killSeeds() / 4);
  for (int seed = 1; seed <= seeds; ++seed) {
    sim::MachineConfig mc = weightedClean;
    ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", mc.faults));
    mc.faults.seed = static_cast<std::uint64_t>(seed);
    mc.faults.killPe = seed % 4;  // includes the heavy PE 0
    mc.faults.killTimeUs = totalUs * seed / (seeds + 1.0);
    PodsRun run = runPods(*c, mc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("fault.kills"), 1);
    EXPECT_EQ(run.stats.counters.get("sp.instantiated"),
              run.stats.counters.get("sp.completed"))
        << "seed=" << seed;
  }
}

// Same on the native runtime: a wall-clock kill under a skewed cut, checked
// against the uniform fault-free outputs.
TEST(KillFuzz, NativeWeightedOwnershipBitIdentical) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = std::max(4, killSeeds() / 4);
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc = clean;
    nc.peWeights = {1, 1, 5, 1};
    ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", nc.faults));
    nc.faults.seed = static_cast<std::uint64_t>(seed);
    nc.faults.retry.rtoUs = 50.0;
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
  }
}

// Same seed => the killed run replays the exact same schedule: simulated
// completion time and every counter (including the recovery tallies) match.
TEST(KillFuzz, SimBitDeterministicAcrossRepeats) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  for (int seed : {1, 9, 17}) {
    sim::MachineConfig mc;
    mc.numPEs = 8;
    mc.faults = killAt(seed % 8, 150.0 + 70.0 * seed);
    mc.faults.seed = static_cast<std::uint64_t>(seed);
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

// Wall-clock kill grid on the real threaded runtime. Late grid points may
// land after completion (the kill never fires) — that must also be clean.
TEST(KillFuzz, NativeSimpleBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = killSeeds();
  std::int64_t fired = 0, replayed = 0;
  for (int workers : {4, 8}) {
    for (int seed = 1; seed <= seeds; ++seed) {
      native::NativeConfig nc;
      nc.numWorkers = workers;
      nc.faults = killAt(seed % workers, 100.0 + (seed * 173) % 4000);
      nc.faults.killRestartUs = 100.0;
      NativeRun run = runNative(*c, nc);
      ASSERT_TRUE(run.stats.ok)
          << "workers=" << workers << " seed=" << seed << ": "
          << run.stats.error;
      std::string why;
      ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
          << "workers=" << workers << " seed=" << seed << ": " << why;
      // Zero leaked frames: rebuilt frames are the wiped instances, so the
      // created/retired ledger still balances exactly.
      EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
                run.stats.counters.get("native.framesRetired"))
          << "workers=" << workers << " seed=" << seed;
      EXPECT_EQ(run.stats.counters.get("native.framesLive"), 0);
      fired += run.stats.counters.get("fault.kills");
      replayed += run.stats.counters.get("recovery.replayedFrames");
    }
  }
  // The grid must hit the live window often enough to mean something.
  EXPECT_GT(fired, 0);
  EXPECT_GT(replayed, 0);
}

TEST(KillFuzz, NativeRecursiveWorkload) {
  auto c = compileOk(kFibSource);
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = killSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 8;
    // fib(13) finishes in about a millisecond of wall clock, so the sweep
    // leans early; a kill grid point past completion simply never fires,
    // which must also leave the run clean.
    nc.faults = killAt(seed % 8, (seed * 131) % 900);
    nc.faults.killRestartUs = 100.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"))
        << "seed=" << seed;
  }
  // A kill of worker 0 at t=0 always fires: main is pinned to worker 0, so
  // the run cannot complete before that thread's first scheduling point —
  // unlike an arbitrary victim, whose thread may never iterate before a
  // fast run finishes. This pins a deterministic "the kill actually fired
  // and the Boot frame was rebuilt" case for the recursive shape.
  native::NativeConfig nc0;
  nc0.numWorkers = 8;
  nc0.faults = killAt(0, 0.0);
  nc0.faults.killRestartUs = 100.0;
  NativeRun atBoot = runNative(*c, nc0);
  ASSERT_TRUE(atBoot.stats.ok) << atBoot.stats.error;
  std::string why;
  ASSERT_TRUE(sameOutputs(atBoot.out, ref.out, &why)) << why;
  EXPECT_EQ(atBoot.stats.counters.get("fault.kills"), 1);
}

TEST(KillFuzz, NativeKillPlusLossyNetwork) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
  const int seeds = killSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", nc.faults));
    nc.faults.seed = static_cast<std::uint64_t>(seed);
    nc.faults.killPe = seed % 4;
    nc.faults.killTimeUs = 100.0 + (seed * 211) % 2500;
    nc.faults.killRestartUs = 100.0;
    nc.faults.retry.rtoUs = 50.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
              run.stats.counters.get("native.framesRetired"))
        << "seed=" << seed;
  }
}

// --- configuration errors ---------------------------------------------------

TEST(KillErrors, SimKillPeOutOfRangeIsARuntimeError) {
  auto c = compileOk(workloads::simpleSource(12, 2));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  mc.faults = killAt(7, 100.0);
  PodsRun run = runPods(*c, mc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("kill fault targets PE"), std::string::npos)
      << run.stats.error;
}

TEST(KillErrors, NativeKillPeOutOfRangeIsARuntimeError) {
  auto c = compileOk(workloads::simpleSource(12, 2));
  native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.faults = killAt(4, 100.0);
  NativeRun run = runNative(*c, nc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("kill fault targets worker"),
            std::string::npos)
      << run.stats.error;
}

}  // namespace
}  // namespace pods
