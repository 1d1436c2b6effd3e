// PODS machine simulator tests: determinism, unit accounting, I-structure
// semantics (deferred reads, single-assignment violations), page caching,
// distributed allocation, deadlock diagnosis, and failure injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "core/pods.hpp"
#include "support/fault.hpp"
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

PodsRun runP(const Compiled& c, int pes, bool cache = true) {
  sim::MachineConfig mc;
  mc.numPEs = pes;
  mc.cachePages = cache;
  return runPods(c, mc);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto c = compileOk(workloads::stencilSource(8, 2));
  PodsRun a = runP(*c, 4);
  PodsRun b = runP(*c, 4);
  ASSERT_TRUE(a.stats.ok) << a.stats.error;
  EXPECT_EQ(a.stats.total.ns, b.stats.total.ns);
  EXPECT_EQ(a.stats.counters.get("events"), b.stats.counters.get("events"));
  std::string why;
  EXPECT_TRUE(sameOutputs(a.out, b.out, &why)) << why;
}

TEST(Machine, UtilizationsAreSane) {
  auto c = compileOk(workloads::fill2dSource(16, 16));
  PodsRun run = runP(*c, 4);
  ASSERT_TRUE(run.stats.ok);
  for (int pe = 0; pe < 4; ++pe) {
    for (int u = 0; u < sim::kNumUnits; ++u) {
      double util = run.stats.utilization(pe, static_cast<sim::Unit>(u));
      EXPECT_GE(util, 0.0);
      EXPECT_LE(util, 1.0 + 1e-9) << "pe " << pe << " unit " << u;
    }
  }
  // The Execution Unit dominates (the paper's Figure-8 observation).
  EXPECT_GT(run.stats.avgUtilization(sim::Unit::EU),
            run.stats.avgUtilization(sim::Unit::MM));
  EXPECT_GT(run.stats.avgUtilization(sim::Unit::EU),
            run.stats.avgUtilization(sim::Unit::AM));
}

TEST(Machine, SingleAssignmentViolationDetected) {
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[1] = 1.0;
  a[1] = 2.0;
  return a[1];
}
)", {.distribute = false});
  PodsRun run = runP(*c, 1);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("single-assignment"), std::string::npos);
}

TEST(Machine, OutOfBoundsDetected) {
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[7] = 1.0;
  return 0.0;
}
)", {.distribute = false});
  PodsRun run = runP(*c, 1);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("out of bounds"), std::string::npos);
}

TEST(Machine, DeadlockOnUnwrittenElementDiagnosed) {
  // Reads an element nobody ever writes: the read defers forever and the
  // machine reports which SPs never completed.
  auto c = compileOk(R"(
def main() -> real {
  let a = array(4);
  a[0] = 1.0;
  return a[3];
}
)", {.distribute = false});
  PodsRun run = runP(*c, 1);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("deadlock"), std::string::npos);
  EXPECT_NE(run.stats.error.find("main"), std::string::npos);
}

TEST(Machine, DeferredReadResolvedByLaterWrite) {
  auto c = compileOk(R"(
def slowwrite(a: array) {
  let x = for i = 0 to 50 carry (s = 0.0) { next s = s + sqrt(real(i)); } yield s;
  a[0] = x * 0.0 + 1.5;
}
def main() -> real {
  let a = array(1);
  slowwrite(a);
  return a[0] * 2.0;
}
)", {.distribute = false});
  PodsRun run = runP(*c, 1);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  EXPECT_DOUBLE_EQ(run.out.results[0].asReal(), 3.0);
  EXPECT_GE(run.stats.counters.get("array.reads.deferred"), 1);
}

TEST(Machine, CacheOffStillCorrectAndSlower) {
  auto c = compileOk(workloads::stencilSource(12, 2));
  PodsRun with = runP(*c, 4, /*cache=*/true);
  PodsRun without = runP(*c, 4, /*cache=*/false);
  ASSERT_TRUE(with.stats.ok) << with.stats.error;
  ASSERT_TRUE(without.stats.ok) << without.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(with.out, without.out, &why)) << why;
  // No cache -> at least as many page transfers and no less time.
  EXPECT_GE(without.stats.counters.get("array.pagesSent"),
            with.stats.counters.get("array.pagesSent"));
  EXPECT_GE(without.stats.total.ns, with.stats.total.ns);
  EXPECT_EQ(without.stats.counters.get("array.reads.cacheHit"), 0);
}

TEST(Machine, PageSizeVariantsAgreeOnResults) {
  auto c = compileOk(workloads::stencilSource(10, 1));
  PodsRun ref = runP(*c, 4);
  for (int page : {1, 8, 64, 256}) {
    sim::MachineConfig mc;
    mc.numPEs = 4;
    mc.timing.pageElems = page;
    PodsRun run = runPods(*c, mc);
    ASSERT_TRUE(run.stats.ok) << "page=" << page << ": " << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, ref.out, &why)) << "page=" << page << ": "
                                                     << why;
  }
}

TEST(Machine, MorePEsThanWork) {
  auto c = compileOk(workloads::fill2dSource(3, 3));
  PodsRun run = runP(*c, 16);  // more PEs than rows
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  ASSERT_TRUE(run.out.arrays[0].has_value());
  EXPECT_DOUBLE_EQ((*run.out.arrays[0]).elems[4].asReal(), 11.0);
}

TEST(Machine, DistributedAllocationBroadcasts) {
  auto c = compileOk(workloads::fill2dSource(8, 8));
  PodsRun run = runP(*c, 4);
  ASSERT_TRUE(run.stats.ok);
  EXPECT_EQ(run.stats.counters.get("array.allocs"), 1);
  // Replicated loop instances ran on every PE: 1 main + 4 i-loop replicas
  // + 8 j-loop instances.
  EXPECT_EQ(run.stats.counters.get("sp.instantiated"), 13);
  EXPECT_EQ(run.stats.counters.get("sp.completed"), 13);
}

TEST(Machine, NoDroppedTokens) {
  const std::string sources[] = {workloads::stencilSource(8, 2),
                                 workloads::matmulSource(6),
                                 workloads::triangularSource(12)};
  for (const std::string& src : sources) {
    auto c = compileOk(src);
    PodsRun run = runP(*c, 8);
    ASSERT_TRUE(run.stats.ok);
    EXPECT_EQ(run.stats.counters.get("tokens.dropped"), 0);
  }
}

TEST(Machine, EventBudgetStopsRunaway) {
  auto c = compileOk(workloads::stencilSource(16, 4));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  mc.maxEvents = 100;  // absurdly small
  PodsRun run = runPods(*c, mc);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_NE(run.stats.error.find("event budget"), std::string::npos);
}

// A frame that never blocks holds its EU: the slice ends at the livelock
// bound with a run error, rather than spinning the simulator forever.
TEST(Machine, NonBlockingLoopEndsWithLivelockError) {
  auto c = compileOk(R"(
def main() -> int {
  loop carry (s = 0) while s >= 0 { next s = s + 1; }
  return 0;
}
)");
  PodsRun run = runP(*c, 1);
  EXPECT_FALSE(run.stats.ok);
  EXPECT_EQ(run.stats.error, "livelock: one EU slice exceeded 50M instructions");
}

TEST(Machine, TimeScalesWithWork) {
  auto small = compileOk(workloads::fill2dSource(8, 8));
  auto large = compileOk(workloads::fill2dSource(32, 32));
  PodsRun a = runP(*small, 2);
  PodsRun b = runP(*large, 2);
  ASSERT_TRUE(a.stats.ok);
  ASSERT_TRUE(b.stats.ok);
  EXPECT_GT(b.stats.total.ns, a.stats.total.ns * 4);
}

TEST(Machine, RemoteWritesLandAtOwners) {
  // Force remote writes: distribute by block range so iterations do not
  // follow the data distribution (the ablation mode).
  auto c = compileOk(workloads::fill2dSource(16, 4),
                     {.distribute = true, .forceBlockRange = true});
  PodsRun run = runP(*c, 4);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  // Block partitioning of rows coincides with row ownership here, so force
  // a mismatch with a column-writing program instead.
  auto c2 = compileOk(R"(
def main() -> matrix {
  let m = matrix(16, 16);
  for j = 0 to 15 {
    for i = 0 to 15 {
      m[i,j] = real(i * 16 + j);
    }
  }
  return m;
}
)");
  PodsRun run2 = runP(*c2, 4);
  ASSERT_TRUE(run2.stats.ok) << run2.stats.error;
  EXPECT_GT(run2.stats.counters.get("array.writes.remote"), 0);
  ASSERT_TRUE(run2.out.arrays[0].has_value());
  EXPECT_DOUBLE_EQ((*run2.out.arrays[0]).elems[255].asReal(), 255.0);
}

/// FNV-1a over the schedule's integer observables: every (counter name,
/// value) pair outside sim.eventq.* (the queue's own gauges) and every PE's
/// per-unit busy time. Output values are left out: they are doubles, and
/// the outputs are checked against the fault-free run instead.
std::uint64_t scheduleDigest(const sim::RunStats& s) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 1099511628211ULL;
    }
  };
  auto mixInt = [&mix](std::int64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    mix(b, sizeof b);
  };
  for (const auto& [name, value] : s.counters.all()) {
    if (std::string_view(name).starts_with("sim.eventq.")) continue;
    mix(name.data(), name.size());
    mixInt(value);
  }
  for (const auto& pe : s.busy)
    for (const SimTime& unit : pe) mixInt(unit.ns);
  return h;
}

// The simulated schedule is pinned by recorded constants: a host-side
// change to the simulator (event queue, event bodies, counters) must
// reproduce them exactly, and a model change updates them and states the
// delta. The six kill rows' digests last changed when stragglers stopped
// leaving replay-ledger keys behind: recovery.dedup.liveKeys went from 266,
// 266, 158, 174, 237 and 480 to 0, with total and events unchanged.
TEST(Machine, ScheduleMatchesRecordedDigests) {
  struct Want {
    int pes;
    const char* mode;  // clean, lossy1, lossy2, kill, killLossy
    std::int64_t totalNs;
    std::uint64_t events;
    std::uint64_t digest;
  };
  const Want wants[] = {
      {1, "clean", 417719579, 28807, 8099619305499925536ULL},
      {1, "lossy1", 417719579, 28807, 12822152795819895143ULL},
      {1, "lossy2", 417719579, 28807, 12822152795819895143ULL},
      {1, "kill", 419408735, 31253, 1907448945501204084ULL},
      {1, "killLossy", 419408735, 31253, 1907448945501204084ULL},
      {4, "clean", 136814070, 121559, 18419633650583882991ULL},
      {4, "lossy1", 178574638, 130756, 6288738521465078884ULL},
      {4, "lossy2", 172931594, 129951, 15056428083416567908ULL},
      {4, "kill", 168570263, 136109, 12682754876986240850ULL},
      {4, "killLossy", 182830409, 132639, 11628706459283958295ULL},
      {16, "clean", 109362612, 169577, 15832763081792119011ULL},
      {16, "lossy1", 381655439, 236391, 2923573172736863813ULL},
      {16, "lossy2", 310940305, 224662, 14230113619022974140ULL},
      {16, "kill", 365272989, 238060, 16372396714469686937ULL},
      {16, "killLossy", 387832949, 236846, 4292959150982987283ULL},
  };
  auto c = compileOk(workloads::simpleSource(16, 2));
  ProgramOutputs ref;
  SimTime cleanTotal{};
  for (const Want& w : wants) {
    const std::string mode = w.mode;
    sim::MachineConfig mc;
    mc.numPEs = w.pes;
    if (mode == "lossy1" || mode == "lossy2" || mode == "killLossy") {
      ASSERT_TRUE(FaultConfig::parse("drop:0.05,dup:0.02,delay:0.05", mc.faults));
      mc.faults.seed = mode == "lossy2" ? 2 : 1;
    }
    if (mode == "kill" || mode == "killLossy") {
      mc.faults.killPe = w.pes - 1;
      mc.faults.killTimeUs = cleanTotal.us() / 2;
    }
    PodsRun run = runPods(*c, mc);
    ASSERT_TRUE(run.stats.ok) << w.pes << " " << mode << ": " << run.stats.error;
    if (mode == "clean") {
      cleanTotal = run.stats.total;
      if (w.pes == 1) ref = run.out;
    }
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, ref, &why)) << w.pes << " " << mode << ": "
                                                 << why;
    EXPECT_EQ(run.stats.total.ns, w.totalNs) << w.pes << " " << mode;
    EXPECT_EQ(run.stats.events, w.events) << w.pes << " " << mode;
    EXPECT_EQ(scheduleDigest(run.stats), w.digest) << w.pes << " " << mode;
  }
}

}  // namespace
}  // namespace pods
