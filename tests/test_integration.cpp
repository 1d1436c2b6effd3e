// Cross-model integration tests: every workload must produce bit-identical
// outputs on the PODS machine (across PE counts and page sizes), the static
// baseline, and the sequential evaluator — the Church-Rosser determinacy the
// paper argues for. Parameterized over (workload, PE count).
#include <gtest/gtest.h>

#include "core/pods.hpp"
#include "workloads/kernels.hpp"
#include "workloads/simple.hpp"

namespace pods {
namespace {

struct Scenario {
  const char* name;
  std::string source;
  int pes;
};

std::ostream& operator<<(std::ostream& os, const Scenario& s) {
  return os << s.name << "/PE" << s.pes;
}

class CrossModel : public ::testing::TestWithParam<Scenario> {};

TEST_P(CrossModel, AllModelsAgree) {
  const Scenario& s = GetParam();
  CompileResult cr = compile(s.source);
  ASSERT_TRUE(cr.ok) << cr.diagnostics;
  const Compiled& c = *cr.compiled;

  BaselineRun seq = runSequentialBaseline(c);
  ASSERT_TRUE(seq.stats.ok) << seq.stats.error;

  BaselineRun st = runStaticBaseline(c, s.pes);
  ASSERT_TRUE(st.stats.ok) << st.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(st.out, seq.out, &why)) << "static: " << why;

  sim::MachineConfig mc;
  mc.numPEs = s.pes;
  PodsRun pods = runPods(c, mc);
  ASSERT_TRUE(pods.stats.ok) << pods.stats.error;
  EXPECT_TRUE(sameOutputs(pods.out, seq.out, &why)) << "pods: " << why;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  struct Src {
    const char* name;
    std::string text;
  };
  const Src sources[] = {
      {"fill2d", workloads::fill2dSource(13, 9)},
      {"matmul", workloads::matmulSource(10)},
      {"stencil", workloads::stencilSource(12, 3)},
      {"reduce", workloads::reduceSource(200)},
      {"triangular", workloads::triangularSource(24)},
      {"simple", workloads::simpleSource(8, 2)},
      {"conduction", workloads::conductionOnlySource(10, 2)},
  };
  for (const Src& s : sources) {
    for (int pes : {1, 2, 5, 8}) {
      out.push_back({s.name, s.text, pes});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Workloads, CrossModel, ::testing::ValuesIn(scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return std::string(info.param.name) + "_PE" +
                                  std::to_string(info.param.pes);
                         });

TEST(Integration, CompileOncRunAnywhere) {
  // One compiled artifact runs correctly at every machine size.
  CompileResult cr = compile(workloads::stencilSource(10, 2));
  ASSERT_TRUE(cr.ok);
  BaselineRun seq = runSequentialBaseline(*cr.compiled);
  for (int pes : {1, 3, 7, 16, 32}) {
    sim::MachineConfig mc;
    mc.numPEs = pes;
    PodsRun run = runPods(*cr.compiled, mc);
    ASSERT_TRUE(run.stats.ok) << "pes=" << pes << ": " << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, seq.out, &why)) << why;
  }
}

TEST(Integration, SpeedupIsMonotoneEnough) {
  // Parallel work must not get slower when doubling PEs at small counts.
  CompileResult cr = compile(workloads::fill2dSource(64, 32));
  ASSERT_TRUE(cr.ok);
  sim::MachineConfig mc;
  mc.numPEs = 1;
  SimTime t1 = runPods(*cr.compiled, mc).stats.total;
  mc.numPEs = 2;
  SimTime t2 = runPods(*cr.compiled, mc).stats.total;
  mc.numPEs = 4;
  SimTime t4 = runPods(*cr.compiled, mc).stats.total;
  EXPECT_LT(t2.ns, t1.ns);
  EXPECT_LT(t4.ns, t2.ns);
}

TEST(Integration, PodsOverheadBounded) {
  // PODS on one PE is slower than the conventional sequential version but
  // "not grossly inefficient" (the paper saw about 2x on conduction).
  CompileResult cr = compile(workloads::conductionOnlySource(16, 1));
  ASSERT_TRUE(cr.ok);
  BaselineRun seq = runSequentialBaseline(*cr.compiled);
  sim::MachineConfig mc;
  mc.numPEs = 1;
  PodsRun pods = runPods(*cr.compiled, mc);
  ASSERT_TRUE(seq.stats.ok);
  ASSERT_TRUE(pods.stats.ok);
  double ratio = static_cast<double>(pods.stats.total.ns) /
                 static_cast<double>(seq.stats.total.ns);
  EXPECT_GE(ratio, 1.0);
  EXPECT_LE(ratio, 3.0);
}

TEST(Integration, RfPlacementAblationStaysCorrect) {
  CompileResult a = compile(workloads::stencilSource(12, 1));
  CompileResult b = compile(workloads::stencilSource(12, 1),
                            {.distribute = true, .forceBlockRange = true});
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  sim::MachineConfig mc;
  mc.numPEs = 6;
  PodsRun ra = runPods(*a.compiled, mc);
  PodsRun rb = runPods(*b.compiled, mc);
  ASSERT_TRUE(ra.stats.ok) << ra.stats.error;
  ASSERT_TRUE(rb.stats.ok) << rb.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(ra.out, rb.out, &why)) << why;
  // The forced block-range plan natively too: BLKLO/BLKHI run on both
  // engines' shared executor, against either array store.
  for (const native::StoreKind store :
       {native::StoreKind::Local, native::StoreKind::Wire}) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.store = store;
    NativeRun rn = runNative(*b.compiled, nc);
    ASSERT_TRUE(rn.stats.ok) << rn.stats.error;
    EXPECT_TRUE(sameOutputs(rn.out, ra.out, &why)) << why;
  }
}

}  // namespace
}  // namespace pods
