// SP instruction-set tests: encoding helpers, op names, timing table
// coverage, disassembly, and the load-time program check (checkProgram)
// that the SP executor relies on for its pc and operand bounds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/pods.hpp"
#include "native/native_machine.hpp"
#include "runtime/isa.hpp"
#include "sim/machine.hpp"
#include "sim/timing.hpp"
#include "workloads/kernels.hpp"
#include "workloads/livermore.hpp"
#include "workloads/simple.hpp"

namespace pods {
namespace {

TEST(Isa, TargetPacking) {
  std::uint32_t aux = Instr::packTarget(0x1234, 0x5678);
  Instr in;
  in.aux = aux;
  EXPECT_EQ(in.targetSp(), 0x1234);
  EXPECT_EQ(in.targetSlot(), 0x5678);
}

TEST(Isa, OpNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (int o = 0; o <= static_cast<int>(Op::END); ++o) {
    std::string n = opName(static_cast<Op>(o));
    EXPECT_FALSE(n.empty());
    EXPECT_NE(n, "?");
    EXPECT_TRUE(names.insert(n).second) << "duplicate op name " << n;
  }
}

TEST(Isa, EveryOpHasPositiveEuCost) {
  sim::Timing t;
  for (int o = 0; o <= static_cast<int>(Op::END); ++o) {
    Op op = static_cast<Op>(o);
    EXPECT_GT(t.euCost(op, false).ns, 0) << opName(op);
    EXPECT_GT(t.euCost(op, true).ns, 0) << opName(op);
  }
}

TEST(Isa, FloatingCostsDominateIntegerCosts) {
  sim::Timing t;
  for (Op op : {Op::ADD, Op::SUB, Op::MUL, Op::DIV, Op::CMPLT, Op::NEG}) {
    EXPECT_GT(t.euCost(op, true).ns, t.euCost(op, false).ns) << opName(op);
  }
}

TEST(Isa, PaperInstructionCostsExact) {
  sim::Timing t;
  EXPECT_EQ(t.euCost(Op::ADD, false).ns, 300);
  EXPECT_EQ(t.euCost(Op::ADD, true).ns, 6753);
  EXPECT_EQ(t.euCost(Op::SUB, true).ns, 6757);
  EXPECT_EQ(t.euCost(Op::MUL, true).ns, 7217);
  EXPECT_EQ(t.euCost(Op::DIV, true).ns, 10707);
  EXPECT_EQ(t.euCost(Op::POW, true).ns, 96418);
  EXPECT_EQ(t.euCost(Op::SQRT, true).ns, 18929);
  EXPECT_EQ(t.euCost(Op::ABS, true).ns, 12626);
  EXPECT_EQ(t.euCost(Op::CMPLT, true).ns, 5803);
  EXPECT_EQ(t.euCost(Op::ARD, false).ns, 2700);
}

TEST(Isa, TokenRouteAndPageMessage) {
  sim::Timing t;
  EXPECT_EQ(t.tokenRoute().ns, 19500);  // 390 / 20
  // 697 + 0.4 * (32 * 8) = 799.4 us
  EXPECT_EQ(t.pageMessage().ns, 799400);
  t.tokenBatch = 1;
  EXPECT_EQ(t.tokenRoute().ns, 390000);
  t.pageElems = 64;
  EXPECT_EQ(t.pageMessage().ns, 697000 + 400 * 64 * 8);
}

TEST(Isa, DisasmRendersEveryFormat) {
  SpCode sp;
  sp.id = 3;
  sp.name = "demo";
  sp.kind = SpKind::ForLoop;
  sp.replicated = true;
  sp.numSlots = 8;
  sp.numArgs = 2;
  sp.slotNames = {"a", "b", "c", "d", "e", "f", "g", "h"};
  auto add = [&](Op op) -> Instr& {
    sp.code.emplace_back();
    sp.code.back().op = op;
    return sp.code.back();
  };
  Instr& lit = add(Op::LIT);
  lit.dst = 0;
  lit.imm = Value::intv(7);
  Instr& brf = add(Op::BRF);
  brf.a = 0;
  brf.aux = 5;
  Instr& ard = add(Op::ARD);
  ard.dst = 1;
  ard.a = 2;
  ard.b = 3;
  ard.c = 4;
  Instr& awr = add(Op::AWR);
  awr.dst = 1;
  awr.a = 2;
  awr.b = 3;
  Instr& rf = add(Op::RFLO);
  rf.dst = 5;
  rf.a = 2;
  rf.dim = 1;
  rf.off = -1;
  rf.b = 3;
  Instr& snd = add(Op::SENDD);
  snd.a = 0;
  snd.b = 6;
  snd.aux = Instr::packTarget(9, 4);
  Instr& mk = add(Op::MKCONT);
  mk.dst = 7;
  mk.aux = 2;
  Instr& aw = add(Op::AWAITN);
  aw.a = 6;
  aw.b = 0;
  Instr& res = add(Op::RESULT);
  res.a = 0;
  res.aux = 1;
  add(Op::END);

  std::string d = disasmSp(sp);
  EXPECT_NE(d.find("demo"), std::string::npos);
  EXPECT_NE(d.find("[for-loop]"), std::string::npos);
  EXPECT_NE(d.find("[replicated/LD]"), std::string::npos);
  EXPECT_NE(d.find("a <- 7"), std::string::npos);
  EXPECT_NE(d.find("if !a -> 5"), std::string::npos);
  EXPECT_NE(d.find("b <- c[d,e]"), std::string::npos);
  EXPECT_NE(d.find("c[d] <- b"), std::string::npos);
  EXPECT_NE(d.find("rf(c, dim=1, off=-1, row=d)"), std::string::npos);
  EXPECT_NE(d.find("sp9.slot4"), std::string::npos);
  EXPECT_NE(d.find("cont(self, slot 2)"), std::string::npos);
  EXPECT_NE(d.find("until g >= a"), std::string::npos);
  EXPECT_NE(d.find("#1 <- a"), std::string::npos);
}

TEST(Isa, SlotNameFallbacks) {
  SpCode sp;
  sp.numSlots = 3;
  EXPECT_EQ(sp.slotName(kNoSlot), "-");
  EXPECT_EQ(sp.slotName(1), "s1");  // no debug names present
  sp.slotNames = {"x"};
  EXPECT_EQ(sp.slotName(0), "x");
  EXPECT_EQ(sp.slotName(2), "s2");
}

// --- the load-time check ---------------------------------------------------

TEST(SpProgramCheck, EveryCompiledProgramPasses) {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& entry :
       std::filesystem::directory_iterator(PODS_PROGRAMS_DIR)) {
    if (entry.path().extension() != ".idl") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    sources.emplace_back(entry.path().filename().string(), text.str());
  }
  ASSERT_GE(sources.size(), 4u);
  sources.emplace_back("simple", workloads::simpleSource(12, 2));
  sources.emplace_back("conduction", workloads::conductionOnlySource(12, 2));
  sources.emplace_back("fill2d", workloads::fill2dSource(8, 6));
  sources.emplace_back("matmul", workloads::matmulSource(6));
  sources.emplace_back("stencil", workloads::stencilSource(16, 3));
  sources.emplace_back("reduce", workloads::reduceSource(16));
  sources.emplace_back("reversal", workloads::reversalSource(16));
  sources.emplace_back("spreadFib", workloads::spreadFibSource(8));
  sources.emplace_back("triangular", workloads::triangularSource(8));
  for (const workloads::LivermoreKernel& k : workloads::livermoreKernels())
    sources.emplace_back("livermore " + std::to_string(k.number),
                         workloads::livermoreSource(k.number, 32));
  const CompileOptions plans[] = {
      {}, {.distribute = false}, {.distribute = true, .forceBlockRange = true}};
  for (const auto& [name, src] : sources) {
    for (const CompileOptions& opts : plans) {
      SCOPED_TRACE(name + (opts.distribute ? "" : " --no-distribute") +
                   (opts.forceBlockRange ? " --block-range" : ""));
      const CompileResult cr = compile(src, opts);
      ASSERT_TRUE(cr.ok) << cr.diagnostics;
      EXPECT_EQ(checkProgram(cr.compiled->program), "");
    }
  }
}

/// A well-formed two-SP program the defect cases below each break once.
SpProgram wellFormed() {
  auto ins = [](Op op, std::uint16_t a, std::uint16_t b, std::uint16_t dst,
                std::uint32_t aux = 0) {
    Instr in;
    in.op = op;
    in.a = a;
    in.b = b;
    in.dst = dst;
    in.aux = aux;
    return in;
  };
  SpCode main;
  main.name = "main";
  main.numSlots = 4;
  main.code = {ins(Op::LIT, kNoSlot, kNoSlot, 0),                       // 0
               ins(Op::NEWCTX, kNoSlot, kNoSlot, 1),                    // 1
               ins(Op::SENDA, 0, 1, kNoSlot, Instr::packTarget(1, 0)),  // 2
               ins(Op::BRF, 0, kNoSlot, kNoSlot, 5),                    // 3
               ins(Op::JMP, kNoSlot, kNoSlot, kNoSlot, 0),              // 4
               ins(Op::END, kNoSlot, kNoSlot, kNoSlot)};                // 5
  main.code[0].imm = Value::intv(1);
  SpCode child;
  child.id = 1;
  child.name = "child";
  child.numSlots = 2;
  child.code = {ins(Op::ADD, 0, 0, 1), ins(Op::END, kNoSlot, kNoSlot, kNoSlot)};
  SpProgram prog;
  prog.sps = {main, child};
  return prog;
}

TEST(SpProgramCheck, EachDefectIsNamedBySpAndPc) {
  ASSERT_EQ(checkProgram(wellFormed()), "");
  const std::vector<std::pair<std::function<void(SpProgram&)>, std::string>>
      defects = {
          {[](SpProgram& p) { p.sps[1].code.pop_back(); },
           "SP 1 'child' pc 0: ADD falls off the end (an SP ends in END or "
           "JMP)"},
          {[](SpProgram& p) {
             p.sps[0].code[5] = p.sps[0].code[3];
             p.sps[0].code[5].aux = 0;
           },
           "SP 0 'main' pc 5: BRF falls off the end (an SP ends in END or "
           "JMP)"},
          {[](SpProgram& p) { p.sps[1].code.clear(); },
           "SP 1 'child' pc 0: no code (an SP ends in END or JMP)"},
          {[](SpProgram& p) { p.sps[0].code[3].aux = 6; },
           "SP 0 'main' pc 3: BRF target is outside the SP"},
          {[](SpProgram& p) { p.sps[0].code[4].aux = 99; },
           "SP 0 'main' pc 4: JMP target is outside the SP"},
          {[](SpProgram& p) { p.sps[1].code[0].b = 2; },
           "SP 1 'child' pc 0: ADD operand b is past the SP's slots"},
          {[](SpProgram& p) { p.sps[0].code[1].dst = 4; },
           "SP 0 'main' pc 1: NEWCTX operand dst is past the SP's slots"},
          {[](SpProgram& p) { p.sps[1].code[0].a = kNoSlot; },
           "SP 1 'child' pc 0: ADD operand a names no slot"},
          {[](SpProgram& p) { p.sps[0].code[2].b = kNoSlot; },
           "SP 0 'main' pc 2: SENDA operand b names no slot"},
          {[](SpProgram& p) { p.sps[0].code[2].aux = Instr::packTarget(2, 0); },
           "SP 0 'main' pc 2: SENDA targets no SP"},
          {[](SpProgram& p) { p.sps[0].code[2].aux = Instr::packTarget(1, 2); },
           "SP 0 'main' pc 2: SENDA targets a slot past its SP's slots"},
          {[](SpProgram& p) {
             p.sps[0].code[1].op = Op::MKCONT;
             p.sps[0].code[1].aux = 4;
           },
           "SP 0 'main' pc 1: MKCONT continuation slot is past the SP's "
           "slots"},
          {[](SpProgram& p) { p.mainSp = 2; },
           "main SP 2 is not one of the program's 2 SPs"},
          {[](SpProgram& p) { p.numResults = -1; },
           "result count -1 is negative"},
      };
  for (const auto& [breakIt, want] : defects) {
    SpProgram prog = wellFormed();
    breakIt(prog);
    EXPECT_EQ(checkProgram(prog), want);
  }
}

// kNoSlot is "no operand" in exactly the optional positions, and a rank
// outside {1, 2} is no allocation.
TEST(SpProgramCheck, NoSlotOnlyWhereTheExecutorReadsNoOperand) {
  auto withChild = [](Op op, std::uint8_t dim, std::uint16_t b,
                      std::uint16_t c) {
    SpProgram prog = wellFormed();
    Instr& in = prog.sps[1].code[0];
    in.op = op;
    in.dim = dim;
    in.b = b;
    in.c = c;
    return checkProgram(prog);
  };
  EXPECT_EQ(withChild(Op::ARD, 1, 0, kNoSlot), "");
  EXPECT_EQ(withChild(Op::AWR, 1, 0, kNoSlot), "");
  EXPECT_EQ(withChild(Op::ALLOC, 1, kNoSlot, kNoSlot), "");
  EXPECT_EQ(withChild(Op::ALLOCD, 1, kNoSlot, kNoSlot), "");
  EXPECT_EQ(withChild(Op::RFLO, 0, kNoSlot, kNoSlot), "");
  EXPECT_EQ(withChild(Op::RFHI, 0, kNoSlot, kNoSlot), "");
  EXPECT_EQ(withChild(Op::ALLOC, 2, kNoSlot, kNoSlot),
            "SP 1 'child' pc 0: ALLOC operand b names no slot");
  EXPECT_EQ(withChild(Op::RFHI, 1, kNoSlot, kNoSlot),
            "SP 1 'child' pc 0: RFHI operand b names no slot");
  EXPECT_EQ(withChild(Op::ARD, 1, kNoSlot, kNoSlot),
            "SP 1 'child' pc 0: ARD operand b names no slot");
  EXPECT_EQ(withChild(Op::ARD, 2, 0, 5),
            "SP 1 'child' pc 0: ARD operand c is past the SP's slots");
  EXPECT_EQ(withChild(Op::ALLOCD, 3, 0, kNoSlot),
            "SP 1 'child' pc 0: ALLOCD rank is not 1 or 2");
}

#if GTEST_HAS_DEATH_TEST
// Both engines run the check when they are built: only the compiler makes
// programs in-process, so a malformed one is a bug, not an input.
TEST(SpProgramCheck, BothEnginesRefuseAMalformedProgram) {
  SpProgram prog = wellFormed();
  prog.sps[1].code.pop_back();
  EXPECT_DEATH({ sim::Machine m(prog, sim::MachineConfig{}); },
               "ADD falls off the end");
  EXPECT_DEATH({ native::NativeMachine m(prog, native::NativeConfig{}); },
               "ADD falls off the end");
}
#endif

}  // namespace
}  // namespace pods
