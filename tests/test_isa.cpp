// SP instruction-set tests: encoding helpers, op names, timing table
// coverage, and disassembly.
#include <gtest/gtest.h>

#include "runtime/isa.hpp"
#include "sim/timing.hpp"

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

}  // namespace
}  // namespace pods
