// Delivery-protocol core tests (docs/ARCHITECTURE.md, "Delivery protocol
// core").
//
// Three kinds of property live here:
//   1. proto::Delivery driven directly through drop / duplicate / reorder /
//      give-up traces — the state machine alone, no engine, no clock;
//   2. counter parity: the same program + fault config on the simulator and
//      the native runtime must emit the identical *set* of protocol counter
//      names (the canonical `net.retx.*` / `fault.*` namespace), so
//      dashboards and the bench archive can diff engines field-for-field;
//   3. weighted ownership end-to-end: a skewed --pe-weights run completes
//      bit-exact (single assignment makes placement invisible to values)
//      while visibly shifting per-link traffic, and the recovery ledgers
//      stay bounded under kill + loss because retired contexts prune their
//      dedup keys and mint-log entries.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/pods.hpp"
#include "proto/delivery.hpp"
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

// --- RetryPolicy ------------------------------------------------------------

TEST(RetryPolicy, BackoffDoublesThenCaps) {
  proto::RetryPolicy p;
  p.rtoUs = 100.0;
  p.maxBackoffDoublings = 3;
  EXPECT_DOUBLE_EQ(p.backoffUs(1, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(p.backoffUs(2, 100.0), 200.0);
  EXPECT_DOUBLE_EQ(p.backoffUs(3, 100.0), 400.0);
  EXPECT_DOUBLE_EQ(p.backoffUs(4, 100.0), 800.0);
  EXPECT_DOUBLE_EQ(p.backoffUs(5, 100.0), 800.0);   // capped
  EXPECT_DOUBLE_EQ(p.backoffUs(50, 100.0), 800.0);  // still capped
}

TEST(RetryPolicy, GiveUpBoundaryIsInclusive) {
  proto::RetryPolicy p;
  p.maxAttempts = 3;
  EXPECT_FALSE(p.giveUpAt(1));
  EXPECT_FALSE(p.giveUpAt(2));
  EXPECT_TRUE(p.giveUpAt(3));
  EXPECT_TRUE(p.giveUpAt(4));
}

TEST(RetryPolicy, FaultFreeFloorOnlyRaises) {
  proto::RetryPolicy p;
  p.rtoUs = 500.0;
  p.faultFreeFloorUs = 5000.0;
  EXPECT_DOUBLE_EQ(p.baseRtoUs(/*faultsEnabled=*/true), 500.0);
  EXPECT_DOUBLE_EQ(p.baseRtoUs(/*faultsEnabled=*/false), 5000.0);
  p.rtoUs = 9000.0;  // already above the floor: honored as-is
  EXPECT_DOUBLE_EQ(p.baseRtoUs(false), 9000.0);
}

// --- Delivery sender window -------------------------------------------------

TEST(DeliverySender, AckRetiresTheMessage) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  d.onSend(7);
  EXPECT_TRUE(d.inFlight(7));
  d.onAck(7);
  EXPECT_FALSE(d.inFlight(7));
  // A timeout racing the ack is stale, not a retransmit.
  EXPECT_EQ(d.onTimeout(7).kind, proto::TimeoutDecision::Kind::Stale);
  d.onAck(7);  // duplicate ack: harmless
  EXPECT_EQ(d.windowSize(), 0u);
}

TEST(DeliverySender, DropTraceRetransmitsThenGivesUp) {
  proto::RetryPolicy p;
  p.rtoUs = 100.0;
  p.maxAttempts = 5;
  p.maxBackoffDoublings = 2;
  proto::Delivery d(p, true);
  d.onSend(1);
  // Attempts 1..4 time out and retransmit with doubling (capped) backoff.
  double expected[] = {200.0, 400.0, 400.0};
  for (int i = 0; i < 3; ++i) {
    const proto::TimeoutDecision td = d.onTimeout(1);
    ASSERT_EQ(td.kind, proto::TimeoutDecision::Kind::Retransmit) << i;
    EXPECT_EQ(td.attempt, i + 2);
    EXPECT_DOUBLE_EQ(td.backoffUs, expected[i]);
  }
  ASSERT_EQ(d.onTimeout(1).kind, proto::TimeoutDecision::Kind::Retransmit);
  // Attempt 5 == maxAttempts: the next timeout gives up and evicts.
  const proto::TimeoutDecision gu = d.onTimeout(1);
  ASSERT_EQ(gu.kind, proto::TimeoutDecision::Kind::GiveUp);
  EXPECT_EQ(gu.attempt, 5);
  EXPECT_FALSE(d.inFlight(1));
  Counters c;
  d.addStats(c);
  EXPECT_EQ(c.get(proto::kResent), 4);
  EXPECT_EQ(c.get(proto::kGiveUps), 1);
}

TEST(DeliverySender, ExpectedAttemptGuardsSupersededTimers) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  d.onSend(9);
  // The simulator's timer events carry the attempt they were armed for: an
  // old timer (attempt 1) firing after a retransmit bumped the window to 2
  // must be ignored.
  ASSERT_EQ(d.onTimeout(9, 1).kind, proto::TimeoutDecision::Kind::Retransmit);
  EXPECT_EQ(d.onTimeout(9, 1).kind, proto::TimeoutDecision::Kind::Stale);
  EXPECT_EQ(d.onTimeout(9, 2).kind, proto::TimeoutDecision::Kind::Retransmit);
  EXPECT_EQ(d.onTimeout(42).kind, proto::TimeoutDecision::Kind::Stale);
}

// --- Delivery per-link sequence windows (batched drivers) --------------------

TEST(DeliveryBatchWindow, PackLinkMsgIdRoundTripsAndStaysNonzero) {
  const std::uint64_t id = proto::Delivery::packLinkMsgId(3, 7, 42);
  EXPECT_EQ(proto::Delivery::linkMsgIdSeq(id), 42u);
  EXPECT_EQ(proto::Delivery::linkMsgIdLink(id),
            proto::Delivery::linkMsgIdLink(
                proto::Delivery::packLinkMsgId(3, 7, 9999)));
  EXPECT_NE(proto::Delivery::linkMsgIdLink(id),
            proto::Delivery::linkMsgIdLink(
                proto::Delivery::packLinkMsgId(7, 3, 42)));
  // seq is 1-based, so every link msgId is nonzero (accept()'s "0 means
  // unrouted" convention stays safe).
  EXPECT_NE(proto::Delivery::packLinkMsgId(0, 0, 1), 0u);
}

TEST(DeliveryBatchWindow, CumAckRetiresContiguousPrefix) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  const std::uint64_t first = proto::Delivery::packLinkMsgId(1, 2, 1);
  d.onSendBatch(first, 5);  // seqs 1..5 in flight
  EXPECT_EQ(d.windowSize(), 5u);

  auto retired = d.onCumAck(1, 2, 3, 0);  // everything through seq 3
  ASSERT_EQ(retired.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_EQ(proto::Delivery::linkMsgIdSeq(retired[i]), i + 1);
  EXPECT_EQ(d.windowSize(), 2u);
  EXPECT_FALSE(d.inFlight(first));
  EXPECT_TRUE(d.inFlight(first + 3));

  // A later (cumulative) ack re-covering the prefix is a harmless no-op.
  EXPECT_TRUE(d.onCumAck(1, 2, 2, 0).empty());
  // Acks for a different link never touch this window.
  EXPECT_TRUE(d.onCumAck(2, 1, 5, 0).empty());
  EXPECT_EQ(d.windowSize(), 2u);
}

TEST(DeliveryBatchWindow, CumAckBitmapRetiresSelectively) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  const std::uint64_t first = proto::Delivery::packLinkMsgId(0, 1, 1);
  d.onSendBatch(first, 6);  // seqs 1..6
  // cum=1, bitmap bit0 -> seq 2, bit3 -> seq 5: holes at 3, 4, 6.
  auto retired = d.onCumAck(0, 1, 1, 0b1001);
  ASSERT_EQ(retired.size(), 3u);
  EXPECT_EQ(d.windowSize(), 3u);
  EXPECT_TRUE(d.inFlight(first + 2));   // seq 3
  EXPECT_TRUE(d.inFlight(first + 3));   // seq 4
  EXPECT_FALSE(d.inFlight(first + 4));  // seq 5: bitmap-acked
  EXPECT_TRUE(d.inFlight(first + 5));   // seq 6
  // The holes still drive retransmission through the normal window path.
  EXPECT_EQ(d.onTimeout(first + 2).kind,
            proto::TimeoutDecision::Kind::Retransmit);
  EXPECT_EQ(d.onTimeout(first + 4).kind, proto::TimeoutDecision::Kind::Stale);
}

TEST(DeliveryBatchWindow, RetransmittedTokenIsNeverReRegistered) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  const std::uint64_t first = proto::Delivery::packLinkMsgId(2, 4, 1);
  d.onSendBatch(first, 2);
  // A retransmit rides a later batch with its ORIGINAL msgId; only genuinely
  // fresh tokens are batch-registered, so the window stays at one entry per
  // logical message and attempt counts keep climbing monotonically.
  ASSERT_EQ(d.onTimeout(first).attempt, 2);
  EXPECT_EQ(d.windowSize(), 2u);
  ASSERT_EQ(d.onTimeout(first).attempt, 3);
  EXPECT_EQ(d.windowSize(), 2u);
  auto retired = d.onCumAck(2, 4, 2, 0);
  EXPECT_EQ(retired.size(), 2u);
  EXPECT_EQ(d.windowSize(), 0u);
}

TEST(DeliveryBatchWindow, AcceptSeqDedupsAndSeenSeqAgrees) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  EXPECT_FALSE(d.seenSeq(1, 0, 1));
  EXPECT_TRUE(d.acceptSeq(1, 0, 1));
  EXPECT_TRUE(d.seenSeq(1, 0, 1));
  EXPECT_FALSE(d.acceptSeq(1, 0, 1));  // retransmitted duplicate
  // Out-of-order arrival: 3 before 2, both fresh exactly once.
  EXPECT_TRUE(d.acceptSeq(1, 0, 3));
  EXPECT_FALSE(d.acceptSeq(1, 0, 3));
  EXPECT_TRUE(d.acceptSeq(1, 0, 2));
  EXPECT_FALSE(d.acceptSeq(1, 0, 2));  // now inside the contiguous prefix
  // Links are independent: the reverse direction starts fresh.
  EXPECT_TRUE(d.acceptSeq(0, 1, 1));
  Counters c;
  d.addStats(c);
  EXPECT_EQ(c.get(proto::kDupSuppressed), 3);
}

TEST(DeliveryBatchWindow, AcceptSeqMatchesSetModelOverEveryArrivalSequence) {
  // Every arrival sequence of length 6 over seqs 1..4 — in order (the
  // fast path), reordered, and duplicated — against a plain set: fresh
  // exactly once, and seenSeq / cumAckView agree with the set after
  // every arrival.
  constexpr int kLen = 6;
  constexpr int kSeqs = 4;
  int total = 1;
  for (int i = 0; i < kLen; ++i) total *= kSeqs;
  for (int code = 0; code < total; ++code) {
    proto::Delivery d(proto::RetryPolicy{}, true);
    std::set<std::uint64_t> model;
    int rest = code;
    for (int i = 0; i < kLen; ++i, rest /= kSeqs) {
      const std::uint64_t seq = static_cast<std::uint64_t>(rest % kSeqs) + 1;
      ASSERT_EQ(d.acceptSeq(0, 1, seq), model.insert(seq).second)
          << "code=" << code << " step=" << i;
      std::uint64_t cum = 0;
      while (model.count(cum + 1) != 0) ++cum;
      std::uint64_t bitmap = 0;
      for (std::uint64_t s : model)
        if (s > cum) bitmap |= 1ULL << (s - cum - 1);
      const auto view = d.cumAckView(0, 1);
      ASSERT_EQ(view.cum, cum) << "code=" << code << " step=" << i;
      ASSERT_EQ(view.bitmap, bitmap) << "code=" << code << " step=" << i;
      for (std::uint64_t s = 1; s <= kSeqs; ++s)
        ASSERT_EQ(d.seenSeq(0, 1, s), model.count(s) != 0);
    }
  }
}

TEST(DeliveryBatchWindow, CumAckViewTracksHolesThenCollapses) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  EXPECT_EQ(d.cumAckView(2, 0).cum, 0u);
  EXPECT_EQ(d.cumAckView(2, 0).bitmap, 0u);
  EXPECT_TRUE(d.acceptSeq(2, 0, 1));
  EXPECT_TRUE(d.acceptSeq(2, 0, 4));
  EXPECT_TRUE(d.acceptSeq(2, 0, 5));
  auto v = d.cumAckView(2, 0);
  EXPECT_EQ(v.cum, 1u);
  EXPECT_EQ(v.bitmap, 0b1100u);  // bits for seqs 4 and 5 (cum+3, cum+4)
  EXPECT_TRUE(d.acceptSeq(2, 0, 2));
  EXPECT_TRUE(d.acceptSeq(2, 0, 3));
  v = d.cumAckView(2, 0);
  EXPECT_EQ(v.cum, 5u);  // prefix collapsed through the former holes
  EXPECT_EQ(v.bitmap, 0u);
}

TEST(DeliveryBatchWindow, ResetReceiverWipesLinkWindows) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  EXPECT_TRUE(d.acceptSeq(3, 1, 1));
  EXPECT_TRUE(d.acceptSeq(3, 1, 2));
  d.resetReceiver();
  // Fail-stop: the link receive window is volatile PE state and rebuilds
  // from scratch; redelivered tokens are fresh again (recovery-log dedup
  // above this layer keeps non-idempotent effects exactly-once).
  EXPECT_FALSE(d.seenSeq(3, 1, 1));
  EXPECT_TRUE(d.acceptSeq(3, 1, 1));
}

// --- Delivery receiver ledger -----------------------------------------------

TEST(DeliveryReceiver, DuplicateMsgIdsAreSuppressedOnce) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  EXPECT_TRUE(d.accept(5));
  EXPECT_FALSE(d.accept(5));  // network duplicate
  EXPECT_FALSE(d.accept(5));  // retransmitted duplicate
  EXPECT_TRUE(d.accept(6));
  // msgId 0 marks a token that never went through reliable delivery.
  EXPECT_TRUE(d.accept(0));
  EXPECT_TRUE(d.accept(0));
  Counters c;
  d.addStats(c);
  EXPECT_EQ(c.get(proto::kDupSuppressed), 2);
}

TEST(DeliveryReceiver, RetiredContextTriagesStragglers) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  EXPECT_FALSE(d.straggler(11));  // live context: token proceeds
  d.retireCtx(11);
  EXPECT_TRUE(d.straggler(11));  // reordered duplicate past END: discard
  EXPECT_FALSE(d.straggler(12));
  Counters c;
  d.addStats(c);
  EXPECT_EQ(c.get(proto::kStragglers), 1);
}

TEST(DeliveryReceiver, FailStopWipesLedgersButKeepsCounters) {
  proto::Delivery d(proto::RetryPolicy{}, true);
  EXPECT_TRUE(d.accept(3));
  EXPECT_FALSE(d.accept(3));
  d.retireCtx(21);
  d.resetReceiver();
  // Ledgers are volatile PE state: gone after the fail-stop...
  EXPECT_TRUE(d.accept(3));
  EXPECT_FALSE(d.straggler(21));
  // ...but history counters describe the whole run and survive.
  Counters c;
  d.addStats(c);
  EXPECT_EQ(c.get(proto::kDupSuppressed), 1);
}

TEST(DeliveryAccounting, CanonicalNamesAreZeroRegistered) {
  proto::Delivery d;
  Counters c;
  d.addStats(c);
  proto::Delivery::registerInjectionCounters(c);
  for (const char* name :
       {proto::kResent, proto::kAcks, proto::kDupSuppressed, proto::kGiveUps,
        proto::kStragglers, proto::kFaultDrops, proto::kFaultDups,
        proto::kFaultDelays, proto::kFaultStalls}) {
    EXPECT_EQ(c.all().count(name), 1u) << name;
    EXPECT_EQ(c.get(name), 0) << name;
  }
}

TEST(DeliveryAccounting, LinkCounterNameFormat) {
  EXPECT_EQ(proto::linkCounterName(0, 3, "tokens"), "net.link.0->3.tokens");
  EXPECT_EQ(proto::linkCounterName(12, 7, "pages"), "net.link.12->7.pages");
}

// --- engine counter parity --------------------------------------------------

/// Protocol-level counter names of a run: the canonical namespaces both
/// engines must agree on. Engine-private counters (sim.* / native.* /
/// net.udp.* / net.link.*) are deliberately outside the contract.
std::set<std::string> protocolNames(const Counters& c) {
  std::set<std::string> names;
  for (const auto& [k, v] : c.all()) {
    if (k.rfind("fault.", 0) == 0 || k.rfind("net.retx.", 0) == 0 ||
        k == "tokens.straggler") {
      names.insert(k);
    }
  }
  return names;
}

TEST(CounterParity, SimAndNativeEmitTheSameProtocolCounterSet) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  FaultConfig fc;
  ASSERT_TRUE(FaultConfig::parse("drop:0.05,dup:0.02,delay:0.05", fc));
  fc.seed = 7;
  fc.retry.rtoUs = 50.0;
  fc.nativeDelayUs = 20.0;

  sim::MachineConfig mc;
  mc.numPEs = 4;
  mc.faults = fc;
  PodsRun simRun = runPods(*c, mc);
  ASSERT_TRUE(simRun.stats.ok) << simRun.stats.error;

  native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.faults = fc;
  NativeRun natRun = runNative(*c, nc);
  ASSERT_TRUE(natRun.stats.ok) << natRun.stats.error;

  const std::set<std::string> simNames = protocolNames(simRun.stats.counters);
  const std::set<std::string> natNames = protocolNames(natRun.stats.counters);
  EXPECT_EQ(simNames, natNames);
  EXPECT_TRUE(simNames.count(proto::kResent));
  EXPECT_TRUE(simNames.count(proto::kDupSuppressed));
  EXPECT_TRUE(simNames.count(proto::kStragglers));
  EXPECT_TRUE(simNames.count(proto::kFaultDrops));
}

TEST(CounterParity, UdpAndInboxEmitTheSameProtocolCounterSet) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  FaultConfig fc;
  ASSERT_TRUE(FaultConfig::parse("drop:0.05,dup:0.02", fc));
  fc.seed = 3;
  fc.retry.rtoUs = 50.0;

  native::NativeConfig inbox;
  inbox.numWorkers = 4;
  inbox.faults = fc;
  NativeRun a = runNative(*c, inbox);
  ASSERT_TRUE(a.stats.ok) << a.stats.error;

  native::NativeConfig udp = inbox;
  udp.transport = native::TransportKind::Udp;
  NativeRun b = runNative(*c, udp);
  ASSERT_TRUE(b.stats.ok) << b.stats.error;

  EXPECT_EQ(protocolNames(a.stats.counters), protocolNames(b.stats.counters));
  std::string why;
  EXPECT_TRUE(sameOutputs(a.out, b.out, &why)) << why;
}

// --- weighted ownership end-to-end ------------------------------------------

std::map<std::string, std::int64_t> linkCounters(const Counters& c) {
  std::map<std::string, std::int64_t> m;
  for (const auto& [k, v] : c.all())
    if (k.rfind("net.link.", 0) == 0) m.emplace(k, v);
  return m;
}

TEST(WeightedOwnership, EqualWeightsAreBitIdenticalOnSim) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  PodsRun ref = runPods(*c, mc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  sim::MachineConfig wc = mc;
  wc.peWeights = {3, 3, 3, 3};
  PodsRun run = runPods(*c, wc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  // Equal weights must reproduce the uniform cut exactly: same simulated
  // time, same counters, same outputs — the runs are indistinguishable.
  EXPECT_EQ(run.stats.total.ns, ref.stats.total.ns);
  EXPECT_EQ(run.stats.counters.all(), ref.stats.counters.all());
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
}

TEST(WeightedOwnership, SkewedSimpleBitExactWithShiftedLinkTraffic) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  PodsRun ref = runPods(*c, mc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  sim::MachineConfig wc = mc;
  wc.peWeights = {6, 1, 1, 1};
  PodsRun run = runPods(*c, wc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  // Placement is invisible to values (single assignment): bit-exact result.
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
  // But the traffic matrix must visibly shift: PE 0 owns ~2/3 of every
  // array, so per-link token/page flows cannot match the uniform run.
  EXPECT_NE(linkCounters(run.stats.counters), linkCounters(ref.stats.counters));
}

TEST(WeightedOwnership, SkewedNativeMatchesUniformOutputs) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig nc;
  nc.numWorkers = 4;
  NativeRun ref = runNative(*c, nc);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  native::NativeConfig wc = nc;
  wc.peWeights = {1, 5, 1, 1};
  NativeRun run = runNative(*c, wc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
}

// --- bounded recovery ledgers -----------------------------------------------

// Satellite property of dedup pruning: a long recursive run under kill +
// message loss retires instances continuously, and every END must shed its
// dedup keys and mint-log entries. At quiescence every instance has ENDed,
// so the live-residency counters must read zero — without pruning they grow
// with the total instance count of the run (fib(13) creates ~1100 frames).
TEST(RecoveryLedger, SimKeysAndMintsPrunedByEnd) {
  auto c = compileOk(kFibSource);
  sim::MachineConfig mc;
  mc.numPEs = 4;
  ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", mc.faults));
  mc.faults.seed = 5;
  mc.faults.killPe = 1;
  mc.faults.killTimeUs = 900.0;
  mc.faults.killRestartUs = 400.0;
  PodsRun run = runPods(*c, mc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  EXPECT_EQ(run.stats.counters.get("recovery.dedup.liveKeys"), 0);
  EXPECT_EQ(run.stats.counters.get("recovery.mints.live"), 0);
  // The ledger was actually exercised, not trivially empty: fib(13) makes
  // hundreds of instances, and the kill must have fired mid-run.
  EXPECT_GT(run.stats.counters.get("sp.instantiated"), 500);
  EXPECT_EQ(run.stats.counters.get("fault.kills"), 1);
}

TEST(RecoveryLedger, NativeKeysAndMintsPrunedByEnd) {
  auto c = compileOk(kFibSource);
  native::NativeConfig nc;
  nc.numWorkers = 4;
  ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", nc.faults));
  nc.faults.seed = 5;
  nc.faults.killPe = 2;
  nc.faults.killTimeUs = 700.0;
  nc.faults.killRestartUs = 100.0;
  nc.faults.retry.rtoUs = 50.0;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  EXPECT_EQ(run.stats.counters.get("recovery.dedup.liveKeys"), 0);
  EXPECT_EQ(run.stats.counters.get("recovery.mints.live"), 0);
  EXPECT_GT(run.stats.counters.get("native.framesCreated"), 500);
}

}  // namespace
}  // namespace pods
