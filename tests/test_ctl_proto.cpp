// Control-channel protocol tests (src/proto/ctl.hpp).
//
// The ctl wire is the supervisor<->worker stream that carries everything
// that is not a token: program + config at boot, the pessimistic recovery
// log, heartbeats, termination polls, results. Decoding is all-or-nothing,
// mirroring the UDP batch wire: truncation at ANY byte boundary, trailing
// junk, an out-of-range tag, an over-limit length, a config-hash mismatch —
// each must reject the whole frame, never decode garbage. These tests drive
// the codec pure (no sockets, no processes); the multiproc suite exercises
// the same frames end-to-end.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "proto/ctl.hpp"
#include "runtime/isa.hpp"
#include "runtime/value.hpp"
#include "support/recovery.hpp"

namespace pods {
namespace proto {
namespace ctl {
namespace {

// A small but representative program: two SPs, an instruction with every
// field populated (including a negative RF offset and a Value immediate),
// debug slot names — enough to catch field-order or width drift. It is
// well-formed (checkProgram), as the decoder requires.
SpProgram sampleProgram() {
  SpProgram prog;
  prog.mainSp = 0;
  prog.numResults = 2;
  SpCode main;
  main.id = 0;
  main.name = "main";
  main.kind = SpKind::Function;
  main.numSlots = 6;
  main.numArgs = 0;
  main.slotNames = {"a", "b"};
  Instr i1;
  i1.op = Op::SENDA;
  i1.dim = 2;
  i1.dst = 3;
  i1.a = 1;
  i1.b = 2;
  i1.c = 4;
  i1.aux = Instr::packTarget(1, 5);
  i1.off = -7;
  i1.imm = Value::realv(2.5);
  Instr end;
  end.op = Op::END;
  main.code = {i1, end};
  SpCode worker;
  worker.id = 1;
  worker.name = "worker";
  worker.kind = SpKind::ForLoop;
  worker.numSlots = 9;
  worker.numArgs = 3;
  worker.replicated = true;
  Instr i2;
  i2.op = Op::END;
  i2.imm = Value::intv(-42);
  worker.code = {i1, i2};
  prog.sps = {main, worker};
  return prog;
}

// One record of every log kind: the RecEntry kinds 0..5 plus kMint and
// kResult, with distinctive payloads so a transposed field shows.
std::vector<LogRec> sampleLog() {
  LogRec boot;
  boot.kind = static_cast<std::uint8_t>(RecEntry::Kind::Boot);
  boot.entry.kind = RecEntry::Kind::Boot;
  boot.entry.spCode = 0;
  boot.entry.ctx = 1;
  LogRec ctx;
  ctx.kind = static_cast<std::uint8_t>(RecEntry::Kind::CtxToken);
  ctx.entry.spCode = 1;
  ctx.entry.ctx = 77;
  ctx.entry.slot = 3;
  ctx.entry.v = Value::intv(9);
  ctx.entry.frame = 5;
  ctx.entry.gen = 2;
  LogRec con;
  con.kind = static_cast<std::uint8_t>(RecEntry::Kind::ConToken);
  con.entry.kind = RecEntry::Kind::ConToken;
  con.entry.v = Value::realv(-0.5);
  con.entry.add = true;
  con.entry.frame = 11;
  con.entry.gen = 4;
  con.entry.senderCtx = 88;
  con.entry.sendKey = (std::uint64_t(3) << 32) | 12;
  con.entry.msgId = 9001;
  LogRec end;
  end.kind = static_cast<std::uint8_t>(RecEntry::Kind::End);
  end.entry.kind = RecEntry::Kind::End;
  end.entry.ctx = 77;
  end.entry.frame = 5;
  LogRec recv;
  recv.kind = static_cast<std::uint8_t>(RecEntry::Kind::Recv);
  recv.entry.kind = RecEntry::Kind::Recv;
  recv.entry.msgId = (std::uint64_t(1) << 56) | 19;
  recv.entry.gen = 1;
  LogRec am;  // wire-store array message (spCode carries the AmKind)
  am.kind = static_cast<std::uint8_t>(RecEntry::Kind::Am);
  am.entry.kind = RecEntry::Kind::Am;
  am.entry.spCode = 1;       // AmKind::ReadReq
  am.entry.ctx = 12;         // array id
  am.entry.slot = 2;         // requester PE
  am.entry.senderCtx = 7;    // element offset
  am.entry.sendKey = 0xABCDEF;  // packed requester continuation
  am.entry.msgId = 4242;
  LogRec mint;
  mint.kind = LogRec::kMint;
  mint.mintCtx = 77;
  mint.mintSeq = 1;
  mint.mintV = Value::arrayv(12);
  mint.ctxCounter = 3;
  LogRec res;
  res.kind = LogRec::kResult;
  res.mintSeq = 1;
  res.mintV = Value::realv(6.25);
  return {boot, ctx, con, end, recv, am, mint, res};
}

BootMsg sampleBoot(bool withLog) {
  BootMsg m;
  m.numPes = 4;
  m.localPe = 2;
  m.epoch = withLog ? 1 : 0;
  m.resume = withLog ? 1 : 0;
  m.pageElems = 16;
  m.sliceInstructions = 512;
  m.heartbeatPeriodMs = 10;
  m.heartbeatTimeoutMs = 500;
  m.store = 1;  // wire store
  m.peerPorts = {40001, 40002, 40003, 40004};
  m.peWeights = {1, 2, 1, 1};
  m.faults.killPe = 1;
  m.faults.killTimeUs = 5000.0;
  m.program = sampleProgram();
  if (withLog) m.log = sampleLog();
  return m;
}

void expectLogRecEq(const LogRec& a, const LogRec& b, const char* what) {
  EXPECT_EQ(a.kind, b.kind) << what;
  EXPECT_EQ(a.entry.kind, b.entry.kind) << what;
  EXPECT_EQ(a.entry.spCode, b.entry.spCode) << what;
  EXPECT_EQ(a.entry.ctx, b.entry.ctx) << what;
  EXPECT_EQ(a.entry.slot, b.entry.slot) << what;
  EXPECT_TRUE(a.entry.v.identical(b.entry.v)) << what;
  EXPECT_EQ(a.entry.add, b.entry.add) << what;
  EXPECT_EQ(a.entry.frame, b.entry.frame) << what;
  EXPECT_EQ(a.entry.gen, b.entry.gen) << what;
  EXPECT_EQ(a.entry.senderCtx, b.entry.senderCtx) << what;
  EXPECT_EQ(a.entry.sendKey, b.entry.sendKey) << what;
  EXPECT_EQ(a.entry.msgId, b.entry.msgId) << what;
  EXPECT_EQ(a.mintCtx, b.mintCtx) << what;
  EXPECT_EQ(a.mintSeq, b.mintSeq) << what;
  EXPECT_TRUE(a.mintV.identical(b.mintV)) << what;
  EXPECT_EQ(a.ctxCounter, b.ctxCounter) << what;
}

void expectProgramEq(const SpProgram& a, const SpProgram& b) {
  EXPECT_EQ(a.mainSp, b.mainSp);
  EXPECT_EQ(a.numResults, b.numResults);
  ASSERT_EQ(a.sps.size(), b.sps.size());
  for (std::size_t s = 0; s < a.sps.size(); ++s) {
    const SpCode& x = a.sps[s];
    const SpCode& y = b.sps[s];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.numSlots, y.numSlots);
    EXPECT_EQ(x.numArgs, y.numArgs);
    EXPECT_EQ(x.replicated, y.replicated);
    EXPECT_EQ(x.slotNames, y.slotNames);
    ASSERT_EQ(x.code.size(), y.code.size());
    for (std::size_t k = 0; k < x.code.size(); ++k) {
      EXPECT_EQ(x.code[k].op, y.code[k].op);
      EXPECT_EQ(x.code[k].dim, y.code[k].dim);
      EXPECT_EQ(x.code[k].dst, y.code[k].dst);
      EXPECT_EQ(x.code[k].a, y.code[k].a);
      EXPECT_EQ(x.code[k].b, y.code[k].b);
      EXPECT_EQ(x.code[k].c, y.code[k].c);
      EXPECT_EQ(x.code[k].aux, y.code[k].aux);
      EXPECT_EQ(x.code[k].off, y.code[k].off);
      EXPECT_TRUE(x.code[k].imm.identical(y.code[k].imm));
    }
  }
}

// --- round trips ------------------------------------------------------------

TEST(CtlProto, HelloRoundTrip) {
  HelloMsg m;
  std::vector<std::uint8_t> out;
  encodeHello(m, out);
  HelloMsg got;
  got.magic = 0;
  got.version = 0;
  ASSERT_TRUE(decodeHello(out.data(), out.size(), got));
  EXPECT_EQ(got.magic, kMagic);
  EXPECT_EQ(got.version, kVersion);
}

TEST(CtlProto, BootRoundTripFreshAndResume) {
  for (const bool withLog : {false, true}) {
    const BootMsg m = sampleBoot(withLog);
    std::vector<std::uint8_t> out;
    encodeBoot(m, out);
    BootMsg got;
    std::uint64_t want = 0, gotHash = 0;
    ASSERT_TRUE(decodeBoot(out.data(), out.size(), got, &want, &gotHash))
        << "withLog=" << withLog;
    EXPECT_EQ(want, gotHash);
    EXPECT_EQ(got.numPes, m.numPes);
    EXPECT_EQ(got.localPe, m.localPe);
    EXPECT_EQ(got.epoch, m.epoch);
    EXPECT_EQ(got.resume, m.resume);
    EXPECT_EQ(got.pageElems, m.pageElems);
    EXPECT_EQ(got.sliceInstructions, m.sliceInstructions);
    EXPECT_EQ(got.heartbeatPeriodMs, m.heartbeatPeriodMs);
    EXPECT_EQ(got.heartbeatTimeoutMs, m.heartbeatTimeoutMs);
    EXPECT_EQ(got.store, m.store);
    EXPECT_EQ(got.peerPorts, m.peerPorts);
    EXPECT_EQ(got.peWeights, m.peWeights);
    EXPECT_EQ(got.faults.killPe, m.faults.killPe);
    EXPECT_EQ(got.faults.killTimeUs, m.faults.killTimeUs);
    expectProgramEq(got.program, m.program);
    ASSERT_EQ(got.log.size(), m.log.size());
    for (std::size_t i = 0; i < m.log.size(); ++i) {
      expectLogRecEq(got.log[i], m.log[i],
                     ("log rec " + std::to_string(i)).c_str());
    }
  }
}

TEST(CtlProto, LogRoundTripEveryRecordKind) {
  LogMsg lm;
  lm.firstSeq = 41;
  lm.recs = sampleLog();
  std::vector<std::uint8_t> out;
  encodeLog(lm, out);
  LogMsg got;
  ASSERT_TRUE(decodeLog(out.data(), out.size(), got));
  EXPECT_EQ(got.firstSeq, 41u);
  ASSERT_EQ(got.recs.size(), lm.recs.size());
  for (std::size_t i = 0; i < lm.recs.size(); ++i) {
    expectLogRecEq(got.recs[i], lm.recs[i],
                   ("rec " + std::to_string(i)).c_str());
  }
  // The kResult record (the durable home of program RESULT stores) must
  // carry slot + value exactly.
  const LogRec& res = got.recs.back();
  EXPECT_EQ(res.kind, LogRec::kResult);
  EXPECT_EQ(res.mintSeq, 1u);
  EXPECT_TRUE(res.mintV.identical(Value::realv(6.25)));
}

// RecEntry::Kind::Am took the raw value 5 the old kMint used to hold, so
// kMint/kResult were renumbered to the reserved top of the byte (250/251).
// The kind byte must disambiguate: 5 is an Am ENTRY record now, never a
// mint — a codec that kept the old constants would replay array messages
// as context mints.
TEST(CtlProto, AmRecordKindIsNotAMint) {
  ASSERT_EQ(static_cast<std::uint8_t>(RecEntry::Kind::Am), 5);
  ASSERT_EQ(LogRec::kMint, 250);
  ASSERT_EQ(LogRec::kResult, 251);
  LogMsg lm;
  LogRec am;
  am.kind = static_cast<std::uint8_t>(RecEntry::Kind::Am);
  am.entry.kind = RecEntry::Kind::Am;
  am.entry.spCode = 2;  // AmKind::Write
  am.entry.ctx = 9;
  am.entry.senderCtx = 3;
  am.entry.v = Value::realv(1.5);
  lm.recs = {am};
  std::vector<std::uint8_t> out;
  encodeLog(lm, out);
  LogMsg got;
  ASSERT_TRUE(decodeLog(out.data(), out.size(), got));
  ASSERT_EQ(got.recs.size(), 1u);
  EXPECT_EQ(got.recs[0].kind, 5);
  EXPECT_EQ(got.recs[0].entry.kind, RecEntry::Kind::Am);
  EXPECT_EQ(got.recs[0].entry.spCode, 2);
  EXPECT_EQ(got.recs[0].mintCtx, 0u);  // no mint fields were populated
  // The gap between the entry kinds and the reserved constants rejects.
  const std::size_t kindOff = 8 + 4;
  for (const std::uint8_t bad : {std::uint8_t{6}, std::uint8_t{128},
                                 std::uint8_t{249}, std::uint8_t{252}}) {
    std::vector<std::uint8_t> tampered = out;
    tampered[kindOff] = bad;
    LogMsg rejected;
    EXPECT_FALSE(decodeLog(tampered.data(), tampered.size(), rejected))
        << "kind=" << static_cast<int>(bad);
  }
}

// Wire store: each worker's Result frame carries its owned array slice.
TEST(CtlProto, ResultOwnedArraysRoundTrip) {
  ResultMsg rm;
  rm.ok = true;
  rm.results = {Value::intv(1)};
  rm.resultSet = {1};
  ResultMsg::OwnedArray meta;  // the allocator's part: shape + its elements
  meta.id = 42;
  meta.hasMeta = 1;
  meta.rank = 2;
  meta.dim0 = 3;
  meta.dim1 = 4;
  meta.elems = {{0, Value::realv(0.5)}, {7, Value::intv(-9)}};
  ResultMsg::OwnedArray slice;  // a non-allocating owner: elements only
  slice.id = 42;
  slice.hasMeta = 0;
  slice.elems = {{3, Value::realv(2.25)}};
  rm.arrays = {meta, slice};
  std::vector<std::uint8_t> out;
  encodeResult(rm, out);
  ResultMsg got;
  ASSERT_TRUE(decodeResult(out.data(), out.size(), got));
  ASSERT_EQ(got.arrays.size(), 2u);
  EXPECT_EQ(got.arrays[0].id, 42u);
  EXPECT_EQ(got.arrays[0].hasMeta, 1);
  EXPECT_EQ(got.arrays[0].rank, 2);
  EXPECT_EQ(got.arrays[0].dim0, 3);
  EXPECT_EQ(got.arrays[0].dim1, 4);
  ASSERT_EQ(got.arrays[0].elems.size(), 2u);
  EXPECT_EQ(got.arrays[0].elems[1].first, 7);
  EXPECT_TRUE(got.arrays[0].elems[1].second.identical(Value::intv(-9)));
  EXPECT_EQ(got.arrays[1].hasMeta, 0);
  ASSERT_EQ(got.arrays[1].elems.size(), 1u);
  EXPECT_TRUE(got.arrays[1].elems[0].second.identical(Value::realv(2.25)));
  // Truncation at every boundary rejects (all-or-nothing, like every frame).
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    ResultMsg r;
    EXPECT_FALSE(decodeResult(out.data(), cut, r)) << "cut=" << cut;
  }
}

// --- JobResult strict decode (serve protocol) --------------------------------

JobResultMsg sampleJobResult() {
  JobResultMsg m;
  m.clientTag = 3;
  m.jobId = 17;
  m.ok = 1;
  m.wallMs = 1.5;
  m.results = {Value::arrayv(1), Value::intv(5)};
  m.resultSet = {1, 1};
  JobResultMsg::OutArray a;
  a.present = 1;
  a.rank = 2;
  a.dim0 = 2;
  a.dim1 = 3;
  a.elems = {Value::realv(0.0), Value::realv(1.0), Value::realv(2.0),
             Value::realv(3.0), Value::realv(4.0), Value::realv(5.0)};
  m.arrays = {a, {}};
  m.counters = {{"native.framesCreated", 4}};
  return m;
}

TEST(CtlProto, JobResultRoundTripsArrays) {
  const JobResultMsg m = sampleJobResult();
  std::vector<std::uint8_t> out;
  encodeJobResult(m, out);
  JobResultMsg got;
  ASSERT_TRUE(decodeJobResult(out.data(), out.size(), got));
  ASSERT_EQ(got.results.size(), 2u);
  ASSERT_EQ(got.arrays.size(), 2u);
  EXPECT_EQ(got.arrays[0].present, 1);
  EXPECT_EQ(got.arrays[0].rank, 2);
  ASSERT_EQ(got.arrays[0].elems.size(), 6u);
  EXPECT_TRUE(got.arrays[0].elems[5].identical(Value::realv(5.0)));
  EXPECT_EQ(got.arrays[1].present, 0);
}

// A JobResult whose element count disagrees with its shape used to be
// silently clamped client-side; it must now be a structured decode failure
// (the client reports "malformed JobResult", the daemon's counter is
// net.ctl.badFrames) — never a truncated array presented as complete.
TEST(CtlProtoFuzz, JobResultShapeElementMismatchRejected) {
  {
    JobResultMsg m = sampleJobResult();
    m.arrays[0].dim0 = 4;  // claims 4x3 = 12 elements, ships 6
    std::vector<std::uint8_t> out;
    encodeJobResult(m, out);
    JobResultMsg got;
    EXPECT_FALSE(decodeJobResult(out.data(), out.size(), got));
  }
  {
    JobResultMsg m = sampleJobResult();
    m.arrays[0].dim1 = -3;  // negative dimension
    std::vector<std::uint8_t> out;
    encodeJobResult(m, out);
    JobResultMsg got;
    EXPECT_FALSE(decodeJobResult(out.data(), out.size(), got));
  }
  {
    JobResultMsg m = sampleJobResult();
    m.arrays[0].rank = 1;  // rank-1 of dim0=2 but 6 elements shipped
    std::vector<std::uint8_t> out;
    encodeJobResult(m, out);
    JobResultMsg got;
    EXPECT_FALSE(decodeJobResult(out.data(), out.size(), got));
  }
  {
    JobResultMsg m = sampleJobResult();
    // A hostile header claiming a gigantic product must reject on the shape
    // check, before the element loop ever tries to materialize it.
    m.arrays[0].dim0 = std::int64_t{1} << 30;
    m.arrays[0].dim1 = std::int64_t{1} << 30;
    std::vector<std::uint8_t> out;
    encodeJobResult(m, out);
    JobResultMsg got;
    EXPECT_FALSE(decodeJobResult(out.data(), out.size(), got));
  }
}

TEST(CtlProtoFuzz, JobResultTruncationAtEveryBoundaryRejected) {
  const JobResultMsg m = sampleJobResult();
  std::vector<std::uint8_t> out;
  encodeJobResult(m, out);
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    JobResultMsg got;
    EXPECT_FALSE(decodeJobResult(out.data(), cut, got)) << "cut=" << cut;
  }
  out.push_back(0);  // trailing junk
  JobResultMsg got;
  EXPECT_FALSE(decodeJobResult(out.data(), out.size(), got));
}

TEST(CtlProto, PortTableStatusResultErrorScalarRoundTrip) {
  std::vector<PeerEndpoint> peers = {{40001, 0}, {40002, 3}, {40003, 0}};
  std::vector<std::uint8_t> out;
  encodePortTable(peers, out);
  std::vector<PeerEndpoint> gotPeers;
  ASSERT_TRUE(decodePortTable(out.data(), out.size(), gotPeers));
  ASSERT_EQ(gotPeers.size(), peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ(gotPeers[i].port, peers[i].port);
    EXPECT_EQ(gotPeers[i].epoch, peers[i].epoch);
  }

  StatusMsg sm;
  sm.statusSeq = 9;
  sm.idle = 1;
  sm.pending = -3;  // signedness must survive (the ledger can dip negative)
  sm.inboxTokens = 2;
  sm.outstanding = 7;
  sm.logAppended = 55;
  sm.activity = 1234;
  out.clear();
  encodeStatus(sm, out);
  StatusMsg sg;
  ASSERT_TRUE(decodeStatus(out.data(), out.size(), sg));
  EXPECT_EQ(sg.statusSeq, 9u);
  EXPECT_EQ(sg.idle, 1);
  EXPECT_EQ(sg.pending, -3);
  EXPECT_EQ(sg.inboxTokens, 2);
  EXPECT_EQ(sg.outstanding, 7);
  EXPECT_EQ(sg.logAppended, 55u);
  EXPECT_EQ(sg.activity, 1234u);

  ResultMsg rm;
  rm.ok = false;
  rm.error = "boom";
  rm.resultSet = {1, 0};
  rm.results = {Value::intv(5), Value{}};
  rm.counters = {{"native.framesCreated", 12}};
  rm.workerCounters = {{"tokensIn", 7}, {"tokensOut", 8}};
  out.clear();
  encodeResult(rm, out);
  ResultMsg rg;
  ASSERT_TRUE(decodeResult(out.data(), out.size(), rg));
  EXPECT_EQ(rg.ok, false);
  EXPECT_EQ(rg.error, "boom");
  EXPECT_EQ(rg.resultSet, rm.resultSet);
  ASSERT_EQ(rg.results.size(), 2u);
  EXPECT_TRUE(rg.results[0].identical(rm.results[0]));
  EXPECT_TRUE(rg.results[1].empty());
  EXPECT_EQ(rg.counters, rm.counters);
  EXPECT_EQ(rg.workerCounters, rm.workerCounters);

  ErrorMsg em;
  em.code = 17;
  em.text = "config hash mismatch";
  out.clear();
  encodeError(em, out);
  ErrorMsg eg;
  ASSERT_TRUE(decodeError(out.data(), out.size(), eg));
  EXPECT_EQ(eg.code, 17u);
  EXPECT_EQ(eg.text, em.text);

  out.clear();
  encodeU64(0xDEADBEEFCAFE1234ull, out);
  std::uint64_t v = 0;
  ASSERT_TRUE(decodeU64(out.data(), out.size(), v));
  EXPECT_EQ(v, 0xDEADBEEFCAFE1234ull);
  out.clear();
  encodeU16(40123, out);
  std::uint16_t port = 0;
  ASSERT_TRUE(decodeU16(out.data(), out.size(), port));
  EXPECT_EQ(port, 40123);
}

// --- all-or-nothing decode --------------------------------------------------

// Truncation at EVERY byte boundary must fail the decode — a partial
// message accepted once would boot a worker with a half-read program.
TEST(CtlProtoFuzz, BootTruncationAtEveryBoundaryRejected) {
  const BootMsg m = sampleBoot(true);
  std::vector<std::uint8_t> out;
  encodeBoot(m, out);
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    BootMsg got;
    EXPECT_FALSE(decodeBoot(out.data(), cut, got)) << "cut=" << cut;
  }
  BootMsg whole;
  ASSERT_TRUE(decodeBoot(out.data(), out.size(), whole));
}

// A Boot frame whose program is intact on the wire but malformed must fail
// the decode too: the executor trusts the load-time check (checkProgram) for
// its pc and operand bounds, so a worker running such a program would index
// past its code or a frame. One case per defect shape.
TEST(CtlProtoFuzz, BootWithMalformedProgramRejected) {
  const std::vector<std::pair<const char*, void (*)(SpProgram&)>> defects = {
      {"no END", [](SpProgram& p) { p.sps[0].code.pop_back(); }},
      {"empty SP", [](SpProgram& p) { p.sps[1].code.clear(); }},
      {"jump out of range",
       [](SpProgram& p) {
         Instr jmp;
         jmp.op = Op::JMP;
         jmp.aux = 2;
         p.sps[0].code.back() = jmp;
       }},
      {"slot past numSlots", [](SpProgram& p) { p.sps[0].code[0].b = 6; }},
      {"kNoSlot operand", [](SpProgram& p) { p.sps[1].code[0].a = kNoSlot; }},
      {"send to unknown SP",
       [](SpProgram& p) { p.sps[0].code[0].aux = Instr::packTarget(2, 0); }},
      {"send to unknown slot",
       [](SpProgram& p) { p.sps[0].code[0].aux = Instr::packTarget(1, 9); }},
      {"bad mainSp", [](SpProgram& p) { p.mainSp = 2; }},
      {"negative result count", [](SpProgram& p) { p.numResults = -1; }},
  };
  for (const auto& [what, breakIt] : defects) {
    BootMsg m = sampleBoot(false);
    breakIt(m.program);
    std::vector<std::uint8_t> out;
    encodeBoot(m, out);
    BootMsg got;
    std::uint64_t want = 0, gotHash = 0;
    EXPECT_FALSE(decodeBoot(out.data(), out.size(), got, &want, &gotHash))
        << what;
    EXPECT_EQ(want, gotHash) << what << ": the frame itself is intact";
  }
}

TEST(CtlProtoFuzz, LogAndStatusTruncationRejected) {
  LogMsg lm;
  lm.firstSeq = 7;
  lm.recs = sampleLog();
  std::vector<std::uint8_t> out;
  encodeLog(lm, out);
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    LogMsg got;
    EXPECT_FALSE(decodeLog(out.data(), cut, got)) << "cut=" << cut;
  }
  StatusMsg sm;
  out.clear();
  encodeStatus(sm, out);
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    StatusMsg got;
    EXPECT_FALSE(decodeStatus(out.data(), cut, got)) << "cut=" << cut;
  }
}

TEST(CtlProtoFuzz, TrailingJunkRejected) {
  {
    const BootMsg m = sampleBoot(false);
    std::vector<std::uint8_t> out;
    encodeBoot(m, out);
    out.push_back(0);
    BootMsg got;
    EXPECT_FALSE(decodeBoot(out.data(), out.size(), got));
  }
  {
    HelloMsg m;
    std::vector<std::uint8_t> out;
    encodeHello(m, out);
    out.push_back(0xFF);
    HelloMsg got;
    EXPECT_FALSE(decodeHello(out.data(), out.size(), got));
  }
  {
    StatusMsg m;
    std::vector<std::uint8_t> out;
    encodeStatus(m, out);
    out.push_back(7);
    StatusMsg got;
    EXPECT_FALSE(decodeStatus(out.data(), out.size(), got));
  }
  {
    std::vector<std::uint8_t> out;
    encodeU64(1, out);
    out.push_back(0);
    std::uint64_t v = 0;
    EXPECT_FALSE(decodeU64(out.data(), out.size(), v));
  }
}

// The Boot payload leads with an FNV-1a hash of everything after it; a
// single flipped bit anywhere in the body must fail the decode — this is
// what catches a worker binary whose codec drifted from the supervisor's.
TEST(CtlProtoFuzz, BootConfigHashMismatchRejected) {
  const BootMsg m = sampleBoot(false);
  std::vector<std::uint8_t> out;
  encodeBoot(m, out);
  for (const std::size_t at :
       {std::size_t{8}, out.size() / 2, out.size() - 1}) {
    std::vector<std::uint8_t> bad = out;
    bad[at] ^= 0x01;
    BootMsg got;
    std::uint64_t want = 0, gotHash = 0;
    EXPECT_FALSE(decodeBoot(bad.data(), bad.size(), got, &want, &gotHash))
        << "flip at " << at;
    EXPECT_NE(want, gotHash) << "flip at " << at;
  }
}

TEST(CtlProtoFuzz, LogRecBadKindRejected) {
  LogMsg lm;
  LogRec r;
  r.kind = LogRec::kResult;
  r.mintSeq = 0;
  r.mintV = Value::intv(1);
  lm.recs = {r};
  std::vector<std::uint8_t> out;
  encodeLog(lm, out);
  // Layout: firstSeq u64, count u32, then the first record's kind byte.
  const std::size_t kindOff = 8 + 4;
  ASSERT_EQ(out[kindOff], LogRec::kResult);
  out[kindOff] = LogRec::kResult + 1;  // one past the highest valid kind
  LogMsg got;
  EXPECT_FALSE(decodeLog(out.data(), out.size(), got));
}

// --- frame stream -----------------------------------------------------------

TEST(CtlFrame, IncrementalFeedReassembles) {
  std::vector<std::uint8_t> wire;
  encodeFrame(FrameTag::Heartbeat, {}, wire);
  const std::vector<std::uint8_t> p2 = {1, 2, 3};
  encodeFrame(FrameTag::Log, p2, wire);

  FrameReader rd;
  Frame f;
  bool bad = false;
  int got = 0;
  // Feed one byte at a time: frames must pop exactly at their boundaries.
  for (const std::uint8_t b : wire) {
    rd.feed(&b, 1);
    while (rd.next(f, &bad)) {
      ++got;
      if (got == 1) {
        EXPECT_EQ(f.tag, FrameTag::Heartbeat);
        EXPECT_TRUE(f.payload.empty());
      }
      if (got == 2) {
        EXPECT_EQ(f.tag, FrameTag::Log);
        EXPECT_EQ(f.payload, p2);
      }
    }
    EXPECT_FALSE(bad);
  }
  EXPECT_EQ(got, 2);
}

TEST(CtlFrame, UnknownTagPoisonsStream) {
  // 22 is the first tag past Welcome — keep this in step with FrameTag.
  for (const std::uint8_t tag :
       {std::uint8_t{0}, std::uint8_t{22}, std::uint8_t{255}}) {
    const std::vector<std::uint8_t> wire = {1, 0, 0, 0, tag, 0xAB};
    FrameReader rd;
    rd.feed(wire.data(), wire.size());
    Frame f;
    bool bad = false;
    EXPECT_FALSE(rd.next(f, &bad));
    EXPECT_TRUE(bad) << "tag " << int(tag);
    // Poisoned for good: a following well-formed frame must not decode —
    // there is no resynchronizing a length-prefixed stream after a corrupt
    // header.
    std::vector<std::uint8_t> good;
    encodeFrame(FrameTag::Heartbeat, {}, good);
    rd.feed(good.data(), good.size());
    bad = false;
    EXPECT_FALSE(rd.next(f, &bad));
    EXPECT_TRUE(bad);
  }
}

TEST(CtlFrame, OverLimitLengthPoisonsStream) {
  const std::uint32_t len = kMaxFrameBytes + 1;
  std::vector<std::uint8_t> wire = {
      static_cast<std::uint8_t>(len & 0xFF),
      static_cast<std::uint8_t>((len >> 8) & 0xFF),
      static_cast<std::uint8_t>((len >> 16) & 0xFF),
      static_cast<std::uint8_t>((len >> 24) & 0xFF),
      static_cast<std::uint8_t>(FrameTag::Log)};
  FrameReader rd;
  rd.feed(wire.data(), wire.size());
  Frame f;
  bool bad = false;
  EXPECT_FALSE(rd.next(f, &bad));
  EXPECT_TRUE(bad);
}

// Version skew surfaces at the handshake: the wire image decodes fine (it
// is a well-formed Hello), the VALUES disagree — the receiving side
// compares against its own kMagic/kVersion and fails fast. This pins the
// fields that check depends on.
TEST(CtlFrame, VersionSkewIsVisibleToHandshake) {
  HelloMsg skew;
  skew.version = kVersion + 1;
  std::vector<std::uint8_t> out;
  encodeHello(skew, out);
  HelloMsg got;
  ASSERT_TRUE(decodeHello(out.data(), out.size(), got));
  EXPECT_EQ(got.magic, kMagic);
  EXPECT_NE(got.version, kVersion);

  HelloMsg wrongMagic;
  wrongMagic.magic = kMagic ^ 0x20;
  out.clear();
  encodeHello(wrongMagic, out);
  ASSERT_TRUE(decodeHello(out.data(), out.size(), got));
  EXPECT_NE(got.magic, kMagic);
}

}  // namespace
}  // namespace ctl
}  // namespace proto
}  // namespace pods
