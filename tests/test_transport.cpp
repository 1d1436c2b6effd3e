// Native transport tests (docs/ARCHITECTURE.md, "Native transport").
//
// The property under test is transport transparency: the UDP loopback
// transport — real sockets, serialized datagrams, ack/retransmit reliable
// delivery — must produce results bit-identical to the in-process inbox
// transport on every workload, PE count, fault seed, and kill schedule.
// Single assignment gives Church-Rosser confluence, the transport-level
// msgId dedup gives exactly-once delivery, and the quiescence charges ride
// with each token through kernel socket buffers, so termination stays
// exact. The fuzz sweeps run PODS_TRANSPORT_SEEDS seeds (default 8; the CI
// socket-soak job raises it to 32+).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>

#include "core/pods.hpp"
#include "native/transport.hpp"
#include "proto/delivery.hpp"
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

/// Seed count for the UDP fuzz sweeps: PODS_TRANSPORT_SEEDS overrides (the
/// CI socket-soak job raises it), default 8 to keep local runs quick.
int transportSeeds() {
  if (const char* env = std::getenv("PODS_TRANSPORT_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

FaultConfig lossyRates(std::uint64_t seed) {
  FaultConfig fc;
  EXPECT_TRUE(FaultConfig::parse("drop:0.05,dup:0.02,delay:0.05", fc));
  fc.seed = seed;
  fc.retry.rtoUs = 50.0;
  fc.nativeDelayUs = 20.0;
  return fc;
}

void expectBalancedLedger(const NativeRun& run, const std::string& what) {
  EXPECT_EQ(run.stats.counters.get("native.framesCreated"),
            run.stats.counters.get("native.framesRetired"))
      << what;
  EXPECT_EQ(run.stats.counters.get("native.framesLive"), 0) << what;
}

// --- wire format ------------------------------------------------------------

TEST(TransportWire, RoundTripsEveryField) {
  native::NToken tok;
  tok.toCont = true;
  tok.spCode = 0xBEEF;
  tok.ctx = 0x123456789ABCDEFULL;
  tok.slot = 0x7A5C;
  tok.cont = Cont{311, 0x00ABCDEF, 0x1234, 0x0FFF};
  tok.v = Value::realv(-2.5e300);
  tok.add = true;
  tok.msgId = 0xFEDCBA9876543210ULL;
  tok.senderCtx = 0x1111222233334444ULL;
  tok.sendKey = 0x5555666677778888ULL;
  tok.wakeKey = (1ULL << 63) | 42;
  tok.amKind = static_cast<std::uint8_t>(native::AmKind::DimReply);

  std::uint8_t wire[native::kTokenWireBytes];
  native::wireEncodeToken(tok, 777, wire);

  native::NToken back;
  std::uint16_t srcPe = 0;
  ASSERT_TRUE(
      native::wireDecodeToken(wire, native::kTokenWireBytes, back, &srcPe));
  EXPECT_EQ(srcPe, 777);
  EXPECT_EQ(back.toCont, tok.toCont);
  EXPECT_EQ(back.spCode, tok.spCode);
  EXPECT_EQ(back.ctx, tok.ctx);
  EXPECT_EQ(back.slot, tok.slot);
  EXPECT_EQ(back.cont.pack(), tok.cont.pack());
  EXPECT_EQ(static_cast<int>(back.v.tag), static_cast<int>(tok.v.tag));
  EXPECT_EQ(back.v.bits, tok.v.bits);
  EXPECT_EQ(back.add, tok.add);
  EXPECT_EQ(back.msgId, tok.msgId);
  EXPECT_EQ(back.senderCtx, tok.senderCtx);
  EXPECT_EQ(back.sendKey, tok.sendKey);
  EXPECT_EQ(back.wakeKey, tok.wakeKey);
  EXPECT_EQ(back.amKind, tok.amKind);
}

TEST(TransportWire, RoundTripsDefaultToken) {
  native::NToken tok;  // all-defaults spawn token (Empty value, zero keys)
  tok.spCode = 3;
  tok.ctx = 9;
  std::uint8_t wire[native::kTokenWireBytes];
  native::wireEncodeToken(tok, 0, wire);
  native::NToken back;
  ASSERT_TRUE(
      native::wireDecodeToken(wire, native::kTokenWireBytes, back, nullptr));
  EXPECT_FALSE(back.toCont);
  EXPECT_FALSE(back.add);
  EXPECT_EQ(back.spCode, 3u);
  EXPECT_EQ(back.ctx, 9u);
  EXPECT_TRUE(back.v.empty());
  EXPECT_EQ(back.msgId, 0u);
}

TEST(TransportWire, RejectsMalformedDatagrams) {
  native::NToken tok;
  tok.v = Value::intv(17);
  std::uint8_t wire[native::kTokenWireBytes];
  native::wireEncodeToken(tok, 1, wire);

  native::NToken out;
  // Truncated / oversized.
  EXPECT_FALSE(
      native::wireDecodeToken(wire, native::kTokenWireBytes - 1, out, nullptr));
  EXPECT_FALSE(native::wireDecodeToken(wire, 0, out, nullptr));
  // Wrong type byte.
  std::uint8_t bad[native::kTokenWireBytes];
  std::copy(wire, wire + native::kTokenWireBytes, bad);
  bad[0] = 0x7F;
  EXPECT_FALSE(
      native::wireDecodeToken(bad, native::kTokenWireBytes, out, nullptr));
  // Reserved flag bits set.
  std::copy(wire, wire + native::kTokenWireBytes, bad);
  bad[1] = 0xF0;
  EXPECT_FALSE(
      native::wireDecodeToken(bad, native::kTokenWireBytes, out, nullptr));
  // Array-message kind above the wire maximum (AllocMeta and beyond are
  // log-only and must never decode off a datagram).
  std::copy(wire, wire + native::kTokenWireBytes, bad);
  bad[1] = static_cast<std::uint8_t>((native::kMaxWireAmKind + 1) << 2);
  EXPECT_FALSE(
      native::wireDecodeToken(bad, native::kTokenWireBytes, out, nullptr));
  // ...while the highest legal kind decodes.
  std::copy(wire, wire + native::kTokenWireBytes, bad);
  bad[1] = static_cast<std::uint8_t>(native::kMaxWireAmKind << 2);
  EXPECT_TRUE(
      native::wireDecodeToken(bad, native::kTokenWireBytes, out, nullptr));
  EXPECT_EQ(out.amKind, native::kMaxWireAmKind);
  // Out-of-range value tag.
  std::copy(wire, wire + native::kTokenWireBytes, bad);
  bad[24] = 0xEE;
  EXPECT_FALSE(
      native::wireDecodeToken(bad, native::kTokenWireBytes, out, nullptr));
  // The untouched image still decodes.
  EXPECT_TRUE(
      native::wireDecodeToken(wire, native::kTokenWireBytes, out, nullptr));
  EXPECT_EQ(out.v.asInt(), 17);
}

// --- batch and ack datagrams ------------------------------------------------
//
// The transport encodes every datagram with wireEncodeToken +
// wireEncodeBatchHeader / wireEncodeCumAck and decodes with wireDecodeBatch /
// wireDecodeCumAck; these tests drive exactly those functions.

native::NToken wireFuzzToken(std::uint64_t i) {
  native::NToken tok;
  tok.toCont = (i & 1) != 0;
  tok.add = (i & 2) != 0;
  tok.spCode = static_cast<std::uint16_t>(0x1000 + i);
  tok.ctx = 0x0123456789ABCDEFULL ^ (i * 0x9E3779B97F4A7C15ULL);
  tok.slot = static_cast<std::uint16_t>(i * 7);
  tok.v = Value::intv(static_cast<std::int64_t>(i) - 3);
  tok.msgId = proto::Delivery::packLinkMsgId(3, 5, i + 1);
  tok.senderCtx = i * 31;
  tok.sendKey = i * 17;
  tok.wakeKey = i % 3 == 0 ? 0 : (1ULL << 62) | i;
  return tok;
}

/// Builds a batch datagram the way the transport's outbox does: records
/// encoded in place behind the header space, then the header.
std::size_t encodeBatch(int count, std::uint16_t srcPe, std::uint8_t epoch,
                        std::uint8_t* out) {
  for (int i = 0; i < count; ++i)
    native::wireEncodeToken(wireFuzzToken(static_cast<std::uint64_t>(i)),
                            srcPe,
                            out + native::kBatchHeaderBytes +
                                static_cast<std::size_t>(i) *
                                    native::kTokenWireBytes);
  return native::wireEncodeBatchHeader(
      out, srcPe, count,
      static_cast<std::size_t>(count) * native::kTokenWireBytes, epoch);
}

bool decodes(const std::uint8_t* data, std::size_t len) {
  // An exact-size heap copy: under ASan a decoder read past `len` traps.
  const std::vector<std::uint8_t> exact(data, data + len);
  std::vector<native::NToken> out;
  const bool ok =
      native::wireDecodeBatch(exact.data(), len, out, nullptr, nullptr);
  EXPECT_EQ(out.empty(), !ok) << "a rejected batch must leave no tokens";
  return ok;
}

bool decodesAck(const std::uint8_t* data, std::size_t len) {
  native::WireCumAck ack;
  return native::wireDecodeCumAck(data, len, ack);
}

TEST(TransportWire, BatchRoundTripsAtEverySize) {
  for (int count = 1; count <= native::kBatchMaxTokens; ++count) {
    const auto epoch = static_cast<std::uint8_t>(count * 11);
    std::uint8_t dgram[native::kBatchMaxBytes];
    const std::size_t len = encodeBatch(count, 3, epoch, dgram);
    ASSERT_EQ(len, native::kBatchHeaderBytes +
                       static_cast<std::size_t>(count) *
                           native::kTokenWireBytes);
    ASSERT_LE(len, native::kBatchMaxBytes);
    EXPECT_EQ(dgram[5], epoch) << "the epoch byte closes the header";
    std::vector<native::NToken> back;
    std::uint16_t srcPe = 0;
    std::uint8_t backEpoch = 0;
    ASSERT_TRUE(
        native::wireDecodeBatch(dgram, len, back, &srcPe, &backEpoch))
        << "count=" << count;
    EXPECT_EQ(srcPe, 3);
    EXPECT_EQ(backEpoch, epoch);
    ASSERT_EQ(back.size(), static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      const native::NToken want = wireFuzzToken(static_cast<std::uint64_t>(i));
      const native::NToken& got = back[static_cast<std::size_t>(i)];
      EXPECT_EQ(got.msgId, want.msgId);
      EXPECT_EQ(got.ctx, want.ctx);
      EXPECT_EQ(got.v.bits, want.v.bits);
      EXPECT_EQ(got.wakeKey, want.wakeKey);
      EXPECT_EQ(got.epoch, epoch) << "decode stamps the header's epoch";
    }
  }
}

TEST(TransportWire, BatchDecodeIsAllOrNothing) {
  std::uint8_t dgram[native::kBatchMaxBytes];
  const std::size_t len = encodeBatch(3, 4, 2, dgram);
  // Every truncation point rejects — including cuts that leave a whole
  // number of records (the header count must match exactly).
  for (std::size_t cut = 0; cut < len; ++cut)
    EXPECT_FALSE(decodes(dgram, cut)) << "cut=" << cut;
  // Trailing junk rejects.
  std::uint8_t extended[native::kBatchMaxBytes + 8];
  std::memcpy(extended, dgram, len);
  extended[len] = 0xAB;
  EXPECT_FALSE(decodes(extended, len + 1));
  // A corrupt record mid-batch rejects the whole datagram.
  std::uint8_t corrupt[native::kBatchMaxBytes];
  std::memcpy(corrupt, dgram, len);
  corrupt[native::kBatchHeaderBytes + native::kTokenWireBytes + 24] =
      0xEE;  // second record's value tag out of range
  EXPECT_FALSE(decodes(corrupt, len));
  // A record that is not a token record rejects.
  std::memcpy(corrupt, dgram, len);
  corrupt[native::kBatchHeaderBytes + 2 * native::kTokenWireBytes] = 0x7F;
  EXPECT_FALSE(decodes(corrupt, len));
  // A record whose srcPe disagrees with the batch header rejects.
  std::memcpy(corrupt, dgram, len);
  corrupt[native::kBatchHeaderBytes + 2] = 0x77;  // first record's srcPe
  EXPECT_FALSE(decodes(corrupt, len));
  // The untouched image still decodes.
  EXPECT_TRUE(decodes(dgram, len));
}

TEST(TransportWire, BatchHeaderRejectsBadCounts) {
  std::uint8_t dgram[native::kBatchMaxBytes];
  const std::size_t len = encodeBatch(2, 4, 0, dgram);
  std::uint8_t bad[native::kBatchMaxBytes];
  // count 0 is malformed at any length, including a bare header.
  std::memcpy(bad, dgram, len);
  bad[3] = 0;
  bad[4] = 0;
  EXPECT_FALSE(decodes(bad, len));
  EXPECT_FALSE(decodes(bad, native::kBatchHeaderBytes));
  // count beyond the MTU budget is malformed no matter the length.
  std::memcpy(bad, dgram, len);
  bad[3] = static_cast<std::uint8_t>(native::kBatchMaxTokens + 1);
  EXPECT_FALSE(decodes(bad, len));
  bad[3] = 0xFF;
  bad[4] = 0xFF;
  EXPECT_FALSE(decodes(bad, len));
  // count disagreeing with the datagram length is malformed.
  std::memcpy(bad, dgram, len);
  bad[3] = 3;
  EXPECT_FALSE(decodes(bad, len));
  bad[3] = 1;
  EXPECT_FALSE(decodes(bad, len));
  EXPECT_TRUE(decodes(dgram, len));
}

TEST(TransportWire, CumAckRoundTripsEveryField) {
  native::WireCumAck ack;
  ack.ackerPe = 0xBEEF;
  ack.cum = 0x0000123456789ABCULL;
  ack.bitmap = 0x8000000000000001ULL;
  ack.epoch = 0xA5;
  std::uint8_t pkt[native::kCumAckWireBytes];
  native::wireEncodeCumAck(ack, pkt);
  native::WireCumAck back;
  ASSERT_TRUE(native::wireDecodeCumAck(pkt, sizeof pkt, back));
  EXPECT_EQ(back.ackerPe, ack.ackerPe);
  EXPECT_EQ(back.cum, ack.cum);
  EXPECT_EQ(back.bitmap, ack.bitmap);
  EXPECT_EQ(back.epoch, ack.epoch);
  EXPECT_EQ(pkt[native::kCumAckWireBytes - 1], ack.epoch);
}

TEST(TransportWire, CumAckRejectsWrongLengths) {
  native::WireCumAck ack;
  ack.cum = 9;
  std::uint8_t pkt[native::kCumAckWireBytes + 1] = {};
  native::wireEncodeCumAck(ack, pkt);
  for (std::size_t len = 0; len < native::kCumAckWireBytes; ++len)
    EXPECT_FALSE(decodesAck(pkt, len)) << "len=" << len;
  EXPECT_FALSE(decodesAck(pkt, native::kCumAckWireBytes + 1));
  EXPECT_TRUE(decodesAck(pkt, native::kCumAckWireBytes));
}

TEST(TransportWire, RejectsRetiredDatagramTypes) {
  std::uint8_t batch[native::kBatchMaxBytes];
  const std::size_t batchLen = encodeBatch(2, 1, 0, batch);
  std::uint8_t ack[native::kCumAckWireBytes];
  native::wireEncodeCumAck(native::WireCumAck{}, ack);
  // Types 1..5: the bare token datagram, the per-message ack, the shutdown
  // wake-up, and the unstamped batch and ack. Neither decoder takes them.
  for (std::uint8_t type = 1; type <= 5; ++type) {
    std::uint8_t b[native::kBatchMaxBytes];
    std::memcpy(b, batch, batchLen);
    b[0] = type;
    EXPECT_FALSE(decodes(b, batchLen)) << "type=" << int(type);
    EXPECT_FALSE(decodesAck(b, batchLen)) << "type=" << int(type);
    std::uint8_t a[native::kCumAckWireBytes];
    std::memcpy(a, ack, sizeof a);
    a[0] = type;
    EXPECT_FALSE(decodes(a, sizeof a)) << "type=" << int(type);
    EXPECT_FALSE(decodesAck(a, sizeof a)) << "type=" << int(type);
    // The retired unstamped ack was one byte shorter.
    EXPECT_FALSE(decodesAck(a, sizeof a - 1)) << "type=" << int(type);
  }
  // A bare 65-byte token record is no longer a datagram.
  EXPECT_FALSE(decodes(batch + native::kBatchHeaderBytes,
                       native::kTokenWireBytes));
  // Each datagram type is only accepted by its own decoder.
  EXPECT_FALSE(decodesAck(batch, batchLen));
  EXPECT_FALSE(decodes(ack, sizeof ack));
}

// --- page records -----------------------------------------------------------
//
// A page run (AmKind::PageRun) travels as one variable-length record beside
// the fixed token records. These tests build a [token, page, token] batch
// and break its page record one field at a time: the decoder takes the
// intact datagram and rejects every broken one whole.

// Page-record field offsets (transport.hpp, "Wire format").
constexpr std::size_t kPageKind = 0, kPageFlags = 1, kPageSrc = 2,
                      kPageLen = 4, kPageSpan = 6, kPageElemsAt = 8,
                      kPageCount = 10, kPageFirst = 16;

/// A run of `span` offsets from `first` on `pageElems`-element pages: every
/// offset present but those at i % 3 == 1 (the last is always present),
/// with Int, Real and Array values.
std::shared_ptr<native::PageRun> pageRun(std::uint32_t first, int span,
                                         int pageElems) {
  auto run = std::make_shared<native::PageRun>();
  run->first = first;
  run->pageElems = static_cast<std::uint16_t>(pageElems);
  for (int i = 0; i < span; ++i) {
    if (i % 3 == 1 && i != span - 1) continue;
    const Value v = i % 2 == 0   ? Value::intv(-i)
                    : i % 5 == 0 ? Value::arrayv(static_cast<ArrayId>(7 + i))
                                 : Value::realv(i * 0.5);
    run->add(first + static_cast<std::uint32_t>(i), v);
  }
  return run;
}

native::NToken pageToken(std::shared_ptr<const native::PageRun> run,
                         std::uint64_t msgId) {
  native::NToken tok;
  tok.amKind = static_cast<std::uint8_t>(native::AmKind::PageRun);
  tok.ctx = 0xA11A;  // array id
  tok.msgId = msgId;
  tok.page = std::move(run);
  return tok;
}

/// Encodes [token, page, token] as one batch on link (src -> dst), seqs
/// 1..3, the page a run of 20 offsets at 64 on 32-element pages. Returns
/// the datagram length; `pageAt` is the page record's offset in it.
std::size_t encodeMixedBatch(std::uint16_t src, int dst, std::uint8_t* out,
                             std::size_t* pageAt) {
  native::NToken a = wireFuzzToken(0);
  native::NToken b = wireFuzzToken(2);
  a.msgId = proto::Delivery::packLinkMsgId(src, dst, 1);
  b.msgId = proto::Delivery::packLinkMsgId(src, dst, 3);
  const native::NToken page = pageToken(
      pageRun(64, 20, 32), proto::Delivery::packLinkMsgId(src, dst, 2));
  std::size_t at = native::kBatchHeaderBytes;
  at += native::wireEncodeRecord(a, src, out + at);
  *pageAt = at;
  at += native::wireEncodeRecord(page, src, out + at);
  at += native::wireEncodeRecord(b, src, out + at);
  return native::wireEncodeBatchHeader(out, src, 3,
                                       at - native::kBatchHeaderBytes, 0);
}

void put16At(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put32At(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
std::uint16_t get16At(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

/// One way to break the page record of an encodeMixedBatch datagram `dg`
/// (its record at `pg`, the datagram `len` bytes, which it may change).
struct PageCorruption {
  const char* what;
  void (*apply)(std::uint8_t* dg, std::size_t& len, std::size_t pg);
};

// The run at 64 spans 20 offsets: mask bytes 0..2 with bits 0, 2, 3, 5, ...
// set (i % 3 != 1, and 19), 14 values.
const PageCorruption kPageCorruptions[] = {
    {"truncated inside the page record",
     [](std::uint8_t*, std::size_t& len, std::size_t pg) { len = pg + 30; }},
    {"truncated inside the fixed header",
     [](std::uint8_t*, std::size_t& len, std::size_t pg) { len = pg + 10; }},
    {"length one value past the record",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageLen,
               static_cast<std::uint16_t>(get16At(dg + pg + kPageLen) + 9));
     }},
    {"length past the datagram, record self-consistent",
     [](std::uint8_t* dg, std::size_t& len, std::size_t pg) {
       // Drop the trailing token and claim one more value than the
       // datagram holds: count, mask and len all agree with each other.
       len -= native::kTokenWireBytes;
       put16At(dg + 3, 2);
       dg[pg + native::kPageRecordFixedBytes] |= 0x02;  // offset 1 present
       put16At(dg + pg + kPageCount,
               static_cast<std::uint16_t>(get16At(dg + pg + kPageCount) + 1));
       put16At(dg + pg + kPageLen,
               static_cast<std::uint16_t>(get16At(dg + pg + kPageLen) + 9));
     }},
    {"length swallows the next record",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       // The page record claims the trailing token as its own bytes: the
       // walk would still end at the datagram's end.
       put16At(dg + 3, 2);
       put16At(dg + pg + kPageLen,
               static_cast<std::uint16_t>(get16At(dg + pg + kPageLen) +
                                          native::kTokenWireBytes));
     }},
    {"length past the cap",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageLen,
               static_cast<std::uint16_t>(native::kPageRecordMaxBytes + 1));
     }},
    {"mask has one bit more than the count",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       dg[pg + native::kPageRecordFixedBytes] |= 0x02;
     }},
    {"mask has one bit fewer than the count",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       dg[pg + native::kPageRecordFixedBytes] &= 0xFE;
     }},
    {"mask bit past the span",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       dg[pg + native::kPageRecordFixedBytes] &= 0xFE;      // offset 0 out,
       dg[pg + native::kPageRecordFixedBytes + 2] |= 0x20;  // offset 21 in
     }},
    {"count disagrees with the length",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageCount,
               static_cast<std::uint16_t>(get16At(dg + pg + kPageCount) - 1));
     }},
    {"run past its page",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put32At(dg + pg + kPageFirst, 64 + 13);  // 13 + 20 > 32
     }},
    {"page smaller than the span",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageElemsAt, 16);
     }},
    {"page size zero",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageElemsAt, 0);
     }},
    {"page size past kMaxPageElems",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageElemsAt,
               static_cast<std::uint16_t>(native::kMaxPageElems + 1));
     }},
    {"span zero",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageSpan, 0);
     }},
    {"span past kPageRunMaxElems",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageElemsAt, 4096);
       put16At(dg + pg + kPageSpan,
               static_cast<std::uint16_t>(native::kPageRunMaxElems + 1));
     }},
    {"run past kMaxArrayElems",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put32At(dg + pg + kPageFirst,
               static_cast<std::uint32_t>(native::kMaxArrayElems));
     }},
    {"unknown record kind",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       dg[pg + kPageKind] = 3;
     }},
    {"reserved flags set",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       dg[pg + kPageFlags] = 1;
     }},
    {"record srcPe disagrees with the header",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       put16At(dg + pg + kPageSrc, 0x77);
     }},
    {"absent value",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       dg[pg + native::kPageRecordFixedBytes + 3] =
           static_cast<std::uint8_t>(Tag::Empty);
     }},
    {"value tag out of range",
     [](std::uint8_t* dg, std::size_t&, std::size_t pg) {
       dg[pg + native::kPageRecordFixedBytes + 3 + native::kPageValueBytes] =
           0xEE;
     }},
};

TEST(TransportWire, PageRecordRoundTripsInAMixedBatch) {
  for (const int span : {1, 2, 8, 20, 32, 127, native::kPageRunMaxElems}) {
    const int pageElems = span <= 32 ? 32 : native::kMaxPageElems;
    const auto run =
        pageRun(static_cast<std::uint32_t>(2 * pageElems), span, pageElems);
    const native::NToken page =
        pageToken(run, proto::Delivery::packLinkMsgId(3, 5, 2));
    const std::size_t rec = native::wireRecordBytes(page);
    EXPECT_EQ(rec, native::kPageRecordFixedBytes +
                       static_cast<std::size_t>(span + 7) / 8 +
                       run->count * native::kPageValueBytes)
        << "span=" << span;
    std::uint8_t dg[native::kBatchMaxBytes];
    std::size_t at = native::kBatchHeaderBytes;
    at += native::wireEncodeRecord(wireFuzzToken(0), 3, dg + at);
    EXPECT_EQ(native::wireEncodeRecord(page, 3, dg + at), rec);
    at += rec;
    at += native::wireEncodeRecord(wireFuzzToken(2), 3, dg + at);
    const std::size_t len = native::wireEncodeBatchHeader(
        dg, 3, 3, at - native::kBatchHeaderBytes, 7);
    std::vector<native::NToken> back;
    std::uint16_t srcPe = 0;
    std::uint8_t epoch = 0;
    ASSERT_TRUE(native::wireDecodeBatch(dg, len, back, &srcPe, &epoch))
        << "span=" << span;
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].ctx, wireFuzzToken(0).ctx);
    EXPECT_EQ(back[2].ctx, wireFuzzToken(2).ctx);
    const native::NToken& got = back[1];
    EXPECT_EQ(got.amKind, page.amKind);
    EXPECT_EQ(got.ctx, page.ctx);
    EXPECT_EQ(got.msgId, page.msgId);
    EXPECT_EQ(got.epoch, 7);
    ASSERT_NE(got.page, nullptr);
    EXPECT_EQ(got.page->first, run->first);
    EXPECT_EQ(got.page->span, span);
    EXPECT_EQ(got.page->pageElems, pageElems);
    ASSERT_EQ(got.page->count, run->count);
    for (int i = 0; i < span; ++i)
      EXPECT_EQ(got.page->has(i), run->has(i)) << "span=" << span << " i=" << i;
    for (int k = 0; k < run->count; ++k) {
      const auto at = static_cast<std::size_t>(k);
      EXPECT_EQ(got.page->vals[at].tag, run->vals[at].tag);
      EXPECT_EQ(got.page->vals[at].bits, run->vals[at].bits);
    }
  }
  // A run with every one of its kPageRunMaxElems offsets present is the
  // largest record, and fits a batch on its own.
  auto full = std::make_shared<native::PageRun>();
  full->pageElems = native::kMaxPageElems;
  for (int i = 0; i < native::kPageRunMaxElems; ++i)
    full->add(i, Value::intv(i));
  const native::NToken page = pageToken(full, 1);
  ASSERT_EQ(native::wireRecordBytes(page), native::kPageRecordMaxBytes);
  std::uint8_t dg[native::kBatchMaxBytes];
  const std::size_t rec =
      native::wireEncodeRecord(page, 0, dg + native::kBatchHeaderBytes);
  EXPECT_TRUE(decodes(dg, native::wireEncodeBatchHeader(dg, 0, 1, rec, 0)));
}

TEST(TransportWire, PageRecordDecodeRejectsMalformedRecordsWhole) {
  std::uint8_t dg[native::kBatchMaxBytes];
  std::size_t pg = 0;
  const std::size_t len = encodeMixedBatch(3, 5, dg, &pg);
  ASSERT_TRUE(decodes(dg, len));
  // Every truncation point rejects.
  for (std::size_t cut = 0; cut < len; ++cut)
    EXPECT_FALSE(decodes(dg, cut)) << "cut=" << cut;
  for (const PageCorruption& c : kPageCorruptions) {
    std::uint8_t bad[native::kBatchMaxBytes];
    std::memcpy(bad, dg, len);
    std::size_t badLen = len;
    c.apply(bad, badLen, pg);
    EXPECT_FALSE(decodes(bad, badLen)) << c.what;
  }
  // A run wider than kPageRunMaxElems is rejected even when its record is
  // self-consistent (its mask and values would overrun a PageRun).
  for (const int span : {native::kPageRunMaxElems, native::kPageRunMaxElems + 1}) {
    std::uint8_t one[native::kBatchMaxBytes] = {};
    std::uint8_t* rec = one + native::kBatchHeaderBytes;
    const std::size_t maskBytes = static_cast<std::size_t>(span + 7) / 8;
    const std::size_t recLen = native::kPageRecordFixedBytes + maskBytes +
                               native::kPageValueBytes;
    rec[kPageKind] = 2;
    put16At(rec + kPageLen, static_cast<std::uint16_t>(recLen));
    put16At(rec + kPageSpan, static_cast<std::uint16_t>(span));
    put16At(rec + kPageElemsAt, native::kMaxPageElems);
    put16At(rec + kPageCount, 1);
    rec[native::kPageRecordFixedBytes] = 0x01;  // offset `first` present
    rec[native::kPageRecordFixedBytes + maskBytes] =
        static_cast<std::uint8_t>(Tag::Int);
    const std::size_t oneLen =
        native::wireEncodeBatchHeader(one, 0, 1, recLen, 0);
    EXPECT_EQ(decodes(one, oneLen), span <= native::kPageRunMaxElems)
        << "span=" << span;
  }
  // The same run moved to the last page below kMaxArrayElems still decodes.
  std::uint8_t edge[native::kBatchMaxBytes];
  std::memcpy(edge, dg, len);
  put32At(edge + pg + kPageFirst,
          static_cast<std::uint32_t>(native::kMaxArrayElems - 32));
  EXPECT_TRUE(decodes(edge, len));
}

TEST(TransportWire, BatchesFillByBytes) {
  // 21 token records fill a batch; 20 leave room for one more.
  EXPECT_TRUE(native::wireBatchFull(native::kBatchMaxTokens *
                                    native::kTokenWireBytes));
  EXPECT_FALSE(native::wireBatchFull((native::kBatchMaxTokens - 1) *
                                     native::kTokenWireBytes));
  // A page record counts its bytes, not one record slot.
  std::uint8_t dg[native::kBatchMaxBytes];
  std::size_t pg = 0;
  const std::size_t len = encodeMixedBatch(3, 5, dg, &pg);
  EXPECT_EQ(len - native::kBatchHeaderBytes,
            2 * native::kTokenWireBytes +
                native::wireRecordBytes(pageToken(pageRun(64, 20, 32), 0)));
  EXPECT_FALSE(native::wireBatchFull(len - native::kBatchHeaderBytes));
}

TEST(TransportKindParse, NamesRoundTrip) {
  native::TransportKind k = native::TransportKind::Udp;
  ASSERT_TRUE(native::parseTransportKind("inbox", k));
  EXPECT_EQ(k, native::TransportKind::Inbox);
  ASSERT_TRUE(native::parseTransportKind("udp", k));
  EXPECT_EQ(k, native::TransportKind::Udp);
  EXPECT_FALSE(native::parseTransportKind("tcp", k));
  EXPECT_FALSE(native::parseTransportKind("", k));
  EXPECT_STREQ(native::transportKindName(native::TransportKind::Inbox),
               "inbox");
  EXPECT_STREQ(native::transportKindName(native::TransportKind::Udp), "udp");
}

// --- one endpoint on a real socket ------------------------------------------

/// Records what a transport delivers, for driving one endpoint by hand.
class RecordingSink final : public native::TransportSink {
 public:
  void deposit(int pe, int lane, native::NToken tok) override {
    std::lock_guard<std::mutex> g(m_);
    pes_.push_back(pe);
    lanes_.push_back(lane);
    toks_.push_back(tok);
  }
  void chargeDuplicate() override {}
  void transportFail(const std::string& msg) override { ADD_FAILURE() << msg; }

  std::size_t count() {
    std::lock_guard<std::mutex> g(m_);
    return toks_.size();
  }

  std::mutex m_;
  std::vector<int> pes_;
  std::vector<int> lanes_;
  std::vector<native::NToken> toks_;
};

// A worker-style endpoint for PE 1 (no WorkerLink, so it acks at receive),
// fed by hand from PE 0's socket: only the two live datagram types get
// through, everything else — forged array messages included — lands in
// net.udp.badDatagrams, and the one ack it builds is the one it counts.
TEST(UdpTransport, EndpointTakesOnlyTheTwoDatagramTypes) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  std::string err;
  ASSERT_TRUE(native::bindLoopbackUdp(2, fds, ports, &err)) << err;
  RecordingSink sink;
  native::UdpWorkerEndpoint ep;
  ep.pe = 1;
  ep.sockFd = fds[1];
  ep.peerPorts = ports;
  auto udp = native::makeTransport(native::TransportKind::UdpMultiproc, sink,
                                   FaultPlan(), 2, &ep);
  ASSERT_TRUE(udp->start(&err)) << err;

  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(ports[1]);
  auto sendRaw = [&](const std::uint8_t* data, std::size_t len) {
    EXPECT_EQ(::sendto(fds[0], data, len, 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof to),
              static_cast<ssize_t>(len));
  };
  auto batchOf = [](std::uint64_t msgId, std::uint8_t* out) {
    native::NToken tok;
    tok.spCode = 7;
    tok.v = Value::intv(42);
    tok.msgId = msgId;
    native::wireEncodeToken(tok, 0, out + native::kBatchHeaderBytes);
    return native::wireEncodeBatchHeader(out, 0, 1, native::kTokenWireBytes,
                                         0);
  };
  std::uint8_t batch[native::kBatchMaxBytes];
  const std::size_t len =
      batchOf(proto::Delivery::packLinkMsgId(0, 1, 1), batch);

  int bad = 0;
  for (std::uint8_t type = 1; type <= 5; ++type, ++bad) {
    std::uint8_t retired[native::kBatchMaxBytes];
    std::memcpy(retired, batch, len);
    retired[0] = type;
    sendRaw(retired, len);
  }
  sendRaw(batch + native::kBatchHeaderBytes, native::kTokenWireBytes);
  ++bad;  // the bare single-token datagram
  std::uint8_t stray[native::kBatchMaxBytes];
  sendRaw(stray, batchOf(proto::Delivery::packLinkMsgId(0, 0, 1), stray));
  ++bad;  // a record numbered on a link that does not end at PE 1
  // Array messages numbered on the right link whose fields PE 1 would index
  // with: a ReadReq answering PE 5 of 2, a DimReq answering PE 9, and a
  // page run past the largest array.
  native::NToken forged[3];
  forged[0].amKind = static_cast<std::uint8_t>(native::AmKind::ReadReq);
  forged[0].cont.pe = 5;
  forged[1].amKind = static_cast<std::uint8_t>(native::AmKind::DimReq);
  forged[1].slot = 9;
  auto past = std::make_shared<native::PageRun>();
  past->first = static_cast<std::uint32_t>(native::kMaxArrayElems);
  past->pageElems = 32;
  past->add(past->first, Value::intv(1));
  forged[2].amKind = static_cast<std::uint8_t>(native::AmKind::PageRun);
  forged[2].page = past;
  for (std::uint64_t i = 0; i < 3; ++i, ++bad) {
    forged[i].msgId = proto::Delivery::packLinkMsgId(0, 1, 2 + i);
    std::uint8_t dg[native::kBatchMaxBytes];
    const std::size_t rec = native::wireEncodeRecord(
        forged[i], 0, dg + native::kBatchHeaderBytes);
    sendRaw(dg, native::wireEncodeBatchHeader(dg, 0, 1, rec, 0));
  }
  native::WireCumAck staleAck;
  staleAck.ackerPe = 0;
  staleAck.epoch = 9;  // PE 1 runs epoch 0
  std::uint8_t pkt[native::kCumAckWireBytes];
  native::wireEncodeCumAck(staleAck, pkt);
  sendRaw(pkt, sizeof pkt);
  sendRaw(batch, len);

  // The endpoint acks the batch at receive, after everything queued ahead
  // of it on the socket was handled.
  pollfd pfd{fds[0], POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "no ack within 5 s";
  ASSERT_EQ(::recv(fds[0], pkt, sizeof pkt, 0),
            static_cast<ssize_t>(native::kCumAckWireBytes));
  native::WireCumAck ack;
  ASSERT_TRUE(native::wireDecodeCumAck(pkt, sizeof pkt, ack));
  EXPECT_EQ(ack.ackerPe, 1);
  EXPECT_EQ(ack.cum, 1u);
  EXPECT_EQ(ack.bitmap, 0u);
  EXPECT_EQ(ack.epoch, 0);
  for (int i = 0; i < 5000 && sink.count() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  udp->stop();

  Counters c;
  udp->addStats(c);
  EXPECT_EQ(c.get("net.udp.badDatagrams"), bad);
  EXPECT_EQ(c.get("net.udp.staleAcks"), 1);
  EXPECT_EQ(c.get("net.udp.datagramsRecv"), bad + 2);
  EXPECT_EQ(c.get("net.retx.acks"), 1);
  EXPECT_EQ(c.get("net.udp.acksSent"), 1);
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.pes_[0], 1);
  EXPECT_EQ(sink.lanes_[0], 2);  // the service lane, numPes
  EXPECT_EQ(sink.toks_[0].spCode, 7);
  EXPECT_EQ(sink.toks_[0].v.asInt(), 42);
  // A worker endpoint leaves its inherited socket to the supervisor.
  for (const int fd : fds) EXPECT_EQ(::close(fd), 0);
}

/// Threads of this process, as /proc/self/task lists them, once two reads
/// 2 ms apart agree (a joined thread can linger there for a moment).
int settledThreadCount() {
  auto count = [] {
    return static_cast<int>(
        std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                      std::filesystem::directory_iterator{}));
  };
  int last = count();
  for (int i = 0; i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const int now = count();
    if (now == last) break;
    last = now;
  }
  return last;
}

// A worker-style endpoint for PE 1 runs one transport thread, and that
// thread both receives and retransmits: a token flushed to a silent peer
// comes again with the same msgId one fault-free RTO later with no further
// call, and once the peer acks, no third copy follows within three RTOs.
TEST(UdpTransport, EndpointRetransmitsFromItsOneServiceThread) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  std::string err;
  ASSERT_TRUE(native::bindLoopbackUdp(2, fds, ports, &err)) << err;
  RecordingSink sink;
  native::UdpWorkerEndpoint ep;
  ep.pe = 1;
  ep.sockFd = fds[1];
  ep.peerPorts = ports;
  const FaultPlan plan;
  auto udp = native::makeTransport(native::TransportKind::UdpMultiproc, sink,
                                   plan, 2, &ep);
  const int before = settledThreadCount();
  ASSERT_TRUE(udp->start(&err)) << err;
  EXPECT_EQ(settledThreadCount(), before + 1);

  const auto rto = std::chrono::microseconds(static_cast<std::int64_t>(
      plan.config().retry.baseRtoUs(/*faultsEnabled=*/false)));
  // The next batch on PE 0's socket, or the default token when none comes
  // within `wait`.
  auto nextCopy = [&](std::chrono::milliseconds wait) {
    pollfd pfd{fds[0], POLLIN, 0};
    native::NToken tok;
    if (::poll(&pfd, 1, static_cast<int>(wait.count())) != 1) return tok;
    std::uint8_t dg[native::kBatchMaxBytes];
    const ssize_t n = ::recv(fds[0], dg, sizeof dg, 0);
    std::vector<native::NToken> toks;
    std::uint16_t src = 0;
    std::uint8_t epoch = 0;
    EXPECT_TRUE(native::wireDecodeBatch(dg, static_cast<std::size_t>(n), toks,
                                        &src, &epoch));
    EXPECT_EQ(src, 1);
    EXPECT_EQ(toks.size(), 1u);
    return toks.empty() ? tok : toks[0];
  };

  const auto t0 = std::chrono::steady_clock::now();
  native::NToken tok;
  tok.spCode = 7;
  tok.v = Value::intv(42);
  udp->send(1, 0, tok);
  udp->flush(1);
  const native::NToken first = nextCopy(std::chrono::milliseconds(5000));
  ASSERT_EQ(first.msgId, proto::Delivery::packLinkMsgId(1, 0, 1));
  EXPECT_EQ(first.v.asInt(), 42);
  const native::NToken again = nextCopy(std::chrono::milliseconds(5000));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, rto);
  ASSERT_EQ(again.msgId, first.msgId);

  native::WireCumAck ack;
  ack.ackerPe = 0;
  ack.cum = 1;
  std::uint8_t pkt[native::kCumAckWireBytes];
  native::wireEncodeCumAck(ack, pkt);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(ports[1]);
  ASSERT_EQ(::sendto(fds[0], pkt, sizeof pkt, 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof to),
            static_cast<ssize_t>(sizeof pkt));
  EXPECT_EQ(nextCopy(std::chrono::duration_cast<std::chrono::milliseconds>(
                         3 * rto))
                .msgId,
            0u)
      << "a third copy after the ack";
  EXPECT_EQ(udp->outstanding(), 0);
  udp->stop();
  EXPECT_EQ(settledThreadCount(), before);

  Counters c;
  udp->addStats(c);
  EXPECT_GE(c.get("net.retx.resent"), 1);
  EXPECT_EQ(c.get("net.udp.acksRecv"), 1);
  EXPECT_EQ(sink.count(), 0u);
  for (const int fd : fds) EXPECT_EQ(::close(fd), 0);
}

// The same endpoint fed every broken page record of kPageCorruptions, each
// in a [token, page, token] batch on the right link: each datagram is
// rejected whole and counted in net.udp.badDatagrams, so none of its records
// reaches the sink or the link's dedup window — the intact batch sent last,
// numbered with the same seqs, delivers all three records.
TEST(UdpTransport, EndpointRejectsMalformedPageRecordsWhole) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  std::string err;
  ASSERT_TRUE(native::bindLoopbackUdp(2, fds, ports, &err)) << err;
  RecordingSink sink;
  native::UdpWorkerEndpoint ep;
  ep.pe = 1;
  ep.sockFd = fds[1];
  ep.peerPorts = ports;
  auto udp = native::makeTransport(native::TransportKind::UdpMultiproc, sink,
                                   FaultPlan(), 2, &ep);
  ASSERT_TRUE(udp->start(&err)) << err;
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(ports[1]);
  auto sendRaw = [&](const std::uint8_t* data, std::size_t len) {
    EXPECT_EQ(::sendto(fds[0], data, len, 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof to),
              static_cast<ssize_t>(len));
  };

  std::uint8_t dg[native::kBatchMaxBytes];
  std::size_t pg = 0;
  const std::size_t len = encodeMixedBatch(0, 1, dg, &pg);
  int bad = 0;
  for (const PageCorruption& c : kPageCorruptions) {
    std::uint8_t broken[native::kBatchMaxBytes];
    std::memcpy(broken, dg, len);
    std::size_t brokenLen = len;
    c.apply(broken, brokenLen, pg);
    sendRaw(broken, brokenLen);
    ++bad;
  }
  sendRaw(dg, len);

  pollfd pfd{fds[0], POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "no ack within 5 s";
  std::uint8_t pkt[native::kCumAckWireBytes];
  ASSERT_EQ(::recv(fds[0], pkt, sizeof pkt, 0),
            static_cast<ssize_t>(native::kCumAckWireBytes));
  native::WireCumAck ack;
  ASSERT_TRUE(native::wireDecodeCumAck(pkt, sizeof pkt, ack));
  EXPECT_EQ(ack.cum, 3u);
  for (int i = 0; i < 5000 && sink.count() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  udp->stop();

  Counters c;
  udp->addStats(c);
  EXPECT_EQ(c.get("net.udp.badDatagrams"), bad);
  EXPECT_EQ(c.get("net.udp.datagramsRecv"), bad + 1);
  ASSERT_EQ(sink.count(), 3u);
  const native::NToken& page = sink.toks_[1];
  EXPECT_EQ(page.amKind, static_cast<std::uint8_t>(native::AmKind::PageRun));
  ASSERT_NE(page.page, nullptr);
  EXPECT_EQ(page.page->first, 64u);
  EXPECT_EQ(page.page->span, 20);
  for (const int fd : fds) EXPECT_EQ(::close(fd), 0);
}

// A worker process's data port is where tokens from outside the process
// land. A batch on the right link that names an SP code the program does
// not have, a slot past its SP's slots, or a continuation slot past its
// frame's is counted in native.badTokens and dropped; the worker runs on
// until its stop, and the test binary is never taken down.
TEST(UdpTransport, WorkerDropsAndCountsForgedTokens) {
  // SP 1 adds two argument tokens: one in slot 0 spawns it, and it then
  // waits on slot 1 for good.
  SpProgram prog;
  SpCode mainSp;
  mainSp.name = "main";
  mainSp.numSlots = 1;
  mainSp.code.push_back(Instr{});  // END
  SpCode adder;
  adder.id = 1;
  adder.name = "adder";
  adder.numSlots = 3;
  Instr add;
  add.op = Op::ADD;
  add.a = 0;
  add.b = 1;
  add.dst = 2;
  adder.code = {add, Instr{}};
  prog.sps = {mainSp, adder};

  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  std::string err;
  ASSERT_TRUE(native::bindLoopbackUdp(2, fds, ports, &err)) << err;
  std::atomic<bool> abort{false};
  native::NativeConfig nc;
  nc.numWorkers = 2;
  nc.transport = native::TransportKind::UdpMultiproc;
  nc.store = native::StoreKind::Wire;  // a worker's cell store is inherited
  nc.localPe = 1;
  nc.sockFd = fds[1];
  nc.peerPorts = ports;
  nc.abort = &abort;
  native::NativeMachine m(prog, nc);
  native::NativeResult res;
  std::thread runner([&] { res = m.run(); });

  native::NToken toks[4];
  toks[0].spCode = 1;  // a well-formed spawn: frame 0 on PE 1
  toks[0].ctx = 99;
  toks[1].spCode = 7;  // no such SP
  toks[1].ctx = 100;
  toks[2].spCode = 1;  // no such slot in SP 1
  toks[2].ctx = 101;
  toks[2].slot = 9;
  toks[3].toCont = true;  // frame 0's slots end at 2
  toks[3].cont = Cont{1, 0, 9, 0};
  std::uint8_t dg[native::kBatchMaxBytes];
  for (int i = 0; i < 4; ++i) {
    toks[i].v = Value::intv(1);
    toks[i].msgId = proto::Delivery::packLinkMsgId(0, 1, 1 + i);
    native::wireEncodeToken(
        toks[i], 0, dg + native::kBatchHeaderBytes + i * native::kTokenWireBytes);
  }
  const std::size_t len = native::wireEncodeBatchHeader(
      dg, 0, 4, 4 * native::kTokenWireBytes, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(ports[1]);
  ASSERT_EQ(::sendto(fds[0], dg, len, 0, reinterpret_cast<const sockaddr*>(&to),
                     sizeof to),
            static_cast<ssize_t>(len));

  // Stop once all four were deposited and drained.
  for (int i = 0; i < 5000; ++i) {
    const native::WorkerStatus st = m.workerStatus();
    if (st.activity >= 4 && st.inboxTokens == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  abort.store(true);
  runner.join();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("aborted"), std::string::npos) << res.error;
  EXPECT_EQ(res.counters.get("native.badTokens"), 3);
  EXPECT_EQ(res.counters.get("native.framesCreated"), 1);
  EXPECT_EQ(res.counters.get("net.udp.badDatagrams"), 0);
  for (const int fd : fds) EXPECT_EQ(::close(fd), 0);
}

// --- bit-exactness vs the inbox transport -----------------------------------

TEST(UdpTransport, SimpleBitIdenticalToInboxAcrossPeCounts) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  for (int workers : {1, 4, 8}) {
    native::NativeConfig inbox;
    inbox.numWorkers = workers;
    NativeRun ref = runNative(*c, inbox);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

    native::NativeConfig udp = inbox;
    udp.transport = native::TransportKind::Udp;
    NativeRun run = runNative(*c, udp);
    ASSERT_TRUE(run.stats.ok) << "workers=" << workers << ": "
                              << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "workers=" << workers << ": " << why;
    expectBalancedLedger(run, "workers=" + std::to_string(workers));
    // Real datagrams must actually have crossed sockets (multi-PE only).
    if (workers > 1) {
      EXPECT_GT(run.stats.counters.get("net.udp.tokensSent"), 0)
          << "workers=" << workers;
      EXPECT_EQ(run.stats.counters.get("net.udp.acksRecv"),
                run.stats.counters.get("net.udp.acksSent"))
          << "workers=" << workers;
      // Batching must be live: fewer datagrams than tokens.
      EXPECT_GT(run.stats.counters.get("net.udp.batch.datagrams"), 0)
          << "workers=" << workers;
      EXPECT_LT(run.stats.counters.get("net.udp.batch.datagrams"),
                run.stats.counters.get("net.udp.tokensSent"))
          << "workers=" << workers;
      // Fault-free, every ack built is one ack datagram sent.
      EXPECT_GT(run.stats.counters.get("net.udp.acksSent"), 0)
          << "workers=" << workers;
      EXPECT_EQ(run.stats.counters.get("net.retx.acks"),
                run.stats.counters.get("net.udp.acksSent"))
          << "workers=" << workers;
    } else {
      EXPECT_EQ(run.stats.counters.get("net.udp.tokensSent"), 0);
    }
    // The UDP counter set is registered unconditionally — a run that never
    // hits a send error still reports the zero (sendErrors must be visible
    // in `podsc --stats`).
    for (const char* key :
         {"net.udp.sendErrors", "net.udp.badDatagrams",
          "net.udp.batch.datagrams", "net.udp.batch.tokens",
          "net.udp.batch.flushFull", "net.udp.batch.flushDrain",
          "net.udp.batch.flushRetx"}) {
      EXPECT_EQ(run.stats.counters.all().count(key), 1u)
          << "workers=" << workers << " missing " << key;
    }
  }
}

/// Raises `flag` if it is still alive after `limit`, so a run that would
/// hang fails with "aborted" instead.
class Watchdog {
 public:
  Watchdog(std::atomic<bool>& flag, std::chrono::seconds limit)
      : thread_([this, &flag, limit] {
          std::unique_lock<std::mutex> g(m_);
          if (!cv_.wait_for(g, limit, [&] { return done_; })) flag.store(true);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> g(m_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

// No deadline ships a partial batch: the sending worker's loop is the only
// flusher. Whether a worker runs one instruction per slice or 65,536, on 2
// or 8 workers, with either store, every batch it leaves coalescing must
// still go out, or the run hangs — cut short here by a watchdog.
TEST(UdpTransport, WorkerLoopIsTheOnlyFlusher) {
  for (const std::string& src :
       {workloads::simpleSource(16, 2), workloads::stencilSource(24, 4)}) {
    auto c = compileOk(src);
    NativeRun ref = runNative(*c, native::NativeConfig{});
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;
    for (int slice : {1, 65536}) {
      for (int workers : {2, 8}) {
        for (native::StoreKind store :
             {native::StoreKind::Local, native::StoreKind::Wire}) {
          const std::string what =
              "slice=" + std::to_string(slice) +
              " workers=" + std::to_string(workers) +
              " store=" + native::storeKindName(store);
          std::atomic<bool> abort{false};
          native::NativeConfig nc;
          nc.numWorkers = workers;
          nc.sliceInstructions = slice;
          nc.transport = native::TransportKind::Udp;
          nc.store = store;
          nc.abort = &abort;
          NativeRun run;
          {
            Watchdog dog(abort, std::chrono::seconds(60));
            run = runNative(*c, nc);
          }
          ASSERT_TRUE(run.stats.ok) << what << ": " << run.stats.error;
          std::string why;
          ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
              << what << ": " << why;
          expectBalancedLedger(run, what);
          EXPECT_GT(run.stats.counters.get("net.udp.batch.flushDrain"), 0)
              << what;
        }
      }
    }
  }
}

TEST(UdpTransport, RecursiveWorkloadBitIdenticalToInbox) {
  auto c = compileOk(kFibSource);
  for (int workers : {1, 4, 8}) {
    native::NativeConfig inbox;
    inbox.numWorkers = workers;
    NativeRun ref = runNative(*c, inbox);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

    native::NativeConfig udp = inbox;
    udp.transport = native::TransportKind::Udp;
    NativeRun run = runNative(*c, udp);
    ASSERT_TRUE(run.stats.ok) << "workers=" << workers << ": "
                              << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "workers=" << workers << ": " << why;
    expectBalancedLedger(run, "workers=" + std::to_string(workers));
  }
}

TEST(UdpTransport, RepeatRunsBitIdentical) {
  // Church-Rosser across the real-socket path: scheduling and datagram
  // interleavings differ run to run, outputs must not.
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig udp;
  udp.numWorkers = 4;
  udp.transport = native::TransportKind::Udp;
  NativeRun first = runNative(*c, udp);
  ASSERT_TRUE(first.stats.ok) << first.stats.error;
  for (int rep = 0; rep < 5; ++rep) {
    NativeRun run = runNative(*c, udp);
    ASSERT_TRUE(run.stats.ok) << "rep=" << rep << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, first.out, &why))
        << "rep=" << rep << ": " << why;
  }
}

// --- per-link visibility ----------------------------------------------------

TEST(UdpTransport, PerLinkCountersSumToAggregates) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig udp;
  udp.numWorkers = 4;
  udp.transport = native::TransportKind::Udp;
  NativeRun run = runNative(*c, udp);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;

  std::int64_t linkTokens = 0, linkDatagrams = 0, linkBytes = 0, links = 0;
  for (const auto& [k, v] : run.stats.counters.all()) {
    if (k.rfind("net.link.", 0) != 0) continue;
    if (k.size() >= 7 && k.compare(k.size() - 7, 7, ".tokens") == 0) {
      linkTokens += v;
      ++links;
      EXPECT_GT(v, 0) << k;  // zero links are omitted entirely
    } else if (k.size() >= 10 &&
               k.compare(k.size() - 10, 10, ".datagrams") == 0) {
      linkDatagrams += v;
    } else if (k.size() >= 6 && k.compare(k.size() - 6, 6, ".bytes") == 0) {
      linkBytes += v;
    }
  }
  EXPECT_GT(links, 0);
  EXPECT_EQ(linkTokens, run.stats.counters.get("net.udp.tokensSent"));
  EXPECT_EQ(linkDatagrams, run.stats.counters.get("net.udp.datagramsSent"));
  EXPECT_EQ(linkBytes, run.stats.counters.get("net.udp.bytesSent"));
  // Every data datagram is one batch: a header plus its records, nothing
  // else (acks are not counted as data bytes).
  const std::int64_t records = run.stats.counters.get("net.udp.batch.tokens");
  EXPECT_GE(records, linkTokens);  // >= : retransmitted tokens recount
  EXPECT_EQ(linkDatagrams, run.stats.counters.get("net.udp.batch.datagrams"));
  EXPECT_EQ(linkBytes,
            records * static_cast<std::int64_t>(native::kTokenWireBytes) +
                linkDatagrams *
                    static_cast<std::int64_t>(native::kBatchHeaderBytes));
}

// --- fault injection over real sockets --------------------------------------

TEST(UdpTransport, LossyFuzzBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = transportSeeds();
  std::int64_t injected = 0, dupDropped = 0;
  for (int workers : {1, 4, 8}) {
    for (int seed = 1; seed <= seeds; ++seed) {
      native::NativeConfig nc;
      nc.numWorkers = workers;
      nc.transport = native::TransportKind::Udp;
      nc.faults = lossyRates(static_cast<std::uint64_t>(seed));
      NativeRun run = runNative(*c, nc);
      ASSERT_TRUE(run.stats.ok) << "workers=" << workers << " seed=" << seed
                                << ": " << run.stats.error;
      std::string why;
      ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
          << "workers=" << workers << " seed=" << seed << ": " << why;
      expectBalancedLedger(run, "workers=" + std::to_string(workers) +
                                    " seed=" + std::to_string(seed));
      injected += run.stats.counters.get("fault.drops") +
                  run.stats.counters.get("fault.dups") +
                  run.stats.counters.get("fault.delays");
      dupDropped += run.stats.counters.get("net.retx.dupSuppressed");
      // Transport-level dedup (the link receive windows) fires BEFORE the
      // inbox-ring deposit, so UDP workers keep no msgId ledger and count
      // no duplicate here; a duplicate that reached a worker would
      // double-release a single quiescence charge.
      EXPECT_EQ(run.stats.counters.get("native.dupSuppressed"), 0)
          << "workers=" << workers << " seed=" << seed;
      // A retransmit is decided and copied into the outbox in one step
      // under the link's mutex, so the per-link resend counts add up to
      // the protocol's, and no record ran out of attempts.
      std::int64_t linkRetx = 0;
      for (const auto& [k, v] : run.stats.counters.all()) {
        if (k.rfind("net.link.", 0) == 0 && k.size() > 5 &&
            k.compare(k.size() - 5, 5, ".retx") == 0)
          linkRetx += v;
      }
      EXPECT_EQ(linkRetx, run.stats.counters.get("net.retx.resent"))
          << "workers=" << workers << " seed=" << seed;
      EXPECT_EQ(run.stats.counters.get("net.retx.giveUps"), 0)
          << "workers=" << workers << " seed=" << seed;
    }
  }
  // The protocol must actually have been exercised across the sweep.
  EXPECT_GT(injected, 0);
  EXPECT_GT(dupDropped, 0);
}

// The recursion runs on every PE: fib(13) alone keeps every frame on PE 0,
// and its sweep sent nothing the fault dice could land on.
TEST(UdpTransport, LossyFuzzRecursiveWorkload) {
  auto c = compileOk(workloads::spreadFibSource(256));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = transportSeeds();
  std::int64_t injected = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 8;
    nc.transport = native::TransportKind::Udp;
    nc.faults = lossyRates(static_cast<std::uint64_t>(seed));
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    expectBalancedLedger(run, "seed=" + std::to_string(seed));
    injected += run.stats.counters.get("fault.drops") +
                run.stats.counters.get("fault.dups") +
                run.stats.counters.get("fault.delays");
  }
  EXPECT_GT(injected, 0);
}

// --- kill + restart over real sockets ---------------------------------------

TEST(UdpTransport, KillRestartBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = transportSeeds();
  std::int64_t kills = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.transport = native::TransportKind::Udp;
    nc.faults.seed = static_cast<std::uint64_t>(seed);
    nc.faults.killPe = seed % 4;
    nc.faults.killTimeUs = 100.0 + (seed * 211) % 2500;
    nc.faults.killRestartUs = 100.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    expectBalancedLedger(run, "seed=" + std::to_string(seed));
    kills += run.stats.counters.get("fault.kills");
  }
  // Some kills must have landed mid-run for the sweep to mean anything.
  EXPECT_GT(kills, 0);
}

// --- wire array store over real sockets -------------------------------------
//
// Under --store=wire every non-local ARD/AWR/shape query is a typed array
// message on the same datagrams, sequence windows, and retransmit machinery
// as ordinary tokens — so the transport-transparency property extends to
// the array plane: outputs bit-identical to the local store on every
// workload, weight split, fault seed, and kill schedule.

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
  EXPECT_EQ(run.stats.counters.get("native.shmArrayOps"), 0) << what;
}

TEST(UdpWireStore, SimpleAndFibBitIdenticalToLocalStore) {
  for (const std::string& src :
       {workloads::simpleSource(16, 2), std::string(kFibSource)}) {
    auto c = compileOk(src);
    native::NativeConfig local;
    local.numWorkers = 4;
    NativeRun ref = runNative(*c, local);
    ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

    native::NativeConfig wire = local;
    wire.transport = native::TransportKind::Udp;
    wire.store = native::StoreKind::Wire;
    NativeRun run = runNative(*c, wire);
    ASSERT_TRUE(run.stats.ok) << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why)) << why;
    expectBalancedLedger(run, "wire");
    expectBalancedAmLedger(run, "wire");
  }
}

TEST(UdpWireStore, AdversarialOwnershipAcrossWeights) {
  auto c = compileOk(workloads::reversalSource(96));
  native::NativeConfig local;
  local.numWorkers = 4;
  NativeRun ref = runNative(*c, local);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  for (const std::vector<std::int64_t>& weights :
       {std::vector<std::int64_t>{}, std::vector<std::int64_t>{1, 7, 1, 7}}) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.pageElems = 8;
    nc.peWeights = weights;
    nc.transport = native::TransportKind::Udp;
    nc.store = native::StoreKind::Wire;
    NativeRun run = runNative(*c, nc);
    const std::string what = weights.empty() ? "uniform" : "skewed";
    ASSERT_TRUE(run.stats.ok) << what << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why)) << what << ": " << why;
    expectBalancedLedger(run, what);
    expectBalancedAmLedger(run, what);
    // Array messages really crossed sockets, batched with ordinary tokens.
    EXPECT_GT(run.stats.counters.get("net.am.readReqSent"), 0) << what;
    EXPECT_GT(run.stats.counters.get("net.udp.batch.datagrams"), 0) << what;
    // Fault-free: the reliable-delivery layer never had to retransmit.
    EXPECT_EQ(run.stats.counters.get("net.retx.resent"), 0) << what;
  }
}

TEST(UdpWireStore, LossyFuzzBitIdenticalToFaultFree) {
  auto c = compileOk(workloads::reversalSource(64));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = transportSeeds();
  std::int64_t injected = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.pageElems = 8;
    nc.transport = native::TransportKind::Udp;
    nc.store = native::StoreKind::Wire;
    nc.faults = lossyRates(static_cast<std::uint64_t>(seed));
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    expectBalancedLedger(run, "seed=" + std::to_string(seed));
    EXPECT_EQ(run.stats.counters.get("native.shmArrayOps"), 0)
        << "seed=" << seed;
    injected += run.stats.counters.get("fault.drops") +
                run.stats.counters.get("fault.dups") +
                run.stats.counters.get("fault.delays");
  }
  // Dropped/duplicated/delayed ARRAY messages must actually have happened —
  // the workload is read/write dominated, so the dice land on them.
  EXPECT_GT(injected, 0);
}

TEST(UdpWireStore, KillPlusLossyComposition) {
  auto c = compileOk(workloads::reversalSource(64));
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = std::max(2, transportSeeds() / 2);
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.pageElems = 8;
    nc.transport = native::TransportKind::Udp;
    nc.store = native::StoreKind::Wire;
    nc.faults = lossyRates(static_cast<std::uint64_t>(seed));
    nc.faults.killPe = seed % 4;
    nc.faults.killTimeUs = 200.0 + (seed * 367) % 2000;
    nc.faults.killRestartUs = 100.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    expectBalancedLedger(run, "seed=" + std::to_string(seed));
  }
}

TEST(UdpTransport, KillPlusLossyComposition) {
  auto c = compileOk(kFibSource);
  native::NativeConfig clean;
  clean.numWorkers = 4;
  NativeRun ref = runNative(*c, clean);
  ASSERT_TRUE(ref.stats.ok) << ref.stats.error;

  const int seeds = std::max(2, transportSeeds() / 2);
  for (int seed = 1; seed <= seeds; ++seed) {
    native::NativeConfig nc;
    nc.numWorkers = 4;
    nc.transport = native::TransportKind::Udp;
    nc.faults = lossyRates(static_cast<std::uint64_t>(seed));
    nc.faults.killPe = seed % 4;
    nc.faults.killTimeUs = 200.0 + (seed * 367) % 2000;
    nc.faults.killRestartUs = 100.0;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << "seed=" << seed << ": " << run.stats.error;
    std::string why;
    ASSERT_TRUE(sameOutputs(run.out, ref.out, &why))
        << "seed=" << seed << ": " << why;
    expectBalancedLedger(run, "seed=" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace pods
