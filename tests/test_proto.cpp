// Delivery-protocol core tests (docs/ARCHITECTURE.md, "Delivery protocol
// core").
//
// Three kinds of property live here:
//   1. the protocol cores driven directly, no engine, no clock: the
//      RetryPolicy schedule, the proto::Delivery msgId ledger through
//      duplicate and fail-stop traces, the UDP link windows
//      (proto::SendWindow, proto::RecvWindow) against set and map models —
//      seeded random traces of put / mark sent / ack / expire, every ack
//      over every live subset of a small window, every arrival order of a
//      few seqs — and the receive core (runtime/receive.hpp) through a stub
//      engine over every arrival order of a few tokens, ENDs and a
//      fail-stop;
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

#include <algorithm>
#include <bit>
#include <climits>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/pods.hpp"
#include "proto/delivery.hpp"
#include "proto/link_window.hpp"
#include "runtime/receive.hpp"
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

/// Room for one batch's records, the most one retransmit scan may append.
constexpr std::size_t kWindowOut = 1394;

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

// --- Link msgIds (batched drivers) -------------------------------------------

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

// --- Link windows (batched drivers) ------------------------------------------

/// Image bytes for link seq `seq`: `len` bytes opening with the seq's own
/// little-endian bytes, so images of different seqs differ.
std::vector<std::uint8_t> imageOf(std::uint64_t seq, std::size_t len) {
  std::vector<std::uint8_t> img(len);
  for (std::size_t i = 0; i < len; ++i)
    img[i] = static_cast<std::uint8_t>(i < 8 ? seq >> (8 * i) : i * 7 + 1);
  return img;
}

/// Stores seqs first..first+n-1, `len`-byte images each.
void putRun(proto::SendWindow& w, std::uint64_t first, int n,
            std::size_t len = 65) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seq = first + static_cast<std::uint64_t>(i);
    const auto img = imageOf(seq, len);
    w.put(seq, img.data(), img.size());
  }
}

proto::RetryPolicy windowPolicy() {
  proto::RetryPolicy p;
  p.rtoUs = 100.0;
  p.maxAttempts = 5;
  p.maxBackoffDoublings = 2;
  return p;
}

/// Deadline the window sets for a slot transmitted `attempt` times at `now`.
std::int64_t dueAfter(const proto::RetryPolicy& p, std::int64_t now,
                      int attempt) {
  return now + static_cast<std::int64_t>(p.backoffUs(attempt, p.rtoUs) *
                                         1000.0);
}

TEST(SendWindow, CumAckRetiresContiguousPrefix) {
  proto::SendWindow w(windowPolicy(), true);
  putRun(w, 1, 5);
  EXPECT_EQ(w.markSent(0), dueAfter(windowPolicy(), 0, 1));
  EXPECT_EQ(w.live(), 5u);

  EXPECT_EQ(w.ack(3, 0), 3);  // everything through seq 3
  EXPECT_EQ(w.live(), 2u);
  EXPECT_EQ(w.lowestLive(), 4u);
  EXPECT_EQ(w.slot(1).image, nullptr);
  EXPECT_NE(w.slot(4).image, nullptr);
  // A later (cumulative) ack re-covering the prefix is a harmless no-op.
  EXPECT_EQ(w.ack(2, 0), 0);
  EXPECT_EQ(w.live(), 2u);
  EXPECT_EQ(w.ack(5, 0), 2);
  EXPECT_EQ(w.live(), 0u);
  EXPECT_EQ(w.lowestLive(), 0u);
  EXPECT_EQ(w.nextDue(), proto::SendWindow::kNoDeadline);
}

TEST(SendWindow, CumAckBitmapRetiresSelectively) {
  const proto::RetryPolicy p = windowPolicy();
  proto::SendWindow w(p, true);
  putRun(w, 1, 6);
  w.markSent(0);
  // cum=1, bitmap bit0 -> seq 2, bit3 -> seq 5: holes at 3, 4, 6.
  EXPECT_EQ(w.ack(1, 0b1001), 3);
  EXPECT_EQ(w.live(), 3u);
  EXPECT_EQ(w.lowestLive(), 3u);
  EXPECT_NE(w.slot(3).image, nullptr);
  EXPECT_NE(w.slot(4).image, nullptr);
  EXPECT_EQ(w.slot(5).image, nullptr);  // bitmap-acked
  EXPECT_NE(w.slot(6).image, nullptr);
  // The holes still drive retransmission; the acked seq 5 does not.
  const std::int64_t now = dueAfter(p, 0, 1);
  std::uint8_t out[kWindowOut];
  const proto::SendWindow::Expired e = w.expire(now, out, sizeof out);
  ASSERT_EQ(e.records, 3);
  EXPECT_FALSE(e.full);
  std::vector<std::uint8_t> want;
  for (const std::uint64_t seq : {3, 4, 6}) {
    const auto img = imageOf(seq, 65);
    want.insert(want.end(), img.begin(), img.end());
  }
  EXPECT_EQ(std::vector<std::uint8_t>(out, out + e.bytes), want);
}

TEST(SendWindow, RetransmitKeepsItsSlot) {
  const proto::RetryPolicy p = windowPolicy();
  proto::SendWindow w(p, true);
  putRun(w, 1, 2);
  std::int64_t now = 0;
  w.markSent(now);
  // A retransmit rides a later batch with its ORIGINAL msgId: it stays in
  // its slot, so the window keeps one entry per logical message and the
  // attempt count climbs monotonically.
  std::uint8_t out[kWindowOut];
  for (int attempt = 2; attempt <= 3; ++attempt) {
    now = w.nextDue();
    ASSERT_EQ(w.expire(now, out, sizeof out).records, 2);
    EXPECT_EQ(w.slot(1).attempt, attempt);
    EXPECT_EQ(w.live(), 2u);
    // The backoff starts when the batch carrying the copy ships.
    EXPECT_EQ(w.slot(1).due, proto::SendWindow::kNoDeadline);
    EXPECT_EQ(w.nextDue(), proto::SendWindow::kNoDeadline);
    now += 7;
    EXPECT_EQ(w.markSent(now), dueAfter(p, now, attempt));
    EXPECT_EQ(w.slot(1).due, dueAfter(p, now, attempt));
  }
  EXPECT_EQ(w.ack(2, 0), 2);
  EXPECT_EQ(w.live(), 0u);
}

TEST(SendWindow, UntransmittedSlotsStayLiveUntilMarkedSent) {
  proto::SendWindow w(windowPolicy(), true);
  putRun(w, 1, 3);
  w.markSent(0);
  putRun(w, 4, 2);  // coalescing in the outbox: stored, not transmitted
  // An ack naming them (forged, or from a dead incarnation) must not
  // retire them, and no deadline covers them.
  EXPECT_EQ(w.ack(5, ~0ULL), 3);
  EXPECT_EQ(w.live(), 2u);
  EXPECT_EQ(w.lowestLive(), 4u);
  EXPECT_EQ(w.slot(4).attempt, 0);
  EXPECT_EQ(w.nextDue(), proto::SendWindow::kNoDeadline);
  std::uint8_t out[kWindowOut];
  EXPECT_EQ(w.expire(INT64_MAX, out, sizeof out).records, 0);
  EXPECT_EQ(w.markSent(7), dueAfter(windowPolicy(), 7, 1));
  EXPECT_EQ(w.markSent(8), proto::SendWindow::kNoDeadline);  // none waiting
  EXPECT_EQ(w.ack(5, 0), 2);
  EXPECT_EQ(w.live(), 0u);
}

TEST(SendWindow, ExpireStopsAtAFullOutboxAndResumes) {
  const proto::RetryPolicy p = windowPolicy();
  proto::SendWindow w(p, true);
  putRun(w, 1, 5, 100);
  w.markSent(0);
  const std::int64_t now = w.nextDue();
  std::uint8_t out[250];
  proto::SendWindow::Expired e = w.expire(now, out, sizeof out);
  EXPECT_EQ(e.records, 2);
  EXPECT_EQ(e.bytes, 200u);
  EXPECT_TRUE(e.full);
  // The driver ships what fit and scans again at the same time: the two
  // it already handled are no longer due, shipped or not.
  w.markSent(now + 1);
  e = w.expire(now, out, sizeof out);
  EXPECT_EQ(e.records, 2);
  EXPECT_TRUE(e.full);
  EXPECT_EQ(std::vector<std::uint8_t>(out, out + 100), imageOf(3, 100));
  e = w.expire(now, out, sizeof out);
  EXPECT_EQ(e.records, 1);
  EXPECT_FALSE(e.full);
  EXPECT_EQ(w.expire(now, out, sizeof out).records, 0);
  for (std::uint64_t seq = 1; seq <= 5; ++seq)
    EXPECT_EQ(w.slot(seq).attempt, 2) << seq;
  // One batch ships seqs 3..5; an ack retires 4 before it does.
  EXPECT_EQ(w.ack(0, 0b1000), 1);
  EXPECT_EQ(w.markSent(now + 2), dueAfter(p, now + 2, 2));
  EXPECT_EQ(w.slot(1).due, dueAfter(p, now + 1, 2));
  EXPECT_EQ(w.slot(5).due, dueAfter(p, now + 2, 2));
  EXPECT_EQ(w.nextDue(), dueAfter(p, now + 1, 2));
}

TEST(SendWindow, GivesUpAtMaxAttempts) {
  const proto::RetryPolicy p = windowPolicy();  // maxAttempts 5
  proto::SendWindow w(p, true);
  putRun(w, 1, 1);
  w.markSent(0);
  std::uint8_t out[kWindowOut];
  // Attempts 2..5 retransmit with doubling backoff, capped at 2 doublings.
  for (int attempt = 2; attempt <= 5; ++attempt) {
    const std::int64_t now = w.nextDue();
    const proto::SendWindow::Expired e = w.expire(now, out, sizeof out);
    ASSERT_EQ(e.records, 1);
    EXPECT_EQ(e.giveUps, 0);
    w.markSent(now);
    EXPECT_EQ(w.slot(1).due - now,
              static_cast<std::int64_t>(p.backoffUs(attempt, p.rtoUs) * 1000));
  }
  // Transmitted maxAttempts times: the next deadline gives up and retires.
  const proto::SendWindow::Expired gu = w.expire(w.nextDue(), out, sizeof out);
  EXPECT_EQ(gu.records, 0);
  EXPECT_EQ(gu.giveUps, 1);
  EXPECT_EQ(gu.gaveUpAttempt, 5);
  EXPECT_EQ(w.live(), 0u);
}

/// Model of one send-window slot.
struct ModelSlot {
  std::vector<std::uint8_t> image;
  int attempt = 0;
  std::int64_t due = 0;
};

void expectWindowMatchesModel(const proto::SendWindow& w,
                              const std::map<std::uint64_t, ModelSlot>& model,
                              std::uint64_t nextSeq, const std::string& at) {
  ASSERT_EQ(w.live(), model.size()) << at;
  ASSERT_EQ(w.lowestLive(), model.empty() ? 0 : model.begin()->first) << at;
  std::int64_t due = proto::SendWindow::kNoDeadline;
  for (const auto& [seq, s] : model)
    if (s.attempt > 0 && s.due < due) due = s.due;
  ASSERT_EQ(w.nextDue(), due) << at;
  const std::uint64_t from = model.empty() ? nextSeq : model.begin()->first;
  for (std::uint64_t seq = from > 3 ? from - 3 : 0; seq <= nextSeq + 3;
       ++seq) {
    const proto::SendWindow::SlotView v = w.slot(seq);
    const auto it = model.find(seq);
    if (it == model.end()) {
      ASSERT_EQ(v.image, nullptr) << at << " seq=" << seq;
      continue;
    }
    ASSERT_NE(v.image, nullptr) << at << " seq=" << seq;
    ASSERT_EQ(std::vector<std::uint8_t>(v.image, v.image + v.len),
              it->second.image)
        << at << " seq=" << seq;
    ASSERT_EQ(v.attempt, it->second.attempt) << at << " seq=" << seq;
    if (v.attempt > 0) {
      ASSERT_EQ(v.due, it->second.due) << at << " seq=" << seq;
    }
  }
}

TEST(SendWindow, MatchesMapModelOverRandomTraces) {
  // Seeded random traces of put / mark sent / ack(cum, bitmap) / expire /
  // clock advance against a std::map model, checked after every step: the
  // live set, the lowest live seq, every image byte for byte, attempts,
  // deadlines (so backoffs, which start at the mark sent after the expire
  // that copied a retransmit out), give-ups and the outbox bytes each
  // expire appends. Runs of puts and prefix acks keep the window moving,
  // so put()'s compaction runs many times per trace.
  proto::RetryPolicy p;
  p.rtoUs = 50.0;
  p.maxAttempts = 4;
  p.maxBackoffDoublings = 2;
  int totalGiveUps = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t n) { return rng() % n; };
    proto::SendWindow w(p, true);
    std::map<std::uint64_t, ModelSlot> model;
    std::vector<std::uint64_t> requeued;  // copied out, awaiting mark sent
    std::uint64_t next = 1 + pick(3) * 1000;  // some traces start high
    std::int64_t now = 1000;
    for (int step = 0; step < 400; ++step) {
      const std::string at =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      switch (pick(8)) {
        case 0:
        case 1:
        case 2: {  // put
          const auto img = imageOf(next, 1 + pick(300));
          w.put(next, img.data(), img.size());
          model[next] = ModelSlot{img, 0, 0};
          ++next;
          break;
        }
        case 3: {  // mark sent: fresh slots and requeued retransmits
          std::int64_t want = proto::SendWindow::kNoDeadline;
          for (auto& [seq, s] : model) {
            if (s.attempt != 0) continue;
            s.attempt = 1;
            s.due = dueAfter(p, now, 1);
            want = s.due;
          }
          for (const std::uint64_t seq : requeued) {
            const auto it = model.find(seq);
            if (it == model.end()) continue;  // acked meanwhile
            it->second.due = dueAfter(p, now, it->second.attempt);
            want = std::min(want, it->second.due);
          }
          requeued.clear();
          ASSERT_EQ(w.markSent(now), want) << at;
          break;
        }
        case 4:
        case 5: {  // ack(cum, bitmap)
          const std::uint64_t low =
              model.empty() ? next : model.begin()->first;
          std::uint64_t cum = low + pick(8) - 4;  // may wrap below 0: bait
          if (pick(16) == 0) cum = next + pick(80);      // past the highest
          if (pick(32) == 0) cum = UINT64_MAX - pick(70);  // wrap bait
          if (pick(32) == 0) cum = 0;
          // Sparse selective acks, so some slots live to their give-up.
          std::uint64_t bitmap = pick(2) == 0 ? 0 : rng() & rng() & rng();
          int want = 0;
          for (auto it = model.begin(); it != model.end();) {
            const std::uint64_t seq = it->first;
            const bool acked =
                seq <= cum ||
                (seq - cum - 1 < 64 && ((bitmap >> (seq - cum - 1)) & 1) != 0);
            if (it->second.attempt > 0 && acked) {
              it = model.erase(it);
              ++want;
            } else {
              ++it;
            }
          }
          ASSERT_EQ(w.ack(cum, bitmap), want) << at << " cum=" << cum;
          break;
        }
        case 6: {  // expire into an outbox with room for a few images
          std::vector<std::uint8_t> out(pick(900));
          std::vector<std::uint8_t> want;
          int records = 0, giveUps = 0, gaveUpAttempt = 0;
          bool full = false;
          for (auto it = model.begin(); it != model.end();) {
            ModelSlot& s = it->second;
            if (s.attempt == 0 || s.due > now) {
              ++it;
              continue;
            }
            if (p.giveUpAt(s.attempt)) {
              gaveUpAttempt = s.attempt;
              ++giveUps;
              it = model.erase(it);
              continue;
            }
            if (want.size() + s.image.size() > out.size()) {
              full = true;
              break;
            }
            want.insert(want.end(), s.image.begin(), s.image.end());
            ++records;
            ++s.attempt;
            s.due = proto::SendWindow::kNoDeadline;
            requeued.push_back(it->first);
            ++it;
          }
          const proto::SendWindow::Expired e =
              w.expire(now, out.data(), out.size());
          ASSERT_EQ(e.records, records) << at;
          ASSERT_EQ(e.bytes, want.size()) << at;
          ASSERT_EQ(e.full, full) << at;
          ASSERT_EQ(e.giveUps, giveUps) << at;
          ASSERT_EQ(e.gaveUpAttempt, gaveUpAttempt) << at;
          ASSERT_TRUE(std::equal(want.begin(), want.end(), out.begin())) << at;
          totalGiveUps += giveUps;
          break;
        }
        case 7:  // the clock advances by up to four base RTOs
          now += static_cast<std::int64_t>(pick(200'000));
          break;
      }
      expectWindowMatchesModel(w, model, next, at);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(totalGiveUps, 0);  // the traces reached maxAttempts
}

TEST(SendWindow, EveryAckOverEveryLiveSubsetRetiresOnlyTransmittedSlots) {
  // Six transmitted seqs and two stored behind them (still coalescing),
  // every subset of the six still live, crossed with every ack whose cum
  // is at most 8 past the window's base with an 8-bit bitmap, a cum past
  // the highest seq, and cums at UINT64_MAX, where cum + 1 + bit and
  // cum + 64 wrap. An ack retires exactly the live transmitted seqs it
  // covers and never a stored one. The windows start at seq 1 and at 1001,
  // so a wrapped bound would also show as an ack that retires too little.
  for (const std::uint64_t base : {std::uint64_t{1}, std::uint64_t{1001}}) {
    for (unsigned subset = 0; subset < 64; ++subset) {
      proto::SendWindow start(windowPolicy(), true);
      putRun(start, base, 6);
      start.markSent(0);
      ASSERT_EQ(start.ack(base - 1, ~static_cast<std::uint64_t>(subset) & 63),
                6 - std::popcount(subset));
      putRun(start, base + 6, 2);
      std::vector<std::uint64_t> cums;
      for (std::uint64_t c = 0; c <= 8; ++c) cums.push_back(base - 1 + c);
      cums.push_back(base + 20);
      for (std::uint64_t k = 0; k <= 8; ++k) cums.push_back(UINT64_MAX - k);
      for (const std::uint64_t cum : cums) {
        for (std::uint64_t bitmap = 0; bitmap < 256; ++bitmap) {
          proto::SendWindow w = start;
          std::set<std::uint64_t> live = {base + 6, base + 7};
          int want = 0;
          for (int i = 0; i < 6; ++i) {
            if (((subset >> i) & 1) == 0) continue;
            const std::uint64_t seq = base + static_cast<std::uint64_t>(i);
            const bool acked =
                seq <= cum ||
                (seq - cum - 1 < 8 && ((bitmap >> (seq - cum - 1)) & 1) != 0);
            if (acked)
              ++want;
            else
              live.insert(seq);
          }
          ASSERT_EQ(w.ack(cum, bitmap), want)
              << "base=" << base << " subset=" << subset << " cum=" << cum
              << " bitmap=" << bitmap;
          ASSERT_EQ(w.live(), live.size());
          ASSERT_EQ(w.lowestLive(), *live.begin());
          for (std::uint64_t seq = base; seq < base + 8; ++seq)
            ASSERT_EQ(w.slot(seq).image != nullptr, live.count(seq) != 0)
                << "base=" << base << " subset=" << subset << " cum=" << cum
                << " bitmap=" << bitmap << " seq=" << seq;
        }
      }
    }
  }
}

TEST(RecvWindow, AcceptSeqDedupsAndSeenSeqAgrees) {
  proto::RecvWindow w;
  EXPECT_FALSE(w.seenSeq(1));
  EXPECT_TRUE(w.acceptSeq(1));
  EXPECT_TRUE(w.seenSeq(1));
  EXPECT_FALSE(w.acceptSeq(1));  // retransmitted duplicate
  // Out-of-order arrival: 3 before 2, both fresh exactly once.
  EXPECT_TRUE(w.acceptSeq(3));
  EXPECT_FALSE(w.acceptSeq(3));
  EXPECT_TRUE(w.acceptSeq(2));
  EXPECT_FALSE(w.acceptSeq(2));  // now inside the contiguous prefix
  // Links are independent: the reverse direction has its own window.
  proto::RecvWindow reverse;
  EXPECT_TRUE(reverse.acceptSeq(1));
}

TEST(RecvWindow, AcceptSeqMatchesSetModelOverEveryArrivalSequence) {
  // Every arrival sequence of length 6 over seqs 1..4 — in order (the
  // fast path), reordered, and duplicated — against a plain set: fresh
  // exactly once, and seenSeq / cumAckView agree with the set after
  // every arrival.
  constexpr int kLen = 6;
  constexpr int kSeqs = 4;
  int total = 1;
  for (int i = 0; i < kLen; ++i) total *= kSeqs;
  for (int code = 0; code < total; ++code) {
    proto::RecvWindow w;
    std::set<std::uint64_t> model;
    int rest = code;
    for (int i = 0; i < kLen; ++i, rest /= kSeqs) {
      const std::uint64_t seq = static_cast<std::uint64_t>(rest % kSeqs) + 1;
      ASSERT_EQ(w.acceptSeq(seq), model.insert(seq).second)
          << "code=" << code << " step=" << i;
      std::uint64_t cum = 0;
      while (model.count(cum + 1) != 0) ++cum;
      std::uint64_t bitmap = 0;
      for (std::uint64_t s : model)
        if (s > cum) bitmap |= 1ULL << (s - cum - 1);
      const proto::CumAckView view = w.cumAckView();
      ASSERT_EQ(view.cum, cum) << "code=" << code << " step=" << i;
      ASSERT_EQ(view.bitmap, bitmap) << "code=" << code << " step=" << i;
      for (std::uint64_t s = 1; s <= kSeqs; ++s)
        ASSERT_EQ(w.seenSeq(s), model.count(s) != 0);
    }
  }
}

TEST(RecvWindow, CumAckViewTracksHolesThenCollapses) {
  proto::RecvWindow w;
  EXPECT_EQ(w.cumAckView().cum, 0u);
  EXPECT_EQ(w.cumAckView().bitmap, 0u);
  EXPECT_TRUE(w.acceptSeq(1));
  EXPECT_TRUE(w.acceptSeq(4));
  EXPECT_TRUE(w.acceptSeq(5));
  proto::CumAckView v = w.cumAckView();
  EXPECT_EQ(v.cum, 1u);
  EXPECT_EQ(v.bitmap, 0b1100u);  // bits for seqs 4 and 5 (cum+3, cum+4)
  EXPECT_TRUE(w.acceptSeq(2));
  EXPECT_TRUE(w.acceptSeq(3));
  v = w.cumAckView();
  EXPECT_EQ(v.cum, 5u);  // prefix collapsed through the former holes
  EXPECT_EQ(v.bitmap, 0u);
  EXPECT_TRUE(w.acceptSeq(69));  // cum+64: the bitmap's last bit
  EXPECT_EQ(w.cumAckView().bitmap, 1ULL << 63);
  EXPECT_TRUE(w.acceptSeq(70));  // beyond the bitmap's reach: not in it
  EXPECT_EQ(w.cumAckView().bitmap, 1ULL << 63);
  EXPECT_TRUE(w.seenSeq(70));
}

// --- Delivery receiver ledger -----------------------------------------------

TEST(DeliveryReceiver, DuplicateMsgIdsAreSuppressedOnce) {
  proto::Delivery d;
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

TEST(DeliveryReceiver, FailStopWipesLedgersButKeepsCounters) {
  proto::Delivery d;
  EXPECT_TRUE(d.accept(3));
  EXPECT_FALSE(d.accept(3));
  d.resetReceiver();
  // The ledger is volatile PE state: gone after the fail-stop...
  EXPECT_TRUE(d.accept(3));
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

// --- receive core -----------------------------------------------------------
//
// The receive core (runtime/receive.hpp) driven through a recording stub
// engine, as SpExec.* drives run(): every arrival order of at most four
// tokens to one PE, interleaved with their contexts' ENDs, each with and
// without a fail-stop wipe and a rebuild from the records logged so far, is
// checked step by step against a set model. The stub binds the core both
// ways the engines do: the simulator's, whose frame storage is never reused
// and whose retired contexts keep pointing at their dead frames, and the
// native engine's, which recycles storage under generation tags and marks
// retired contexts with an index past every frame.

constexpr std::uint64_t kCtxA = 11, kCtxB = 12;
constexpr std::uint64_t kReplySender = 99, kReplyKey = 7;
constexpr std::uint16_t kArgSlot = 0, kReplySlot = 1, kFillSlot = 2;
constexpr std::uint16_t kStubSlots = 3;
constexpr std::uint32_t kStubRetired = 1u << 24;

struct StubFrame : SpFrame {
  bool dead = false;
};

/// The token fields receive() reads.
struct StubToken {
  bool toCont = false;
  bool add = false;
  std::uint16_t spCode = 0;
  std::uint16_t slot = 0;
  std::uint64_t ctx = 0;
  Cont cont{};
  Value v{};
  std::uint64_t senderCtx = 0;
  std::uint64_t sendKey = 0;
};

/// What the core did with one token.
enum class Outcome { None, Applied, Parked, Stale, ReplayDup, Straggler };

/// A stub engine that records what the receive core asks of it.
struct RecvStub {
  bool recycles = false;
  std::vector<StubFrame> frames;
  std::vector<std::uint32_t> freeList;
  RecoveryLog log;
  Outcome outcome = Outcome::None;
  std::vector<std::uint64_t> spawned;  // contexts, in spawn order
  std::map<std::pair<std::uint64_t, std::uint16_t>, int> applies;

  RecoveryLog* recoveryLog() { return &log; }
  StubFrame* liveFrame(std::uint32_t idx) {
    return idx < frames.size() && !frames[idx].dead ? &frames[idx] : nullptr;
  }
  bool wellFormed(const StubToken&, const StubFrame*) { return true; }
  void drop(Drop why) {
    outcome = why == Drop::Stale       ? Outcome::Stale
              : why == Drop::ReplayDup ? Outcome::ReplayDup
                                       : Outcome::Straggler;
  }
  std::uint32_t spawn(std::uint16_t spCode, std::uint64_t ctx) {
    spawned.push_back(ctx);
    std::uint32_t idx;
    if (recycles && !freeList.empty()) {
      idx = freeList.back();
      freeList.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(frames.size());
      frames.emplace_back();
    }
    frames[idx].reset(spCode, ctx, kStubSlots);
    frames[idx].dead = false;
    return idx;
  }
  void logRecord(const RecEntry& e) { log.entries.push_back(e); }
  void parkedEarly() { outcome = Outcome::Parked; }
  void wake(std::uint32_t, StubFrame& f, std::uint16_t slot) {
    outcome = Outcome::Applied;
    ++applies[{f.ctx, slot}];
  }
  bool tracksStragglers() const { return true; }
  std::uint32_t retiredEntry(std::uint32_t idx) const {
    return recycles ? kStubRetired : idx;
  }
  bool holdsEnd() const { return false; }
  std::uint32_t restore(const RecEntry& e) {
    if (e.frame == frames.size()) frames.emplace_back();
    EXPECT_LT(e.frame, frames.size());
    StubFrame& f = frames[e.frame];
    EXPECT_TRUE(f.dead || e.frame + 1 == frames.size());
    f.reset(e.spCode, e.ctx, kStubSlots);
    f.gen = e.gen;
    f.dead = false;
    return e.frame;
  }
  void restoreEnd(StubFrame& f) {
    f.dead = true;
    if (recycles) f.gen = static_cast<std::uint16_t>(f.gen + 1);
    f.slots.clear();
  }
  void replayRecord(const RecEntry&) { ADD_FAILURE() << "unexpected record"; }
};

/// The arrivals a scenario draws from: arguments for contexts A and B, a
/// replayed copy of one of them, a keyed reply into A, its replayed copy,
/// and an unkeyed fill into A; ENDs of A and B; and one fail-stop.
enum class Ev {
  ArgA, ArgB, DupArgA, ReplyA, DupReplyA, FillA, EndA, EndB, Wipe
};

const char* evName(Ev e) {
  constexpr const char* kNames[] = {"ArgA",  "ArgB",      "DupArgA",
                                    "ReplyA", "DupReplyA", "FillA",
                                    "EndA",  "EndB",      "Wipe"};
  return kNames[static_cast<int>(e)];
}

/// The set model: what each context and ledger should hold.
struct RecvModel {
  enum class Ctx { Absent, Live, Ended };
  std::map<std::uint64_t, Ctx> ctx = {{kCtxA, Ctx::Absent},
                                      {kCtxB, Ctx::Absent}};
  std::set<std::uint64_t> replaying;
  std::set<std::pair<std::uint64_t, std::uint16_t>> filled;
  std::set<std::uint64_t> repliesSeen;  // consumer contexts, one key each
  std::vector<RecEntry::Kind> logKinds;
  std::vector<std::uint64_t> logCtxs;  // the context each record concerns
};

/// One scenario run: stub, receive state and model, stepped together.
struct RecvWorld {
  RecvStub E;
  ReceiveState R;
  RecvModel M;
  Cont contA{};  // A's instance, once spawned
  std::string trace;

  StubToken argTok(std::uint64_t ctx) const {
    StubToken t;
    t.ctx = ctx;
    t.slot = kArgSlot;
    t.v = Value::intv(static_cast<std::int64_t>(ctx));
    return t;
  }
  StubToken replyTok(bool keyed) const {
    StubToken t;
    t.toCont = true;
    t.cont = contA;
    t.cont.slot = keyed ? kReplySlot : kFillSlot;
    t.v = Value::intv(keyed ? 3 : 4);
    t.senderCtx = keyed ? kReplySender : 0;
    t.sendKey = keyed ? kReplyKey : 0;
    return t;
  }

  /// The model's verdict on an argument for `ctx`, updating the model.
  Outcome modelArg(std::uint64_t c) {
    if (M.ctx[c] == RecvModel::Ctx::Ended) return Outcome::Straggler;
    if (!M.filled.insert({c, kArgSlot}).second) return Outcome::ReplayDup;
    M.ctx[c] = RecvModel::Ctx::Live;
    M.logKinds.push_back(RecEntry::Kind::CtxToken);
    M.logCtxs.push_back(c);
    return Outcome::Applied;
  }
  Outcome modelReply(bool keyed) {
    if (M.ctx[kCtxA] != RecvModel::Ctx::Live) return Outcome::Stale;
    if (!keyed) return Outcome::Applied;
    if (!M.repliesSeen.insert(kCtxA).second) return Outcome::ReplayDup;
    M.logKinds.push_back(RecEntry::Kind::ConToken);
    M.logCtxs.push_back(kCtxA);
    return M.replaying.count(kCtxA) != 0 ? Outcome::Parked : Outcome::Applied;
  }

  void retireCtx(std::uint64_t c) {
    const std::uint32_t idx = R.match.at(c);
    retire(E, R, c, idx);
    E.restoreEnd(E.frames[idx]);  // the frame dies as a rebuilt one does
    if (E.recycles) E.freeList.push_back(idx);
    M.ctx[c] = RecvModel::Ctx::Ended;
    M.replaying.erase(c);
    M.logKinds.push_back(RecEntry::Kind::End);
    M.logCtxs.push_back(c);
  }

  /// A context's frame as the match table resolves it: its slots when live,
  /// "retired" when its entry names no live frame, "absent" without one.
  std::string snapshot(std::uint64_t c) {
    const auto it = R.match.find(c);
    if (it == R.match.end()) return "absent";
    const StubFrame* f = E.liveFrame(it->second);
    if (f == nullptr) return "retired";
    return "live sp" + std::to_string(f->spCode) + " gen" +
           std::to_string(f->gen) + " idx" + std::to_string(it->second) +
           " arg=" + f->slots[kArgSlot].str();
  }

  void wipeAndRebuild() {
    const std::string a = snapshot(kCtxA), b = snapshot(kCtxB);
    const std::int64_t keys = R.dedup.liveKeys();
    E.frames.clear();
    E.freeList.clear();
    R.wipe();
    rebuild(E, R);
    for (std::uint32_t i = 0; i < E.frames.size(); ++i)
      if (E.frames[i].dead && E.recycles) E.freeList.push_back(i);
    EXPECT_EQ(snapshot(kCtxA), a) << trace;
    EXPECT_EQ(snapshot(kCtxB), b) << trace;
    EXPECT_EQ(R.dedup.liveKeys(), keys) << trace;
    // A reply that a live A applied or parked before the wipe is parked for
    // its sender's re-send; nothing else is, since a retired A never
    // re-sends.
    EXPECT_EQ(R.parked.count(kReplySender) != 0,
              M.ctx[kCtxA] == RecvModel::Ctx::Live &&
                  M.repliesSeen.count(kCtxA) != 0)
        << trace;
    for (const auto& [c, st] : M.ctx) {
      if (st == RecvModel::Ctx::Live) {
        M.replaying.insert(c);
        EXPECT_TRUE(E.liveFrame(R.match.at(c))->replaying) << trace;
      }
    }
  }

  void step(Ev e) {
    trace += std::string(" ") + evName(e);
    E.outcome = Outcome::None;
    Outcome want = Outcome::None;
    switch (e) {
      case Ev::ArgA:
      case Ev::DupArgA:
      case Ev::ArgB: {
        const std::uint64_t c = e == Ev::ArgB ? kCtxB : kCtxA;
        const bool spawns = M.ctx[c] == RecvModel::Ctx::Absent;
        want = modelArg(c);
        const std::size_t spawnedBefore = E.spawned.size();
        receive(E, R, argTok(c));
        EXPECT_EQ(E.spawned.size(), spawnedBefore + (spawns ? 1 : 0)) << trace;
        if (spawns && c == kCtxA) {
          const std::uint32_t idx = R.match.at(kCtxA);
          contA = Cont{0, idx, 0, E.frames[idx].gen};
        }
        break;
      }
      case Ev::ReplyA:
      case Ev::DupReplyA:
      case Ev::FillA: {
        const bool keyed = e != Ev::FillA;
        want = modelReply(keyed);
        receive(E, R, replyTok(keyed));
        break;
      }
      case Ev::EndA:
      case Ev::EndB:
        retireCtx(e == Ev::EndA ? kCtxA : kCtxB);
        break;
      case Ev::Wipe:
        wipeAndRebuild();
        break;
    }
    EXPECT_EQ(static_cast<int>(E.outcome), static_cast<int>(want)) << trace;
    check();
  }

  /// The model's invariants, after every step.
  void check() {
    // No context spawns after its END, and none spawns twice.
    std::set<std::uint64_t> seen;
    for (std::uint64_t c : E.spawned)
      EXPECT_TRUE(seen.insert(c).second) << "respawned " << c << ":" << trace;
    // Each (ctx, slot) and each keyed reply applies at most once.
    for (const auto& [key, n] : E.applies) {
      if (key.second != kFillSlot) {
        EXPECT_LE(n, 1) << "ctx " << key.first << " slot " << key.second
                        << ":" << trace;
      }
    }
    // Every applied or parked token but the unkeyed fill is logged, once,
    // in arrival order, with an End record per retirement.
    ASSERT_EQ(E.log.entries.size(), M.logKinds.size()) << trace;
    for (std::size_t i = 0; i < M.logKinds.size(); ++i) {
      const RecEntry& r = E.log.entries[i];
      EXPECT_EQ(static_cast<int>(r.kind), static_cast<int>(M.logKinds[i]))
          << trace;
      if (r.kind != RecEntry::Kind::ConToken) {
        EXPECT_EQ(r.ctx, M.logCtxs[i]) << trace;
      }
    }
    // The replay ledger holds keys for live contexts only: END shed them,
    // and a straggler must not put one back.
    for (const auto& [c, slots] : R.dedup.ctxSlots)
      EXPECT_EQ(M.ctx[c], RecvModel::Ctx::Live) << "keys of " << c << trace;
    for (const auto& [c, senders] : R.dedup.contKeys)
      EXPECT_EQ(M.ctx[c], RecvModel::Ctx::Live) << "keys of " << c << trace;
  }
};

/// Whether `e` can arrive after `prefix`: a reply only once its consumer A
/// exists (A minted the continuation), an END only of a live context.
bool arrivalValid(const std::vector<Ev>& prefix, Ev e) {
  const auto has = [&](Ev x) {
    return std::find(prefix.begin(), prefix.end(), x) != prefix.end();
  };
  const bool aSpawned = has(Ev::ArgA) || has(Ev::DupArgA);
  switch (e) {
    case Ev::ReplyA:
    case Ev::DupReplyA:
    case Ev::FillA:
      return aSpawned;
    case Ev::EndA:
      return aSpawned;
    case Ev::EndB:
      return has(Ev::ArgB);
    default:
      return true;
  }
}

/// Every maximal arrival sequence drawn from `pool`, each event at most
/// once; every shorter sequence is a prefix of one of them.
void everyOrder(const std::vector<Ev>& pool, std::vector<Ev>& prefix,
                std::vector<bool>& used, std::vector<std::vector<Ev>>& out) {
  bool extended = false;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (used[i] || !arrivalValid(prefix, pool[i])) continue;
    extended = true;
    used[i] = true;
    prefix.push_back(pool[i]);
    everyOrder(pool, prefix, used, out);
    prefix.pop_back();
    used[i] = false;
  }
  if (!extended) out.push_back(prefix);
}

TEST(ReceiveCore, EveryArrivalOrderMatchesTheSetModel) {
  const std::vector<std::vector<Ev>> tokenSets = {
      {Ev::ArgA, Ev::ArgB, Ev::DupArgA, Ev::ReplyA},
      {Ev::ArgA, Ev::ArgB, Ev::ReplyA, Ev::DupReplyA},
      {Ev::ArgA, Ev::ArgB, Ev::ReplyA, Ev::FillA},
  };
  int runs = 0;
  for (bool recycles : {false, true}) {
    for (const std::vector<Ev>& tokens : tokenSets) {
      for (bool wipe : {false, true}) {
        std::vector<Ev> pool = tokens;
        pool.push_back(Ev::EndA);
        pool.push_back(Ev::EndB);
        if (wipe) pool.push_back(Ev::Wipe);
        std::vector<Ev> prefix;
        std::vector<bool> used(pool.size(), false);
        std::vector<std::vector<Ev>> orders;
        everyOrder(pool, prefix, used, orders);
        for (const std::vector<Ev>& order : orders) {
          // Checked after every step, so each prefix is checked too.
          RecvWorld w;
          w.E.recycles = recycles;
          for (Ev e : order) w.step(e);
          ASSERT_FALSE(HasFailure()) << "recycles=" << recycles;
          ++runs;
        }
      }
    }
  }
  EXPECT_GT(runs, 1000);
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
// with the total instance count of the run (13,128 frames here). The
// recursion runs on every PE, so the killed PE holds frames to replay.
TEST(RecoveryLedger, SimKeysAndMintsPrunedByEnd) {
  auto c = compileOk(workloads::spreadFibSource(256));
  sim::MachineConfig mc;
  mc.numPEs = 4;
  PodsRun clean = runPods(*c, mc);
  ASSERT_TRUE(clean.stats.ok) << clean.stats.error;
  ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", mc.faults));
  mc.faults.seed = 5;
  mc.faults.killPe = 1;
  mc.faults.killTimeUs = clean.stats.total.us() / 2;
  mc.faults.killRestartUs = 400.0;
  PodsRun run = runPods(*c, mc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, clean.out, &why)) << why;
  EXPECT_EQ(run.stats.counters.get("recovery.dedup.liveKeys"), 0);
  EXPECT_EQ(run.stats.counters.get("recovery.mints.live"), 0);
  // The ledger was actually exercised, not trivially empty: the run makes
  // thousands of instances, and the kill fired mid-run on a PE with frames.
  EXPECT_GT(run.stats.counters.get("sp.instantiated"), 500);
  EXPECT_EQ(run.stats.counters.get("fault.kills"), 1);
  EXPECT_GT(run.stats.counters.get("recovery.replayedFrames"), 0);
}

// Stragglers must not refill the ledger: a token for a retired context is
// triaged against the match table's retired entry before the replay ledger
// is consulted, or each one re-inserts a key for a context whose keys END
// already shed, and nothing sheds it again. SIMPLE's kill runs deliver such
// stragglers: at 1 PE killed at half the clean time, 266 keys were left
// behind when the replay ledger came first.
TEST(RecoveryLedger, SimStragglersLeaveNoKeysAfterKill) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  sim::MachineConfig mc;
  mc.numPEs = 1;
  PodsRun clean = runPods(*c, mc);
  ASSERT_TRUE(clean.stats.ok) << clean.stats.error;
  mc.faults.killPe = 0;
  mc.faults.killTimeUs = clean.stats.total.us() / 2;
  PodsRun run = runPods(*c, mc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(run.out, clean.out, &why)) << why;
  EXPECT_EQ(run.stats.counters.get("fault.kills"), 1);
  EXPECT_GT(run.stats.counters.get(proto::kStragglers), 0);
  EXPECT_EQ(run.stats.counters.get("recovery.dedup.liveKeys"), 0);
  EXPECT_EQ(run.stats.counters.get("recovery.mints.live"), 0);
}

// The native engine's order is the same: with the replay ledger first, this
// kill + loss run left 2-11 keys behind in every run tried.
TEST(RecoveryLedger, NativeStragglersLeaveNoKeysAfterKill) {
  auto c = compileOk(workloads::simpleSource(16, 2));
  native::NativeConfig nc;
  nc.numWorkers = 4;
  ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", nc.faults));
  nc.faults.seed = 5;
  nc.faults.killPe = 2;
  nc.faults.killTimeUs = 150.0;
  nc.faults.killRestartUs = 100.0;
  nc.faults.retry.rtoUs = 50.0;
  NativeRun run = runNative(*c, nc);
  ASSERT_TRUE(run.stats.ok) << run.stats.error;
  EXPECT_EQ(run.stats.counters.get("fault.kills"), 1);
  EXPECT_EQ(run.stats.counters.get("recovery.dedup.liveKeys"), 0);
  EXPECT_EQ(run.stats.counters.get("recovery.mints.live"), 0);
}

// A native kill lands at a wall-clock time, and early in the run the victim
// may hold no frame yet, so worker 2 is killed at growing fractions of the
// lossy run's duration until a kill finds frames to replay. Every run must
// end with empty ledgers.
TEST(RecoveryLedger, NativeKeysAndMintsPrunedByEnd) {
  auto c = compileOk(workloads::spreadFibSource(256));
  native::NativeConfig nc;
  nc.numWorkers = 4;
  ASSERT_TRUE(FaultConfig::parse("drop:0.03,dup:0.02", nc.faults));
  nc.faults.seed = 5;
  nc.faults.retry.rtoUs = 50.0;
  NativeRun lossy = runNative(*c, nc);
  ASSERT_TRUE(lossy.stats.ok) << lossy.stats.error;
  nc.faults.killPe = 2;
  nc.faults.killRestartUs = 100.0;
  std::int64_t kills = 0, replayed = 0;
  for (int tenths = 1; tenths <= 9 && replayed == 0; ++tenths) {
    nc.faults.killTimeUs = lossy.stats.wallSeconds * 1e5 * tenths;
    NativeRun run = runNative(*c, nc);
    ASSERT_TRUE(run.stats.ok) << run.stats.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(run.out, lossy.out, &why)) << why;
    EXPECT_EQ(run.stats.counters.get("recovery.dedup.liveKeys"), 0);
    EXPECT_EQ(run.stats.counters.get("recovery.mints.live"), 0);
    EXPECT_GT(run.stats.counters.get("native.framesCreated"), 500);
    kills = run.stats.counters.get("fault.kills");
    replayed = run.stats.counters.get("recovery.replayedFrames");
  }
  EXPECT_EQ(kills, 1);
  EXPECT_GT(replayed, 0);
}

}  // namespace
}  // namespace pods
