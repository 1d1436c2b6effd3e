// Heap-allocation regression tests for the native wire store and the UDP
// send window.
//
// This binary replaces the global operator new with a counting one, so it
// stands alone: linked into another suite it would count that suite's
// allocations too. The properties: the wire store keeps each PE's owned
// elements in a dense slice and its parked reads in a pooled node list, so
// owner-serviced array traffic costs no heap node per element or per park.
// On a 2-PE stencil over the in-process inbox transport, a wire-store
// run() must therefore allocate at most twice what the local-store run()
// allocates; over UDP, at most 1.5 times the inbox run (see below). And a
// warm proto::SendWindow sends, acks and retransmits without allocating.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "core/pods.hpp"
#include "native/native_machine.hpp"
#include "proto/link_window.hpp"
#include "workloads/kernels.hpp"

namespace {
std::atomic<std::int64_t> gAllocs{0};
}  // namespace

// operator new[] and the nothrow forms forward to this one.
void* operator new(std::size_t n) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pods {
namespace {

/// Heap allocations made inside NativeMachine::run() — construction and
/// gather excluded — as the minimum over a few runs, since thread
/// interleaving moves the count a little (inbox ring spills, park order).
std::int64_t runAllocs(const Compiled& c, const native::NativeConfig& nc) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int rep = 0; rep < 3; ++rep) {
    native::NativeMachine machine(c.program, nc);
    const std::int64_t before = gAllocs.load();
    const native::NativeResult r = machine.run();
    const std::int64_t n = gAllocs.load() - before;
    EXPECT_TRUE(r.ok) << r.error;
    best = std::min(best, n);
  }
  return best;
}

TEST(WireStoreAllocs, StencilWireRunAllocatesAtMostTwiceLocal) {
  CompileResult cr = compile(workloads::stencilSource(48, 10), {});
  ASSERT_TRUE(cr.ok) << cr.diagnostics;
  native::NativeConfig local;
  local.numWorkers = 2;
  local.transport = native::TransportKind::Inbox;
  native::NativeConfig wire = local;
  wire.store = native::StoreKind::Wire;
  const std::int64_t localAllocs = runAllocs(*cr.compiled, local);
  const std::int64_t wireAllocs = runAllocs(*cr.compiled, wire);
  EXPECT_GT(localAllocs, 0);  // the counter is live
  EXPECT_LE(wireAllocs, 2 * localAllocs)
      << "wire store allocated " << wireAllocs << " times in run(), local "
      << localAllocs;
}

// The UDP transport keeps each link's unacked records in one seq-indexed
// send window and ships a page as one record, so a udp/wire run pays per
// datagram, not per record or per page element; its workers keep no msgId
// ledger, the link receive windows having dropped every duplicate, and a
// retired context stays in the match table it already occupies. On the
// same 2-PE stencil it may allocate at most 1.5x what the inbox/wire run
// does. Measured over 30 runs of one run() each: udp/wire 2,172-2,227
// against inbox/wire 1,974-2,011, 1.1x; 2,754-2,787 against 1,975-2,011
// (1.4x) while each retirement inserted its context into a set of its own
// (552 frames retire per run); 3,034-3,175 against 1,970-2,022 (1.5-1.6x)
// while every worker also inserted each drained msgId into its ledger;
// 2.0-2.5x while the sender's delivery core kept a hash-map and a set node
// per record and returned a vector per ack; 5.3-6.3x with a record per page
// element and a heap node per retransmit image.
TEST(WireStoreAllocs, StencilUdpWireRunAllocatesAtMostOneAndAHalfTimesInbox) {
  CompileResult cr = compile(workloads::stencilSource(48, 10), {});
  ASSERT_TRUE(cr.ok) << cr.diagnostics;
  native::NativeConfig inbox;
  inbox.numWorkers = 2;
  inbox.transport = native::TransportKind::Inbox;
  inbox.store = native::StoreKind::Wire;
  native::NativeConfig udp = inbox;
  udp.transport = native::TransportKind::Udp;
  const std::int64_t inboxAllocs = runAllocs(*cr.compiled, inbox);
  const std::int64_t udpAllocs = runAllocs(*cr.compiled, udp);
  EXPECT_GT(inboxAllocs, 0);  // the counter is live
  EXPECT_LE(udpAllocs, 3 * inboxAllocs / 2)
      << "udp/wire allocated " << udpAllocs << " times in run(), inbox/wire "
      << inboxAllocs;
}

// A link's send window holds every record from send() to its ack. Grown
// once to 256 live slots and warmed through a few compactions, it must run
// put -> mark sent -> ack, with a retransmit scan every 100 cycles, without
// one heap allocation: its slot and byte vectors are reused in place.
TEST(SendWindowAllocs, WarmWindowCyclesAllocateNothing) {
  proto::RetryPolicy policy;
  policy.rtoUs = 100.0;
  proto::SendWindow window(policy, /*faultsEnabled=*/true);
  std::uint8_t rec[65];
  for (std::size_t i = 0; i < sizeof rec; ++i)
    rec[i] = static_cast<std::uint8_t>(i);
  std::uint8_t out[1394];
  constexpr std::uint64_t kLive = 256;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  std::int64_t retransmits = 0;
  auto cycle = [&](int i) {
    window.put(++seq, rec, sizeof rec);
    window.markSent(now);
    window.ack(seq - kLive, 0);
    if (i % 100 == 0) {
      now += 1'000'000;  // ten base RTOs: every live slot is due
      retransmits += window.expire(now, out, sizeof out).records;
    }
  };
  while (seq < kLive) window.put(++seq, rec, sizeof rec);
  window.markSent(now);
  for (int i = 1; i <= 1000; ++i) cycle(i);  // warm: vectors at their peak
  ASSERT_EQ(window.live(), kLive);

  const std::int64_t before = gAllocs.load();
  for (int i = 1; i <= 10000; ++i) cycle(i);
  const std::int64_t allocs = gAllocs.load() - before;
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(window.live(), kLive);
  EXPECT_GT(retransmits, 0);  // the scans really copied images
}

}  // namespace
}  // namespace pods
