#include "native/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>

#include "proto/delivery.hpp"
#include "proto/link_window.hpp"
#include "support/check.hpp"

namespace pods::native {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration micros(double us) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us));
}

// The UDP send windows and deadlines keep time in steady-clock ticks:
// nanoseconds.
static_assert(std::is_same_v<Clock::period, std::nano>);
std::int64_t nowNs() { return Clock::now().time_since_epoch().count(); }

void put16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint16_t get16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint64_t get64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Datagram type bytes (first byte of every UDP packet). 1..5 belonged to
// retired formats (the bare single-token datagram, the per-message ack, the
// shutdown wake-up, the unstamped batch and ack) and are rejected like any
// other unknown type.
constexpr std::uint8_t kTypeBatch = 6;
constexpr std::uint8_t kTypeCumAck = 7;
// Record kinds: the first byte of every record inside a batch.
constexpr std::uint8_t kRecordToken = 1;
constexpr std::uint8_t kRecordPage = 2;

// Most records one batch can hold: the smallest record is a page record
// with one value.
constexpr int kBatchMaxRecords = static_cast<int>(
    kBatchRecordBytes / (kPageRecordFixedBytes + 1 + kPageValueBytes));

// Lazy-ack threshold: a receiver answers partial batches and healed
// duplicates immediately, but lets full-batch streams run this many records
// between cumulative acks (see onBatch).
constexpr std::int64_t kAckLazyRecords = 64;

/// Per-(src,dst) link counters. Written from worker and transport service
/// threads; plain atomics, rolled into the Counters map after the run.
struct LinkStat {
  std::atomic<std::int64_t> tokens{0};     // logical tokens first sent
  std::atomic<std::int64_t> datagrams{0};  // wire transmissions (UDP)
  std::atomic<std::int64_t> bytes{0};      // wire bytes (UDP)
  std::atomic<std::int64_t> retx{0};       // retransmissions
};

void addLinkStats(Counters& out, const std::vector<LinkStat>& links,
                  int numPes) {
  for (int f = 0; f < numPes; ++f) {
    for (int t = 0; t < numPes; ++t) {
      const LinkStat& l = links[static_cast<std::size_t>(f * numPes + t)];
      if (const auto v = l.tokens.load())
        out.add(proto::linkCounterName(f, t, "tokens"), v);
      if (const auto v = l.datagrams.load())
        out.add(proto::linkCounterName(f, t, "datagrams"), v);
      if (const auto v = l.bytes.load())
        out.add(proto::linkCounterName(f, t, "bytes"), v);
      if (const auto v = l.retx.load())
        out.add(proto::linkCounterName(f, t, "retx"), v);
    }
  }
}

// ---------------------------------------------------------------------------
// InboxTransport: the original in-process path, verbatim. Without fault
// injection a send is a direct deposit; with it, every send rolls the
// seeded dice and dropped/delayed tokens are re-driven by a wall-clock
// retransmit daemon with exponential backoff. A token's attempt count rides
// with the token itself: in transmit(), and in the daemon's queue between
// attempts. So no send takes a lock shared by all workers; a drop or a
// delay takes the daemon's queue lock.
// ---------------------------------------------------------------------------

class InboxTransport final : public Transport {
 public:
  InboxTransport(TransportSink& sink, const FaultPlan& plan, int numPes)
      : sink_(sink),
        plan_(plan),
        numPes_(numPes),
        links_(plan.enabled()
                   ? static_cast<std::size_t>(numPes) * numPes
                   : 0) {}

  ~InboxTransport() override { stop(); }

  const char* name() const override { return "inbox"; }

  bool start(std::string*) override {
    if (plan_.enabled() && !retxThread_.joinable()) {
      retxThread_ = std::thread([this] { retxMain(); });
    }
    return true;
  }

  void send(int fromPe, int toPe, NToken tok) override {
    if (!plan_.enabled()) {
      sink_.deposit(toPe, fromPe, std::move(tok));
      return;
    }
    if (tok.msgId == 0) tok.msgId = netSeq_.fetch_add(1) + 1;
    link(fromPe, toPe).tokens.fetch_add(1);
    transmit(fromPe, toPe, std::move(tok), /*lane=*/fromPe, /*attempt=*/1);
  }

  void stop() override {
    if (!retxThread_.joinable()) return;
    {
      std::lock_guard<std::mutex> g(retxM_);
      retxStop_ = true;
    }
    retxCv_.notify_all();
    retxThread_.join();
  }

  void addStats(Counters& out) const override {
    if (!plan_.enabled()) return;
    out.add(proto::kFaultDrops, faultDrops_.load());
    out.add(proto::kFaultDups, faultDups_.load());
    out.add(proto::kFaultDelays, faultDelays_.load());
    proto::Delivery::registerProtocolCounters(out);
    out.add(proto::kResent, resent_.load());
    out.add(proto::kGiveUps, giveUps_.load());
    addLinkStats(out, links_, numPes_);
  }

 private:
  /// A token parked in the retransmit daemon: either a dropped message
  /// waiting for its backoff to expire (`redecide` — the resend, transmission
  /// #attempt, rolls fresh fault dice) or a delayed one waiting out its
  /// injected latency (delivered as-is).
  struct RetxItem {
    Clock::time_point due;
    int fromPe = 0;
    int toPe = 0;
    int attempt = 0;
    bool redecide = true;
    NToken tok;
  };
  struct RetxLater {
    bool operator()(const RetxItem& a, const RetxItem& b) const {
      return a.due > b.due;  // min-heap on due time
    }
  };

  LinkStat& link(int fromPe, int toPe) {
    return links_[static_cast<std::size_t>(fromPe * numPes_ + toPe)];
  }

  /// Transmission #attempt of a token: rolls the seeded dice, then
  /// delivers, duplicates, or hands the token to the retransmit daemon. The
  /// inbox path has no ack round-trip — the injector knows which sends it
  /// dropped — so only a drop decides, through the RetryPolicy, between a
  /// retransmit one backoff later and a give-up. The token's quiescence
  /// charges ride along untouched. `lane` identifies the calling thread for
  /// the destination's SPSC inbox rings (worker PE id, or numPes_ from the
  /// retransmit daemon).
  void transmit(int fromPe, int toPe, NToken tok, int lane, int attempt) {
    switch (plan_.action(netSeq_.fetch_add(1) + 1)) {
      case FaultAction::Drop: {
        faultDrops_.fetch_add(1);
        const proto::RetryPolicy& retry = plan_.config().retry;
        if (retry.giveUpAt(attempt)) {
          giveUps_.fetch_add(1);
          sink_.transportFail("reliable delivery gave up on a token to "
                              "worker " +
                              std::to_string(toPe) + " after " +
                              std::to_string(attempt) + " attempts");
          return;
        }
        resent_.fetch_add(1);
        scheduleRetx(fromPe, toPe, std::move(tok),
                     retry.backoffUs(attempt + 1,
                                     retry.baseRtoUs(/*faultsEnabled=*/true)),
                     /*redecide=*/true, attempt + 1);
        break;
      }
      case FaultAction::Duplicate: {
        faultDups_.fetch_add(1);
        NToken copy = tok;
        sink_.deposit(toPe, lane, std::move(tok));
        // The duplicate is a real extra message: it carries its own
        // quiescence charges, consumed when the receiver dedups it.
        sink_.chargeDuplicate();
        sink_.deposit(toPe, lane, std::move(copy));
        break;
      }
      case FaultAction::Delay:
        faultDelays_.fetch_add(1);
        scheduleRetx(fromPe, toPe, std::move(tok),
                     plan_.config().nativeDelayUs, /*redecide=*/false,
                     attempt);
        break;
      case FaultAction::Deliver:
        sink_.deposit(toPe, lane, std::move(tok));
        break;
    }
  }

  void scheduleRetx(int fromPe, int toPe, NToken tok, double delayUs,
                    bool redecide, int attempt) {
    RetxItem item;
    item.due = Clock::now() + micros(delayUs);
    item.fromPe = fromPe;
    item.toPe = toPe;
    item.attempt = attempt;
    item.redecide = redecide;
    item.tok = std::move(tok);
    {
      std::lock_guard<std::mutex> g(retxM_);
      retxQ_.push(std::move(item));
    }
    retxCv_.notify_one();
  }

  /// The retransmit daemon: sleeps until the earliest due token, then
  /// re-drives it — a delayed token is delivered as-is; a dropped one counts
  /// as a resend and rolls fresh dice (it may be dropped again, backing off
  /// exponentially up to maxAttempts). Exits only when stop() raises
  /// `retxStop_` after the workers have joined; parked tokens hold pending
  /// and inboxTokens charges, so the program cannot terminate or declare
  /// deadlock while anything is still in here.
  void retxMain() {
    std::unique_lock<std::mutex> g(retxM_);
    while (!retxStop_) {
      if (retxQ_.empty()) {
        retxCv_.wait(g, [&] { return retxStop_ || !retxQ_.empty(); });
        continue;
      }
      const auto due = retxQ_.top().due;
      // Also wake when a newly parked token is due *earlier* than the one
      // we went to sleep on, so a short-backoff retransmit is never stuck
      // behind a long-backoff wait.
      if (retxCv_.wait_until(
              g, due, [&] { return retxStop_ || retxQ_.top().due < due; })) {
        if (retxStop_) break;
        continue;
      }
      while (!retxQ_.empty() && retxQ_.top().due <= Clock::now()) {
        RetxItem item = retxQ_.top();
        retxQ_.pop();
        g.unlock();
        if (item.redecide) {
          link(item.fromPe, item.toPe).retx.fetch_add(1);
          transmit(item.fromPe, item.toPe, std::move(item.tok),
                   /*lane=*/numPes_, item.attempt);
        } else {
          sink_.deposit(item.toPe, numPes_, std::move(item.tok));
        }
        g.lock();
      }
    }
  }

  TransportSink& sink_;
  FaultPlan plan_;
  const int numPes_;
  std::vector<LinkStat> links_;
  std::atomic<std::uint64_t> netSeq_{0};
  std::atomic<std::int64_t> faultDrops_{0};
  std::atomic<std::int64_t> faultDups_{0};
  std::atomic<std::int64_t> faultDelays_{0};
  std::atomic<std::int64_t> resent_{0};
  std::atomic<std::int64_t> giveUps_{0};
  std::mutex retxM_;
  std::condition_variable retxCv_;
  std::priority_queue<RetxItem, std::vector<RetxItem>, RetxLater> retxQ_;
  bool retxStop_ = false;  // guarded by retxM_; set only after workers join
  std::thread retxThread_;
};

// ---------------------------------------------------------------------------
// UdpTransport: the Routing Unit of the PEs this process serves — one UDP
// socket per PE on 127.0.0.1, tokens as batched datagrams with cumulative
// acknowledgment.
//
// One engine serves both UDP modes. In-process (`--transport=udp`) it serves
// all N PEs and binds their sockets itself. In a multi-process worker
// (`--transport=udp-multiproc`) it serves the worker's one PE on the socket
// the supervisor bound and handed down; the supervisor keeps its own copy,
// so the port binding and any datagrams buffered in the kernel survive a
// kill -9 of the worker — the paper's "NIC outlives the PE". The mode
// decides only who owns the sockets and when a fresh token may be acked
// (see "acks" below); everything else is shared.
//
// Sends coalesce per (src,dst) link: each link keeps a small outbox that
// accumulates records (65-byte tokens, variable-length page runs) and ships
// them as one MTU-sized batch datagram when the next record would not fit,
// when one more token would not (wireBatchFull), or when the sending
// worker's loop calls flush() — the only flusher of a partial batch.
//
// UDP gives no delivery guarantee even on loopback (a full SO_RCVBUF drops
// packets silently), so the reliable-delivery protocol ALWAYS runs:
//
//   sender    numbers each link's records with a dense 1-based sequence
//             (packed into the msgId, see proto::Delivery::packLinkMsgId)
//             and keeps each record in the link's proto::SendWindow from
//             send() until it is acked: its wire image (indexed by seq, no
//             allocation per record), its attempt count and its deadline.
//             It retransmits with exponential backoff until acknowledged
//             (giving up — failing the run — after maxAttempts). A
//             retransmitted record rides the link's next batch with its
//             ORIGINAL msgId (never re-registered, so quiescence is never
//             double-charged) alongside fresh tokens;
//   receiver  suppresses duplicates by link sequence (the link's
//             proto::RecvWindow) before they reach the inbox, and re-acks a
//             duplicate at once so a lost ack self-heals;
//   acks      are cumulative: the highest contiguously received seq plus a
//             selective bitmap for seqs above it. Without a WorkerLink a
//             fresh token is acked at receive (lazily, see kAckLazyRecords).
//             With one, a token may be acked only once its Recv record is
//             stable at the supervisor (an acked-but-unlogged token would
//             never be retransmitted and would vanish with the next kill):
//             the worker thread reports each drain (noteDrained) and
//             pumpAcks() acks what has become stable. Acks are datagrams
//             too and may be lost; injected faults roll dice on them
//             (lossy-ack model, as in the simulator).
//
// Epochs: every datagram carries an incarnation (0 in-process). A respawned
// worker boots with epoch+1 and renumbers its links from seq 1. A receiver
// resets a link's windows the first time it sees a higher epoch from the
// link's source and drops datagrams stamped with a lower one; a reborn
// sender drops acks stamped with its predecessor's epoch.
//
// Output commit for sends (WorkerLink only): an outbox may be FLUSHED only
// once the log records that preceded its sends are stable (the NEWCTX/ALLOC
// mints behind a send are not replay-stable until logged). Gated flushes
// are retried by the worker loop's poll and by onStableAdvance().
//
// Fault injection composes at the datagram level: each transmission of a
// batch (first flush and every retransmit flush) rolls the seeded FaultPlan
// dice — Drop suppresses the sendto for the whole batch (the backoff timers
// recover each token), Duplicate sends the wire image twice, Delay parks
// the image in the deadline heap. A multi-process worker's plan rolls no
// dice: the supervisor injects its faults as real SIGKILLs.
//
// Threads: one service thread per process, at any PE count — the PEs'
// Routing Unit. It sleeps in ppoll on every local PE's socket (the "NIC",
// which an in-process kill-mode fail-stop deliberately does NOT destroy)
// and an eventfd, until a datagram arrives, the eventfd is written (stop(),
// or a push that armed a new earliest deadline), or the earliest deadline
// passes. It then drains every socket until a whole pass reads nothing and
// only then runs the deadlines (retransmit scans, fault-delayed datagrams)
// that were due when that quiet pass began: no retransmit is decided while
// an ack that already arrived sits unread, and a deadline re-armed for
// "now" cannot keep the thread from draining. Backoff and give-up decisions
// come from the send window's RetryPolicy; sequence windows live in the
// per-link slots: a link's send window beside its outbox under the link's
// mutex, its receive window touched only by the service thread.
//
// Locks: a link's mutex (lk.m) guards its outbox and send window, so
// sending, flushing, retiring an ack and retransmitting each take that one
// mutex. m_ guards only the deadline heap. The two are NEVER held together
// — a path that arms a deadline releases lk.m first.
// ---------------------------------------------------------------------------

class UdpTransport final : public Transport {
 public:
  /// `worker` null: in-process, serving all PEs on sockets bound here.
  UdpTransport(TransportSink& sink, const FaultPlan& plan, int numPes,
               const UdpWorkerEndpoint* worker)
      : sink_(sink),
        plan_(plan),
        numPes_(numPes),
        firstLocal_(worker != nullptr ? worker->pe : 0),
        numLocal_(worker != nullptr ? 1 : numPes),
        ownsSockets_(worker == nullptr),
        epoch_(worker != nullptr ? worker->epoch : 0),
        link_(worker != nullptr ? worker->link : nullptr),
        links_(static_cast<std::size_t>(numPes) * numPes),
        outSlots_(new std::atomic<LinkOut*>[localLinks()]),
        dirty_(new std::atomic<int>[static_cast<std::size_t>(numLocal_)]),
        in_(localLinks()) {
    for (std::size_t i = 0; i < localLinks(); ++i)
      outSlots_[i].store(nullptr, std::memory_order_relaxed);
    for (int i = 0; i < numLocal_; ++i)
      dirty_[i].store(0, std::memory_order_relaxed);
    if (worker != nullptr) {
      fds_.push_back(worker->sockFd);
      ports_ = worker->peerPorts;
    }
    if (link_ != nullptr) {
      for (std::size_t i = 0; i < localLinks(); ++i)
        acks_.push_back(std::make_unique<AckState>());
    }
  }

  ~UdpTransport() override {
    stop();
    if (wakeFd_ >= 0) ::close(wakeFd_);
    for (std::size_t i = 0; i < localLinks(); ++i)
      delete outSlots_[i].load(std::memory_order_relaxed);
  }

  const char* name() const override {
    return ownsSockets_ ? "udp" : "udp-multiproc";
  }

  bool start(std::string* err) override {
    auto fail = [&](const std::string& why) {
      if (err) *err = std::string(name()) + " transport: " + why;
      return false;
    };
    std::string why;
    if (ownsSockets_ && !bindLoopbackUdp(numPes_, fds_, ports_, &why))
      return fail(why);
    if (fds_[0] < 0) return fail("no inherited socket fd");
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC);
    if (wakeFd_ < 0) {
      why = std::string("eventfd(): ") + std::strerror(errno);
      closeSockets();
      return fail(why);
    }
    addrs_.assign(static_cast<std::size_t>(numPes_), sockaddr_in{});
    for (int pe = 0; pe < numPes_; ++pe) {
      sockaddr_in& sa = addrs_[static_cast<std::size_t>(pe)];
      sa.sin_family = AF_INET;
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      sa.sin_port = htons(ports_[static_cast<std::size_t>(pe)]);
    }
    // Large receive buffer: loopback "packet loss" is exactly a full
    // receive queue, and every drop costs a backoff-delayed retransmit.
    const int rcvbuf = 4 << 20;
    for (const int fd : fds_)
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    serviceThread_ = std::thread([this] { serviceMain(); });
    return true;
  }

  /// Parks the token in the (fromPe,toPe) outbox; ships when the batch
  /// fills or when the sending worker's loop flushes. The token's
  /// quiescence charge was made at enqueue and keeps it visible while it
  /// coalesces here.
  void send(int fromPe, int toPe, NToken tok) override {
    PODS_CHECK_MSG(isLocal(fromPe),
                   "udp transport: send from a PE this process does not serve");
    LinkOut& lk = linkOut(fromPe, toPe);
    linkStat(fromPe, toPe).tokens.fetch_add(1);
    tokensSent_.fetch_add(1);
    const std::size_t recLen = wireRecordBytes(tok);
    bool wrote = false;
    bool full = false;
    while (!wrote) {
      {
        std::lock_guard<std::mutex> g(lk.m);
        // The record may not fit behind what is already coalescing — and
        // the service thread's retransmit requeue can leave the outbox full
        // too, since it appends under lk.m and flushes only after dropping
        // it. Either way, ship the outbox first and retry.
        if (lk.bytes + recLen <= kBatchRecordBytes) {
          const std::uint64_t seq = ++lk.nextSeq;
          tok.msgId = proto::Delivery::packLinkMsgId(fromPe, toPe, seq);
          std::uint8_t* rec = lk.buf + kBatchHeaderBytes + lk.bytes;
          wireEncodeRecord(tok, static_cast<std::uint16_t>(fromPe), rec);
          lk.window.put(seq, rec, recLen);
          // Output commit: everything this token's payload may depend on
          // (mints, received tokens) is in the log stream by now — the
          // batch must not hit the wire before that prefix is stable.
          if (link_ != nullptr) lk.gateSeq = link_->logAppended();
          if (lk.count == 0)
            dirty(fromPe).fetch_add(1, std::memory_order_release);
          ++lk.count;
          lk.bytes += recLen;
          full = wireBatchFull(lk.bytes);
          wrote = true;
        }
      }
      if (!wrote) flushLink(fromPe, toPe, FlushWhy::Full);
    }
    if (full) flushLink(fromPe, toPe, FlushWhy::Full);
  }

  /// Ships everything coalescing in fromPe's outboxes. Called by the
  /// sending worker from its scheduling loop (Transport::flush), the only
  /// flusher of a partial batch; the dirty count makes the common (nothing
  /// pending) case one atomic load.
  void flush(int fromPe) override {
    if (dirty(fromPe).load(std::memory_order_acquire) == 0) return;
    for (int to = 0; to < numPes_; ++to) {
      if (to != fromPe && linkOutIfExists(fromPe, to) != nullptr)
        flushLink(fromPe, to, FlushWhy::Drain);
    }
  }

  /// Called after every worker has joined. Raises the stop flag and writes
  /// the eventfd; the service thread runs no further deadline, drains the
  /// sockets until a pass that began after it saw the flag reads nothing,
  /// and exits — so it sees every datagram the workers and it ever sent,
  /// and acksSent/acksRecv close exactly on a fault-free run. The eventfd
  /// stays open until destruction: a worker process's ctl thread may still
  /// flush on a late LogAck, and its wake must not hit a closed fd.
  void stop() override {
    if (!serviceThread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    wake();
    serviceThread_.join();
    closeSockets();
  }

  void addStats(Counters& out) const override {
    out.add("net.udp.tokensSent", tokensSent_.load());
    out.add("net.udp.datagramsSent", datagramsSent_.load());
    out.add("net.udp.bytesSent", bytesSent_.load());
    out.add("net.udp.datagramsRecv", datagramsRecv_.load());
    out.add("net.udp.bytesRecv", bytesRecv_.load());
    out.add("net.udp.acksSent", acksSent_.load());
    out.add("net.udp.acksRecv", acksRecv_.load());
    out.add("net.udp.sendErrors", sendErrors_.load());
    out.add("net.udp.badDatagrams", badDatagrams_.load());
    out.add("net.udp.staleEpoch", staleEpoch_.load());
    out.add("net.udp.staleAcks", staleAcks_.load());
    out.add("net.udp.gatedFlushes", gatedFlushes_.load());
    out.add("net.udp.batch.datagrams", batchDgrams_.load());
    out.add("net.udp.batch.tokens", batchTokens_.load());
    out.add("net.udp.batch.flushFull", flushFull_.load());
    out.add("net.udp.batch.flushDrain", flushDrain_.load());
    out.add("net.udp.batch.flushRetx", flushRetx_.load());
    proto::Delivery::registerProtocolCounters(out);
    out.add(proto::kResent, resent_.load());
    out.add(proto::kGiveUps, giveUps_.load());
    out.add(proto::kDupSuppressed, dupSuppressed_.load());
    out.add(proto::kAcks, acksBuilt_.load());
    if (plan_.enabled()) {
      out.add(proto::kFaultDrops, faultDrops_.load());
      out.add(proto::kFaultDups, faultDups_.load());
      out.add(proto::kFaultDelays, faultDelays_.load());
    }
    addLinkStats(out, links_, numPes_);
  }

  // ---- Multi-process hooks ---------------------------------------------

  void noteDrained(std::uint64_t msgId, std::uint8_t epoch,
                   std::uint64_t logSeq) override {
    if (link_ == nullptr || msgId == 0) return;  // 0: local delivery
    AckState& ack = *acks_[rxSlotOf(msgId)];
    std::lock_guard<std::mutex> g(ack.m);
    // A token from a dead incarnation needs no ack — its sender is gone and
    // the reborn one re-sends under the new epoch.
    if (epoch != ack.epoch) return;
    ack.pend.push_back({proto::Delivery::linkMsgIdSeq(msgId), logSeq});
    ack.due.store(true, std::memory_order_release);
  }

  void pumpAcks() override {
    if (link_ == nullptr) return;
    const std::uint64_t stable = link_->logStable();
    for (int dst = firstLocal_; dst < firstLocal_ + numLocal_; ++dst) {
      for (int src = 0; src < numPes_; ++src) {
        if (src == dst) continue;
        AckState& ack = *acks_[rxSlot(src, dst)];
        if (!ack.due.load(std::memory_order_acquire)) continue;
        proto::CumAckView view;
        std::uint8_t epoch = 0;
        bool moved = false;
        {
          std::lock_guard<std::mutex> g(ack.m);
          while (!ack.pend.empty() && ack.pend.front().logSeq <= stable) {
            ack.win.acceptSeq(ack.pend.front().seq);
            ack.pend.pop_front();
            moved = true;
          }
          if (ack.pend.empty())
            ack.due.store(false, std::memory_order_release);
          if (moved) {
            view = ack.win.cumAckView();
            epoch = ack.epoch;
          }
        }
        if (moved) sendCumAck(dst, src, view, epoch);
      }
    }
  }

  void onStableAdvance() override {
    for (int pe = firstLocal_; pe < firstLocal_ + numLocal_; ++pe) flush(pe);
    pumpAcks();
  }

  /// Records sent and not yet acked, whether still coalescing in an outbox
  /// or on the wire: each link's send window holds them all.
  std::int64_t outstanding() const override {
    std::int64_t n = 0;
    for (std::size_t i = 0; i < localLinks(); ++i) {
      if (LinkOut* lk = outSlots_[i].load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> g(lk->m);
        n += static_cast<std::int64_t>(lk->window.live());
      }
    }
    return n;
  }

  void primeRecv(std::uint64_t msgId, std::uint8_t epoch) override {
    // Pre-start rebuild (no threads yet). The log replays in receive order,
    // so per-source epochs are non-decreasing: only the newest incarnation's
    // stream is rebuilt — older streams died with their senders.
    if (link_ == nullptr) return;
    const int src = msgSrc(msgId);
    const int dst = msgDst(msgId);
    const std::size_t s = rxSlot(src, dst);
    if (epoch < in_[s].epoch) return;
    if (epoch > in_[s].epoch) adoptEpoch(src, dst, epoch);
    const std::uint64_t seq = proto::Delivery::linkMsgIdSeq(msgId);
    in_[s].win.acceptSeq(seq);
    acks_[s]->win.acceptSeq(seq);
  }

  // The END-retire barrier runs in a multi-process worker, whose one local
  // PE is firstLocal_.
  void barrierSnapshot(std::vector<std::uint64_t>& out) override {
    const int me = firstLocal_;
    out.assign(static_cast<std::size_t>(numPes_), 0);
    for (int to = 0; to < numPes_; ++to) {
      if (LinkOut* lk = linkOutIfExists(me, to)) {
        std::lock_guard<std::mutex> g(lk->m);
        out[static_cast<std::size_t>(to)] = lk->nextSeq;
      }
    }
  }

  bool barrierPassed(const std::vector<std::uint64_t>& snap) override {
    const int me = firstLocal_;
    for (int to = 0; to < numPes_; ++to) {
      const std::uint64_t high = snap[static_cast<std::size_t>(to)];
      if (high == 0) continue;
      // The send window holds every record from send() to its ack, whether
      // coalescing, gate-parked or in flight, so its lowest live seq alone
      // says whether the snapshot's sends are all safe.
      LinkOut& lk = *linkOutIfExists(me, to);
      std::lock_guard<std::mutex> g(lk.m);
      const std::uint64_t low = lk.window.lowestLive();
      if (low != 0 && low <= high) return false;
    }
    return true;
  }

 private:
  /// One (src,dst) link's sender state: the coalescing outbox (header
  /// space + up to kBatchRecordBytes of records) and the send window, which
  /// holds every record from send() to its ack. Single fresh producer
  /// (worker src); the service thread appends retransmits and retires acked
  /// records — all under m.
  struct LinkOut {
    LinkOut(const proto::RetryPolicy& retry, bool faultsEnabled)
        : window(retry, faultsEnabled) {}

    std::mutex m;
    std::uint8_t buf[kBatchMaxBytes];
    std::size_t bytes = 0;  // record bytes currently in buf
    int count = 0;          // records currently in buf
    std::uint64_t nextSeq = 0;  // last assigned link sequence
    /// Output-commit gate (WorkerLink only): log stream position that must
    /// be stable before this outbox may hit the wire (high-water over its
    /// parked tokens).
    std::uint64_t gateSeq = 0;
    proto::SendWindow window;
    /// The whole link keeps at most ~one live Retx deadline —
    /// `retxArmed`/`armedDue` dedup the arming — so the deadline heap
    /// scales with links, not with batches.
    bool retxArmed = false;
    std::int64_t armedDue = 0;
  };

  /// Ack gating state for one inbound link (WorkerLink only). The receiver
  /// thread deposits and dedups but never acks fresh tokens; the worker
  /// thread reports each drain (with its Recv record's stream position) and
  /// pumpAcks() moves entries into the ackable window `win` once the
  /// supervisor has made their records stable.
  struct AckState {
    std::mutex m;
    struct Pend {
      std::uint64_t seq;
      std::uint64_t logSeq;
    };
    std::deque<Pend> pend;
    proto::RecvWindow win;    // ackable window: stable-logged seqs only
    std::uint8_t epoch = 0;   // sender incarnation the window belongs to
    std::atomic<bool> due{false};
  };

  /// One inbound link's receive state: the dedup window, the highest
  /// source incarnation seen and the records since the last lazy ack.
  struct LinkIn {
    proto::RecvWindow win;
    std::uint8_t epoch = 0;
    std::int64_t sinceAck = 0;
  };

  enum class FlushWhy : std::uint8_t { Full, Drain, Retx };

  /// A deadline the service thread keeps: a link's retransmit scan, or a
  /// fault-delayed datagram waiting out its injected latency.
  struct TimerEv {
    std::int64_t due = 0;  // steady-clock ns
    int fromPe = 0;
    int toPe = 0;
    std::vector<std::uint8_t> wire;  // the delayed datagram; empty: Retx
  };
  struct EvLater {
    bool operator()(const TimerEv& a, const TimerEv& b) const {
      return a.due > b.due;
    }
  };

  // Per-link arrays cover the links with a local end: [local src][dst] on
  // the send side, [local dst][src] on the receive side.
  std::size_t localLinks() const {
    return static_cast<std::size_t>(numLocal_) *
           static_cast<std::size_t>(numPes_);
  }
  bool isLocal(int pe) const {
    return pe >= firstLocal_ && pe < firstLocal_ + numLocal_;
  }
  std::size_t outSlot(int fromPe, int toPe) const {
    return static_cast<std::size_t>(fromPe - firstLocal_) * numPes_ + toPe;
  }
  std::size_t rxSlot(int srcPe, int dstPe) const {
    return static_cast<std::size_t>(dstPe - firstLocal_) * numPes_ + srcPe;
  }
  static int msgSrc(std::uint64_t msgId) {
    return static_cast<int>(msgId >> 56);
  }
  static int msgDst(std::uint64_t msgId) {
    return static_cast<int>((msgId >> 48) & 0xFF);
  }
  std::size_t rxSlotOf(std::uint64_t msgId) const {
    return rxSlot(msgSrc(msgId), msgDst(msgId));
  }
  std::atomic<int>& dirty(int fromPe) { return dirty_[fromPe - firstLocal_]; }
  int fdOf(int pe) const {
    return fds_[static_cast<std::size_t>(pe - firstLocal_)];
  }

  LinkStat& linkStat(int fromPe, int toPe) {
    return links_[static_cast<std::size_t>(fromPe * numPes_ + toPe)];
  }

  /// Outboxes allocate lazily on a link's first send (256 PEs all-to-all
  /// would be ~90 MB up front); every other thread reaches a link only
  /// after a send has happened.
  LinkOut& linkOut(int fromPe, int toPe) {
    std::atomic<LinkOut*>& cell = outSlots_[outSlot(fromPe, toPe)];
    LinkOut* lk = cell.load(std::memory_order_acquire);
    if (lk == nullptr) {
      // Fault tests tune retry.rtoUs down to recover injected drops
      // quickly; honor it then. Fault-free, datagram loss is rare (large
      // SO_RCVBUF) and a sub-millisecond RTO just races thread scheduling
      // on the ack path, so the policy floors it — spurious retransmits
      // are harmless (receiver dedup) but wasteful.
      auto* made = new LinkOut(plan_.config().retry, plan_.enabled());
      if (cell.compare_exchange_strong(lk, made, std::memory_order_acq_rel))
        lk = made;
      else
        delete made;  // another thread published first; `lk` is theirs
    }
    return *lk;
  }

  LinkOut* linkOutIfExists(int fromPe, int toPe) const {
    return outSlots_[outSlot(fromPe, toPe)].load(std::memory_order_acquire);
  }

  /// Closes the sockets this transport bound. A worker's inherited socket
  /// stays open: the supervisor owns its lifetime.
  void closeSockets() {
    if (!ownsSockets_) return;
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
  }

  /// Raw datagram transmission from `fromPe`'s socket. EINTR always
  /// retries; a transiently full stack (EAGAIN/ENOBUFS) gets a few yields
  /// before the failure is counted and treated as network loss — the
  /// retransmit timers recover token batches, re-acking recovers acks.
  void rawSend(int fromPe, int toPe, const void* data, std::size_t len) {
    const sockaddr_in& to = addrs_[static_cast<std::size_t>(toPe)];
    for (int attempt = 0;; ++attempt) {
      const ssize_t n =
          ::sendto(fdOf(fromPe), data, len, 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof to);
      if (n >= 0) return;
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) &&
          attempt < 4) {
        std::this_thread::yield();
        continue;
      }
      sendErrors_.fetch_add(1);
      return;
    }
  }

  void xmitWire(int fromPe, int toPe, const std::uint8_t* data,
                std::size_t len) {
    rawSend(fromPe, toPe, data, len);
    LinkStat& l = linkStat(fromPe, toPe);
    l.datagrams.fetch_add(1);
    l.bytes.fetch_add(static_cast<std::int64_t>(len));
    datagramsSent_.fetch_add(1);
    bytesSent_.fetch_add(static_cast<std::int64_t>(len));
  }

  /// One transmission attempt of a batch datagram: rolls the seeded dice
  /// when fault injection is on, otherwise just sends. Drop suppresses the
  /// whole batch and relies on the per-token retransmit timers to recover.
  void attemptTransmit(int fromPe, int toPe, const std::uint8_t* data,
                       std::size_t len) {
    if (plan_.enabled()) {
      switch (plan_.action(txSeq_.fetch_add(1) + 1)) {
        case FaultAction::Drop:
          faultDrops_.fetch_add(1);
          return;
        case FaultAction::Duplicate:
          faultDups_.fetch_add(1);
          xmitWire(fromPe, toPe, data, len);
          break;  // fall through to the normal copy below
        case FaultAction::Delay:
          faultDelays_.fetch_add(1);
          pushTimerEv({nowNs() + static_cast<std::int64_t>(
                                     plan_.config().nativeDelayUs * 1000.0),
                       fromPe, toPe, {data, data + len}});
          return;
        case FaultAction::Deliver:
          break;
      }
    }
    xmitWire(fromPe, toPe, data, len);
  }

  /// Pushes a deadline, writing the eventfd only when it becomes the new
  /// earliest one: the service thread sleeps until the earliest deadline
  /// and sees later ones when it wakes for that.
  void pushTimerEv(TimerEv ev) {
    bool newFront = false;
    {
      std::lock_guard<std::mutex> g(m_);
      newFront = heap_.empty() || ev.due < heap_.front().due;
      heap_.push_back(std::move(ev));
      std::push_heap(heap_.begin(), heap_.end(), EvLater{});
    }
    if (newFront) wake();
  }

  /// Wakes the service thread from its ppoll.
  void wake() {
    const std::uint64_t one = 1;
    const ssize_t n = ::write(wakeFd_, &one, sizeof one);
    (void)n;  // an eventfd write only fails on counter overflow
  }

  /// Ships the (fromPe,toPe) outbox as one datagram: under lk.m, snapshot
  /// and reset the outbox and mark the records it carries sent in the send
  /// window (starting each one's deadline), then transmit with no lock
  /// held. Returns without sending when a concurrent flush already emptied
  /// the outbox, or — returning false — when the output-commit gate holds
  /// it back.
  bool flushLink(int fromPe, int toPe, FlushWhy why) {
    LinkOut* lkp = linkOutIfExists(fromPe, toPe);
    if (lkp == nullptr) return true;
    LinkOut& lk = *lkp;
    std::uint8_t dgram[kBatchMaxBytes];
    std::size_t len = 0;
    int count = 0;
    bool arm = false;
    std::int64_t due = 0;
    const std::int64_t now = nowNs();
    {
      std::lock_guard<std::mutex> g(lk.m);
      if (lk.count == 0) return true;
      if (link_ != nullptr && link_->logStable() < lk.gateSeq) {
        // Output commit: the log prefix behind these sends is not stable
        // yet. Retried by the worker loop's poll and onStableAdvance().
        gatedFlushes_.fetch_add(1);
        return false;
      }
      count = lk.count;
      len = wireEncodeBatchHeader(lk.buf, static_cast<std::uint16_t>(fromPe),
                                  count, lk.bytes, epoch_);
      std::memcpy(dgram, lk.buf, len);
      lk.bytes = 0;
      lk.count = 0;
      dirty(fromPe).fetch_sub(1, std::memory_order_release);
      // A deadline is pushed only when the link isn't armed yet (or this
      // one precedes the armed one) — typically once per burst, not once
      // per batch.
      due = lk.window.markSent(now);
      if (due != proto::SendWindow::kNoDeadline &&
          (!lk.retxArmed || due < lk.armedDue)) {
        lk.retxArmed = true;
        lk.armedDue = due;
        arm = true;
      }
    }
    if (arm) pushTimerEv({due, fromPe, toPe, {}});
    switch (why) {
      case FlushWhy::Full: flushFull_.fetch_add(1); break;
      case FlushWhy::Drain: flushDrain_.fetch_add(1); break;
      case FlushWhy::Retx: flushRetx_.fetch_add(1); break;
    }
    batchDgrams_.fetch_add(1);
    batchTokens_.fetch_add(count);
    attemptTransmit(fromPe, toPe, dgram, len);
    return true;
  }

  /// A link's retransmit deadline fired: the send window decides every
  /// record due by now and copies each survivor's image into the outbox in
  /// the same step (original msgId — the receiver's window dedups,
  /// quiescence was charged exactly once at the original enqueue), so the
  /// retransmits ride with any fresh tokens already coalescing. The outbox
  /// ships after lk.m is dropped, as often as it fills, and each copy's
  /// backoff starts when it ships; then one deadline is re-armed at the
  /// window's next one. A flush the output-commit gate holds back ends the
  /// scan: the records still due keep their deadlines, so the re-arm
  /// retries them after the next drain instead of spinning here.
  void fireRetx(int fromPe, int toPe) {
    LinkOut* lkp = linkOutIfExists(fromPe, toPe);
    if (lkp == nullptr) return;
    LinkOut& lk = *lkp;
    const std::int64_t now = nowNs();
    int gaveUpAttempt = 0;
    for (bool again = true; again;) {
      proto::SendWindow::Expired e;
      {
        std::lock_guard<std::mutex> g(lk.m);
        e = lk.window.expire(now, lk.buf + kBatchHeaderBytes + lk.bytes,
                             kBatchRecordBytes - lk.bytes);
        if (e.records > 0 && lk.count == 0)
          dirty(fromPe).fetch_add(1, std::memory_order_release);
        lk.count += e.records;
        lk.bytes += e.bytes;
      }
      linkStat(fromPe, toPe).retx.fetch_add(e.records);
      resent_.fetch_add(e.records);
      giveUps_.fetch_add(e.giveUps);
      if (e.giveUps > 0) gaveUpAttempt = e.gaveUpAttempt;
      again = e.full;
      if ((e.records > 0 || again) && !flushLink(fromPe, toPe, FlushWhy::Retx))
        again = false;
    }
    if (gaveUpAttempt != 0) {
      sink_.transportFail(
          std::string(name()) +
          " transport: reliable delivery gave up on a token from worker " +
          std::to_string(fromPe) + " to worker " + std::to_string(toPe) +
          " after " + std::to_string(gaveUpAttempt) + " attempts");
    }
    std::int64_t due = proto::SendWindow::kNoDeadline;
    {
      std::lock_guard<std::mutex> g(lk.m);
      due = lk.window.nextDue();
      lk.retxArmed = due != proto::SendWindow::kNoDeadline;
      if (lk.retxArmed) lk.armedDue = due;
    }
    if (due != proto::SendWindow::kNoDeadline)
      pushTimerEv({due, fromPe, toPe, {}});
  }

  /// Builds one cumulative ack from `ackerPe` for the (toPe -> ackerPe)
  /// link and sends it, rolled through the same fault dice as data
  /// (lossy-ack model; Delay is treated as Deliver — re-acking already
  /// covers lateness). The one place an ack is built, so the one place
  /// net.retx.acks counts.
  void sendCumAck(int ackerPe, int toPe, const proto::CumAckView& view,
                  std::uint8_t epoch) {
    WireCumAck ack;
    ack.ackerPe = static_cast<std::uint16_t>(ackerPe);
    ack.cum = view.cum;
    ack.bitmap = view.bitmap;
    ack.epoch = epoch;
    std::uint8_t pkt[kCumAckWireBytes];
    wireEncodeCumAck(ack, pkt);
    acksBuilt_.fetch_add(1);
    int copies = 1;
    if (plan_.enabled()) {
      switch (plan_.action(txSeq_.fetch_add(1) + 1)) {
        case FaultAction::Drop:
          faultDrops_.fetch_add(1);
          copies = 0;
          break;
        case FaultAction::Duplicate:
          faultDups_.fetch_add(1);
          copies = 2;
          break;
        default:
          break;
      }
    }
    for (int i = 0; i < copies; ++i) {
      rawSend(ackerPe, toPe, pkt, sizeof pkt);
      acksSent_.fetch_add(1);
    }
  }

  /// The one transport thread (see "Threads" above). Each pass polls every
  /// local PE's socket and the eventfd and reads the readable sockets dry;
  /// it blocks, until the earliest deadline, only once a quiet pass has run
  /// what was due. Deposits go through the service lane, so one thread for
  /// all PEs keeps the single-producer-per-lane invariant trivially true.
  void serviceMain() {
    std::uint8_t buf[2048];
    std::vector<NToken> toks;
    std::vector<NToken> fresh;
    std::vector<TimerEv> due;
    std::vector<pollfd> pfds(fds_.size() + 1);
    for (std::size_t i = 0; i < fds_.size(); ++i)
      pfds[i] = {fds_[i], POLLIN, 0};
    pfds.back() = {wakeFd_, POLLIN, 0};
    bool mayBlock = true;  // a quiet pass just ran its deadlines
    for (;;) {
      // Read before the pass: a quiet pass that saw the flag began after
      // every worker had joined, so it found their last datagrams.
      const bool stopping = stop_.load(std::memory_order_acquire);
      const bool block = mayBlock && !stopping;
      const std::int64_t passAt = nowNs();
      timespec wait{0, 0};
      const timespec* timeout = block ? untilNextDeadline(passAt, wait) : &wait;
      if (::ppoll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout,
                  nullptr) < 0) {
        if (errno == EINTR) continue;
        return;
      }
      bool got = false;
      for (int i = 0; i < numLocal_; ++i) {
        if (pfds[static_cast<std::size_t>(i)].revents != 0)
          got |= drainSocket(firstLocal_ + i, buf, sizeof buf, toks, fresh);
      }
      if (pfds.back().revents != 0) {
        std::uint64_t wakes = 0;
        const ssize_t n = ::read(wakeFd_, &wakes, sizeof wakes);
        (void)n;  // POLLIN: the counter is nonzero, so this cannot block
      }
      mayBlock = false;
      if (got || block) continue;  // not yet a quiet non-blocking pass
      if (stopping) return;
      // Every datagram that arrived before passAt is handled. The deadlines
      // due by then leave the heap before any runs, so one re-armed
      // meanwhile, even for a time already past, waits for the next drain.
      {
        std::lock_guard<std::mutex> g(m_);
        while (!heap_.empty() && heap_.front().due <= passAt) {
          std::pop_heap(heap_.begin(), heap_.end(), EvLater{});
          due.push_back(std::move(heap_.back()));
          heap_.pop_back();
        }
      }
      for (TimerEv& ev : due) {
        if (ev.wire.empty())
          fireRetx(ev.fromPe, ev.toPe);
        else  // a fault-delayed datagram: its original image, no dice
          xmitWire(ev.fromPe, ev.toPe, ev.wire.data(), ev.wire.size());
      }
      due.clear();
      mayBlock = true;
    }
  }

  /// A blocking pass's ppoll timeout: until the earliest deadline, or none
  /// (nullptr) while no deadline is armed.
  const timespec* untilNextDeadline(std::int64_t now, timespec& ts) {
    std::lock_guard<std::mutex> g(m_);
    if (heap_.empty()) return nullptr;
    const std::int64_t ns = std::max<std::int64_t>(0, heap_.front().due - now);
    ts = {static_cast<time_t>(ns / 1'000'000'000), ns % 1'000'000'000};
    return &ts;
  }

  /// Handles every datagram queued on `pe`'s socket, without blocking.
  /// Returns whether it read any.
  bool drainSocket(int pe, std::uint8_t* buf, std::size_t cap,
                   std::vector<NToken>& toks, std::vector<NToken>& fresh) {
    bool got = false;
    for (;;) {
      const ssize_t n = ::recv(fdOf(pe), buf, cap, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        return got;  // EAGAIN: this socket is drained
      }
      handleDatagram(pe, buf, static_cast<std::size_t>(n), toks, fresh);
      got = true;
    }
  }

  /// Processes one datagram addressed to local PE `pe`: a batch on a real
  /// link into `pe`, an ack from a real peer, or a malformed datagram.
  void handleDatagram(int pe, const std::uint8_t* buf, std::size_t n,
                      std::vector<NToken>& toks, std::vector<NToken>& fresh) {
    datagramsRecv_.fetch_add(1);
    bytesRecv_.fetch_add(static_cast<std::int64_t>(n));
    std::uint16_t src = 0;
    std::uint8_t epoch = 0;
    WireCumAck ack;
    if (wireDecodeBatch(buf, n, toks, &src, &epoch) && onLink(toks, src, pe))
      onBatch(pe, src, epoch, n - kBatchHeaderBytes, toks, fresh);
    else if (wireDecodeCumAck(buf, n, ack) && ack.ackerPe < numPes_ &&
             ack.ackerPe != pe)
      onCumAck(pe, ack);
    else
      badDatagrams_.fetch_add(1);
  }

  /// True when a decoded batch belongs to link (src -> pe): a source PE
  /// that exists and is not the receiver, and every record's msgId packed
  /// for that link — the dedup and ack windows key on it. Array requests
  /// must also name `src` as their requester, since the owner answers the
  /// PE a request names and send() indexes its link tables by it. (A page
  /// run's offsets, which the requester indexes its cache by, were bounded
  /// by the decoder.)
  bool onLink(const std::vector<NToken>& toks, int src, int pe) const {
    if (src >= numPes_ || src == pe) return false;
    const std::uint32_t want = proto::Delivery::linkMsgIdLink(
        proto::Delivery::packLinkMsgId(src, pe, 1));
    for (const NToken& tok : toks) {
      if (proto::Delivery::linkMsgIdLink(tok.msgId) != want) return false;
      switch (static_cast<AmKind>(tok.amKind)) {
        case AmKind::ReadReq:
          if (tok.slot != src || tok.cont.pe != src) return false;
          break;
        case AmKind::DimReq:
          if (tok.slot != src) return false;
          break;
        default:
          break;
      }
    }
    return true;
  }

  /// `src` came back as a higher incarnation, which renumbered its link to
  /// `dst` from seq 1: every window of the link starts over. Receiver
  /// thread, or primeRecv before it starts.
  void adoptEpoch(int src, int dst, std::uint8_t epoch) {
    const std::size_t s = rxSlot(src, dst);
    in_[s].epoch = epoch;
    in_[s].win = proto::RecvWindow();
    if (link_ == nullptr) return;
    AckState& ack = *acks_[s];
    std::lock_guard<std::mutex> g(ack.m);
    ack.pend.clear();
    ack.win = proto::RecvWindow();
    ack.epoch = epoch;
  }

  /// A batch on link (src -> pe) whose records take `recordBytes`: epoch
  /// triage, dedup, the ack this mode calls for, then the deposits of the
  /// fresh tokens.
  void onBatch(int pe, int src, std::uint8_t epoch, std::size_t recordBytes,
               std::vector<NToken>& toks, std::vector<NToken>& fresh) {
    const std::size_t s = rxSlot(src, pe);
    LinkIn& in = in_[s];
    if (epoch < in.epoch) {
      // The sender of this datagram is dead; its reborn successor
      // renumbered the link. Nothing from the old stream may touch the
      // new windows.
      staleEpoch_.fetch_add(1);
      return;
    }
    if (epoch > in.epoch) adoptEpoch(src, pe, epoch);
    fresh.clear();
    for (NToken& tok : toks) {
      if (in.win.acceptSeq(proto::Delivery::linkMsgIdSeq(tok.msgId)))
        fresh.push_back(std::move(tok));
    }
    const bool hadDup = fresh.size() != toks.size();
    if (hadDup)
      dupSuppressed_.fetch_add(
          static_cast<std::int64_t>(toks.size() - fresh.size()));
    if (link_ == nullptr) {
      // Ack at receive, lazily: a partial batch ends a burst and a
      // duplicate means the sender is already retransmitting — both ack
      // at once. A stream of FULL batches (wireBatchFull: no room for one
      // more token) acks only every kAckLazyRecords records (~every 3rd
      // token datagram), cutting ack traffic on hot links by two thirds; a
      // full-batch tail that never sees a partial flush is healed by the
      // sender's retransmit, whose duplicates force an ack. The ack goes
      // out before the deposits, so at termination the final ack is
      // already in flight toward the sender's socket.
      in.sinceAck += static_cast<std::int64_t>(toks.size());
      if (!wireBatchFull(recordBytes) || hadDup ||
          in.sinceAck >= kAckLazyRecords) {
        sendCumAck(pe, src, in.win.cumAckView(), epoch);
        in.sinceAck = 0;
      }
    } else if (hadDup) {
      // The sender is retransmitting: re-ack the stable window at once (it
      // never covers unlogged tokens). Fresh tokens wait for noteDrained
      // and pumpAcks — acking them now would let a kill between ack and
      // log lose the token forever.
      AckState& ack = *acks_[s];
      proto::CumAckView view;
      std::uint8_t ackEpoch = 0;
      {
        std::lock_guard<std::mutex> g(ack.m);
        view = ack.win.cumAckView();
        ackEpoch = ack.epoch;
      }
      sendCumAck(pe, src, view, ackEpoch);
    }
    for (NToken& tok : fresh) {
      // Receiver dedup MUST precede the ring deposit: a retransmitted
      // token that reached the inbox twice would double-release its
      // single quiescence charge.
      PODS_CHECK_MSG(
          in.win.seenSeq(proto::Delivery::linkMsgIdSeq(tok.msgId)),
          "udp transport: token deposited before dedup recorded it");
      sink_.deposit(pe, numPes_, std::move(tok));
    }
  }

  void onCumAck(int pe, const WireCumAck& ack) {
    if (ack.epoch != epoch_) {
      // An ack for a previous incarnation of this process: its seq
      // numbers refer to the dead stream and would wrongly retire the
      // renumbered fresh sends.
      staleAcks_.fetch_add(1);
      return;
    }
    acksRecv_.fetch_add(1);
    if (LinkOut* lk = linkOutIfExists(pe, ack.ackerPe)) {
      std::lock_guard<std::mutex> g(lk->m);
      lk->window.ack(ack.cum, ack.bitmap);
    }
  }

  TransportSink& sink_;
  FaultPlan plan_;
  const int numPes_;
  /// The PEs this process serves: [firstLocal_, firstLocal_ + numLocal_).
  const int firstLocal_;
  const int numLocal_;
  const bool ownsSockets_;   // in-process: bound here, closed by stop()
  const std::uint8_t epoch_;  // this process's incarnation
  WorkerLink* const link_;    // output commit for acks and flushes
  std::vector<LinkStat> links_;
  /// Per-link outboxes, [local src][dst] (lazily allocated; see linkOut),
  /// and a per-local-source count of non-empty ones so the worker-loop
  /// flush is one atomic load when nothing is pending.
  std::unique_ptr<std::atomic<LinkOut*>[]> outSlots_;
  std::unique_ptr<std::atomic<int>[]> dirty_;
  /// Receive side, [local dst][src], service thread only (+ primeRecv).
  std::vector<LinkIn> in_;
  std::vector<std::unique_ptr<AckState>> acks_;  // [local dst][src]; link_ only

  std::vector<int> fds_;                // [local PE]
  std::vector<std::uint16_t> ports_;    // [PE]
  std::vector<sockaddr_in> addrs_;      // [PE]
  int wakeFd_ = -1;  // stop() and new earliest deadlines -> service thread
  std::thread serviceThread_;
  std::atomic<bool> stop_{false};  // set by stop(), after the workers join

  std::mutex m_;  // guards heap_
  std::vector<TimerEv> heap_;  // min-heap on due (std::push_heap/pop_heap)

  std::atomic<std::uint64_t> txSeq_{0};
  std::atomic<std::int64_t> tokensSent_{0};
  std::atomic<std::int64_t> datagramsSent_{0};
  std::atomic<std::int64_t> bytesSent_{0};
  std::atomic<std::int64_t> datagramsRecv_{0};
  std::atomic<std::int64_t> bytesRecv_{0};
  std::atomic<std::int64_t> acksBuilt_{0};
  std::atomic<std::int64_t> acksSent_{0};
  std::atomic<std::int64_t> acksRecv_{0};
  std::atomic<std::int64_t> sendErrors_{0};
  std::atomic<std::int64_t> badDatagrams_{0};
  std::atomic<std::int64_t> staleEpoch_{0};
  std::atomic<std::int64_t> staleAcks_{0};
  std::atomic<std::int64_t> gatedFlushes_{0};
  std::atomic<std::int64_t> batchDgrams_{0};
  std::atomic<std::int64_t> batchTokens_{0};
  std::atomic<std::int64_t> flushFull_{0};
  std::atomic<std::int64_t> flushDrain_{0};
  std::atomic<std::int64_t> flushRetx_{0};
  std::atomic<std::int64_t> resent_{0};
  std::atomic<std::int64_t> giveUps_{0};
  std::atomic<std::int64_t> dupSuppressed_{0};
  std::atomic<std::int64_t> faultDrops_{0};
  std::atomic<std::int64_t> faultDups_{0};
  std::atomic<std::int64_t> faultDelays_{0};
};

}  // namespace

bool parseTransportKind(const std::string& name, TransportKind& out) {
  if (name == "inbox") {
    out = TransportKind::Inbox;
    return true;
  }
  if (name == "udp") {
    out = TransportKind::Udp;
    return true;
  }
  if (name == "udp-multiproc") {
    out = TransportKind::UdpMultiproc;
    return true;
  }
  return false;
}

const char* transportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::Udp: return "udp";
    case TransportKind::UdpMultiproc: return "udp-multiproc";
    case TransportKind::Inbox: break;
  }
  return "inbox";
}

void wireEncodeToken(const NToken& tok, std::uint16_t srcPe,
                     std::uint8_t out[kTokenWireBytes]) {
  out[0] = kRecordToken;
  // Flag byte: bit 0 = toCont, bit 1 = add, bits 2..4 = AmKind (0 for
  // ordinary tokens, so the non-array wire stays bit-identical), bits 5..7
  // reserved (decoder rejects them nonzero).
  out[1] = static_cast<std::uint8_t>((tok.toCont ? 1 : 0) | (tok.add ? 2 : 0) |
                                     ((tok.amKind & 0x7u) << 2));
  put16(out + 2, srcPe);
  put16(out + 4, tok.spCode);
  put16(out + 6, tok.slot);
  put64(out + 8, tok.ctx);
  put64(out + 16, tok.cont.pack());
  out[24] = static_cast<std::uint8_t>(tok.v.tag);
  put64(out + 25, tok.v.bits);
  put64(out + 33, tok.msgId);
  put64(out + 41, tok.senderCtx);
  put64(out + 49, tok.sendKey);
  put64(out + 57, tok.wakeKey);
}

bool wireDecodeToken(const std::uint8_t* data, std::size_t len, NToken& tok,
                     std::uint16_t* srcPe) {
  if (len != kTokenWireBytes || data[0] != kRecordToken) return false;
  if (data[1] & ~0x1Fu) return false;  // bits 5..7 reserved
  const std::uint8_t amKind = (data[1] >> 2) & 0x7u;
  if (amKind > kMaxWireAmKind) return false;  // AllocMeta is log-only
  if (data[24] > static_cast<std::uint8_t>(Tag::Cont)) return false;
  tok.toCont = (data[1] & 1) != 0;
  tok.add = (data[1] & 2) != 0;
  tok.amKind = amKind;
  if (srcPe) *srcPe = get16(data + 2);
  tok.spCode = get16(data + 4);
  tok.slot = get16(data + 6);
  tok.ctx = get64(data + 8);
  tok.cont = Cont::unpack(get64(data + 16));
  tok.v.tag = static_cast<Tag>(data[24]);
  tok.v.bits = get64(data + 25);
  tok.msgId = get64(data + 33);
  tok.senderCtx = get64(data + 41);
  tok.sendKey = get64(data + 49);
  tok.wakeKey = get64(data + 57);
  return true;
}

namespace {

std::size_t pageMaskBytes(std::size_t span) { return (span + 7) / 8; }

std::size_t pageRecordBytes(std::size_t span, std::size_t count) {
  return kPageRecordFixedBytes + pageMaskBytes(span) +
         count * kPageValueBytes;
}

void put32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
std::uint32_t get32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::size_t wireEncodePage(const NToken& tok, std::uint16_t srcPe,
                           std::uint8_t* out) {
  const PageRun& run = *tok.page;
  const std::size_t len = pageRecordBytes(run.span, run.count);
  out[0] = kRecordPage;
  out[1] = 0;
  put16(out + 2, srcPe);
  put16(out + 4, static_cast<std::uint16_t>(len));
  put16(out + 6, run.span);
  put16(out + 8, run.pageElems);
  put16(out + 10, run.count);
  put32(out + 12, static_cast<std::uint32_t>(tok.ctx));
  put32(out + 16, run.first);
  put64(out + 20, tok.msgId);
  // The mask words' little-endian bytes are the wire mask.
  std::uint8_t* mask = out + kPageRecordFixedBytes;
  std::memcpy(mask, run.mask.data(), pageMaskBytes(run.span));
  std::uint8_t* val = mask + pageMaskBytes(run.span);
  for (int k = 0; k < run.count; ++k, val += kPageValueBytes) {
    val[0] = static_cast<std::uint8_t>(run.vals[static_cast<std::size_t>(k)].tag);
    put64(val + 1, run.vals[static_cast<std::size_t>(k)].bits);
  }
  return len;
}

/// Decodes the page record at `data`, at most `avail` bytes; returns its
/// length, or 0 when it is malformed (see wireDecodeBatch).
std::size_t wireDecodePage(const std::uint8_t* data, std::size_t avail,
                           NToken& tok, std::uint16_t* srcPe) {
  if (avail < kPageRecordFixedBytes || data[0] != kRecordPage || data[1] != 0)
    return 0;
  const std::size_t len = get16(data + 4);
  const std::size_t span = get16(data + 6);
  const std::size_t pageElems = get16(data + 8);
  const std::size_t count = get16(data + 10);
  const std::uint32_t first = get32(data + 16);
  if (span < 1 || span > static_cast<std::size_t>(kPageRunMaxElems) ||
      pageElems < 1 || pageElems > static_cast<std::size_t>(kMaxPageElems) ||
      first % pageElems + span > pageElems ||
      first + span > static_cast<std::uint64_t>(kMaxArrayElems) ||
      count < 1 || count > span || len != pageRecordBytes(span, count) ||
      len > avail)
    return 0;
  // Bits past the span must be clear, and exactly `count` set.
  const std::uint8_t* mask = data + kPageRecordFixedBytes;
  if (span % 8 != 0 && (mask[span / 8] >> (span % 8)) != 0) return 0;
  auto run = std::make_shared<PageRun>();
  std::memcpy(run->mask.data(), mask, pageMaskBytes(span));
  std::size_t bits = 0;
  for (const std::uint64_t word : run->mask)
    bits += static_cast<std::size_t>(std::popcount(word));
  if (bits != count) return 0;
  const std::uint8_t* val = mask + pageMaskBytes(span);
  for (std::size_t k = 0; k < count; ++k, val += kPageValueBytes) {
    if (val[0] == static_cast<std::uint8_t>(Tag::Empty) ||
        val[0] > static_cast<std::uint8_t>(Tag::Cont))
      return 0;
    Value& v = run->vals[k];
    v.tag = static_cast<Tag>(val[0]);
    v.bits = get64(val + 1);
  }
  run->first = first;
  run->span = static_cast<std::uint16_t>(span);
  run->pageElems = static_cast<std::uint16_t>(pageElems);
  run->count = static_cast<std::uint16_t>(count);
  tok = NToken{};
  tok.amKind = static_cast<std::uint8_t>(AmKind::PageRun);
  tok.ctx = get32(data + 12);
  tok.msgId = get64(data + 20);
  tok.page = std::move(run);
  if (srcPe) *srcPe = get16(data + 2);
  return len;
}

}  // namespace

std::size_t wireRecordBytes(const NToken& tok) {
  if (tok.amKind != static_cast<std::uint8_t>(AmKind::PageRun))
    return kTokenWireBytes;
  PODS_CHECK_MSG(tok.page != nullptr, "a PageRun message carries no run");
  return pageRecordBytes(tok.page->span, tok.page->count);
}

std::size_t wireEncodeRecord(const NToken& tok, std::uint16_t srcPe,
                             std::uint8_t* out) {
  if (tok.amKind == static_cast<std::uint8_t>(AmKind::PageRun))
    return wireEncodePage(tok, srcPe, out);
  wireEncodeToken(tok, srcPe, out);
  return kTokenWireBytes;
}

std::size_t wireEncodeBatchHeader(std::uint8_t* out, std::uint16_t srcPe,
                                  int count, std::size_t recordBytes,
                                  std::uint8_t epoch) {
  PODS_CHECK_MSG(count >= 1 && count <= kBatchMaxRecords &&
                     recordBytes <= kBatchRecordBytes,
                 "wireEncodeBatchHeader: batch out of range");
  out[0] = kTypeBatch;
  put16(out + 1, srcPe);
  put16(out + 3, static_cast<std::uint16_t>(count));
  out[5] = epoch;
  return kBatchHeaderBytes + recordBytes;
}

bool wireDecodeBatch(const std::uint8_t* data, std::size_t len,
                     std::vector<NToken>& out, std::uint16_t* srcPe,
                     std::uint8_t* epoch) {
  out.clear();
  if (len < kBatchHeaderBytes || len > kBatchMaxBytes ||
      data[0] != kTypeBatch)
    return false;
  const std::uint16_t src = get16(data + 1);
  const int count = get16(data + 3);
  const std::uint8_t e = data[5];
  if (count < 1 || count > kBatchMaxRecords) return false;
  out.reserve(static_cast<std::size_t>(count));
  // Walk exactly `count` records, which must end exactly at the datagram's
  // end: a shorter datagram is truncated, a longer one carries junk.
  std::size_t at = kBatchHeaderBytes;
  for (int i = 0; i < count; ++i) {
    NToken tok;
    std::uint16_t recSrc = 0;
    std::size_t used = 0;
    if (at < len && data[at] == kRecordPage) {
      used = wireDecodePage(data + at, len - at, tok, &recSrc);
    } else if (len - at >= kTokenWireBytes &&
               wireDecodeToken(data + at, kTokenWireBytes, tok, &recSrc)) {
      used = kTokenWireBytes;
    }
    if (used == 0 || recSrc != src) {
      out.clear();  // all-or-nothing: one bad record rejects the datagram
      return false;
    }
    tok.epoch = e;
    out.push_back(std::move(tok));
    at += used;
  }
  if (at != len) {
    out.clear();
    return false;
  }
  if (srcPe) *srcPe = src;
  if (epoch) *epoch = e;
  return true;
}

void wireEncodeCumAck(const WireCumAck& ack,
                      std::uint8_t out[kCumAckWireBytes]) {
  out[0] = kTypeCumAck;
  put16(out + 1, ack.ackerPe);
  put64(out + 3, ack.cum);
  put64(out + 11, ack.bitmap);
  out[19] = ack.epoch;
}

bool wireDecodeCumAck(const std::uint8_t* data, std::size_t len,
                      WireCumAck& ack) {
  if (len != kCumAckWireBytes || data[0] != kTypeCumAck) return false;
  ack.ackerPe = get16(data + 1);
  ack.cum = get64(data + 3);
  ack.bitmap = get64(data + 11);
  ack.epoch = data[19];
  return true;
}

bool bindLoopbackUdp(int n, std::vector<int>& fds,
                     std::vector<std::uint16_t>& ports, std::string* err) {
  fds.clear();
  ports.clear();
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;  // ephemeral: the bind picks the port
    socklen_t len = sizeof sa;
    const char* failed = nullptr;
    if (fd < 0)
      failed = "socket()";
    else if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0)
      failed = "bind()";
    else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0)
      failed = "getsockname()";
    if (failed != nullptr) {
      if (err) *err = std::string(failed) + ": " + std::strerror(errno);
      if (fd >= 0) ::close(fd);
      for (const int f : fds) ::close(f);
      fds.clear();
      ports.clear();
      return false;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(sa.sin_port));
  }
  return true;
}

std::unique_ptr<Transport> makeTransport(TransportKind kind,
                                         TransportSink& sink,
                                         const FaultPlan& plan, int numPes,
                                         const UdpWorkerEndpoint* worker) {
  switch (kind) {
    case TransportKind::Inbox:
      return std::make_unique<InboxTransport>(sink, plan, numPes);
    case TransportKind::Udp:
      return std::make_unique<UdpTransport>(sink, plan, numPes, nullptr);
    case TransportKind::UdpMultiproc:
      break;
  }
  PODS_CHECK_MSG(worker != nullptr && worker->pe >= 0 &&
                     worker->pe < numPes &&
                     static_cast<int>(worker->peerPorts.size()) == numPes,
                 "udp-multiproc: needs a worker endpoint with one port per PE");
  return std::make_unique<UdpTransport>(sink, plan, numPes, worker);
}

}  // namespace pods::native
