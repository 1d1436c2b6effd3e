// Supervisor + worker-process driver for `--transport=udp-multiproc`.
// See procmgr.hpp for the architecture overview. Mechanics worth naming:
//
//  * fork + exec (via /proc/self/exe), not bare fork: a worker is a fresh
//    process image speaking a versioned protocol, so the Hello/Boot
//    magic+version+config-hash handshake actually guards against a stale or
//    mismatched binary — and a respawned worker starts from clean memory,
//    which is the whole point of kill recovery.
//  * The supervisor binds every PE's UDP data socket itself and each child
//    inherits ITS OWN socket as fd 4 (ctl socketpair as fd 3). The
//    supervisor keeps its copies open for the whole run, so a SIGKILL'd
//    worker's port — and any datagrams buffered in its kernel rcvbuf —
//    survive to the respawned incarnation.
//  * Pessimistic logging: workers stream every receive/mint record over the
//    ctl channel (Log frames) and the supervisor acknowledges stability
//    (LogAck). The worker's output commit (acks to peers, outbound batches)
//    is gated on those watermarks, so anything the supervisor never saw is
//    guaranteed to have had no external effect — losing the unstable suffix
//    of a killed worker's log is safe by construction.
//  * Termination: Dijkstra–Safra-style counting over Status snapshots (two
//    consecutive identical all-quiet rounds), decided by the supervisor
//    because no single worker process can see the global ledger.
#include "native/procmgr.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "proto/ctl.hpp"
#include "support/check.hpp"

namespace pods::native::procmgr {
namespace {

namespace ctl = pods::proto::ctl;
using Clock = std::chrono::steady_clock;

// Well-known fds in the worker process (set up between fork and exec; the
// cell store's is kWorkerStoreFd in procmgr.hpp).
constexpr int kWorkerCtlFd = 3;
constexpr int kWorkerSockFd = 4;
// A PE that keeps dying (crash-looping binary, repeated external kills) is
// respawned at most this many times before the run fails structurally.
constexpr int kMaxRespawnsPerPe = 8;
constexpr int kPollPeriodMs = 2;

bool sendAll(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

std::uint64_t readLe64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker's half of the ctl channel log stream. Worker/transport threads
/// append; the ctl thread ships and advances the stable watermark.
class WorkerLinkImpl : public WorkerLink {
 public:
  /// `streamBase`: number of records already in the supervisor's copy of
  /// this PE's stream (the resume log length) — a respawned incarnation
  /// EXTENDS the stream, it does not restart numbering.
  explicit WorkerLinkImpl(std::uint64_t streamBase)
      : appendedCount_(streamBase), shippedCount_(streamBase) {
    appended_.store(streamBase);
    stable_.store(streamBase);
  }

  std::uint64_t logEntry(const RecEntry& e) override {
    ctl::LogRec r;
    r.kind = static_cast<std::uint8_t>(e.kind);
    r.entry = e;
    return append(std::move(r));
  }
  std::uint64_t logMint(std::uint64_t ctx, std::uint32_t seq, const Value& v,
                        std::uint64_t ctxCounter) override {
    ctl::LogRec r;
    r.kind = ctl::LogRec::kMint;
    r.mintCtx = ctx;
    r.mintSeq = seq;
    r.mintV = v;
    r.ctxCounter = ctxCounter;
    return append(std::move(r));
  }
  std::uint64_t logResult(std::uint32_t slot, const Value& v) override {
    ctl::LogRec r;
    r.kind = ctl::LogRec::kResult;
    r.mintSeq = slot;
    r.mintV = v;
    return append(std::move(r));
  }
  std::uint64_t logAppended() const override { return appended_.load(); }
  std::uint64_t logStable() const override { return stable_.load(); }
  bool waitStart() override {
    std::unique_lock<std::mutex> g(m_);
    cv_.wait(g, [&] { return started_ || aborted_; });
    return started_;
  }

  // Ctl-thread side.
  void noteStable(std::uint64_t upTo) {
    std::uint64_t cur = stable_.load();
    while (upTo > cur && !stable_.compare_exchange_weak(cur, upTo)) {
    }
  }
  bool takePending(std::uint64_t* firstSeq, std::vector<ctl::LogRec>* out) {
    std::lock_guard<std::mutex> g(m_);
    if (pending_.empty()) return false;
    *firstSeq = shippedCount_;
    out->clear();
    out->swap(pending_);
    shippedCount_ += out->size();
    return true;
  }
  void start() {
    std::lock_guard<std::mutex> g(m_);
    started_ = true;
    cv_.notify_all();
  }
  void abort() {
    std::lock_guard<std::mutex> g(m_);
    aborted_ = true;
    cv_.notify_all();
  }

 private:
  std::uint64_t append(ctl::LogRec r) {
    std::lock_guard<std::mutex> g(m_);
    pending_.push_back(std::move(r));
    const std::uint64_t seq = ++appendedCount_;
    appended_.store(seq);
    return seq;
  }

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<ctl::LogRec> pending_;
  std::uint64_t appendedCount_ = 0;  // 1-based seq of the last append
  std::uint64_t shippedCount_ = 0;   // 0-based index of the next unshipped rec
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> stable_{0};
  bool started_ = false;
  bool aborted_ = false;
};

void workerSendFrame(int fd, ctl::FrameTag tag,
                     const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire;
  ctl::encodeFrame(tag, payload, wire);
  if (!sendAll(fd, wire.data(), wire.size())) _exit(104);  // supervisor gone
}

/// Blocking read of the next frame. False on EOF/error/poisoned stream.
bool workerReadFrame(int fd, ctl::FrameReader& reader, ctl::Frame& f) {
  bool bad = false;
  while (true) {
    if (reader.next(f, &bad)) return true;
    if (bad) return false;
    std::uint8_t buf[65536];
    const ssize_t k = ::recv(fd, buf, sizeof buf, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    reader.feed(buf, static_cast<std::size_t>(k));
  }
}

[[noreturn]] void workerFail(int fd, std::uint32_t code, const std::string& t) {
  ctl::ErrorMsg em;
  em.code = code;
  em.text = t;
  std::vector<std::uint8_t> payload;
  ctl::encodeError(em, payload);
  workerSendFrame(fd, ctl::FrameTag::Error, payload);
  _exit(103);
}

[[noreturn]] void runWorker(int ctlFd, int sockFd) {
  ctl::FrameReader reader;  // shared with the ctl loop: bytes buffered past
                            // the handshake frames (e.g. an early Start)
                            // must not be lost
  ctl::Frame f;

  // 1. Version handshake. A worker exec'd from a different binary (or a
  // protocol bump) fails fast here instead of decoding garbage.
  if (!workerReadFrame(ctlFd, reader, f) || f.tag != ctl::FrameTag::Hello)
    _exit(103);
  ctl::HelloMsg hello;
  if (!ctl::decodeHello(f.payload.data(), f.payload.size(), hello) ||
      hello.magic != ctl::kMagic || hello.version != ctl::kVersion) {
    workerFail(ctlFd, 1, "ctl version handshake mismatch");
  }
  {
    std::vector<std::uint8_t> payload;
    ctl::encodeHello(hello, payload);
    workerSendFrame(ctlFd, ctl::FrameTag::HelloAck, payload);
  }

  // 2. Boot: config hash + program + config (+ resume log).
  if (!workerReadFrame(ctlFd, reader, f) || f.tag != ctl::FrameTag::Boot)
    _exit(103);
  ctl::BootMsg boot;
  std::uint64_t wantHash = 0, gotHash = 0;
  if (!ctl::decodeBoot(f.payload.data(), f.payload.size(), boot, &wantHash,
                       &gotHash)) {
    workerFail(ctlFd, 2,
               "boot decode failed (config hash want=" +
                   std::to_string(wantHash) +
                   " got=" + std::to_string(gotHash) + ")");
  }

  NativeConfig cfg;
  cfg.numWorkers = boot.numPes;
  cfg.pageElems = static_cast<int>(boot.pageElems);
  cfg.sliceInstructions = static_cast<int>(boot.sliceInstructions);
  cfg.peWeights = boot.peWeights;
  // The supervisor performs kills (as real SIGKILLs) and the multiproc
  // transport injects no dice — a worker only keeps the shared retransmit
  // policy. Copying killPe would make the worker think IT is the in-process
  // kill driver.
  cfg.faults = FaultConfig{};
  cfg.faults.retry = boot.faults.retry;
  cfg.transport = TransportKind::UdpMultiproc;
  cfg.store = boot.store == 1 ? StoreKind::Wire : StoreKind::Local;
  cfg.localPe = boot.localPe;
  cfg.epoch = boot.epoch;
  cfg.resume = boot.resume != 0;
  cfg.sockFd = sockFd;
  cfg.peerPorts = boot.peerPorts;
  cfg.heartbeatPeriodMs = boot.heartbeatPeriodMs;
  cfg.heartbeatTimeoutMs = boot.heartbeatTimeoutMs;

  // Materialize the shipped stream into the machine's RecoveryLog shape:
  // RecEntry kinds stay an ordered vector, mints go to the (ctx, seq) map.
  const std::uint64_t streamBase = boot.log.size();
  for (const ctl::LogRec& r : boot.log) {
    if (r.kind == ctl::LogRec::kMint) {
      cfg.resumeLog.recordMint(r.mintCtx, r.mintSeq, r.mintV);
    } else if (r.kind == ctl::LogRec::kResult) {
      cfg.resumeResults.emplace_back(r.mintSeq, r.mintV);
    } else {
      cfg.resumeLog.entries.push_back(r.entry);
    }
    if (r.ctxCounter > cfg.resumeLog.ctxCounter)
      cfg.resumeLog.ctxCounter = r.ctxCounter;
  }

  WorkerLinkImpl link(streamBase);
  cfg.link = &link;
  NativeMachine machine(boot.program, cfg);

  {
    std::vector<std::uint8_t> payload;
    ctl::encodeU64(gotHash, payload);
    workerSendFrame(ctlFd, ctl::FrameTag::BootAck, payload);
  }

  // Hung-PE test hook: "pe@ms" freezes the ctl thread (heartbeats, Status
  // replies, log shipping — everything) in epoch 0 of the named PE after ms
  // milliseconds. The process stays alive, so only the supervisor's
  // heartbeat timeout can recover the run.
  long stopBeatMs = -1;
  if (const char* s = std::getenv("PODS_TEST_STOP_HEARTBEAT")) {
    int spe = -1;
    long ms = -1;
    if (std::sscanf(s, "%d@%ld", &spe, &ms) == 2 && spe == cfg.localPe &&
        boot.epoch == 0) {
      stopBeatMs = ms;
    }
  }

  std::atomic<bool> resultReady{false};
  std::atomic<bool> done{false};
  ctl::ResultMsg result;

  // The ctl thread owns ALL writes to the channel after the handshake (so
  // frames never interleave): heartbeats, the log stream, Status replies,
  // and the final Result.
  std::thread ctlThread([&] {
    const auto tStart = Clock::now();
    auto nextBeat = tStart;
    bool beatFrozen = false;
    while (!done.load()) {
      if (stopBeatMs >= 0 && !beatFrozen &&
          Clock::now() - tStart >= std::chrono::milliseconds(stopBeatMs)) {
        beatFrozen = true;
      }
      if (beatFrozen) {
        // Simulated hang: no heartbeats, no Status, no log shipping, no
        // reads — indistinguishable from a wedged process until SIGKILL.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      struct pollfd pf {};
      pf.fd = ctlFd;
      pf.events = POLLIN;
      ::poll(&pf, 1, 2);
      if ((pf.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        std::uint8_t buf[65536];
        while (true) {
          const ssize_t k = ::recv(ctlFd, buf, sizeof buf, MSG_DONTWAIT);
          if (k > 0) {
            reader.feed(buf, static_cast<std::size_t>(k));
            if (static_cast<std::size_t>(k) < sizeof buf) break;
            continue;
          }
          if (k == 0) _exit(104);  // supervisor died; orphaned worker exits
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          _exit(104);
        }
        ctl::Frame in;
        bool bad = false;
        while (reader.next(in, &bad)) {
          switch (in.tag) {
            case ctl::FrameTag::Start:
              link.start();
              break;
            case ctl::FrameTag::LogAck: {
              std::uint64_t upTo = 0;
              if (ctl::decodeU64(in.payload.data(), in.payload.size(), upTo)) {
                link.noteStable(upTo);
                machine.noteLogStable(upTo);
              }
              break;
            }
            case ctl::FrameTag::Poll: {
              std::uint64_t seq = 0;
              if (!ctl::decodeU64(in.payload.data(), in.payload.size(), seq))
                break;
              const WorkerStatus ws = machine.workerStatus();
              ctl::StatusMsg sm;
              sm.statusSeq = seq;
              sm.idle = ws.idle ? 1 : 0;
              sm.pending = ws.pending;
              sm.inboxTokens = ws.inboxTokens;
              sm.outstanding = ws.outstanding;
              sm.logAppended = ws.logAppended;
              sm.activity = ws.activity;
              std::vector<std::uint8_t> payload;
              ctl::encodeStatus(sm, payload);
              workerSendFrame(ctlFd, ctl::FrameTag::Status, payload);
              break;
            }
            case ctl::FrameTag::End:
              // Global quiescence: the supervisor ends the run (worker-mode
              // finishPending never does).
              machine.requestStop();
              break;
            case ctl::FrameTag::Error:
              link.abort();
              machine.requestStop();
              break;
            default:
              break;  // unexpected tags are the supervisor's bug; ignore
          }
        }
        if (bad) _exit(103);
      }

      // Ship buffered log records (pessimistic logging). Every append since
      // the last pass goes out in one Log frame.
      std::uint64_t firstSeq = 0;
      std::vector<ctl::LogRec> recs;
      while (link.takePending(&firstSeq, &recs)) {
        ctl::LogMsg lm;
        lm.firstSeq = firstSeq;
        lm.recs = std::move(recs);
        std::vector<std::uint8_t> payload;
        ctl::encodeLog(lm, payload);
        workerSendFrame(ctlFd, ctl::FrameTag::Log, payload);
      }

      const auto now = Clock::now();
      if (now >= nextBeat) {
        workerSendFrame(ctlFd, ctl::FrameTag::Heartbeat, {});
        nextBeat = now + std::chrono::milliseconds(cfg.heartbeatPeriodMs);
      }

      if (resultReady.load()) {
        // run() has returned: no more appends can happen, so after one last
        // takePending pass the stream is complete — then the Result frame
        // commits it.
        while (link.takePending(&firstSeq, &recs)) {
          ctl::LogMsg lm;
          lm.firstSeq = firstSeq;
          lm.recs = std::move(recs);
          std::vector<std::uint8_t> payload;
          ctl::encodeLog(lm, payload);
          workerSendFrame(ctlFd, ctl::FrameTag::Log, payload);
        }
        std::vector<std::uint8_t> payload;
        ctl::encodeResult(result, payload);
        workerSendFrame(ctlFd, ctl::FrameTag::Result, payload);
        done.store(true);
      }
    }
  });

  NativeResult res = machine.run();

  result.ok = res.ok;
  result.error = res.error;
  result.results = res.results;
  result.resultSet = res.resultsSet;
  // Wire store: this PE's slice of the array plane rides the Result frame —
  // owned elements plus the allocator's shape records — so the supervisor
  // can rebuild the global arrays without any cell store.
  for (const WireArrayPart& p : machine.wireArrayParts()) {
    ctl::ResultMsg::OwnedArray a;
    a.id = p.id;
    a.hasMeta = p.hasMeta ? 1 : 0;
    a.rank = static_cast<std::uint8_t>(p.shape.rank);
    a.dim0 = p.shape.dim0;
    a.dim1 = p.shape.dim1;
    a.elems = p.elems;
    result.arrays.push_back(std::move(a));
  }
  for (const auto& [k, v] : res.counters.all()) result.counters.emplace_back(k, v);
  if (static_cast<std::size_t>(cfg.localPe) < res.perWorker.size()) {
    for (const auto& [k, v] :
         res.perWorker[static_cast<std::size_t>(cfg.localPe)].all()) {
      result.workerCounters.emplace_back(k, v);
    }
  }
  resultReady.store(true);
  ctlThread.join();
  _exit(0);
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

class Supervisor {
 public:
  Supervisor(const SpProgram& prog, const NativeConfig& cfg,
             ShmStorePtr& cellsOut,
             std::unordered_map<ArrayId, NativeArray>& wireOut)
      : prog_(prog), cfg_(cfg), cellsOut_(cellsOut), wireOut_(wireOut) {}

  NativeResult run();

 private:
  struct Child {
    int pe = 0;
    pid_t pid = -1;
    int fd = -1;  // supervisor end of the ctl socketpair (nonblocking)
    bool fdOpen = false;
    std::uint8_t epoch = 0;
    enum class St : std::uint8_t { Hello, Boot, Running } st = St::Hello;
    bool startSent = false;
    bool resulted = false;
    bool exited = false;
    bool killSent = false;  // heartbeat-timeout SIGKILL already fired
    std::uint64_t bootHash = 0;
    Clock::time_point lastBeat{};
    ctl::FrameReader reader;
    std::vector<std::uint8_t> outbuf;
    ctl::ResultMsg result;
    ctl::StatusMsg status;     // latest Status reply
    bool respawnPending = false;
    Clock::time_point respawnAt{};
    int respawns = 0;
  };

  bool spawnChild(int pe, std::uint8_t epoch);
  void queueFrame(Child& c, ctl::FrameTag tag,
                  const std::vector<std::uint8_t>& payload);
  void flushOut(Child& c);
  void drainRead(Child& c);
  void onFrame(Child& c, const ctl::Frame& f);
  void onChildExit(Child& c);
  void maybeStartBroadcast();
  void runTerminationRound();
  void resetRounds() {
    havePrevRound_ = false;
    awaitingRound_ = false;
  }
  void failRun(const std::string& msg);
  void badFrame(Child& c, const std::string& what);
  ctl::BootMsg makeBoot(int pe, std::uint8_t epoch) const;

  const SpProgram& prog_;
  const NativeConfig& cfg_;
  ShmStorePtr& cellsOut_;
  std::unordered_map<ArrayId, NativeArray>& wireOut_;

  std::string exePath_;
  std::vector<int> sockFds_;            // supervisor copies of the data fds
  std::vector<std::uint16_t> ports_;    // host byte order
  std::vector<Child> children_;
  std::vector<std::vector<ctl::LogRec>> logs_;  // the stable storage

  bool failed_ = false;
  std::string error_;
  bool startBroadcast_ = false;
  Clock::time_point runStart_{};
  bool killFired_ = false;
  bool endSent_ = false;

  // Termination protocol state.
  std::uint64_t pollSeq_ = 0;
  bool awaitingRound_ = false;
  Clock::time_point nextPollAt_{};
  bool havePrevRound_ = false;
  std::uint64_t prevActivity_ = 0;
  std::int64_t prevPending_ = 0;

  // Counters.
  std::int64_t ctlFrames_ = 0;
  std::int64_t ctlBadFrames_ = 0;
  std::int64_t respawnsTotal_ = 0;
  std::int64_t heartbeatTimeouts_ = 0;
};

ctl::BootMsg Supervisor::makeBoot(int pe, std::uint8_t epoch) const {
  ctl::BootMsg m;
  m.numPes = static_cast<std::uint16_t>(cfg_.numWorkers);
  m.localPe = static_cast<std::uint16_t>(pe);
  m.epoch = epoch;
  m.resume = epoch > 0 ? 1 : 0;
  m.pageElems = static_cast<std::uint32_t>(cfg_.pageElems);
  m.sliceInstructions = static_cast<std::uint32_t>(cfg_.sliceInstructions);
  m.heartbeatPeriodMs = cfg_.heartbeatPeriodMs;
  m.heartbeatTimeoutMs = cfg_.heartbeatTimeoutMs;
  m.store = cfg_.store == StoreKind::Wire ? 1 : 0;
  m.peerPorts = ports_;
  m.peWeights = cfg_.peWeights;
  m.faults = cfg_.faults;
  m.program = prog_;
  if (epoch > 0) m.log = logs_[static_cast<std::size_t>(pe)];
  return m;
}

void Supervisor::queueFrame(Child& c, ctl::FrameTag tag,
                            const std::vector<std::uint8_t>& payload) {
  if (!c.fdOpen) return;
  ctl::encodeFrame(tag, payload, c.outbuf);
  flushOut(c);
}

void Supervisor::flushOut(Child& c) {
  while (c.fdOpen && !c.outbuf.empty()) {
    const ssize_t k =
        ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
    if (k > 0) {
      c.outbuf.erase(c.outbuf.begin(), c.outbuf.begin() + k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // EPIPE etc: the child died; waitpid handles it. Drop the buffer so we
    // stop polling for POLLOUT.
    c.outbuf.clear();
    return;
  }
}

bool Supervisor::spawnChild(int pe, std::uint8_t epoch) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    failRun(std::string("socketpair failed: ") + std::strerror(errno));
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    failRun(std::string("fork failed: ") + std::strerror(errno));
    return false;
  }
  if (pid == 0) {
    // Child. Everything the supervisor owns is CLOEXEC; re-home exactly the
    // fds this worker needs at well-known numbers (F_DUPFD clears
    // close-on-exec on the duplicate) and exec a fresh image of ourselves.
    const int ctlDup = ::fcntl(sv[1], F_DUPFD, 16);
    const int sockDup =
        ::fcntl(sockFds_[static_cast<std::size_t>(pe)], F_DUPFD, 16);
    const int cellsDup =
        cellsOut_ != nullptr ? ::fcntl(cellsOut_->fd(), F_DUPFD, 16) : 0;
    if (ctlDup < 0 || sockDup < 0 || cellsDup < 0 ||
        ::dup2(ctlDup, kWorkerCtlFd) < 0 ||
        ::dup2(sockDup, kWorkerSockFd) < 0 ||
        (cellsOut_ != nullptr && ::dup2(cellsDup, kWorkerStoreFd) < 0)) {
      _exit(105);
    }
    char arg[32];
    std::snprintf(arg, sizeof arg, "--pods-worker=%d,%d", kWorkerCtlFd,
                  kWorkerSockFd);
    char* argv[3];
    argv[0] = const_cast<char*>(exePath_.c_str());
    argv[1] = arg;
    argv[2] = nullptr;
    ::execv(exePath_.c_str(), argv);
    _exit(105);
  }
  // Parent.
  ::close(sv[1]);
  const int fl = ::fcntl(sv[0], F_GETFL);
  ::fcntl(sv[0], F_SETFL, fl | O_NONBLOCK);
  Child& c = children_[static_cast<std::size_t>(pe)];
  const int keptRespawns = c.respawns;
  if (c.fdOpen) ::close(c.fd);
  c = Child{};
  c.pe = pe;
  c.pid = pid;
  c.fd = sv[0];
  c.fdOpen = true;
  c.epoch = epoch;
  c.respawns = keptRespawns;
  c.lastBeat = Clock::now();
  if (const char* pidfile = std::getenv("PODS_TEST_PIDFILE")) {
    if (std::FILE* fp = std::fopen(pidfile, "a")) {
      std::fprintf(fp, "%d %d %u\n", pe, static_cast<int>(pid),
                   static_cast<unsigned>(epoch));
      std::fclose(fp);
    }
  }
  std::vector<std::uint8_t> payload;
  ctl::encodeHello(ctl::HelloMsg{}, payload);
  queueFrame(c, ctl::FrameTag::Hello, payload);
  return true;
}

void Supervisor::failRun(const std::string& msg) {
  if (failed_) return;
  failed_ = true;
  error_ = msg;
}

void Supervisor::badFrame(Child& c, const std::string& what) {
  ++ctlBadFrames_;
  failRun("ctl protocol violation from worker PE " + std::to_string(c.pe) +
          ": " + what);
}

void Supervisor::onFrame(Child& c, const ctl::Frame& f) {
  ++ctlFrames_;
  switch (c.st) {
    case Child::St::Hello: {
      if (f.tag != ctl::FrameTag::HelloAck)
        return badFrame(c, "expected HelloAck");
      ctl::HelloMsg m;
      if (!ctl::decodeHello(f.payload.data(), f.payload.size(), m) ||
          m.magic != ctl::kMagic || m.version != ctl::kVersion) {
        return badFrame(c, "version handshake mismatch");
      }
      const ctl::BootMsg bm = makeBoot(c.pe, c.epoch);
      std::vector<std::uint8_t> payload;
      ctl::encodeBoot(bm, payload);
      c.bootHash = readLe64(payload.data());  // leading config-hash field
      queueFrame(c, ctl::FrameTag::Boot, payload);
      c.st = Child::St::Boot;
      return;
    }
    case Child::St::Boot: {
      if (f.tag != ctl::FrameTag::BootAck)
        return badFrame(c, "expected BootAck");
      std::uint64_t hash = 0;
      if (!ctl::decodeU64(f.payload.data(), f.payload.size(), hash) ||
          hash != c.bootHash) {
        return badFrame(c, "config hash mismatch");
      }
      c.st = Child::St::Running;
      c.lastBeat = Clock::now();
      if (c.epoch > 0 && startBroadcast_) {
        // Respawn: the rest of the fleet is already running — release this
        // worker immediately (its replay happens before waitStart returns).
        queueFrame(c, ctl::FrameTag::Start, {});
        c.startSent = true;
        if (endSent_) {
          // It died after the End broadcast: its log (including Result
          // records) is complete, so the replayed incarnation just needs
          // the End it missed to report and exit.
          queueFrame(c, ctl::FrameTag::End, {});
        }
      } else {
        maybeStartBroadcast();
      }
      return;
    }
    case Child::St::Running:
      break;
  }
  switch (f.tag) {
    case ctl::FrameTag::Log: {
      ctl::LogMsg m;
      if (!ctl::decodeLog(f.payload.data(), f.payload.size(), m))
        return badFrame(c, "malformed Log");
      auto& log = logs_[static_cast<std::size_t>(c.pe)];
      if (m.firstSeq != log.size())
        return badFrame(c, "Log stream discontinuity");
      for (auto& r : m.recs) log.push_back(std::move(r));
      std::vector<std::uint8_t> payload;
      ctl::encodeU64(log.size(), payload);
      queueFrame(c, ctl::FrameTag::LogAck, payload);
      return;
    }
    case ctl::FrameTag::Heartbeat:
      c.lastBeat = Clock::now();
      return;
    case ctl::FrameTag::Status: {
      ctl::StatusMsg m;
      if (!ctl::decodeStatus(f.payload.data(), f.payload.size(), m))
        return badFrame(c, "malformed Status");
      c.status = m;
      return;
    }
    case ctl::FrameTag::Result: {
      ctl::ResultMsg m;
      if (!ctl::decodeResult(f.payload.data(), f.payload.size(), m))
        return badFrame(c, "malformed Result");
      c.result = std::move(m);
      c.resulted = true;
      if (!c.result.ok) {
        failRun("worker PE " + std::to_string(c.pe) + ": " +
                (c.result.error.empty() ? "unknown error" : c.result.error));
      }
      return;
    }
    case ctl::FrameTag::Error: {
      ctl::ErrorMsg m;
      if (!ctl::decodeError(f.payload.data(), f.payload.size(), m))
        return badFrame(c, "malformed Error");
      ++ctlBadFrames_;  // handshake failures land here (version/hash skew)
      failRun("worker PE " + std::to_string(c.pe) + " error " +
              std::to_string(m.code) + ": " + m.text);
      return;
    }
    default:
      return badFrame(c, "unexpected frame tag");
  }
}

void Supervisor::drainRead(Child& c) {
  std::uint8_t buf[65536];
  while (c.fdOpen) {
    const ssize_t k = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (k > 0) {
      c.reader.feed(buf, static_cast<std::size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error: stop polling this fd. Process death is detected and
    // handled by waitpid, never here — buffered frames were already fed.
    ::close(c.fd);
    c.fdOpen = false;
    break;
  }
  ctl::Frame f;
  bool bad = false;
  while (c.reader.next(f, &bad)) {
    onFrame(c, f);
    if (failed_) return;
  }
  if (bad) badFrame(c, "unparseable frame stream");
}

void Supervisor::maybeStartBroadcast() {
  if (startBroadcast_) return;
  for (const Child& c : children_) {
    if (c.st != Child::St::Running) return;
  }
  for (Child& c : children_) {
    queueFrame(c, ctl::FrameTag::Start, {});
    c.startSent = true;
  }
  startBroadcast_ = true;
  runStart_ = Clock::now();
  nextPollAt_ = runStart_ + std::chrono::milliseconds(kPollPeriodMs);
}

void Supervisor::onChildExit(Child& c) {
  c.pid = -1;
  if (c.fdOpen) {
    // Feed any final buffered frames (Result may have raced the exit).
    drainRead(c);
    if (c.fdOpen) {
      ::close(c.fd);
      c.fdOpen = false;
    }
  }
  if (endSent_ && c.resulted) {
    c.exited = true;  // clean exit after Result: the expected end of life
    return;
  }
  if (failed_) {
    c.exited = true;
    return;
  }
  // Unexpected death — including the narrow window between the End
  // broadcast and this worker's Result frame: RESULT stores are in the
  // recovery log, so even a worker whose every frame retired can replay
  // and re-report. (Boot at epoch>0 re-sends the End it missed.)
  // Causes: a planned --faults kill, an external `kill -9`, our
  // own heartbeat-timeout SIGKILL, or a crash. Respawn from the log.
  ++c.respawns;
  ++respawnsTotal_;
  if (c.respawns > kMaxRespawnsPerPe) {
    failRun("worker PE " + std::to_string(c.pe) + " died " +
            std::to_string(c.respawns) + " times; giving up");
    return;
  }
  c.respawnPending = true;
  c.respawnAt =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(
                             cfg_.faults.killRestartUs));
  resetRounds();  // a round spanning a dead PE proves nothing
}

void Supervisor::runTerminationRound() {
  // Rounds only make sense over a complete, running fleet.
  if (!startBroadcast_ || endSent_) return;
  for (const Child& c : children_) {
    if (c.pid < 0 || c.respawnPending || c.st != Child::St::Running ||
        !c.startSent) {
      return;
    }
  }
  const auto now = Clock::now();
  if (!awaitingRound_) {
    if (now < nextPollAt_) return;
    ++pollSeq_;
    std::vector<std::uint8_t> payload;
    ctl::encodeU64(pollSeq_, payload);
    for (Child& c : children_) queueFrame(c, ctl::FrameTag::Poll, payload);
    awaitingRound_ = true;
    return;
  }
  for (const Child& c : children_) {
    if (c.status.statusSeq != pollSeq_) return;  // round incomplete
  }
  awaitingRound_ = false;
  nextPollAt_ = now + std::chrono::milliseconds(kPollPeriodMs);

  bool quiet = true;
  std::int64_t pending = 0, inbox = 0, outstanding = 0;
  std::uint64_t activity = 0;
  for (const Child& c : children_) {
    if (c.status.idle == 0) quiet = false;
    if (c.status.logAppended != logs_[static_cast<std::size_t>(c.pe)].size())
      quiet = false;  // log records still in flight toward stable storage
    pending += c.status.pending;
    inbox += c.status.inboxTokens;
    outstanding += c.status.outstanding;
    activity += c.status.activity;
  }
  if (inbox != 0 || outstanding != 0) quiet = false;
  if (!quiet) {
    havePrevRound_ = false;
    return;
  }
  if (havePrevRound_ && prevActivity_ == activity && prevPending_ == pending) {
    // Two identical all-quiet rounds: nothing moved anywhere between the
    // collections, so the global state is frozen — exactly the in-process
    // double-collect, lifted to processes.
    if (pending == 0) {
      for (Child& c : children_) queueFrame(c, ctl::FrameTag::End, {});
      endSent_ = true;
    } else {
      std::string detail;
      for (const Child& c : children_) {
        if (c.status.pending != 0) {
          if (!detail.empty()) detail += ", ";
          detail +=
              "PE" + std::to_string(c.pe) + "=" +
              std::to_string(c.status.pending);
        }
      }
      failRun("deadlock: " + std::to_string(pending) +
              " live SPs blocked forever (" + detail + ")");
    }
    return;
  }
  havePrevRound_ = true;
  prevActivity_ = activity;
  prevPending_ = pending;
}

NativeResult Supervisor::run() {
  const auto t0 = Clock::now();
  NativeResult out;
  const int n = cfg_.numWorkers;
  if (cfg_.faults.killEnabled() && cfg_.faults.killPe >= n) {
    out.ok = false;
    out.error = "kill fault targets worker " +
                std::to_string(cfg_.faults.killPe) + " but only " +
                std::to_string(n) + " workers exist";
    return out;
  }

  // The cell store (paper: structure memory separate from the PEs): an
  // unnamed memfd every worker inherits, so nothing outlives the run. Wire
  // store: none at all — arrays ride the token wire and come back in
  // Result frames.
  if (cfg_.store == StoreKind::Local) {
    std::string serr;
    cellsOut_ = ShmStore::createShared(n, &serr);
    if (cellsOut_ == nullptr) {
      out.ok = false;
      out.error = "cell store create failed: " + serr;
      return out;
    }
  }

  char exe[4096];
  const ssize_t el = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (el <= 0) {
    out.ok = false;
    out.error = "readlink(/proc/self/exe) failed";
    return out;
  }
  exePath_.assign(exe, static_cast<std::size_t>(el));

  // Bind every PE's data socket up front. Workers inherit their own fd; the
  // supervisor's copies pin ports (and kernel-buffered datagrams) across
  // worker deaths.
  std::string sockErr;
  if (!bindLoopbackUdp(n, sockFds_, ports_, &sockErr)) {
    out.ok = false;
    out.error = "udp socket setup failed: " + sockErr;
    return out;
  }

  children_.resize(static_cast<std::size_t>(n));
  logs_.assign(static_cast<std::size_t>(n), {});
  for (int pe = 0; pe < n && !failed_; ++pe) spawnChild(pe, 0);

  // ---- Main supervision loop (single-threaded event loop) ----------------
  while (!failed_) {
    if (cfg_.abort != nullptr && cfg_.abort->load()) {
      failRun("aborted: external stop requested (watchdog)");
      break;
    }
    // 1. I/O readiness across all live ctl channels.
    std::vector<struct pollfd> pfds;
    std::vector<int> pes;
    for (Child& c : children_) {
      if (!c.fdOpen) continue;
      struct pollfd pf {};
      pf.fd = c.fd;
      pf.events = static_cast<short>(POLLIN | (c.outbuf.empty() ? 0 : POLLOUT));
      pfds.push_back(pf);
      pes.push_back(c.pe);
    }
    if (!pfds.empty())
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 1);
    for (std::size_t i = 0; i < pfds.size() && !failed_; ++i) {
      Child& c = children_[static_cast<std::size_t>(pes[i])];
      if ((pfds[i].revents & POLLOUT) != 0) flushOut(c);
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) drainRead(c);
    }
    if (failed_) break;

    const auto now = Clock::now();

    // 2. Reap (per-pid, never -1: the host process may own other children,
    // e.g. a test harness). An exit without a prior Result is a fault;
    // respawn from log.
    for (Child& c : children_) {
      if (c.pid <= 0) continue;
      int wst = 0;
      if (::waitpid(c.pid, &wst, WNOHANG) == c.pid) onChildExit(c);
      if (failed_) break;
    }
    if (failed_) break;

    // 3. Heartbeat watchdog: a live-but-hung worker is indistinguishable
    // from useful work except by silence — SIGKILL it and let the reap path
    // run the normal recovery.
    for (Child& c : children_) {
      if (c.pid < 0 || c.killSent || c.resulted ||
          c.st != Child::St::Running) {
        continue;
      }
      if (now - c.lastBeat >
          std::chrono::milliseconds(cfg_.heartbeatTimeoutMs)) {
        ::kill(c.pid, SIGKILL);
        c.killSent = true;
        ++heartbeatTimeouts_;
      }
    }

    // 4. Planned fail-stop injection (`--faults=kill:PE@TIMEUS[+RESTART]`):
    // a REAL SIGKILL of a real process, timed from the Start broadcast.
    if (cfg_.faults.killEnabled() && startBroadcast_ && !killFired_ &&
        now >= runStart_ + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::micro>(
                                   cfg_.faults.killTimeUs))) {
      Child& victim = children_[static_cast<std::size_t>(cfg_.faults.killPe)];
      if (victim.pid > 0) ::kill(victim.pid, SIGKILL);
      killFired_ = true;
    }

    // 5. Due respawns: epoch+1, Boot carries the full recovery stream.
    for (Child& c : children_) {
      if (c.respawnPending && now >= c.respawnAt) {
        const int pe = c.pe;
        const std::uint8_t nextEpoch = static_cast<std::uint8_t>(c.epoch + 1);
        if (!spawnChild(pe, nextEpoch)) break;
      }
    }
    if (failed_) break;

    // 6. Termination polling / end-of-run collection.
    if (!endSent_) {
      runTerminationRound();
    } else {
      bool allDone = true;
      for (const Child& c : children_) {
        if (!c.resulted || !c.exited) {
          allDone = false;
          break;
        }
      }
      if (allDone) break;
    }
  }

  // ---- Teardown -----------------------------------------------------------
  for (Child& c : children_) {
    if (c.pid > 0) {
      if (failed_) ::kill(c.pid, SIGKILL);
      int wst = 0;
      ::waitpid(c.pid, &wst, 0);
      c.pid = -1;
    }
    if (c.fdOpen) {
      ::close(c.fd);
      c.fdOpen = false;
    }
  }
  for (const int f : sockFds_)
    if (f >= 0) ::close(f);

  out.wallSeconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (failed_) {
    out.ok = false;
    out.error = error_;
    out.counters.add(ctl::kFrames, ctlFrames_);
    out.counters.add(ctl::kBadFrames, ctlBadFrames_);
    return out;
  }

  // Merge: results (each RESULT slot stored by exactly one process), the
  // aggregate counter namespace, and the per-PE breakdown.
  out.results.assign(static_cast<std::size_t>(prog_.numResults), Value{});
  out.resultsSet.assign(static_cast<std::size_t>(prog_.numResults), 0);
  out.perWorker.resize(static_cast<std::size_t>(n));
  for (const Child& c : children_) {
    for (std::size_t r = 0; r < c.result.results.size(); ++r) {
      if (r < c.result.resultSet.size() && c.result.resultSet[r] != 0 &&
          r < out.results.size() && out.resultsSet[r] == 0) {
        out.results[r] = c.result.results[r];
        out.resultsSet[r] = 1;
      }
    }
    for (const auto& [k, v] : c.result.counters) out.counters.add(k, v);
    for (const auto& [k, v] : c.result.workerCounters)
      out.perWorker[static_cast<std::size_t>(c.pe)].add(k, v);
  }
  // Wire store: rebuild the global array plane from the per-PE slices the
  // workers shipped. Pass 1 sizes each array from its allocator's shape
  // record; pass 2 places every owned element (a part can arrive from a PE
  // other than the allocator, so the order of children is irrelevant).
  for (const Child& c : children_) {
    for (const auto& a : c.result.arrays) {
      if (a.hasMeta == 0) continue;
      NativeArray& arr = wireOut_[a.id];
      arr.shape.rank = a.rank;
      arr.shape.dim0 = a.dim0;
      arr.shape.dim1 = a.dim1;
      const std::int64_t total = a.rank == 1 ? a.dim0 : a.dim0 * a.dim1;
      if (total >= 0) arr.elems.assign(static_cast<std::size_t>(total), Value{});
    }
  }
  for (const Child& c : children_) {
    for (const auto& a : c.result.arrays) {
      auto it = wireOut_.find(a.id);
      if (it == wireOut_.end()) continue;
      for (const auto& [off, v] : a.elems) {
        if (off >= 0 &&
            static_cast<std::size_t>(off) < it->second.elems.size()) {
          it->second.elems[static_cast<std::size_t>(off)] = v;
        }
      }
    }
  }
  for (std::size_t r = 0; r < out.resultsSet.size(); ++r) {
    if (out.resultsSet[r] == 0) {
      out.ok = false;
      out.error = "program result " + std::to_string(r) + " never set";
      return out;
    }
  }
  out.counters.add("native.workers", n);
  out.counters.add("proc.respawns", respawnsTotal_);
  out.counters.add("proc.heartbeatTimeouts", heartbeatTimeouts_);
  if (cfg_.faults.killEnabled())
    out.counters.add("fault.kills", killFired_ ? 1 : 0);
  out.counters.add(ctl::kFrames, ctlFrames_);
  out.counters.add(ctl::kBadFrames, ctlBadFrames_);
  out.ok = true;
  return out;
}

}  // namespace

NativeResult runSupervisor(const SpProgram& prog, const NativeConfig& cfg,
                           ShmStorePtr& cellsOut,
                           std::unordered_map<ArrayId, NativeArray>& wireOut) {
  Supervisor sup(prog, cfg, cellsOut, wireOut);
  return sup.run();
}

void maybeRunPodsWorker(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--pods-worker=", 14) != 0) continue;
    int ctlFd = -1, sockFd = -1;
    if (std::sscanf(a + 14, "%d,%d", &ctlFd, &sockFd) != 2 || ctlFd < 0 ||
        sockFd < 0) {
      std::fprintf(stderr, "pods worker: malformed %s\n", a);
      _exit(102);
    }
    runWorker(ctlFd, sockFd);  // never returns
  }
}

}  // namespace pods::native::procmgr
