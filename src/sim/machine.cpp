#include "sim/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <unordered_map>

#include "proto/delivery.hpp"
#include "runtime/receive.hpp"
#include "runtime/sp_exec.hpp"
#include "sim/event_queue.hpp"
#include "support/check.hpp"
#include "support/recovery.hpp"

// Implementation notes.
//
// Event granularity: the Execution Unit executes straight-line runs of
// instructions inside one event dispatch, yielding back to the global queue
// whenever its local time passes the queue's next event time, so cross-PE
// interleaving is exact at instruction granularity. Array Manager tasks are
// single-phase: state mutations apply at task arrival while their *effects*
// (responses, page sends) are scheduled at the service-completion time; this
// makes state visible at most one AM service time early, which is a
// deterministic and negligible approximation. Frame creation charges the
// Memory Manager's list-operation time as busy work without delaying the
// first token's delivery (0.9 us, likewise negligible).
//
// Fault injection & reliable delivery: with any nonzero rate in
// MachineConfig::faults, every remote message (tokens, array messages,
// pages, broadcast copies) is carried by an ack/retransmit protocol instead
// of the direct push. The sender registers the message in a retransmit
// buffer, transmits a copy (which the seeded FaultPlan may drop, duplicate,
// or delay), and arms a timeout; the receiver deduplicates by message id —
// exactly-once delivery on top of an at-least-once wire, which is what makes
// non-idempotent tokens (ADDC join counters, spawn-by-token) safe — then
// acknowledges (acks roll their own fault dice; a lost ack just means one
// more retransmission gets suppressed). Timeouts back off exponentially.
// Everything runs in *simulated* time through the one global event queue,
// so a faulty run is bit-deterministic for a fixed seed. Stale timer events
// that fire after their message was acked are skipped without extending the
// reported completion time.
//
// Fail-stop recovery (kill mode, see support/recovery.hpp): a PeKill event
// wipes one PE's volatile state (frames, match table, caches, deferred-read
// queues, protocol dedup sets) and bumps its incarnation; a PeRestart event
// rebuilds it from the per-PE receive log and re-executes every frame that
// was live at the kill from pc 0. Local events from the old incarnation
// (EuKick, SlotFill) are dropped — re-execution regenerates them — while
// in-flight token and Array Manager deliveries are *held* and re-delivered
// after the rebuild, because their senders may have retired before the kill
// and will never resend. Logical send keys deduplicate everything a replay
// re-sends. Quiescence needs no special accounting: the PeRestart event
// keeps the queue non-empty across the dead window, and messages addressed
// to the dead PE are simply not acked, so the sender-side retransmit timers
// redeliver them after the restart.

namespace pods::sim {

const char* unitName(Unit u) {
  switch (u) {
    case Unit::EU: return "EU";
    case Unit::MU: return "MU";
    case Unit::MM: return "MM";
    case Unit::AM: return "AM";
    case Unit::RU: return "RU";
  }
  return "?";
}

namespace {

enum class FrameState : std::uint8_t { Ready, Running, Blocked, Dead };

struct Frame : SpFrame {
  FrameState state = FrameState::Ready;
};

struct Token {
  bool toCont = false;   // continuation-addressed vs (sp, ctx, slot)
  std::uint16_t spCode = 0;
  std::uint64_t ctx = 0;
  std::uint16_t slot = 0;
  Cont cont{};
  Value v{};
  bool add = false;  // join-counter token: add to the slot instead of set
  // Kill mode: logical identity of a continuation-addressed send, stable
  // under sender re-execution (msgIds are not — a replayed send is a new
  // message). 0 = unstamped (AM responses, which replay regenerates).
  std::uint64_t senderCtx = 0;
  std::uint64_t sendKey = 0;
};

/// Presence-mask snapshot of one cached remote page (up to 256 elems/page).
struct PageMask {
  std::array<std::uint64_t, 4> bits{};
  bool test(int i) const { return (bits[i >> 6] >> (i & 63)) & 1; }
  void set(int i) { bits[i >> 6] |= 1ULL << (i & 63); }
  void merge(const PageMask& o) {
    for (int i = 0; i < 4; ++i) bits[i] |= o.bits[i];
  }
};

struct AmTask {
  enum class Kind : std::uint8_t {
    Read,           // local SP reads (i0[,i1]) of arr -> cont
    Write,          // write value v at (i0[,i1]) of arr (local or forwarded)
    RemoteReadReq,  // another PE requests `offset` of arr (we are the owner)
    PageArrive,     // a fetched page lands here: install cache + respond
    Alloc,          // local distributing/plain allocate -> cont receives id
    AllocInstall,   // broadcast allocate arriving at a remote PE
    Rf,             // range-filter bound of arr (split-phase when deferred)
    DimQ,           // header dimension query (split-phase when deferred)
    ValueArrive,    // a deferred remote read completes with a value token
  };
  Kind kind = Kind::Read;
  ArrayId arr = 0;
  std::int64_t i0 = 0, i1 = 0;  // subscripts (Read/Write); Rf row in i0
  std::int64_t offset = 0;      // RemoteReadReq element / PageArrive page
  Value v{};                    // write value
  Cont cont{};                  // requester slot
  std::uint16_t fromPe = 0;     // requesting PE (RemoteReadReq) / home PE
  bool forwarded = false;       // Write arriving from the writing PE: the
                                // value is already committed; only wake
                                // deferred readers here
  std::uint8_t rank = 1;
  // Alloc / AllocInstall:
  ArrayShape shape{};
  bool distributed = false;
  // Kill mode, Alloc only: the minting frame's (ctx, mint sequence), so a
  // replayed allocation returns the original array id from the mint log.
  std::uint64_t senderCtx = 0;
  std::uint32_t mintSeq = 0;
  // Rf:
  std::uint8_t dim = 0;
  std::int32_t rfOff = 0;
  bool isHi = false;
  bool hasRow = false;
  // PageArrive:
  PageMask mask{};
};

enum class EvKind : std::uint8_t {
  EuKick,        // run the Execution Unit scheduler on a PE
  TokenAtMu,     // token arrival at a PE's Matching Unit
  TokenDeliver,  // MU done: deliver token into the frame
  AmArrive,      // task arrival at a PE's Array Manager
  SlotFill,      // direct response into a frame slot (AM -> EU path)
  NetDeliver,    // lossy mode: reliable message copy reaches the receiver
  NetAckArrive,  // lossy mode: acknowledgment reaches the sender
  NetTimeout,    // lossy mode: sender retransmit timer fires
  PeKill,        // kill mode: fail-stop one PE (wipe its volatile state)
  PeRestart,     // kill mode: rebuild the killed PE from its receive log
};

const char* evKindName(EvKind k) {
  switch (k) {
    case EvKind::EuKick: return "EuKick";
    case EvKind::TokenAtMu: return "TokenAtMu";
    case EvKind::TokenDeliver: return "TokenDeliver";
    case EvKind::AmArrive: return "AmArrive";
    case EvKind::SlotFill: return "SlotFill";
    case EvKind::NetDeliver: return "NetDeliver";
    case EvKind::NetAckArrive: return "NetAckArrive";
    case EvKind::NetTimeout: return "NetTimeout";
    case EvKind::PeKill: return "PeKill";
    case EvKind::PeRestart: return "PeRestart";
  }
  return "?";
}

constexpr std::uint32_t kNoBody = 0xFFFFFFFFu;

/// What the event queue carries per event. The time lives only in the
/// queue key; a token, Array Manager task or network fields live in the
/// body slab at `body`. EuKick, PeKill and PeRestart have no body.
struct Ev {
  EvKind kind = EvKind::EuKick;
  std::uint16_t pe = 0;
  // Kill mode: the target PE's incarnation when this (PE-local) event was
  // scheduled; a mismatch at dispatch means the PE died in between.
  std::uint32_t inc = 0;
  std::uint32_t body = kNoBody;
};
static_assert(sizeof(Ev) <= 16, "the queue copies Ev by value");

/// The data of an event that has any. A writer sets the part its kind
/// reads (`tok`, `am`, or the network fields) and leaves the rest as the
/// body's previous user left it.
struct Body {
  Token tok{};
  AmTask am{};
  // Reliable-delivery fields (lossy mode only).
  std::uint64_t msgId = 0;   // NetDeliver / NetAckArrive / NetTimeout
  std::uint16_t netFrom = 0; // NetDeliver: sending PE (ack destination)
  std::uint32_t attempt = 0; // NetTimeout: transmission this timer covers
  bool isToken = false;      // NetDeliver payload discriminator
  bool live = false;         // taken and not yet released
};

/// Event bodies in fixed-size chunks that never move, so a handler can keep
/// reading its own body while the events it pushes take new ones. Each
/// body is released exactly once: release() checks it, and a run that
/// drains the queue checks that none is left.
class BodySlab {
 public:
  std::uint32_t take() {
    std::uint32_t i;
    if (!free_.empty()) {
      i = free_.back();
      free_.pop_back();
    } else {
      i = size_++;
      if ((i & kChunkMask) == 0) chunks_.push_back(std::make_unique<Body[]>(kChunk));
    }
    (*this)[i].live = true;
    return i;
  }
  Body& operator[](std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }
  void release(std::uint32_t i) {
    Body& b = (*this)[i];
    PODS_CHECK_MSG(b.live, "event body released twice");
    b.live = false;
    free_.push_back(i);
  }
  std::size_t live() const { return size_ - free_.size(); }

 private:
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunk = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunk - 1;
  std::vector<std::unique_ptr<Body[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;  // bodies ever taken: live ones plus free_
};

/// The simulator's counters. The hot path bumps them by id; finalize()
/// folds every touched one into RunStats::counters under its kCtrNames name.
enum class Ctr : std::uint8_t {
  RuntimeErrors,
  TraceDropped,
  FaultDrops,
  FaultDups,
  FaultDelays,
  FaultStalls,
  FaultDeadDrops,
  FaultKills,
  FaultRestarts,
  NetTokens,
  NetBroadcastTokens,
  NetPages,
  NetArrayMsgs,
  NetAcks,
  NetRetxResent,
  NetRetxGiveUps,
  SpInstantiated,
  SpCompleted,
  TokensSent,
  TokensMatched,
  TokensDropped,
  TokensReplayDup,
  EuContextSwitches,
  EuBlocks,
  AmDeferredOnHeader,
  ArrayReads,
  ArrayReadsLocalHit,
  ArrayReadsDeferred,
  ArrayReadsRemote,
  ArrayReadsCacheHit,
  ArrayReadsCoalesced,
  ArrayReadsRemoteDeferred,
  ArrayWrites,
  ArrayWritesRemote,
  ArrayWritesReplayDup,
  ArrayAllocs,
  ArrayAllocsReplayDup,
  ArrayPagesSent,
  ArrayPagesReceived,
  RecoveryParkedEarly,
  RecoveryReplayedTokens,
  RecoveryMigratedArrays,
  RecoveryDroppedEvents,
  RecoveryHeldEvents,
  RecoveryReplayedFrames,
  RecoveryReRequestedReads,
  kCount
};
constexpr std::size_t kNumCtrs = static_cast<std::size_t>(Ctr::kCount);
static_assert(kNumCtrs <= 64, "touched counters are one 64-bit mask");

struct CtrName {
  Ctr id;
  const char* name;
};
constexpr CtrName kCtrNames[] = {
    {Ctr::RuntimeErrors, "runtime.errors"},
    {Ctr::TraceDropped, "trace.dropped"},
    {Ctr::FaultDrops, proto::kFaultDrops},
    {Ctr::FaultDups, proto::kFaultDups},
    {Ctr::FaultDelays, proto::kFaultDelays},
    {Ctr::FaultStalls, proto::kFaultStalls},
    {Ctr::FaultDeadDrops, "fault.deadDrops"},
    {Ctr::FaultKills, "fault.kills"},
    {Ctr::FaultRestarts, "fault.restarts"},
    {Ctr::NetTokens, "net.tokens"},
    {Ctr::NetBroadcastTokens, "net.broadcastTokens"},
    {Ctr::NetPages, "net.pages"},
    {Ctr::NetArrayMsgs, "net.arrayMsgs"},
    {Ctr::NetAcks, proto::kAcks},
    {Ctr::NetRetxResent, proto::kResent},
    {Ctr::NetRetxGiveUps, proto::kGiveUps},
    {Ctr::SpInstantiated, "sp.instantiated"},
    {Ctr::SpCompleted, "sp.completed"},
    {Ctr::TokensSent, "tokens.sent"},
    {Ctr::TokensMatched, "tokens.matched"},
    {Ctr::TokensDropped, "tokens.dropped"},
    {Ctr::TokensReplayDup, "tokens.replayDup"},
    {Ctr::EuContextSwitches, "eu.contextSwitches"},
    {Ctr::EuBlocks, "eu.blocks"},
    {Ctr::AmDeferredOnHeader, "am.deferredOnHeader"},
    {Ctr::ArrayReads, "array.reads"},
    {Ctr::ArrayReadsLocalHit, "array.reads.localHit"},
    {Ctr::ArrayReadsDeferred, "array.reads.deferred"},
    {Ctr::ArrayReadsRemote, "array.reads.remote"},
    {Ctr::ArrayReadsCacheHit, "array.reads.cacheHit"},
    {Ctr::ArrayReadsCoalesced, "array.reads.coalesced"},
    {Ctr::ArrayReadsRemoteDeferred, "array.reads.remoteDeferred"},
    {Ctr::ArrayWrites, "array.writes"},
    {Ctr::ArrayWritesRemote, "array.writes.remote"},
    {Ctr::ArrayWritesReplayDup, "array.writes.replayDup"},
    {Ctr::ArrayAllocs, "array.allocs"},
    {Ctr::ArrayAllocsReplayDup, "array.allocs.replayDup"},
    {Ctr::ArrayPagesSent, "array.pagesSent"},
    {Ctr::ArrayPagesReceived, "array.pagesReceived"},
    {Ctr::RecoveryParkedEarly, "recovery.parkedEarly"},
    {Ctr::RecoveryReplayedTokens, "recovery.replayedTokens"},
    {Ctr::RecoveryMigratedArrays, "recovery.migratedArrays"},
    {Ctr::RecoveryDroppedEvents, "recovery.droppedEvents"},
    {Ctr::RecoveryHeldEvents, "recovery.heldEvents"},
    {Ctr::RecoveryReplayedFrames, "recovery.replayedFrames"},
    {Ctr::RecoveryReRequestedReads, "recovery.reRequestedReads"},
};

constexpr bool ctrNamesInIdOrder() {
  std::size_t i = 0;
  for (const CtrName& c : kCtrNames)
    if (static_cast<std::size_t>(c.id) != i++) return false;
  return i == kNumCtrs;
}
static_assert(ctrNamesInIdOrder(), "kCtrNames lists every Ctr once, in order");

/// Per-link traffic kinds, counted as "net.link.F->T.<kind>".
enum class LinkKind : std::uint8_t { Tokens, ArrayMsgs, Pages, Retx };
constexpr const char* kLinkKindNames[] = {"tokens", "arrayMsgs", "pages",
                                          "retx"};
constexpr std::size_t kNumLinkKinds = std::size(kLinkKindNames);

/// Deferred reads parked on one absent element (at its owner).
struct Deferred {
  std::vector<Cont> localWaiters;
  std::vector<std::uint16_t> remotePes;
};

struct PeState {
  // Execution memory.
  std::vector<Frame> frames;
  // The Matching Unit's table, replay ledger and parked replies
  // (runtime/receive.hpp). A retired context's entry keeps pointing at its
  // dead frame, whose storage is never reused.
  ReceiveState recv;
  std::deque<std::uint32_t> readyQ;
  std::int64_t current = -1;
  std::uint32_t lastFrame = 0xFFFFFFFFu;
  SimTime euFree{};
  bool kickScheduled = false;
  SimTime kickAt{};
  std::uint64_t ctxCounter = 0;

  // Unit resources (EU accounted separately through euFree/busy).
  std::array<SimTime, kNumUnits> unitFree{};
  std::array<SimTime, kNumUnits> unitBusy{};

  // Array Manager state.
  std::unordered_map<ArrayId, char> headers;  // headers installed here
  std::unordered_map<ArrayId, std::vector<AmTask>> pendingHeader;
  std::unordered_map<std::uint64_t, PageMask> cache;  // (arr<<24|page)
  std::unordered_map<ArrayId, std::unordered_map<std::int64_t, std::vector<Cont>>>
      pendingRemote;  // reads in flight to a remote owner
  std::unordered_map<ArrayId, std::unordered_map<std::int64_t, Deferred>>
      deferred;  // absent elements we own with waiting readers

  // Reliable-delivery receiver half (lossy mode): msgId dedup, so
  // retransmissions and injected duplicates are suppressed (proto::Delivery).
  proto::Delivery rx;

  // Kill mode.
  bool dead = false;           // inside the fail-stop window
  std::uint32_t incarnation = 0;
};

/// Sender-side record of one unacknowledged reliable message (lossy mode):
/// its payload copy and how many times it has been transmitted. Each
/// NetTimeout carries the attempt it was armed for, so a timer that a
/// retransmit superseded no longer matches.
struct RetxEntry {
  std::uint16_t fromPe = 0;
  std::uint16_t toPe = 0;
  bool isToken = false;
  bool pageSized = false;
  std::uint32_t attempt = 1;
  Token tok{};
  AmTask am{};
};

std::uint64_t pageKey(ArrayId arr, std::int64_t page) {
  return (static_cast<std::uint64_t>(arr) << 24) |
         static_cast<std::uint64_t>(page);
}

/// One Chrome-trace timeline slice.
struct TraceEv {
  std::uint16_t pe;
  std::uint8_t unit;
  const std::string* name;  // nullptr -> the unit's name
  SimTime start;
  SimTime dur;
};

}  // namespace

struct Machine::Impl {
  const SpProgram& prog;
  MachineConfig cfg;
  Timing tm;
  ArrayStore store;
  std::vector<PeState> pes;
  EventQueue<Ev> cq;
  std::uint64_t eventsProcessed = 0;
  SimTime now{};
  // Live-SP tracking: PODS removed the k-bounded-loop throttling, so the
  // only bound on concurrently-live SP frames is data availability. The
  // peak is reported as counter "sp.peakLive".
  std::int64_t liveSps = 0;
  std::int64_t peakLiveSps = 0;
  RunStats stats;
  std::vector<bool> resultSet;
  int errorCount = 0;
  // Reliable-delivery sender half (lossy mode): `retx` keeps each
  // unacknowledged message by id, and cfg.faults.retry decides its
  // backoff and give-up.
  FaultPlan plan;
  std::uint64_t netSeq = 0;  // message ids and fault-decision stream
  std::unordered_map<std::uint64_t, RetxEntry> retx;
  BodySlab bodies;
  // Counters by id (see Ctr), and per-link counts indexed [from][to][kind];
  // a PE's row is allocated on its first remote send.
  std::array<std::int64_t, kNumCtrs> ctr{};
  std::uint64_t ctrTouched = 0;
  std::vector<std::vector<std::array<std::int64_t, kNumLinkKinds>>> linkCounts;
  // Completion time excluding stale retransmit timers that fire (and are
  // ignored) after the last real work; `now` still tracks the raw queue.
  SimTime lastUseful{};
  // Kill mode: per-PE stable recovery logs (conceptually off-PE storage —
  // they survive the fail-stop) and the events held during the dead window,
  // each still owning its body.
  std::vector<RecoveryLog> recLogs;
  std::vector<Ev> deadHeld;
  // The earliest queued event time while an EU runs: euRun reads the
  // queue's head at entry and push() lowers it. Nothing pops while an EU
  // runs, so it is the head's time exactly.
  std::int64_t queueHead = 0;

  Impl(const SpProgram& p, MachineConfig c)
      : prog(p),
        cfg(c),
        tm(c.timing),
        store(c.numPEs, c.timing.pageElems, c.peWeights),
        pes(static_cast<std::size_t>(c.numPEs)),
        linkCounts(static_cast<std::size_t>(c.numPEs)) {
    // Only the compiler makes the programs the simulator runs, so a defect
    // here is a bug.
    const std::string bad = checkProgram(p);
    PODS_CHECK_MSG(bad.empty(), bad.c_str());
    PODS_CHECK(c.numPEs >= 1 && c.numPEs <= 4096);
    PODS_CHECK_MSG(c.timing.pageElems >= 1 && c.timing.pageElems <= 256,
                   "pageElems must be in [1, 256]");
    PODS_CHECK_MSG(c.peWeights.empty() ||
                       static_cast<int>(c.peWeights.size()) == c.numPEs,
                   "peWeights must be empty or have one entry per PE");
    stats.busy.resize(static_cast<std::size_t>(c.numPEs));
    stats.results.resize(static_cast<std::size_t>(prog.numResults));
    resultSet.assign(static_cast<std::size_t>(prog.numResults), false);
    stats.spProfiles.resize(prog.sps.size());
    for (std::size_t i = 0; i < prog.sps.size(); ++i) {
      stats.spProfiles[i].name = prog.sps[i].name;
    }
    tracing = !cfg.tracePath.empty();
    plan = FaultPlan(c.faults);
    if (killMode()) recLogs.resize(pes.size());
  }

  void count(Ctr c, std::int64_t delta = 1) {
    ctr[static_cast<std::size_t>(c)] += delta;
    ctrTouched |= std::uint64_t{1} << static_cast<unsigned>(c);
  }

  void countLink(std::uint16_t from, std::uint16_t to, LinkKind k) {
    auto& row = linkCounts[from];
    if (row.empty()) row.resize(pes.size());
    ++row[to][static_cast<std::size_t>(k)];
  }

  /// True when the lossy network + reliable-delivery protocol is active.
  bool faulty() const { return plan.enabled(); }
  /// True when a fail-stop kill is scheduled (implies faulty()).
  bool killMode() const { return cfg.faults.killEnabled(); }

  // --- infrastructure ------------------------------------------------------

  /// Queues an event at `t`, after every event already queued at `t`;
  /// `body` passes to the event.
  void push(SimTime t, EvKind kind, std::uint16_t pe,
            std::uint32_t body = kNoBody) {
    Ev ev;
    ev.kind = kind;
    ev.pe = pe;
    ev.body = body;
    // Stamp PE-local events with the target's incarnation: if the PE dies
    // before the event fires, dispatch can tell it belongs to a lost life.
    switch (kind) {
      case EvKind::EuKick:
      case EvKind::TokenAtMu:
      case EvKind::TokenDeliver:
      case EvKind::AmArrive:
      case EvKind::SlotFill:
        ev.inc = pes[pe].incarnation;
        break;
      default:
        break;
    }
    cq.push(t.ns, ev);
    if (t.ns < queueHead) queueHead = t.ns;
  }

  void pushToken(SimTime t, EvKind kind, std::uint16_t pe, const Token& tok) {
    const std::uint32_t b = bodies.take();
    bodies[b].tok = tok;
    push(t, kind, pe, b);
  }

  void pushAm(SimTime t, std::uint16_t pe, const AmTask& task) {
    const std::uint32_t b = bodies.take();
    bodies[b].am = task;
    push(t, EvKind::AmArrive, pe, b);
  }

  void runtimeError(const std::string& msg) {
    if (errorCount++ == 0) stats.error = msg;
    count(Ctr::RuntimeErrors);
  }

  /// Serial-resource scheduling: returns completion time, accrues busy time.
  SimTime unitSched(std::uint16_t pe, Unit u, SimTime ready, SimTime svc) {
    PeState& P = pes[pe];
    SimTime start = std::max(ready, P.unitFree[static_cast<int>(u)]);
    SimTime done = start + svc;
    P.unitFree[static_cast<int>(u)] = done;
    P.unitBusy[static_cast<int>(u)] += svc;
    if (tracing && svc.ns > 0) addTrace(pe, u, nullptr, start, svc);
    return done;
  }

  bool tracing = false;
  std::vector<TraceEv> trace;
  std::int64_t traceDropped = 0;

  void addTrace(std::uint16_t pe, Unit u, const std::string* name,
                SimTime start, SimTime dur) {
    if (trace.size() >= cfg.maxTraceEvents) {
      // Keep recording the *fact* of truncation: the counter counts every
      // drop and writeTrace() emits one marker event, so a consumer can
      // tell a short trace from a clipped one.
      count(Ctr::TraceDropped);
      ++traceDropped;
      return;
    }
    trace.push_back({pe, static_cast<std::uint8_t>(u), name, start, dur});
  }

  void writeTrace() {
    std::FILE* f = std::fopen(cfg.tracePath.c_str(), "w");
    if (!f) {
      runtimeError("cannot open trace file " + cfg.tracePath);
      return;
    }
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (const TraceEv& ev : trace) {
      const char* name =
          ev.name ? ev.name->c_str() : unitName(static_cast<Unit>(ev.unit));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",\n", name, ev.pe, ev.unit, ev.start.us(),
                   ev.dur.us());
      first = false;
    }
    if (traceDropped > 0) {
      // One instant marker at the end of the recorded window: the timeline
      // was truncated, not complete.
      SimTime lastEnd{};
      for (const TraceEv& ev : trace)
        lastEnd = std::max(lastEnd, ev.start + ev.dur);
      std::fprintf(f,
                   "%s{\"name\":\"trace truncated: %lld events dropped\","
                   "\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"s\":\"g\"}",
                   first ? "" : ",\n",
                   static_cast<long long>(traceDropped), lastEnd.us());
      first = false;
    }
    // Thread names so the viewer shows EU/MU/MM/AM/RU lanes per PE.
    for (int pe = 0; pe < cfg.numPEs; ++pe) {
      for (int u = 0; u < kNumUnits; ++u) {
        std::fprintf(f,
                     ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                     "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                     pe, u, unitName(static_cast<Unit>(u)));
      }
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
  }

  void euBusy(std::uint16_t pe, SimTime span) {
    pes[pe].unitBusy[static_cast<int>(Unit::EU)] += span;
  }

  // --- reliable delivery over a lossy network (lossy mode only) ------------

  /// Transmits one copy of reliable message `msgId` onto the wire at `at`
  /// (the Routing Unit charge has already been paid), letting the seeded
  /// FaultPlan drop, duplicate, or delay it.
  void netTransmit(std::uint64_t msgId, const RetxEntry& e, SimTime at) {
    auto deliverAt = [&](SimTime when) {
      const std::uint32_t b = bodies.take();
      Body& body = bodies[b];
      body.msgId = msgId;
      body.netFrom = e.fromPe;
      body.isToken = e.isToken;
      if (e.isToken) {
        body.tok = e.tok;
      } else {
        body.am = e.am;
      }
      push(when, EvKind::NetDeliver, e.toPe, b);
    };
    const SimTime arrive = at + tm.networkHop;
    switch (plan.action(++netSeq)) {
      case FaultAction::Drop:
        count(Ctr::FaultDrops);
        break;  // the retransmit timer recovers it
      case FaultAction::Duplicate:
        count(Ctr::FaultDups);
        deliverAt(arrive);
        deliverAt(arrive + tm.networkHop);
        break;
      case FaultAction::Delay:
        count(Ctr::FaultDelays);
        deliverAt(arrive + usec(cfg.faults.simDelayUs));
        break;
      case FaultAction::Deliver:
        deliverAt(arrive);
        break;
    }
  }

  /// Arms the retransmit timer of transmission #attempt of `msgId`, sent
  /// at `sentAt`: due one backoff later.
  void armTimeout(std::uint64_t msgId, std::uint32_t attempt, SimTime sentAt) {
    const proto::RetryPolicy& retry = cfg.faults.retry;
    const SimTime at =
        sentAt + usec(retry.backoffUs(static_cast<int>(attempt),
                                      retry.baseRtoUs(/*faultsEnabled=*/true)));
    const std::uint32_t b = bodies.take();
    bodies[b].msgId = msgId;
    bodies[b].attempt = attempt;
    push(at, EvKind::NetTimeout, 0, b);
  }

  /// Entry point of the reliable-delivery layer: registers the message in
  /// the retransmit buffer, transmits the first copy, and arms the timeout.
  /// `sentAt` is the Routing Unit completion time of the initial injection.
  void netSend(std::uint16_t fromPe, std::uint16_t toPe, SimTime sentAt,
               bool isToken, bool pageSized, const Token& tok,
               const AmTask& am) {
    const std::uint64_t msgId = ++netSeq;
    RetxEntry e;
    e.fromPe = fromPe;
    e.toPe = toPe;
    e.isToken = isToken;
    e.pageSized = pageSized;
    e.tok = tok;
    e.am = am;
    auto [it, inserted] = retx.emplace(msgId, std::move(e));
    PODS_CHECK(inserted);
    netTransmit(msgId, it->second, sentAt);
    armTimeout(msgId, 1, sentAt);
  }

  /// Receiver side: dedup, dispatch to MU/AM, inject the optional PE stall,
  /// and acknowledge (again — a duplicate means our previous ack may have
  /// been lost, so re-ack unconditionally). Returns true when the message
  /// was fresh (delivered payload, not a suppressed duplicate).
  bool netDeliver(std::uint16_t pe, SimTime t, std::uint32_t b) {
    PeState& P = pes[pe];
    const Body& body = bodies[b];
    const std::uint64_t msgId = body.msgId;
    const std::uint16_t netFrom = body.netFrom;
    if (P.dead) {
      // A dead PE neither receives nor acknowledges: the sender's
      // retransmit timer re-offers the message until after the restart.
      count(Ctr::FaultDeadDrops);
      bodies.release(b);
      return false;
    }
    const bool fresh = P.rx.accept(msgId);
    if (fresh) {
      if (plan.stallHit(++netSeq)) {
        count(Ctr::FaultStalls);
        const SimTime stallEnd = t + usec(cfg.faults.simStallUs);
        if (stallEnd > P.euFree) P.euFree = stallEnd;
      }
      // The message becomes its Matching Unit or Array Manager arrival,
      // which takes over the body.
      push(t, body.isToken ? EvKind::TokenAtMu : EvKind::AmArrive, pe, b);
    } else {
      bodies.release(b);
    }
    const SimTime done =
        unitSched(pe, Unit::RU, t + tm.unitSignal, tm.tokenRoute());
    count(Ctr::NetAcks);
    auto ackAt = [&](SimTime when) {
      const std::uint32_t ack = bodies.take();
      bodies[ack].msgId = msgId;
      push(when, EvKind::NetAckArrive, netFrom, ack);
    };
    const SimTime arrive = done + tm.networkHop;
    switch (plan.action(++netSeq)) {
      case FaultAction::Drop:
        count(Ctr::FaultDrops);
        break;  // sender retransmits; we will dedup and re-ack
      case FaultAction::Duplicate:
        count(Ctr::FaultDups);
        ackAt(arrive);
        ackAt(arrive + tm.networkHop);  // second copy erases nothing
        break;
      case FaultAction::Delay:
        count(Ctr::FaultDelays);
        ackAt(arrive + usec(cfg.faults.simDelayUs));
        break;
      case FaultAction::Deliver:
        ackAt(arrive);
        break;
    }
    return fresh;
  }

  /// Sender side: a retransmit timer fired. Stale timers (message already
  /// acked, or superseded by a newer transmission's timer) are ignored and
  /// do not count as progress; live ones pay the Routing Unit again and
  /// back off exponentially.
  void fireTimeout(std::uint64_t msgId, std::uint32_t attempt, SimTime t) {
    auto it = retx.find(msgId);
    if (it == retx.end() || it->second.attempt != attempt) return;
    RetxEntry& e = it->second;
    if (cfg.faults.retry.giveUpAt(static_cast<int>(e.attempt))) {
      count(Ctr::NetRetxGiveUps);
      runtimeError("reliable delivery gave up on a message to PE " +
                   std::to_string(e.toPe) + " after " +
                   std::to_string(e.attempt) + " attempts");
      retx.erase(it);
      return;
    }
    ++e.attempt;
    count(Ctr::NetRetxResent);
    countLink(e.fromPe, e.toPe, LinkKind::Retx);
    const SimTime svc = e.pageSized ? tm.pageMessage() : tm.tokenRoute();
    const SimTime done = unitSched(e.fromPe, Unit::RU, t, svc);
    netTransmit(msgId, e, done);
    armTimeout(msgId, e.attempt, done);
  }

  // --- token plumbing ------------------------------------------------------

  /// EU (or AM) hands a token to this PE's Matching Unit.
  void tokenToLocalMu(std::uint16_t pe, SimTime t, const Token& tok) {
    pushToken(t + tm.unitSignal, EvKind::TokenAtMu, pe, tok);
  }

  /// EU (or AM) sends a token to another PE through the Routing Unit.
  void tokenToRemote(std::uint16_t fromPe, std::uint16_t toPe, SimTime t,
                     const Token& tok) {
    SimTime done = unitSched(fromPe, Unit::RU, t + tm.unitSignal, tm.tokenRoute());
    count(Ctr::NetTokens);
    countLink(fromPe, toPe, LinkKind::Tokens);
    if (faulty()) {
      netSend(fromPe, toPe, done, /*isToken=*/true, /*pageSized=*/false, tok,
              AmTask{});
      return;
    }
    pushToken(done + tm.networkHop, EvKind::TokenAtMu, toPe, tok);
  }

  void sendToken(std::uint16_t fromPe, std::uint16_t toPe, SimTime t,
                 const Token& tok) {
    if (fromPe == toPe) {
      tokenToLocalMu(fromPe, t, tok);
    } else {
      tokenToRemote(fromPe, toPe, t, tok);
    }
  }

  /// The distributing LD operator's token replication. The Routing Unit
  /// forms the message once (one batched-token charge, as for any send); the
  /// hypercube's Direct-Connect routing replicates it along a spanning tree
  /// without involving intermediate CPUs, so every PE's Matching Unit — not
  /// the sender's Routing Unit — pays the per-copy cost. This keeps the RU
  /// lightly loaded, as the paper's Figure 8 reports.
  void broadcastToken(std::uint16_t fromPe, SimTime t, const Token& tok) {
    SimTime done =
        unitSched(fromPe, Unit::RU, t + tm.unitSignal, tm.tokenRoute());
    count(Ctr::NetBroadcastTokens);
    for (int dest = 0; dest < cfg.numPEs; ++dest) {
      if (dest == fromPe) {
        tokenToLocalMu(fromPe, t, tok);
        continue;
      }
      const auto to = static_cast<std::uint16_t>(dest);
      countLink(fromPe, to, LinkKind::Tokens);
      if (faulty()) {
        // Every spanning-tree copy is its own reliable message.
        netSend(fromPe, to, done, /*isToken=*/true, /*pageSized=*/false, tok,
                AmTask{});
        continue;
      }
      pushToken(done + tm.networkHop, EvKind::TokenAtMu, to, tok);
    }
  }

  /// AM task transfer to another PE's AM (read requests, forwarded writes,
  /// allocate broadcasts ride token-sized messages; pages use the page cost).
  void amToRemote(std::uint16_t fromPe, std::uint16_t toPe, SimTime t,
                  const AmTask& task, bool pageSized) {
    SimTime svc = pageSized ? tm.pageMessage() : tm.tokenRoute();
    SimTime done = unitSched(fromPe, Unit::RU, t + tm.unitSignal, svc);
    count(pageSized ? Ctr::NetPages : Ctr::NetArrayMsgs);
    countLink(fromPe, toPe, pageSized ? LinkKind::Pages : LinkKind::ArrayMsgs);
    if (faulty()) {
      netSend(fromPe, toPe, done, /*isToken=*/false, pageSized, Token{}, task);
      return;
    }
    pushAm(done + tm.networkHop, toPe, task);
  }

  void amLocal(std::uint16_t pe, SimTime t, const AmTask& task) {
    pushAm(t + tm.unitSignal, pe, task);
  }

  void fillSlotLater(std::uint16_t pe, SimTime t, Cont cont, Value v) {
    PODS_CHECK(cont.pe == pe);  // responses are delivered on the owner PE path
    Token tok;
    tok.toCont = true;
    tok.cont = cont;
    tok.v = v;
    pushToken(t, EvKind::SlotFill, pe, tok);
  }

  // --- Execution Unit ------------------------------------------------------

  void pushKick(std::uint16_t pe, SimTime t) {
    PeState& P = pes[pe];
    SimTime want = std::max(t, P.euFree);
    if (P.kickScheduled && P.kickAt <= want) return;
    P.kickScheduled = true;
    P.kickAt = want;
    push(want, EvKind::EuKick, pe);
  }

  /// Instantiates an SP frame for context `ctx` on `pe`, ready at `t`.
  std::uint32_t createFrame(std::uint16_t pe, std::uint16_t spCode,
                            std::uint64_t ctx, SimTime t) {
    PeState& P = pes[pe];
    P.frames.emplace_back().reset(spCode, ctx, prog.sp(spCode).numSlots);
    const auto idx = static_cast<std::uint32_t>(P.frames.size() - 1);
    P.readyQ.push_back(idx);
    count(Ctr::SpInstantiated);
    ++stats.spProfiles[spCode].instances;
    peakLiveSps = std::max(peakLiveSps, ++liveSps);
    pushKick(pe, t);
    return idx;
  }

  /// The Matching Unit delivers a token (runtime/receive.hpp) at time `t`.
  void deliverToken(std::uint16_t pe, SimTime t, const Token& tok) {
    Exec ex{*this, pe, t};
    receive(ex, pes[pe].recv, tok);
  }

  /// True when the header of `arr` is installed on `pe`.
  bool headerPresent(std::uint16_t pe, ArrayId arr) const {
    return pes[pe].headers.count(arr) != 0;
  }

  /// Computes the flat offset; returns false (and records an error) on a
  /// bad subscript.
  bool resolveOffset(const ArrayInfo& info, std::int64_t i0, std::int64_t i1,
                     std::int64_t& offset) {
    if (info.shape.rank == 1) {
      if (i0 < 0 || i0 >= info.shape.dim0 * info.shape.dim1) return false;
      offset = i0;
      return true;
    }
    if (!info.shape.inBounds(i0, i1)) return false;
    offset = info.shape.flatten(i0, i1);
    return true;
  }

  /// Range-filter bounds (both ends) for array `arr` on `pe`.
  IdxRange rfRange(std::uint16_t pe, const ArrayInfo& info, std::uint8_t dim,
                   bool hasRow, std::int64_t row) const {
    if (!info.distributed) {
      // Undistributed array: its single home PE is responsible for all of it.
      if (static_cast<int>(pe) != info.homePe) return {};
      if (dim == 0) return {0, info.shape.rank == 1
                                   ? info.shape.numElems() - 1
                                   : info.shape.dim0 - 1};
      return {0, info.shape.dim1 - 1};
    }
    if (dim == 0) return info.layout.ownedRows(pe);
    PODS_CHECK(hasRow);
    return info.layout.ownedColsOfRow(pe, row);
  }

  // --- per-instruction execution -------------------------------------------

  /// The simulator's side of the SP executor (runtime/sp_exec.hpp) and of
  /// the receive core (runtime/receive.hpp), bound to one PE at its local
  /// clock `t`: instructions cost EU time, array instructions become Array
  /// Manager tasks issued at `t`, sends go through the Matching and Routing
  /// Units, and a spawn charges the Memory Manager.
  struct Exec {
    Impl& m;
    std::uint16_t pe;
    SimTime& t;
    /// Instructions this EU slice has asked to run (euRun's livelock bound).
    std::uint64_t steps = 0;
    /// Set when preempt() stopped the EU for good rather than yielding.
    bool halted = false;

    static constexpr std::int64_t kMaxArrayElems = std::int64_t(1) << 24;

    int numPEs() const { return m.cfg.numPEs; }
    /// Yields once the EU's time passes the queue's head, so cross-PE
    /// interactions are exact; halts on a livelock (one slice past 50M
    /// instructions) or a runaway error loop.
    bool preempt() {
      if (++steps > 50'000'000ULL) {
        m.runtimeError("livelock: one EU slice exceeded 50M instructions");
        halted = true;
        return true;
      }
      if (m.errorCount > 64) {
        halted = true;
        return true;
      }
      return m.queueHead < t.ns;
    }
    void charge(const Frame& f, const Instr& in, bool realOp) {
      const SimTime c = m.tm.euCost(in.op, realOp);
      t += c;
      m.euBusy(pe, c);
      SpProfile& profile = m.stats.spProfiles[f.spCode];
      ++profile.instructions;
      profile.euTime += c;
    }
    void fail(const std::string& msg) { m.runtimeError(msg); }
    std::uint64_t ctxBase() const { return 0; }
    std::uint64_t& ctxCounter() { return m.pes[pe].ctxCounter; }
    RecoveryLog* recoveryLog() {
      return m.killMode() ? &m.recLogs[pe] : nullptr;
    }
    void recordMint(std::uint64_t ctx, std::uint32_t seq, const Value& v) {
      m.recLogs[pe].recordMint(ctx, seq, v);
    }
    ParkedReplies& parkedReplies() { return m.pes[pe].recv.parked; }
    void replayedToken() { m.count(Ctr::RecoveryReplayedTokens); }

    // Receive core hooks.
    Frame* liveFrame(std::uint32_t idx) {
      std::vector<Frame>& frames = m.pes[pe].frames;
      return idx < frames.size() && frames[idx].state != FrameState::Dead
                 ? &frames[idx]
                 : nullptr;
    }
    bool wellFormed(const Token&, const Frame*) const { return true; }
    void drop(Drop why) {
      if (why == Drop::Stale) m.count(Ctr::TokensDropped);
      if (why == Drop::ReplayDup) m.count(Ctr::TokensReplayDup);
    }
    std::uint32_t spawn(std::uint16_t spCode, std::uint64_t ctx) {
      m.unitSched(pe, Unit::MM, t, m.tm.frameListOp);  // memory allocation
      return m.createFrame(pe, spCode, ctx, t);
    }
    void logRecord(const RecEntry& e) { m.recLogs[pe].entries.push_back(e); }
    void parkedEarly() { m.count(Ctr::RecoveryParkedEarly); }
    void wake(std::uint32_t idx, Frame& f, std::uint16_t slot) {
      if (f.state != FrameState::Blocked || f.blockedSlot != slot) return;
      f.state = FrameState::Ready;
      f.blockedSlot = kNoSlot;
      m.pes[pe].readyQ.push_back(idx);
      m.pushKick(pe, t);
    }
    bool tracksStragglers() const { return m.faulty(); }
    std::uint32_t retiredEntry(std::uint32_t idx) const { return idx; }
    bool holdsEnd() const { return false; }
    /// A rebuilt frame takes the next index, as its creation did; it is not
    /// counted again.
    std::uint32_t restore(const RecEntry& e) {
      std::vector<Frame>& frames = m.pes[pe].frames;
      frames.emplace_back().reset(e.spCode, e.ctx,
                                  m.prog.sp(e.spCode).numSlots);
      ++m.liveSps;
      return static_cast<std::uint32_t>(frames.size() - 1);
    }
    void restoreEnd(Frame& f) {
      f.state = FrameState::Dead;
      f.slots.clear();
      --m.liveSps;
    }
    void replayRecord(const RecEntry&) {
      PODS_UNREACHABLE("multi-process record in a simulator recovery log");
    }

    Step alloc(std::uint32_t frameIdx, Frame& f, const Instr& in,
               const ArrayShape& shape) {
      f.slots[in.dst] = Value{};  // split-phase: the AM fills in the id
      AmTask task;
      task.kind = AmTask::Kind::Alloc;
      task.distributed = in.op == Op::ALLOCD;
      task.shape = shape;
      task.cont = {pe, frameIdx, in.dst};
      if (m.killMode()) {
        // Stamp the mint identity so a replayed allocation resolves to the
        // array created before the kill instead of a fresh (empty) one.
        task.senderCtx = f.ctx;
        task.mintSeq = f.mintSeq++;
      }
      m.amLocal(pe, t, task);
      return Step::Continue;
    }

    Step read(std::uint32_t frameIdx, Frame& f, const Instr& in,
              ArrayId arr) {
      m.count(Ctr::ArrayReads);
      const std::int64_t i0 = f.slots[in.b].asInt();
      const std::int64_t i1 = in.c != kNoSlot ? f.slots[in.c].asInt() : 0;
      f.slots[in.dst] = Value{};  // split-phase
      if (m.headerPresent(pe, arr)) {
        const ArrayInfo* info = m.store.find(arr);
        std::int64_t offset;
        if (!m.resolveOffset(*info, i0, i1, offset)) {
          fail("array read out of bounds in " + m.prog.sp(f.spCode).name);
          return Step::Stopped;
        }
        const Value& elem = info->elems[static_cast<std::size_t>(offset)];
        if (info->owner(offset) == pe && !elem.empty()) {
          // Local present element: the fast path the 2.7 us covers.
          f.slots[in.dst] = elem;
          m.count(Ctr::ArrayReadsLocalHit);
          return Step::Continue;
        }
      }
      AmTask task;
      task.kind = AmTask::Kind::Read;
      task.arr = arr;
      task.i0 = i0;
      task.i1 = i1;
      task.rank = in.c != kNoSlot ? 2 : 1;
      task.cont = {pe, frameIdx, in.dst};
      m.amLocal(pe, t, task);
      return Step::Continue;
    }

    Step write(std::uint32_t, Frame& f, const Instr& in, ArrayId arr) {
      m.count(Ctr::ArrayWrites);
      AmTask task;
      task.kind = AmTask::Kind::Write;
      task.arr = arr;
      task.i0 = f.slots[in.b].asInt();
      task.i1 = in.c != kNoSlot ? f.slots[in.c].asInt() : 0;
      task.rank = in.c != kNoSlot ? 2 : 1;
      task.v = f.slots[in.dst];
      m.amLocal(pe, t, task);
      return Step::Continue;
    }

    Step rangeFilter(std::uint32_t frameIdx, Frame& f, const Instr& in,
                     ArrayId arr) {
      const bool hasRow = in.b != kNoSlot;
      const std::int64_t row = hasRow ? f.slots[in.b].asInt() : 0;
      if (m.headerPresent(pe, arr)) {
        const IdxRange r =
            m.rfRange(pe, *m.store.find(arr), in.dim, hasRow, row);
        f.slots[in.dst] =
            Value::intv((in.op == Op::RFHI ? r.hi : r.lo) - in.off);
        return Step::Continue;
      }
      f.slots[in.dst] = Value{};  // split-phase via the Array Manager
      AmTask task;
      task.kind = AmTask::Kind::Rf;
      task.arr = arr;
      task.i0 = row;
      task.hasRow = hasRow;
      task.dim = in.dim;
      task.rfOff = in.off;
      task.isHi = in.op == Op::RFHI;
      task.cont = {pe, frameIdx, in.dst};
      m.amLocal(pe, t, task);
      return Step::Continue;
    }

    Step dimQuery(std::uint32_t frameIdx, Frame& f, const Instr& in,
                  ArrayId arr) {
      if (m.headerPresent(pe, arr)) {
        const ArrayShape& shape = m.store.find(arr)->shape;
        f.slots[in.dst] = Value::intv(in.dim == 1 ? shape.dim1 : shape.dim0);
        return Step::Continue;
      }
      f.slots[in.dst] = Value{};  // split-phase via the Array Manager
      AmTask task;
      task.kind = AmTask::Kind::DimQ;
      task.arr = arr;
      task.dim = in.dim;
      task.cont = {pe, frameIdx, in.dst};
      m.amLocal(pe, t, task);
      return Step::Continue;
    }

    void sendArg(bool broadcast, std::uint16_t spCode, std::uint16_t slot,
                 std::uint64_t ctx, const Value& v) {
      Token tok;
      tok.spCode = spCode;
      tok.slot = slot;
      tok.ctx = ctx;
      tok.v = v;
      m.count(Ctr::TokensSent);
      if (broadcast) {
        m.broadcastToken(pe, t, tok);
      } else {
        m.sendToken(pe, pe, t, tok);
      }
    }
    void sendCont(Cont c, const Value& v, bool add, std::uint64_t senderCtx,
                  std::uint64_t sendKey) {
      Token tok;
      tok.toCont = true;
      tok.cont = c;
      tok.v = v;
      tok.add = add;
      tok.senderCtx = senderCtx;
      tok.sendKey = sendKey;
      m.count(Ctr::TokensSent);
      m.sendToken(pe, c.pe, t, tok);
    }
    void result(std::uint32_t idx, const Value& v) {
      m.stats.results[idx] = v;
      m.resultSet[idx] = true;
    }
    /// The frame dies and its execution memory is released.
    Step end(std::uint32_t frameIdx, Frame& f) {
      retire(*this, m.pes[pe].recv, f.ctx, frameIdx);
      f.state = FrameState::Dead;
      f.slots.clear();
      f.slots.shrink_to_fit();
      m.unitSched(pe, Unit::MM, t, m.tm.frameListOp);  // frame release
      m.count(Ctr::SpCompleted);
      --m.liveSps;
      return Step::Ended;
    }
  };

  /// The EU scheduler: runs ready SPs, blocking and switching per the paper.
  void euRun(std::uint16_t pe, SimTime tStart) {
    PeState& P = pes[pe];
    SimTime t = std::max(tStart, P.euFree);
    Exec ex{*this, pe, t};
    // The head is read once per entry (push() lowers it from here on) and
    // never re-bases the queue: what this EU pushes may be earlier than it.
    const EvKey* head = cq.peekKey();
    queueHead = head != nullptr ? head->t
                                : std::numeric_limits<std::int64_t>::max();
    for (;;) {
      if (P.current < 0) {
        if (P.readyQ.empty()) {
          P.euFree = t;
          return;
        }
        std::uint32_t idx = P.readyQ.front();
        P.readyQ.pop_front();
        Frame& f = P.frames[idx];
        if (f.state == FrameState::Dead) continue;
        P.current = idx;
        f.state = FrameState::Running;
        if (idx != P.lastFrame) {
          t += tm.contextSwitch;
          euBusy(pe, tm.contextSwitch);
          count(Ctr::EuContextSwitches);
          P.lastFrame = idx;
        }
      }
      const auto idx = static_cast<std::uint32_t>(P.current);
      Frame& f = P.frames[idx];
      const SimTime sliceStart = t;
      const Step r = pods::run(prog, ex, idx, f);
      // Trace: one slice per contiguous run of one SP.
      if (tracing && t > sliceStart)
        addTrace(pe, Unit::EU, &prog.sp(f.spCode).name, sliceStart,
                 t - sliceStart);
      if (r == Step::Continue) {
        P.euFree = t;
        if (ex.halted) return;
        // Yield to the global queue: its head is earlier than our time.
        f.state = FrameState::Ready;
        P.readyQ.push_front(idx);
        P.current = -1;
        pushKick(pe, t);
        return;
      }
      // Blocked on an empty slot, or stopped by an error for good; either
      // way pick the next ready SP (context switch charged at pick).
      if (r == Step::Blocked) count(Ctr::EuBlocks);
      if (r != Step::Ended) f.state = FrameState::Blocked;
      P.current = -1;
    }
  }

  // --- Array Manager -------------------------------------------------------

  void amHandle(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    // Allocation requests install headers; everything else needs one.
    if (task.kind != AmTask::Kind::Alloc &&
        task.kind != AmTask::Kind::AllocInstall &&
        !headerPresent(pe, task.arr)) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      P.pendingHeader[task.arr].push_back(task);
      count(Ctr::AmDeferredOnHeader);
      return;
    }
    switch (task.kind) {
      case AmTask::Kind::Alloc: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.allocArray);
        if (killMode()) {
          // Replayed allocation: hand back the array created before the kill
          // (its elements — possibly already written — survive in the global
          // store) instead of minting a fresh empty one.
          if (const Value* m =
                  recLogs[pe].findMint(task.senderCtx, task.mintSeq)) {
            P.headers.emplace(m->asArray(), 0);
            fillSlotLater(pe, done + tm.unitSignal, task.cont, *m);
            count(Ctr::ArrayAllocsReplayDup);
            flushPendingHeader(pe, done, m->asArray());
            break;
          }
        }
        ArrayId id = store.create(pe, task.shape, task.distributed);
        if (killMode()) {
          recLogs[pe].recordMint(task.senderCtx, task.mintSeq,
                                 Value::arrayv(id));
          // Arrays born while a PE is down never home pages on it: remap the
          // dead PE's segment onto a surviving neighbor so writes and reads
          // of this array need not stall until the restart. (Ownership is
          // fixed for an array's lifetime, so the remap is permanent — the
          // restarted PE simply owns nothing of arrays it never saw born.)
          if (task.distributed) {
            ArrayInfo* born = store.find(id);
            for (int d = 0; d < cfg.numPEs; ++d)
              if (pes[d].dead) {
                born->layout.migratePe(d);
                count(Ctr::RecoveryMigratedArrays);
              }
          }
        }
        P.headers.emplace(id, 0);
        fillSlotLater(pe, done + tm.unitSignal, task.cont, Value::arrayv(id));
        count(Ctr::ArrayAllocs);
        if (task.distributed && cfg.numPEs > 1) {
          // Broadcast the allocation to all other PEs (one message injection,
          // replicated by the network like the LD broadcast).
          SimTime sent =
              unitSched(pe, Unit::RU, done + tm.unitSignal, tm.tokenRoute());
          for (int dest = 0; dest < cfg.numPEs; ++dest) {
            if (dest == pe) continue;
            AmTask inst;
            inst.kind = AmTask::Kind::AllocInstall;
            inst.arr = id;
            inst.shape = task.shape;
            inst.distributed = true;
            inst.fromPe = pe;
            if (faulty()) {
              netSend(pe, static_cast<std::uint16_t>(dest), sent,
                      /*isToken=*/false, /*pageSized=*/false, Token{}, inst);
              continue;
            }
            pushAm(sent + tm.networkHop, static_cast<std::uint16_t>(dest), inst);
          }
        }
        // Any ops that raced ahead of this allocation on this PE.
        flushPendingHeader(pe, done, id);
        break;
      }
      case AmTask::Kind::AllocInstall: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.allocArray);
        P.headers.emplace(task.arr, 0);
        flushPendingHeader(pe, done, task.arr);
        break;
      }
      case AmTask::Kind::Read:
        amRead(pe, t, task);
        break;
      case AmTask::Kind::Write:
        amWrite(pe, t, task);
        break;
      case AmTask::Kind::RemoteReadReq:
        amRemoteReadReq(pe, t, task);
        break;
      case AmTask::Kind::PageArrive:
        amPageArrive(pe, t, task);
        break;
      case AmTask::Kind::Rf: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        const ArrayInfo* info = store.find(task.arr);
        IdxRange r = rfRange(pe, *info, task.dim, task.hasRow, task.i0);
        fillSlotLater(pe, done + tm.unitSignal, task.cont,
                      Value::intv((task.isHi ? r.hi : r.lo) - task.rfOff));
        break;
      }
      case AmTask::Kind::DimQ: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        const ArrayInfo* info = store.find(task.arr);
        fillSlotLater(pe, done + tm.unitSignal, task.cont,
                      Value::intv(task.dim == 1 ? info->shape.dim1
                                                : info->shape.dim0));
        break;
      }
      case AmTask::Kind::ValueArrive: {
        // A remote owner answered a read that had been queued on an absent
        // element: satisfy every local reader waiting on that element.
        SimTime done = unitSched(pe, Unit::AM, t, tm.memWrite);
        auto ait = P.pendingRemote.find(task.arr);
        if (ait == P.pendingRemote.end()) break;
        auto oit = ait->second.find(task.offset);
        if (oit == ait->second.end()) break;
        for (const Cont& c : oit->second) {
          fillSlotLater(pe, done + tm.unitSignal, c, task.v);
        }
        ait->second.erase(oit);
        break;
      }
    }
  }

  void flushPendingHeader(std::uint16_t pe, SimTime t, ArrayId id) {
    PeState& P = pes[pe];
    auto it = P.pendingHeader.find(id);
    if (it == P.pendingHeader.end()) return;
    std::vector<AmTask> tasks = std::move(it->second);
    P.pendingHeader.erase(it);
    for (const AmTask& task : tasks) pushAm(t, pe, task);
  }

  void amRead(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    const ArrayInfo* info = store.find(task.arr);
    std::int64_t offset;
    if (!resolveOffset(*info, task.i0, task.i1, offset)) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      runtimeError("array read out of bounds");
      return;
    }
    const int owner = info->owner(offset);
    if (owner == pe) {
      const Value& v = info->elems[static_cast<std::size_t>(offset)];
      if (!v.empty()) {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        fillSlotLater(pe, done + tm.unitSignal, task.cont, v);
      } else {
        unitSched(pe, Unit::AM, t, tm.enqueueRead);
        P.deferred[task.arr][offset].localWaiters.push_back(task.cont);
        count(Ctr::ArrayReadsDeferred);
      }
      return;
    }
    // Remote element: consult the software page cache first.
    count(Ctr::ArrayReadsRemote);
    const std::int64_t page = info->layout.pageOfOffset(offset);
    const int within = static_cast<int>(offset % tm.pageElems);
    if (cfg.cachePages) {
      auto c = P.cache.find(pageKey(task.arr, page));
      if (c != P.cache.end() && c->second.test(within)) {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        fillSlotLater(pe, done + tm.unitSignal, task.cont,
                      info->elems[static_cast<std::size_t>(offset)]);
        count(Ctr::ArrayReadsCacheHit);
        return;
      }
    }
    // Coalesce with an already-in-flight request for the same element.
    auto& pending = P.pendingRemote[task.arr];
    auto pit = pending.find(offset);
    if (pit != pending.end()) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      pit->second.push_back(task.cont);
      count(Ctr::ArrayReadsCoalesced);
      return;
    }
    pending[offset].push_back(task.cont);
    SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
    AmTask req;
    req.kind = AmTask::Kind::RemoteReadReq;
    req.arr = task.arr;
    req.offset = offset;
    req.fromPe = pe;
    amToRemote(pe, static_cast<std::uint16_t>(owner), done, req,
               /*pageSized=*/false);
  }

  /// Ships the page containing `offset` to `toPe` with the current presence
  /// mask snapshot.
  void sendPage(std::uint16_t pe, SimTime t, const ArrayInfo& info,
                std::int64_t page, std::uint16_t toPe) {
    SimTime done = unitSched(
        pe, Unit::AM, t,
        tm.memRead * tm.pageElems + tm.unitSignal);  // "Send Page"
    AmTask pg;
    pg.kind = AmTask::Kind::PageArrive;
    pg.arr = info.id;
    pg.offset = page;
    const std::int64_t base = page * tm.pageElems;
    for (int i = 0; i < tm.pageElems; ++i) {
      const std::int64_t off = base + i;
      if (off >= info.shape.numElems()) break;
      if (!info.elems[static_cast<std::size_t>(off)].empty()) pg.mask.set(i);
    }
    count(Ctr::ArrayPagesSent);
    amToRemote(pe, toPe, done, pg, /*pageSized=*/true);
  }

  void amRemoteReadReq(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    const ArrayInfo* info = store.find(task.arr);
    const Value& v = info->elems[static_cast<std::size_t>(task.offset)];
    if (!v.empty()) {
      sendPage(pe, t, *info, info->layout.pageOfOffset(task.offset),
               task.fromPe);
      return;
    }
    // Queue the remote request on the absent element.
    unitSched(pe, Unit::AM, t, tm.enqueueRead);
    Deferred& d = P.deferred[task.arr][task.offset];
    for (std::uint16_t waiting : d.remotePes) {
      if (waiting == task.fromPe) return;  // already queued
    }
    d.remotePes.push_back(task.fromPe);
    count(Ctr::ArrayReadsRemoteDeferred);
  }

  void amPageArrive(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    SimTime done =
        unitSched(pe, Unit::AM, t, tm.memWrite * tm.pageElems);  // "Receive Page"
    if (cfg.cachePages) {
      P.cache[pageKey(task.arr, task.offset)].merge(task.mask);
    }
    count(Ctr::ArrayPagesReceived);
    // Satisfy every waiting read that this page covers.
    const ArrayInfo* info = store.find(task.arr);
    auto ait = P.pendingRemote.find(task.arr);
    if (ait == P.pendingRemote.end()) return;
    const std::int64_t lo = task.offset * tm.pageElems;
    const std::int64_t hi = lo + tm.pageElems - 1;
    for (auto it = ait->second.begin(); it != ait->second.end();) {
      const std::int64_t off = it->first;
      const int within = static_cast<int>(off - lo);
      if (off >= lo && off <= hi && task.mask.test(within)) {
        for (const Cont& c : it->second) {
          fillSlotLater(pe, done + tm.unitSignal, c,
                        info->elems[static_cast<std::size_t>(off)]);
        }
        it = ait->second.erase(it);
      } else {
        ++it;
      }
    }
  }

  void amWrite(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    ArrayInfo* info = store.find(task.arr);
    std::int64_t offset;
    if (!resolveOffset(*info, task.i0, task.i1, offset)) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      runtimeError("array write out of bounds");
      return;
    }
    const int owner = info->owner(offset);
    // Under fail-stop replay a re-executed frame rewrites elements it wrote
    // before the kill. Single assignment makes the replay value identical,
    // so the rewrite is a no-op (nobody can still be waiting on a present
    // element) rather than a violation; a *different* value still faults.
    if (killMode() && !task.forwarded &&
        !info->elems[static_cast<std::size_t>(offset)].empty() &&
        info->elems[static_cast<std::size_t>(offset)].identical(task.v)) {
      unitSched(pe, Unit::AM, t, tm.memWrite);
      count(Ctr::ArrayWritesReplayDup);
      return;
    }
    if (owner != pe) {
      // Remote write: commit the value here (single assignment makes it
      // final, so the writer may also cache it — its own read-after-write,
      // e.g. a recurrence over a distributed array, then stays local), and
      // forward a token-sized notification to the owner, which wakes any
      // readers queued on the element there.
      if (!store.write(task.arr, offset, task.v)) {
        unitSched(pe, Unit::AM, t, tm.memWrite);
        runtimeError("single-assignment violation: array #" +
                     std::to_string(task.arr) + " element " +
                     std::to_string(offset) + " written twice");
        return;
      }
      if (cfg.cachePages) {
        P.cache[pageKey(task.arr, info->layout.pageOfOffset(offset))].set(
            static_cast<int>(offset % tm.pageElems));
      }
      SimTime done = unitSched(pe, Unit::AM, t, tm.memWrite + tm.memRead);
      count(Ctr::ArrayWritesRemote);
      task.forwarded = true;
      amToRemote(pe, static_cast<std::uint16_t>(owner), done, task,
                 /*pageSized=*/false);
      return;
    }
    if (!task.forwarded && !store.write(task.arr, offset, task.v)) {
      unitSched(pe, Unit::AM, t, tm.memWrite);
      runtimeError("single-assignment violation: array #" +
                   std::to_string(task.arr) + " element " +
                   std::to_string(offset) + " written twice");
      return;
    }
    // "Array Write: memory_write_time + number_queued_reads * message_time".
    auto dit = P.deferred.find(task.arr);
    Deferred* d = nullptr;
    if (dit != P.deferred.end()) {
      auto oit = dit->second.find(offset);
      if (oit != dit->second.end()) d = &oit->second;
    }
    const std::int64_t queued =
        d ? static_cast<std::int64_t>(d->localWaiters.size()) : 0;
    SimTime done = unitSched(pe, Unit::AM, t,
                             tm.memWrite + tm.unitSignal * queued);
    if (d) {
      for (const Cont& c : d->localWaiters) {
        fillSlotLater(pe, done + tm.unitSignal, c, task.v);
      }
      // Remote readers queued on this element get the value itself as a
      // token-sized response (the write "reactivates all PEs blocked on that
      // location"); future reads of the page still fetch and cache it whole.
      for (std::uint16_t toPe : d->remotePes) {
        AmTask resp;
        resp.kind = AmTask::Kind::ValueArrive;
        resp.arr = task.arr;
        resp.offset = offset;
        resp.v = task.v;
        amToRemote(pe, toPe, done, resp, /*pageSized=*/false);
      }
      dit->second.erase(offset);
    }
  }

  // --- fail-stop recovery (kill mode) --------------------------------------

  /// True for Array Manager tasks a PE enqueues against itself on behalf of
  /// its own frames (reads, writes, allocations, header queries). After a
  /// kill these are volatile-state artifacts of the dead incarnation — the
  /// replayed frames re-issue every one of them — and must be dropped, not
  /// held: a stale Read, for instance, would re-register its continuation
  /// under the *old* round's element and poison a multi-round slot with a
  /// later iteration's value once the response lands. Network-origin tasks
  /// (forwarded writes, remote read requests, page/value responses, header
  /// installs) stay held: their senders acked and moved on, so the held
  /// copy can be the only one left.
  static bool amTaskIsLocalRequest(const AmTask& task) {
    switch (task.kind) {
      case AmTask::Kind::Read:
      case AmTask::Kind::Alloc:
      case AmTask::Kind::Rf:
      case AmTask::Kind::DimQ:
        return true;
      case AmTask::Kind::Write:
        return !task.forwarded;
      default:
        return false;
    }
  }

  /// Filters events touching the killed PE. Events from a previous
  /// incarnation are volatile-state artifacts: EU kicks, AM slot fills and
  /// the PE's own Array Manager requests are dropped (re-execution
  /// regenerates them), while token and network-origin Array Manager
  /// deliveries are *held* — their senders may have retired before the
  /// kill and will never resend — and re-injected after the rebuild,
  /// where the logical dedup filters absorb any copy a replay also
  /// regenerates. Returns true when the event must not be dispatched.
  bool staleOrHeld(const Ev& ev, SimTime t) {
    switch (ev.kind) {
      case EvKind::EuKick:
      case EvKind::TokenAtMu:
      case EvKind::TokenDeliver:
      case EvKind::AmArrive:
      case EvKind::SlotFill:
        break;
      default:
        return false;  // network-layer + kill events are never PE-volatile
    }
    PeState& P = pes[ev.pe];
    if (ev.inc == P.incarnation && !P.dead) return false;
    if (ev.kind == EvKind::EuKick || ev.kind == EvKind::SlotFill ||
        (ev.kind == EvKind::AmArrive &&
         amTaskIsLocalRequest(bodies[ev.body].am))) {
      count(Ctr::RecoveryDroppedEvents);
      if (ev.body != kNoBody) bodies.release(ev.body);
      return true;
    }
    if (P.dead) {
      count(Ctr::RecoveryHeldEvents);
      deadHeld.push_back(ev);  // keeps its body until the restart
      return true;
    }
    // Already restarted: deliver as a fresh arrival; dedup does the rest.
    if (ev.kind == EvKind::TokenDeliver) {
      deliverToken(ev.pe, t, bodies[ev.body].tok);
      bodies.release(ev.body);
      return true;
    }
    return false;
  }

  void peKill(std::uint16_t pe, SimTime t) {
    PeState& P = pes[pe];
    count(Ctr::FaultKills);
    P.incarnation += 1;
    P.dead = true;
    for (const Frame& f : P.frames)
      if (f.state != FrameState::Dead) --liveSps;
    P.frames.clear();
    P.readyQ.clear();
    P.current = -1;
    P.lastFrame = 0xFFFFFFFFu;
    P.euFree = t;
    P.kickScheduled = false;
    P.headers.clear();
    P.pendingHeader.clear();
    P.cache.clear();
    P.pendingRemote.clear();
    P.deferred.clear();
    P.recv.wipe();
    P.rx.resetReceiver();
  }

  /// Rebuilds the killed PE from its receive log, then re-injects the held
  /// in-flight deliveries and asks surviving PEs to re-announce reads that
  /// were parked at the dead owner (whose deferred-read queues died with it).
  void peRestart(std::uint16_t pe, SimTime t) {
    PeState& P = pes[pe];
    PODS_CHECK(P.dead);
    P.dead = false;
    count(Ctr::FaultRestarts);
    Exec ex{*this, pe, t};
    rebuild(ex, P.recv);
    // Every frame that was live at the kill restarts from pc 0. Headers come
    // back from the global store: every distributed array broadcast its
    // header to all PEs, and an undistributed array homed here was installed
    // by this PE's own allocation (which the mint log replays identically).
    std::int64_t replayed = 0;
    for (std::uint32_t idx = 0; idx < P.frames.size(); ++idx) {
      if (P.frames[idx].state == FrameState::Dead) continue;
      P.readyQ.push_back(idx);
      ++replayed;
    }
    count(Ctr::RecoveryReplayedFrames, replayed);
    for (const auto& [id, info] : store.all()) {
      if (info.distributed || info.homePe == static_cast<int>(pe))
        P.headers.emplace(id, 0);
    }
    for (const Ev& held : deadHeld) {
      // In-flight continuation tokens were acked before the kill, so this
      // held copy is the only one left. Delivering it now could land in a
      // multi-round (CLEARed) slot ahead of the round that consumes it and
      // be wiped; park it with the logged responses instead, so the trigger
      // re-delivers it in program order. Context tokens are one-shot per
      // (ctx, slot) and safe to deliver at any time.
      const Token& tok = bodies[held.body].tok;
      if (held.kind != EvKind::AmArrive && tok.toCont && tok.sendKey != 0) {
        parkHeldReply(ex, P.recv, tok);
        bodies.release(held.body);
        continue;
      }
      // Re-injected as a fresh arrival, which takes over the held body.
      push(t,
           held.kind == EvKind::AmArrive ? EvKind::AmArrive : EvKind::TokenAtMu,
           held.pe, held.body);
    }
    deadHeld.clear();
    // Survivors re-announce reads whose owner-side deferral died with `pe`.
    for (std::size_t from = 0; from < pes.size(); ++from) {
      if (from == pe) continue;
      for (const auto& [arr, offs] : pes[from].pendingRemote) {
        const ArrayInfo* info = store.find(arr);
        for (const auto& [offset, conts] : offs) {
          if (info->owner(offset) != static_cast<int>(pe)) continue;
          AmTask req;
          req.kind = AmTask::Kind::RemoteReadReq;
          req.arr = arr;
          req.offset = offset;
          req.fromPe = static_cast<std::uint16_t>(from);
          amToRemote(static_cast<std::uint16_t>(from), pe, t, req,
                     /*pageSized=*/false);
          count(Ctr::RecoveryReRequestedReads);
        }
      }
    }
    pushKick(pe, t);
  }

  // --- main loop ------------------------------------------------------------

  RunStats run() {
    // Boot: instantiate main's frame on PE 0 with context 0. No token spawns
    // it, so it costs the Memory Manager nothing.
    {
      SimTime t0 = kTimeZero;
      Exec ex{*this, 0, t0};
      bootMain(ex, pes[0].recv, prog.mainSp, 0,
               createFrame(0, prog.mainSp, 0, t0));
    }
    if (killMode()) {
      if (cfg.faults.killPe >= cfg.numPEs) {
        runtimeError("kill fault targets PE " +
                     std::to_string(cfg.faults.killPe) + " but only " +
                     std::to_string(cfg.numPEs) + " PEs exist");
        stats.ok = false;
        return finalize();
      }
      const auto victim = static_cast<std::uint16_t>(cfg.faults.killPe);
      push(usec(cfg.faults.killTimeUs), EvKind::PeKill, victim);
      push(usec(cfg.faults.killTimeUs + cfg.faults.killRestartUs),
           EvKind::PeRestart, victim);
    }
    while (!cq.empty()) {
      EvKey key;
      const Ev ev = cq.pop(&key);
      const SimTime t{key.t};
      ++eventsProcessed;
      if (cfg.abort != nullptr &&
          cfg.abort->load(std::memory_order_relaxed)) {
        stats.ok = false;
        stats.error = "aborted: external stop requested (watchdog) after " +
                      std::to_string(eventsProcessed) +
                      " events at simulated t=" + std::to_string(t.us()) +
                      "us";
        stats.total = t;
        return finalize();
      }
      if (cfg.maxEvents && eventsProcessed > cfg.maxEvents) {
        // Forensic report for the safety valve: which event tripped it,
        // where, and what was still live at that moment. stats.total is
        // stamped from the tripping event itself (`now` still holds the
        // previous event's time here), so the reported total and tripping
        // time agree.
        int alive = 0;
        const std::string sample = liveSpSample(alive);
        stats.ok = false;
        stats.error =
            "event budget exhausted (possible livelock): event " +
            std::to_string(eventsProcessed) + " exceeds maxEvents=" +
            std::to_string(cfg.maxEvents) + "; tripping event was " +
            evKindName(ev.kind) + " on PE " + std::to_string(ev.pe) +
            " at simulated t=" + std::to_string(t.us()) + "us; " +
            std::to_string(alive) + " SPs live;" + sample;
        stats.total = t;
        return finalize();
      }
      now = t;
      // Protocol bookkeeping (acks, retransmit timers, suppressed
      // duplicates) can trail past the last real work; `lastUseful` tracks
      // the completion time the program actually observed.
      bool useful = true;
      if (killMode() && staleOrHeld(ev, t)) continue;
      // Each case releases the event's body or hands it to the event it
      // becomes.
      switch (ev.kind) {
        case EvKind::EuKick: {
          PeState& P = pes[ev.pe];
          if (P.kickScheduled && t >= P.kickAt) P.kickScheduled = false;
          euRun(ev.pe, t);
          break;
        }
        case EvKind::TokenAtMu: {
          SimTime done = unitSched(ev.pe, Unit::MU, t, tm.matchTime);
          count(Ctr::TokensMatched);
          push(done, EvKind::TokenDeliver, ev.pe, ev.body);
          break;
        }
        case EvKind::TokenDeliver:
          deliverToken(ev.pe, t, bodies[ev.body].tok);
          bodies.release(ev.body);
          break;
        case EvKind::AmArrive:
          amHandle(ev.pe, t, bodies[ev.body].am);
          bodies.release(ev.body);
          break;
        case EvKind::SlotFill:
          deliverToken(ev.pe, t, bodies[ev.body].tok);
          bodies.release(ev.body);
          break;
        case EvKind::NetDeliver:
          useful = netDeliver(ev.pe, t, ev.body);
          break;
        case EvKind::NetAckArrive: {
          const std::uint64_t msgId = bodies[ev.body].msgId;
          bodies.release(ev.body);
          retx.erase(msgId);
          useful = false;
          break;
        }
        case EvKind::NetTimeout: {
          const Body& b = bodies[ev.body];
          const std::uint64_t msgId = b.msgId;
          const std::uint32_t attempt = b.attempt;
          bodies.release(ev.body);
          fireTimeout(msgId, attempt, t);
          useful = false;
          break;
        }
        case EvKind::PeKill:
          peKill(ev.pe, t);
          useful = false;
          break;
        case EvKind::PeRestart:
          peRestart(ev.pe, t);
          useful = false;
          break;
      }
      if (useful && now > lastUseful) lastUseful = now;
    }
    // Every body went back exactly once: through its event's handler, a
    // kill's triage, or the restart that re-injected or parked it.
    PODS_CHECK_MSG(bodies.live() == 0, "event bodies outlived the drained queue");
    stats.total = faulty() ? lastUseful : now;
    // EU time may extend past the last event.
    for (const PeState& P : pes) stats.total = std::max(stats.total, P.euFree);
    return finalize();
  }

  /// Samples live (non-Dead) frames for diagnostics: "[pe0 conduction pc=3
  /// blocked on row]" entries, capped at ~200 chars. Sets `alive` to the
  /// full count. Shared by the deadlock, event-budget, and abort reports.
  std::string liveSpSample(int& alive) const {
    alive = 0;
    std::string sample;
    for (std::size_t pe = 0; pe < pes.size(); ++pe) {
      for (const Frame& f : pes[pe].frames) {
        if (f.state != FrameState::Dead) {
          ++alive;
          if (sample.size() < 200) {
            sample += " [pe" + std::to_string(pe) + " " +
                      prog.sp(f.spCode).name + " pc=" + std::to_string(f.pc) +
                      (f.state == FrameState::Blocked
                           ? " blocked on " +
                                 prog.sp(f.spCode).slotName(f.blockedSlot)
                           : "") +
                      "]";
          }
        }
      }
    }
    return sample;
  }

  RunStats finalize() {
    for (std::size_t pe = 0; pe < pes.size(); ++pe) {
      stats.busy[pe] = pes[pe].unitBusy;
    }
    stats.counters.add("events", static_cast<std::int64_t>(eventsProcessed));
    stats.counters.add("sp.peakLive", peakLiveSps);
    stats.events = eventsProcessed;
    // Event-queue health gauges, deterministic like every other counter
    // (derived from the event stream alone).
    const EventQStats& eq = cq.stats();
    stats.counters.add("sim.eventq.peakDepth", eq.peakDepth);
    stats.counters.add("sim.eventq.moves", eq.moves);
    if (faulty()) {
      // The receive ledgers' counts, plus canonical zero registrations so
      // every faulty run reports the same counter-name set; the sender's
      // retransmits and give-ups are counters by id, folded in below.
      for (const PeState& P : pes) {
        P.rx.addStats(stats.counters);
        stats.counters.add(proto::kStragglers, P.recv.stragglers);
      }
      proto::Delivery::registerInjectionCounters(stats.counters);
    }
    if (killMode()) {
      // Recovery-ledger residency after END-pruning: bounded by the number
      // of *live* instances, not the length of the run (see recovery.hpp).
      std::int64_t liveKeys = 0, liveMints = 0;
      for (const PeState& P : pes) liveKeys += P.recv.dedup.liveKeys();
      for (const RecoveryLog& L : recLogs)
        for (const auto& [ctx, m] : L.mints) liveMints += static_cast<std::int64_t>(m.size());
      stats.counters.add("recovery.dedup.liveKeys", liveKeys);
      stats.counters.add("recovery.mints.live", liveMints);
    }
    if (tracing) writeTrace();
    // The counters bumped by id, under their names; last, so that the
    // trace writer's error counts too.
    for (const CtrName& c : kCtrNames) {
      const auto i = static_cast<std::size_t>(c.id);
      if ((ctrTouched >> i) & 1) stats.counters.add(c.name, ctr[i]);
    }
    for (std::size_t from = 0; from < linkCounts.size(); ++from) {
      const auto& row = linkCounts[from];
      for (std::size_t to = 0; to < row.size(); ++to)
        for (std::size_t k = 0; k < kNumLinkKinds; ++k)
          if (row[to][k] != 0)
            stats.counters.add(
                proto::linkCounterName(static_cast<int>(from),
                                       static_cast<int>(to), kLinkKindNames[k]),
                row[to][k]);
    }
    // Diagnose incomplete executions.
    if (stats.error.empty()) {
      int alive = 0;
      const std::string sample = liveSpSample(alive);
      if (alive > 0) {
        stats.error = "deadlock: " + std::to_string(alive) +
                      " SPs never completed;" + sample;
      } else {
        for (std::size_t r = 0; r < resultSet.size(); ++r) {
          if (!resultSet[r]) {
            stats.error = "program result " + std::to_string(r) + " never set";
            break;
          }
        }
      }
    }
    stats.ok = stats.error.empty();
    return stats;
  }
};

Machine::Machine(const SpProgram& prog, MachineConfig cfg)
    : impl_(std::make_unique<Impl>(prog, cfg)) {}

Machine::~Machine() = default;

RunStats Machine::run() {
  const auto t0 = std::chrono::steady_clock::now();
  RunStats s = impl_->run();
  s.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s;
}

const ArrayStore& Machine::arrays() const { return impl_->store; }

}  // namespace pods::sim
