#include "native/native_machine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "native/procmgr.hpp"
#include "native/shm_store.hpp"
#include "native/spsc_ring.hpp"
#include "native/transport.hpp"
#include "proto/delivery.hpp"
#include "runtime/receive.hpp"
#include "runtime/sp_exec.hpp"
#include "support/check.hpp"
#include "support/recovery.hpp"

namespace pods::native {

namespace {

struct NFrame : SpFrame {
  bool blocked = false;
  bool dead = false;
};
// The flags share SpFrame's first 64 bytes (its tail padding): runSlice
// tests `dead`, and deliver() `blocked`, next to the fields run() reads.
static_assert(sizeof(NFrame) <= 64, "NFrame outgrew one cache line");

/// End-of-list link of the wire store's intrusive park lists.
constexpr std::uint32_t kNoPark = ~std::uint32_t{0};

/// A deferred read parked at an owner (wire store): one node of the owning
/// worker's park pool, linked into its element's FIFO list.
struct WsPark {
  std::uint64_t packed = 0;  // requester continuation (Cont::pack)
  std::uint32_t next = kNoPark;
};

/// One owned element under the wire store: its value (Tag::Empty while
/// absent) and the head of its parked-reader list.
struct WsCell {
  Value v;
  std::uint32_t parks = kNoPark;
};

/// Widens the dense slice `v` — v[i] holds index lo + i — to cover index
/// `idx` (0 <= idx < kMaxArrayElems). Either end grows by at least the
/// current size, so an ascending or descending sweep costs amortized O(1)
/// per index.
template <class T>
T& widenSlice(std::vector<T>& v, std::int64_t& lo, std::int64_t idx) {
  if (v.empty()) {
    lo = idx;
    v.resize(1);
  } else if (idx < lo) {
    const std::int64_t size = static_cast<std::int64_t>(v.size());
    const std::int64_t newLo =
        std::max<std::int64_t>(0, std::min(idx, lo - size));
    std::vector<T> wider(static_cast<std::size_t>(lo - newLo + size));
    std::move(v.begin(), v.end(), wider.begin() + (lo - newLo));
    v.swap(wider);
    lo = newLo;
  } else if (idx - lo >= static_cast<std::int64_t>(v.size())) {
    v.resize(static_cast<std::size_t>(idx - lo + 1));
  }
  return v[static_cast<std::size_t>(idx - lo)];
}

/// One worker's record of one array, in whichever store the run uses.
struct ArrayRec {
  /// Shape + ownership layout once known. Cell store: set when the worker
  /// first resolves the id in the store. Wire store: the allocator
  /// registers it at ALLOC, other PEs on a DimReply. Layout is a pure
  /// function of (shape, machine config), so a cached copy is as
  /// authoritative as the allocator's.
  std::optional<ArrayLayout> layout;
  /// Cell store (`--store=local`): the store's cells and shape.
  ShmStore::ArrayRef ref;

  // Wire store: the paper's per-PE run of pages (§4.1) held as array memory
  // with presence bits and per-element deferred-read lists (§5.1), plus the
  // software cache of remote pages (§4) this PE has been sent.
  /// Dense slice of this PE's owned elements: cells[i] is offset lo + i.
  /// Once the shape is known it covers exactly layout->elemSegment(pe), so
  /// find() is the ownership test. Before that — an owner can be sent a
  /// ReadReq/Write for an array it never allocated or queried — it spans
  /// the offsets seen so far.
  std::int64_t lo = 0;
  std::vector<WsCell> cells;
  /// Requester page cache: pages[p - pageLo] holds the elements of remote
  /// page p this PE has been sent (page runs and value replies) — empty
  /// until the first arrives, then one value per page element, absent =
  /// Tag::Empty. Single assignment makes every cached element final.
  std::int64_t pageLo = 0;
  std::vector<std::vector<Value>> pages;
  /// Frames blocked on the unknown shape, requeued by the DimReply.
  std::vector<std::uint32_t> shapeWait;
  bool dimReqSent = false;  // one DimReq per array per PE

  const ArrayShape& shape() const { return layout->shape(); }

  /// This PE's cell for element `off`, or nullptr when the slice does not
  /// hold it — with the shape known, exactly when another PE owns it.
  [[gnu::always_inline]] WsCell* find(std::int64_t off) {
    const std::int64_t i = off - lo;
    if (i < 0 || i >= static_cast<std::int64_t>(cells.size())) return nullptr;
    return &cells[static_cast<std::size_t>(i)];
  }

  /// Shape still unknown: widens the slice to cover `off`.
  WsCell& widen(std::int64_t off) { return widenSlice(cells, lo, off); }

  /// Shape learned: re-seats the slice on exactly `seg`. False when a
  /// non-empty cell lies outside it (a message for an element this PE does
  /// not own).
  bool seat(IdxRange seg) {
    std::vector<WsCell> slice(static_cast<std::size_t>(seg.size()));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].v.empty() && cells[i].parks == kNoPark) continue;
      const std::int64_t off = lo + static_cast<std::int64_t>(i);
      if (!seg.contains(off)) return false;
      slice[static_cast<std::size_t>(off - seg.lo)] = cells[i];
    }
    cells.swap(slice);
    lo = seg.lo;
    return true;
  }

  /// The cached value of remote element `off` (shape known), or nullptr.
  const Value* cached(std::int64_t off) const {
    const std::int64_t n = layout->pageElems();
    const std::int64_t i = off / n - pageLo;
    if (i < 0 || i >= static_cast<std::int64_t>(pages.size())) return nullptr;
    const std::vector<Value>& page = pages[static_cast<std::size_t>(i)];
    if (page.empty()) return nullptr;
    const Value& v = page[static_cast<std::size_t>(off % n)];
    return v.empty() ? nullptr : &v;
  }

  /// The cache slice of remote page `p` (shape known), created empty.
  std::vector<Value>& cachePage(std::int64_t p) {
    std::vector<Value>& page = widenSlice(pages, pageLo, p);
    if (page.empty()) page.resize(static_cast<std::size_t>(layout->pageElems()));
    return page;
  }

  /// Caches remote element `off` (shape known, 0 <= off < numElems).
  void cache(std::int64_t off, const Value& v) {
    const std::int64_t n = layout->pageElems();
    cachePage(off / n)[static_cast<std::size_t>(off % n)] = v;
  }
};

/// One worker's array records, indexed the way ids are minted (id = seq *
/// numPEs + pe): a row per allocating PE, each a directory of fixed-size
/// record chunks indexed by seq. Dense per PE whatever the allocation skew,
/// and no hashing on the array-instruction path. Bounded like the cell
/// store's chunk directory: an id whose seq is at or past kMaxSeq has no
/// record, so no id — one read off the wire included — can grow a row past
/// kMaxSeq / kChunk chunk pointers.
class ArrayTable {
 public:
  explicit ArrayTable(int numPEs = 1)
      : numPEs_(static_cast<std::uint32_t>(numPEs)),
        recip_((std::uint64_t{1} << 40) / numPEs_ + 1),
        rows_(static_cast<std::size_t>(numPEs)) {
    PODS_CHECK(numPEs >= 1 && numPEs <= 256);
  }

  /// The record of `id` when its chunk exists, else nullptr.
  [[gnu::always_inline]] ArrayRec* find(ArrayId id) {
    const std::uint32_t seq = seqOf(id);
    const Row& row = rows_[id - seq * numPEs_];
    const std::uint32_t c = seq >> kChunkBits;
    if (c >= row.size() || row[c] == nullptr) return nullptr;
    return &row[c][seq & (kChunk - 1)];
  }

  /// The record of `id`, installing its chunk; nullptr past the bound.
  ArrayRec* get(ArrayId id) {
    const std::uint32_t seq = seqOf(id);
    if (seq >= kMaxSeq) return nullptr;
    Row& row = rows_[id - seq * numPEs_];
    const std::uint32_t c = seq >> kChunkBits;
    if (c >= row.size()) row.resize(c + 1);
    if (row[c] == nullptr) row[c] = std::make_unique<ArrayRec[]>(kChunk);
    return &row[c][seq & (kChunk - 1)];
  }

  /// Calls f(id, record) for every record of every installed chunk.
  template <class F>
  void forEach(F f) {
    for (std::uint32_t pe = 0; pe < numPEs_; ++pe) {
      const Row& row = rows_[pe];
      for (std::uint32_t c = 0; c < row.size(); ++c) {
        if (row[c] == nullptr) continue;
        for (std::uint32_t i = 0; i < kChunk; ++i)
          f(static_cast<ArrayId>(((c << kChunkBits) + i) * numPEs_ + pe),
            row[c][i]);
      }
    }
  }

 private:
  static constexpr std::uint32_t kChunkBits = 6;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  static constexpr std::uint32_t kMaxSeq = 1u << 22;  // as the cell store
  using Row = std::vector<std::unique_ptr<ArrayRec[]>>;

  /// id / numPEs as one multiply, off the divider every array access
  /// would otherwise wait on. Exact for every 32-bit id: recip_ exceeds
  /// 2^40 / numPEs by e <= 1, so the product overshoots id / numPEs by
  /// id * e / 2^40 < 2^32 / 2^40 <= 1 / numPEs, never reaching the next
  /// integer.
  std::uint32_t seqOf(ArrayId id) const {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(id) * recip_) >> 40);
  }

  std::uint32_t numPEs_;
  std::uint64_t recip_;
  std::vector<Row> rows_;
};

/// Owner-thread-only event counters; read cross-thread only after join().
struct WorkerStats {
  std::int64_t tokensIn = 0;       // tokens drained from the inbox
  std::int64_t tokensOut = 0;      // tokens this worker sent (local + remote)
  std::int64_t tokensDropped = 0;  // tokens to dead / stale-generation frames
  std::int64_t framesCreated = 0;
  std::int64_t framesRetired = 0;
  std::int64_t framesReused = 0;   // creations served from the free list
  std::int64_t idleTransitions = 0;
  std::int64_t instructions = 0;
  std::int64_t dupSuppressed = 0;  // duplicate faulty messages deduplicated
  /// Tokens no sender can have built (forged or corrupted on the wire): an
  /// unknown SP code, a slot past the frame's slots, or a join-counter add
  /// that is not Int on Int. Dropped before they touch a frame.
  std::int64_t badTokens = 0;
  PeakGauge liveFrames;
  // Wire array store ("net.am.*"): typed array messages sent/serviced by
  // this PE, plus the local fast-path accesses that never hit the wire.
  std::int64_t amReadReqSent = 0;    // remote split-phase reads issued
  std::int64_t amReadReqServed = 0;  // read requests serviced as owner
  std::int64_t amWriteSent = 0;      // remote element writes issued
  std::int64_t amWriteApplied = 0;   // remote writes applied as owner
  std::int64_t amDimReqSent = 0;     // shape queries issued to allocators
  std::int64_t amDimReqServed = 0;   // shape queries answered as allocator
  std::int64_t amRepliesSent = 0;    // value replies (immediate + park fills)
  std::int64_t amPageHits = 0;       // remote reads answered by the page cache
  std::int64_t amPageRunsSent = 0;   // page-run messages shipped as owner
  std::int64_t amPageRunsApplied = 0;   // page runs cached as requester
  std::int64_t amPageFillsSent = 0;  // page elements shipped as owner
  std::int64_t amPageFillsApplied = 0;  // page elements cached as requester
  std::int64_t amParks = 0;          // deferred reads parked at this owner
  std::int64_t amParkFills = 0;      // parked reads filled by a write
  std::int64_t amLocalReads = 0;     // owner-local reads (no message)
  std::int64_t amLocalWrites = 0;    // owner-local writes (no message)
  std::int64_t amShapeWaits = 0;     // frames blocked awaiting a DimReply
  // Array accesses served by the cell store (`--store=local`, threads and
  // worker processes alike). Must be zero under --store=wire: the
  // acceptance proof that no array traffic bypasses the transport.
  std::int64_t shmArrayOps = 0;
};

/// Capacity of each inbox SPSC ring. Deep enough that fault-free runs
/// essentially never spill to the overflow deque; small enough that even a
/// wide all-to-all run stays cheap (rings allocate lazily per used lane).
constexpr std::uint32_t kInboxRingCap = 1024;

struct Worker {
  int id = 0;  // set once at construction, before any thread starts
  // Cross-thread: the inbox — one lock-free SPSC ring per producer lane
  // (lane = sending worker's PE id, or numWorkers for a transport service
  // thread; each lane has exactly one producer thread, this worker is the
  // only consumer). Rings are bounded; a full ring falls back to the
  // mutex-guarded overflow deque so producers never block or spin.
  // `sleeping` is the wakeup handshake: the consumer sets it under m before
  // re-checking the rings and waiting; producers check it after a seq_cst
  // fence and only then pay for the mutex + notify (see workerMain).
  std::mutex m;
  std::condition_variable cv;
  std::unique_ptr<std::atomic<SpscRing<NToken>*>[]> lanes;  // laneCount cells
  int laneCount = 0;
  std::atomic<bool> sleeping{false};
  std::deque<NToken> overflow;          // guarded by m
  std::atomic<int> overflowCount{0};    // live overflow entries
  std::atomic<std::int64_t> overflowTotal{0};  // lifetime, for stats

  ~Worker() {
    for (int i = 0; i < laneCount; ++i)
      delete lanes[i].load(std::memory_order_relaxed);
  }

  // Owner-thread-only state.
  std::vector<std::unique_ptr<NFrame>> frames;
  std::vector<std::uint32_t> freeList;  // retired frame indices, ready to reuse
  /// The match table, replay ledger and parked replies (runtime/receive.hpp).
  /// A retired context's entry holds kRetiredFrame, as its storage is
  /// recycled. Survivors need the replay ledger too: it absorbs a rebuilt
  /// neighbor's re-sent tokens.
  ReceiveState recv;
  std::deque<std::uint32_t> ready;
  std::uint64_t ctxCounter = 0;
  /// Owner-thread-only msgId dedup on the inbox transport: duplicate copies
  /// are suppressed before they can re-apply a non-idempotent token (ADDC,
  /// spawn-by-token). The logic lives in proto::Delivery.
  proto::Delivery rx;
  /// Recovery mode only (recMode), owner-thread-only: outstanding
  /// array-read parks by wake key, each holding the packed conts parked on
  /// that element. A wake whose key is absent was for a park wiped by this
  /// worker's kill — the re-executed read already took the element directly
  /// — and must be dropped, or it could fill a multi-round slot out of
  /// order. Outside recovery no wake can be stale or duplicated (the link
  /// seq window and the msgId check drop transport duplicates first), so
  /// the ledger is not kept.
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>> myParks;
  WorkerStats st;
  std::thread thread;
  /// Per-PE allocation stream, for both stores: id = seq * numWorkers + pe,
  /// so the allocator of any id is id % numWorkers with no cross-PE
  /// coordination. Store state: an in-process kill leaves it intact; a
  /// respawned process rebuilds it from the mint log.
  std::uint64_t arraySeq = 0;
  /// Owner-thread-only: the arrays this PE has touched, in either store.
  /// Like the elements, the records are *store* state, not PE state: an
  /// in-process kill wipes the frames but leaves them intact (multi-process
  /// respawns rebuild wire-store records from the receive log's Am records).
  ArrayTable arrays;

  // ---- Cell store (owner-thread-only; cfg.store == Local) ---------------
  /// Scratch for the continuations a filling write releases.
  std::vector<std::uint64_t> woken;

  // ---- Wire array store (owner-thread-only; cfg.store == Wire) ----------
  //
  // Under the wire store this PE privately owns the elements `ArrayLayout`
  // assigns to it; every non-local access arrives as a typed array message
  // (native/store.hpp) on the ordinary token transport.
  /// Node pool behind every record's park lists; wsParkFree heads the free
  /// list, so steady-state parking allocates nothing.
  std::vector<WsPark> wsParkPool;
  std::uint32_t wsParkFree = kNoPark;
  /// Respawn replay: replies and page runs regenerated from logged Am
  /// records, held until the worker loop starts (the transport is not up
  /// during the rebuild).
  std::vector<std::pair<int, NToken>> wsDeferred;
};

/// Match-table value of a retired context: above every frame index, so it
/// names no frame.
constexpr std::uint32_t kRetiredFrame = Cont::kMaxFrame + 1;

/// Wake-token identity of one array element: the top bit keeps the wake
/// namespace apart from real sender contexts, and every 32-bit array id fits
/// above the offset bits.
std::uint64_t elemWakeKey(ArrayId arr, std::int64_t offset) {
  return (1ULL << 63) | (static_cast<std::uint64_t>(arr) << kOffsetBits) |
         static_cast<std::uint64_t>(offset);
}
ArrayId wakeKeyArray(std::uint64_t key) {
  return static_cast<ArrayId>(key >> kOffsetBits);
}
std::int64_t wakeKeyOffset(std::uint64_t key) {
  return static_cast<std::int64_t>(key & (kMaxArrayElems - 1));
}

/// Worker mode: a frame that has ENDed but whose End log record is held
/// back until the END-retire barrier passes — every send the frame ever
/// made must be acked first, or a crash after logging End could lose the
/// frame's output (the replay would see the frame as over and never
/// re-execute it). Frame storage is recycled only when the record lands,
/// so log replay can never see an index reused before its previous
/// occupant's End.
struct Retiring {
  std::uint32_t frameIdx = 0;
  std::uint64_t ctx = 0;
  std::vector<std::uint64_t> snap;  // transport END barrier snapshot
};

}  // namespace

struct NativeMachine::Impl : TransportSink {
  const SpProgram& prog;
  NativeConfig cfg;

  std::vector<std::unique_ptr<Worker>> workers;

  // Results and error reporting.
  std::mutex resultM;
  std::vector<Value> results;
  std::vector<bool> resultSet;
  std::string error;

  // --- quiescence protocol ---------------------------------------------------
  //
  // Termination and deadlock are decided by counting, never by timeouts.
  //
  //   pending     = live frames + cross-thread tokens not yet consumed.
  //                 Senders increment *before* the token becomes visible;
  //                 the moment it reaches zero the program is finished
  //                 (nothing can ever create work again) and stop is raised.
  //   inboxTokens = cross-thread tokens enqueued and not yet drained;
  //                 distinguishes "frames alive but every token consumed"
  //                 (deadlock) from "work still in flight".
  //   idleWorkers = workers registered idle (empty ready list, empty inbox).
  //   wakeEpoch   = bumped every time a worker leaves its cv wait — strictly
  //                 after it deregisters from idleWorkers and strictly
  //                 before it consumes anything.
  //
  // Deadlock = all workers idle, no tokens in flight, frames still alive.
  // The check runs when a worker registers idle, as a double-collect guarded
  // by wakeEpoch: read e1, read the three counters, re-read the epoch. If
  // e2 == e1, no worker left its wait inside the window. The ordering rule
  // makes that conclusive: any consumption is preceded (in the seq_cst total
  // order) by that worker's deregistration and then its epoch bump, so a
  // consumption that could invalidate the inboxTokens/pending reads either
  // bumps the epoch inside the window (check fails, retried by a later
  // registrant) or deregistered before the window (then idleWorkers == N
  // already proves it re-registered with nothing runnable). Hence a passing
  // check means every worker sat idle across all three reads and the frames
  // counted in `pending` can never be fed another token — exact, with no
  // grace-period sleep and no wait_for polling. The cv waits are untimed;
  // every wake source (token push, stop) notifies under that worker's
  // mutex, so wakeups cannot be missed. Protocol atomics use the default
  // seq_cst ordering — the double-collect argument leans on its single
  // total order; per-event stats stay in owner-thread WorkerStats instead.
  std::atomic<std::int64_t> pending{0};
  std::atomic<std::int64_t> inboxTokens{0};
  std::atomic<int> idleWorkers{0};
  std::atomic<std::uint64_t> wakeEpoch{0};
  std::atomic<bool> stop{false};

  // --- cross-PE transport (native/transport.hpp) -----------------------------
  //
  // Cross-worker tokens leave through `transport` — the in-process inbox
  // path (with the fault-injection shim and retransmit daemon when faults
  // are enabled) or per-PE UDP loopback sockets with an always-on
  // ack/retransmit protocol. Either way the tokens KEEP their
  // pending/inboxTokens increments while parked in a retransmit queue or a
  // kernel socket buffer, so the quiescence protocol above stays exact —
  // an in-transport token reads as in-flight work, never as quiescence.
  // Injected duplicate copies on the inbox path get their own increments
  // (chargeDuplicate) and are consumed when the receiver's message-id dedup
  // drops them; UDP duplicates are suppressed inside the transport before
  // the inbox and never carry charges.
  FaultPlan plan;
  std::unique_ptr<Transport> transport;
  std::atomic<std::int64_t> faultStalls{0};

  /// Cell store (cfg.store == Local): in-process, a pooled mapping the
  /// workers share; multi-process, the supervisor's memfd, which every
  /// worker maps too.
  ShmStorePtr cells;

  // --- fail-stop recovery (kill mode; docs/ARCHITECTURE.md) ------------------
  //
  // `--faults=kill:PE@TIMEUS` fail-stops one worker once: at the wall-clock
  // deadline the worker discards ALL its volatile state (frames, match table,
  // ready list, free list, dedup sets) and rebuilds it from its stable
  // receive log — frames come back at their original indices and generations,
  // live ones re-execute from pc 0 with idempotent identity minting and
  // parked re-delivery of logged results. The inbox is the network's buffer,
  // not PE state: it survives the kill, keeping its pending/inboxTokens
  // charges, so the quiescence ledger stays exact (the rebuilt live-frame
  // count equals the wiped one, since both are pure functions of the log).
  // The rebuild is instantaneous and on the owner thread: no other thread
  // ever touches recLogs or the worker's volatile state, so kill mode adds
  // no synchronization (TSan-clean by construction).
  std::vector<RecoveryLog> recLogs;
  std::chrono::steady_clock::time_point killAt{};
  bool killFired = false;  // touched only by the killed worker's thread
  std::int64_t recReplayedFrames = 0;   // owner-thread; read after join
  std::int64_t recReplayedTokens = 0;
  std::int64_t recParkedEarly = 0;

  // --- multi-process mode (transport == UdpMultiproc) ------------------------
  //
  // Supervisor (localPe < 0): run() delegates to procmgr::runSupervisor,
  // which forks one worker process per PE; this Impl is a shell that holds
  // the cell store for post-run gather().
  //
  // Worker (localPe >= 0): exactly one worker thread runs (the local PE).
  // Local-store arrays live in the supervisor's memfd, every receive and
  // mint is mirrored to the supervisor over the control channel
  // (pessimistic logging), and output commit gates both acks (a sequence is
  // acked only once its Recv record is stable) and frame retirement (End is
  // logged only after every send of the frame is acked).
  /// Supervisor + wire store: arrays merged from the workers' Result frames
  /// (each worker ships its owned elements + allocator metas at the end of
  /// the run), read by post-run gather(). The wire-store replacement for
  /// the cell store.
  std::unordered_map<ArrayId, NativeArray> wireGathered;
  /// Respawn replay (wire store): true while performKill re-services logged
  /// Am records — replies and page runs regenerated during the rebuild are
  /// deferred to Worker::wsDeferred instead of sent (no transport is running
  /// yet).
  bool amDeferSends = false;
  /// Worker-mode deferred retirements, FIFO (owner-thread-only).
  std::deque<Retiring> retiring;
  /// Monotone deposit count — the activity component of Status snapshots
  /// (the supervisor's two-round quiescence check detects in-window motion
  /// through it, like wakeEpoch in the in-process double-collect).
  std::atomic<std::int64_t> depositTotal{0};

  bool killMode() const { return cfg.faults.killEnabled(); }

  bool workerMode() const {
    return cfg.transport == TransportKind::UdpMultiproc && cfg.localPe >= 0;
  }
  bool supervisorMode() const {
    return cfg.transport == TransportKind::UdpMultiproc && cfg.localPe < 0;
  }
  /// Whether the recovery machinery (receive/mint logging, logical dedup,
  /// parked replay) is live: in-process kill mode, or ANY worker process —
  /// a multiproc worker can be `kill -9`ed at an arbitrary moment, so it
  /// must log unconditionally.
  bool recMode() const { return killMode() || workerMode(); }

  /// Whether the wire array store is active: array elements live in per-PE
  /// owned maps and every non-local access is a transported array message.
  /// The supervisor never executes frames, so this is only consulted on
  /// worker/execution paths.
  bool wireStore() const { return cfg.store == StoreKind::Wire; }

  /// Whether retired contexts stay in the match table for straggler
  /// triage. Needed whenever delivery can reorder a token past its
  /// instance's END: fault injection (delays/retransmits) and the UDP
  /// transport (retransmit reordering is inherent, faults or not).
  bool trackStragglers() const {
    return plan.enabled() || cfg.transport == TransportKind::Udp ||
           cfg.transport == TransportKind::UdpMultiproc;
  }

  Impl(const SpProgram& p, NativeConfig c)
      : prog(p), cfg(c), plan(c.faults) {
    // Only the compiler makes programs in-process (a worker process's Boot
    // decode checks the one it is sent), so a defect here is a bug.
    const std::string bad = checkProgram(p);
    PODS_CHECK_MSG(bad.empty(), bad.c_str());
    PODS_CHECK_MSG(c.numWorkers >= 1 && c.numWorkers <= 256,
                   "numWorkers must be in [1, 256]");
    PODS_CHECK(c.pageElems >= 1 && c.pageElems <= kMaxPageElems);
    PODS_CHECK_MSG(c.sliceInstructions >= 1,
                   "sliceInstructions must be >= 1 (a zero budget would "
                   "requeue frames forever without progress)");
    PODS_CHECK_MSG(c.peWeights.empty() ||
                       static_cast<int>(c.peWeights.size()) == c.numWorkers,
                   "peWeights must be empty or have one entry per worker");
    for (int i = 0; i < c.numWorkers; ++i) {
      workers.push_back(std::make_unique<Worker>());
      Worker& w = *workers.back();
      w.id = i;
      w.arrays = ArrayTable(c.numWorkers);
      // One lane per sending worker plus one service lane (numWorkers) for
      // transport threads. Ring storage allocates lazily on a lane's first
      // push — most of the all-to-all matrix never carries a token.
      w.laneCount = c.numWorkers + 1;
      w.lanes.reset(new std::atomic<SpscRing<NToken>*>[
          static_cast<std::size_t>(w.laneCount)]);
      for (int l = 0; l < w.laneCount; ++l)
        w.lanes[l].store(nullptr, std::memory_order_relaxed);
    }
    if (recMode()) recLogs.resize(static_cast<std::size_t>(c.numWorkers));
    results.resize(static_cast<std::size_t>(prog.numResults));
    resultSet.assign(static_cast<std::size_t>(prog.numResults), false);
    // Supervisor mode needs no transport: tokens flow between worker
    // processes, never through this Impl.
    if (!supervisorMode()) {
      const UdpWorkerEndpoint worker{cfg.localPe, cfg.sockFd, cfg.peerPorts,
                                     cfg.epoch, cfg.link};
      transport = makeTransport(cfg.transport, *this, plan, cfg.numWorkers,
                                workerMode() ? &worker : nullptr);
    }
  }

  ~Impl() override {
    if (transport != nullptr) transport->stop();
  }

  void fail(const std::string& msg) {
    {
      std::lock_guard<std::mutex> g(resultM);
      if (error.empty()) error = msg;
    }
    stop.store(true);
    for (auto& w : workers) {
      std::lock_guard<std::mutex> g(w->m);
      w->cv.notify_all();
    }
  }

  // --- tokens ---------------------------------------------------------------

  /// Makes a cross-thread token visible to worker `pe` (no accounting — the
  /// caller has already charged pending/inboxTokens for this copy). This is
  /// the TransportSink deposit: called by transport threads (retransmit
  /// daemon, UDP receivers) as well as by workers; `lane` names the calling
  /// thread's SPSC ring at the destination (one producer per lane).
  ///
  /// Fast path: lock-free ring push, then a seq_cst fence and a sleeping
  /// check — the mutex+notify is paid only when the consumer is (or is
  /// about to be) blocked. The fence pairs with the consumer's fence after
  /// it publishes sleeping=true and before it re-checks the rings: either
  /// this push's ring write is visible to that re-check, or sleeping=true
  /// is visible here and we notify under the mutex. Either way the token
  /// cannot strand while the worker sleeps.
  void deposit(int pe, int lane, NToken tok) override {
    if (workerMode()) {
      // Multi-process quiescence is per-process: the sender's ledger tracks
      // the token as transport->outstanding() until it is acked, and the
      // receiving process charges its own pending/inboxTokens here, on the
      // rx thread, before the token becomes visible. The supervisor's
      // termination check sums both sides, so a token is accounted
      // somewhere at every instant.
      pending.fetch_add(1);
      inboxTokens.fetch_add(1);
      depositTotal.fetch_add(1, std::memory_order_relaxed);
    }
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    std::atomic<SpscRing<NToken>*>& cell =
        w.lanes[static_cast<std::size_t>(lane)];
    SpscRing<NToken>* ring = cell.load(std::memory_order_acquire);
    if (!ring) {
      // Only this lane's single producer allocates, so a plain store
      // publishes without a CAS.
      ring = new SpscRing<NToken>(kInboxRingCap);
      cell.store(ring, std::memory_order_release);
    }
    if (ring->tryPush(std::move(tok))) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (w.sleeping.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> g(w.m);
        w.cv.notify_one();
      }
      return;
    }
    // Ring full: unbounded mutex-guarded fallback. tryPush moved-from only
    // on success, so tok is still intact here.
    {
      std::lock_guard<std::mutex> g(w.m);
      w.overflow.push_back(std::move(tok));
      w.overflowCount.fetch_add(1, std::memory_order_relaxed);
      w.overflowTotal.fetch_add(1, std::memory_order_relaxed);
      w.cv.notify_one();
    }
  }

  /// An injected duplicate on the inbox path is a real extra message: it
  /// carries its own quiescence charges, consumed when the receiver's
  /// message-id dedup (proto::Delivery::accept) drops it.
  void chargeDuplicate() override {
    pending.fetch_add(1);
    inboxTokens.fetch_add(1);
  }

  void transportFail(const std::string& msg) override { fail(msg); }

  /// Charges the quiescence ledger for one cross-PE token, then hands it to
  /// the transport. The charges are released only when the destination
  /// worker drains the token, so a token parked in a retransmit queue or a
  /// kernel socket buffer still reads as in-flight work.
  void enqueue(int fromPe, int toPe, NToken tok) {
    if (!workerMode()) {
      pending.fetch_add(1);
      inboxTokens.fetch_add(1);
    }
    // Worker mode: no local charge — the destination is another process.
    // The token reads as transport->outstanding() until acked (the Status
    // snapshot the supervisor sums), and the receiver charges its own
    // ledger at deposit.
    transport->send(fromPe, toPe, std::move(tok));
  }

  void send(int fromPe, int toPe, NToken tok) {
    workers[static_cast<std::size_t>(fromPe)]->st.tokensOut++;
    if (toPe == fromPe) {
      deliver(fromPe, tok);  // owner thread: direct delivery
    } else {
      enqueue(fromPe, toPe, std::move(tok));
    }
  }

  /// Allocates a frame on worker `w`, preferring recycled storage from the
  /// free list. The generation of reused storage was bumped at retire time,
  /// so continuations into the previous occupant no longer match.
  std::uint32_t createFrame(Worker& w, std::uint16_t spCode,
                            std::uint64_t ctx) {
    std::uint32_t frameIdx;
    if (!w.freeList.empty()) {
      frameIdx = w.freeList.back();
      w.freeList.pop_back();
      w.st.framesReused++;
    } else {
      frameIdx = static_cast<std::uint32_t>(w.frames.size());
      if (frameIdx > Cont::kMaxFrame) {
        fail("worker frame table overflow (> 16M live frames)");
        return kNoFrame;
      }
      w.frames.push_back(std::make_unique<NFrame>());
    }
    NFrame& f = *w.frames[frameIdx];
    f.reset(spCode, ctx, prog.sp(spCode).numSlots);
    f.blocked = false;
    f.dead = false;
    w.ready.push_back(frameIdx);
    pending.fetch_add(1);  // a live frame
    w.st.framesCreated++;
    w.st.liveFrames.inc();
    return frameIdx;
  }

  /// Appends one receive-log record to PE `pe`'s log and, in worker mode,
  /// mirrors it onto the control channel (pessimistic logging: the
  /// supervisor is the stable storage a respawn replays from). Returns the
  /// record's 1-based control-stream position (0 when not mirrored).
  std::uint64_t logAppend(int pe, const RecEntry& e) {
    recLogs[static_cast<std::size_t>(pe)].entries.push_back(e);
    if (workerMode() && cfg.link != nullptr) return cfg.link->logEntry(e);
    return 0;
  }

  /// Records a NEWCTX/ALLOC mint and, in worker mode, mirrors it onto the
  /// control channel with the context-counter high-water.
  void logMintRec(int pe, std::uint64_t ctx, std::uint32_t mseq,
                  const Value& v) {
    RecoveryLog& L = recLogs[static_cast<std::size_t>(pe)];
    L.recordMint(ctx, mseq, v);
    if (workerMode() && cfg.link != nullptr)
      cfg.link->logMint(ctx, mseq, v, L.ctxCounter);
  }

  /// Owner-thread token delivery (frame creation, slot write, wake-up).
  void deliver(int pe, const NToken& tok) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    if (tok.msgId != 0 && !workerMode()) {
      // Fault injection on the inbox: exactly-once delivery. Duplicate
      // copies of a message are suppressed here — single-assignment slot
      // writes would tolerate redelivery, but ADDC join counters and
      // spawn-by-token after frame retirement would not. The UDP
      // transports never deposit a duplicate: each link's receive window
      // drops it first, per (link, epoch) across processes, where link
      // seq numbering restarts at 1 on a peer's respawn — an epoch-unaware
      // msgId window here would suppress a respawned peer's fresh sends as
      // duplicates of the dead incarnation's early messages.
      if (cfg.transport == TransportKind::Inbox && !w.rx.accept(tok.msgId)) {
        w.st.dupSuppressed++;
        return;
      }
      if (plan.stallHit(tok.msgId)) {
        faultStalls.fetch_add(1);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(
                plan.config().nativeStallUs));
      }
    }
    if (tok.amKind != static_cast<std::uint8_t>(AmKind::None)) {
      // Typed array message (wire store): serviced by this PE as owner /
      // allocator, never by a frame. Handled after the transport-level
      // msgId dedup above but before any ctx-addressed logic — an array id
      // must never be confused with a context.
      handleAm(pe, tok, /*fromLog=*/false);
      return;
    }
    if (tok.toCont && tok.wakeKey != 0) {
      // Wire store: a value reply is final (single assignment), so it fills
      // the requester's page cache even if the park it answers is gone.
      if (wireStore())
        (void)wireCache(w, wakeKeyArray(tok.wakeKey),
                        wakeKeyOffset(tok.wakeKey), tok.v);
      if (recMode()) {
        // Array-element wake-up: only valid for a park this worker still
        // remembers. A kill wipes the park registry; wakes for pre-kill
        // parks are redundant (the re-executed read found the element
        // present) and dangerous (they could fill a reused slot mid-round).
        auto pit = w.myParks.find(tok.wakeKey);
        if (pit == w.myParks.end() ||
            pit->second.erase(tok.cont.pack()) == 0) {
          w.st.tokensDropped++;
          return;
        }
        if (pit->second.empty()) w.myParks.erase(pit);
      }
    }
    Exec ex{*this, w, pe};
    receive(ex, w.recv, tok);
  }

  // --- arrays ---------------------------------------------------------------

  /// Cell store: worker w's record of array `id`, resolved in the store
  /// once per worker. `create` non-null is ALLOC's idempotent
  /// create-or-lookup. nullptr when the id is unknown (lookup) or the store
  /// is out of space (create). Inline, with cellResolve the first-access
  /// slow path.
  [[gnu::always_inline]] ArrayRec* cellArray(Worker& w, ArrayId id,
                                             const ArrayShape* create) {
    if (ArrayRec* a = w.arrays.find(id); a != nullptr && a->ref.valid())
      return a;
    return cellResolve(w, id, create);
  }

  /// cellArray's first access: the record from the store's table.
  ArrayRec* cellResolve(Worker& w, ArrayId id, const ArrayShape* create) {
    const ShmStore::ArrayRef ref = create != nullptr
                                       ? cells->createArray(id, *create)
                                       : cells->lookup(id);
    if (!ref.valid()) return nullptr;
    ArrayRec* a = w.arrays.get(id);  // the store's bound is the table's
    if (a == nullptr) return nullptr;
    a->ref = ref;
    a->layout.emplace(ref.shape, cfg.numWorkers, cfg.pageElems, cfg.peWeights);
    return a;
  }

  /// Fails the run on an array id no allocation produced (a stale or
  /// corrupted handle), which may not be dereferenced.
  Step unknownArray(const NFrame& f, const Instr& in, ArrayId id) {
    fail(std::string(arrayOpWhat(in.op)) + " on unknown array id " +
         std::to_string(id) + " in " + prog.sp(f.spCode).name);
    return Step::Stopped;
  }

  /// Resolves array `id`, the operand of ARD/AWR/RFLO/RFHI/DIMQ `in`, to
  /// this worker's record. Continue: `out` is set and knows the shape.
  /// Blocked: the wire store does not know the shape yet and has asked the
  /// allocator. Stopped: the id is unknown (unknownArray). Forced inline
  /// into ARD and AWR: the record lookup is their common path.
  [[gnu::always_inline]] Step resolveArray(int pe, Worker& w, std::uint32_t frameIdx, NFrame& f,
                    const Instr& in, ArrayId id, ArrayRec*& out) {
    if (wireStore()) {
      out = wireMeta(w, id);
      return out != nullptr ? Step::Continue
                            : wireAwaitShape(pe, w, frameIdx, f, in, id);
    }
    w.st.shmArrayOps++;
    out = cellArray(w, id, nullptr);
    return out != nullptr ? Step::Continue : unknownArray(f, in, id);
  }

  /// The flat element offset an ARD/AWR addresses; false when out of bounds.
  static bool elemOffset(const NFrame& f, const Instr& in, const ArrayShape& s,
                         std::int64_t* offset) {
    const std::int64_t i0 = f.slots[in.b].asInt();
    if (in.c == kNoSlot) {
      if (i0 < 0 || i0 >= s.numElems()) return false;
      *offset = i0;
      return true;
    }
    const std::int64_t i1 = f.slots[in.c].asInt();
    if (!s.inBounds(i0, i1)) return false;
    *offset = s.flatten(i0, i1);
    return true;
  }

  // --- wire array store (cfg.store == Wire; native/store.hpp) ----------------
  //
  // Owner-serviced array messages on the ordinary token transport. Every
  // handler below runs on the servicing PE's owner thread, so the array
  // records need no locks; non-local accesses become typed NTokens that ride
  // the same batching/ack/retransmit/dedup machinery as every other token.

  /// The record of an array whose shape this PE knows, else nullptr.
  [[gnu::always_inline]] static ArrayRec* wireMeta(Worker& w, ArrayId id) {
    ArrayRec* a = w.arrays.find(id);
    return a != nullptr && a->layout ? a : nullptr;
  }

  /// Learns array `id`'s shape and seats the owned slice on this PE's
  /// segment. A duplicate DimReply (or an ALLOC racing one, or a replayed
  /// AllocMeta) is a no-op: layout is a pure function of (shape, config),
  /// so copies agree.
  void wireRegisterMeta(Worker& w, ArrayRec& a, ArrayId id,
                        const ArrayShape& s) {
    if (a.layout) return;
    a.layout.emplace(s, cfg.numWorkers, cfg.pageElems, cfg.peWeights);
    if (!a.seat(a.layout->elemSegment(w.id)))
      fail("array " + std::to_string(id) + " holds elements outside PE " +
           std::to_string(w.id) + "'s owned segment");
  }

  /// The owner's cell for element `off` of `arr` (record `a`, nullptr past
  /// the table's bound), widening a shape-less slice as needed. Returns
  /// nullptr after reporting a message for an element this PE cannot own —
  /// outside its segment once the shape is known, outside any array the
  /// engine can allocate before.
  WsCell* wireOwnedCell(Worker& w, ArrayRec* a, ArrayId arr,
                        std::int64_t off) {
    if (a != nullptr && a->layout) {
      if (WsCell* c = a->find(off)) return c;
    } else if (a != nullptr && off >= 0 && off < kMaxArrayElems) {
      return &a->widen(off);
    }
    fail("array message for element " + std::to_string(off) + " of array " +
         std::to_string(arr) + " not owned by PE " + std::to_string(w.id));
    return nullptr;
  }

  /// Receive-log record for a serviced array message (worker mode only; the
  /// in-process store survives a kill, so it needs no log). Field mapping is
  /// documented at RecEntry::Kind::Am.
  void logAm(int pe, const NToken& tok) {
    RecEntry e;
    e.kind = RecEntry::Kind::Am;
    e.spCode = tok.amKind;
    e.ctx = tok.ctx;
    e.slot = tok.slot;
    e.senderCtx = tok.senderCtx;
    e.v = tok.v;
    e.sendKey = tok.cont.pack();
    e.msgId = tok.msgId;
    logAppend(pe, e);
  }

  /// The allocator's durable shape record, logged once per minted array so a
  /// respawn can relearn the shape and answer replayed DimReqs. Always
  /// precedes any DimReq for the id in the log: the id escapes this PE only
  /// through sends made after ALLOC executed.
  void logAllocMeta(int pe, ArrayId id, const ArrayShape& s) {
    RecEntry e;
    e.kind = RecEntry::Kind::Am;
    e.spCode = static_cast<std::uint16_t>(AmKind::AllocMeta);
    e.ctx = id;
    e.slot = static_cast<std::uint16_t>(s.rank);
    e.senderCtx = static_cast<std::uint64_t>(s.dim0);
    e.v = Value::intv(s.dim1);
    logAppend(pe, e);
  }

  /// Sends what an owner or allocator answers with: value replies, page
  /// runs, shape answers. During log replay the transport is not up yet,
  /// so they park in wsDeferred, in order, and ship when the worker loop
  /// starts.
  void sendAm(int pe, int dest, NToken tok) {
    if (amDeferSends) {
      workers[static_cast<std::size_t>(pe)]->wsDeferred.emplace_back(
          dest, std::move(tok));
      return;
    }
    send(pe, dest, std::move(tok));
  }

  /// Value reply for a serviced read: an ordinary wake token (the requester's
  /// myParks registry dedups regenerated copies after a kill).
  void sendAmReply(int pe, Cont c, const Value& v, std::uint64_t wakeKey) {
    workers[static_cast<std::size_t>(pe)]->st.amRepliesSent++;
    NToken tok;
    tok.toCont = true;
    tok.cont = c;
    tok.v = v;
    tok.wakeKey = wakeKey;
    sendAm(pe, static_cast<int>(c.pe), std::move(tok));
  }

  void sendDimReply(int pe, int requester, ArrayId arr, const ArrayShape& s) {
    NToken tok;
    tok.amKind = static_cast<std::uint8_t>(AmKind::DimReply);
    tok.ctx = arr;
    tok.slot = static_cast<std::uint16_t>(s.rank);
    tok.senderCtx = static_cast<std::uint64_t>(s.dim0);
    tok.v = Value::intv(s.dim1);
    sendAm(pe, requester, std::move(tok));
  }

  /// Ships every other present element of `off`'s page to `requester` as
  /// one PageRun message, ahead of the value reply: a remote read of a
  /// present element moves the page (paper §4). A run starts at its first
  /// present element; a page wider than kPageRunMaxElems may take several.
  /// Pages are owned whole, so on a shape-less slice the page's other
  /// elements are this PE's too; find() skips those it has not seen.
  void wireSendPage(int pe, ArrayRec& a, ArrayId arr, std::int64_t off,
                    int requester) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    const std::int64_t first = off - off % cfg.pageElems;
    std::shared_ptr<PageRun> run;
    auto ship = [&] {
      w.st.amPageRunsSent++;
      w.st.amPageFillsSent += run->count;
      NToken tok;
      tok.amKind = static_cast<std::uint8_t>(AmKind::PageRun);
      tok.ctx = arr;
      tok.page = std::move(run);
      sendAm(pe, requester, std::move(tok));
    };
    for (std::int64_t o = first; o < first + cfg.pageElems; ++o) {
      const WsCell* cell = o == off ? nullptr : a.find(o);
      if (cell == nullptr || cell->v.empty()) continue;
      if (run != nullptr && o - run->first >= kPageRunMaxElems) ship();
      if (run == nullptr) {
        run = std::make_shared<PageRun>();
        run->first = static_cast<std::uint32_t>(o);
        run->pageElems = static_cast<std::uint16_t>(cfg.pageElems);
      }
      run->add(o, cell->v);
    }
    if (run != nullptr) ship();
  }

  /// Requester: caches remote element `off` of `arr` from a value reply.
  /// False when it cannot: this PE does not know the shape (a respawned
  /// worker before its frames re-query it), the offset lies outside the
  /// array, or this PE owns the element (a reply to a park at itself).
  bool wireCache(Worker& w, ArrayId arr, std::int64_t off, const Value& v) {
    ArrayRec* a = wireMeta(w, arr);
    if (a == nullptr || v.empty() || off < 0 ||
        off >= a->shape().numElems() || a->find(off) != nullptr)
      return false;
    a->cache(off, v);
    return true;
  }

  /// Requester: caches a page run of `arr` in one pass. False when it
  /// cannot, as wireCache, or when the run was cut for another page size.
  /// Pages are owned whole, so the run's first element settles ownership.
  bool wireCacheRun(Worker& w, ArrayId arr, const PageRun& run) {
    ArrayRec* a = wireMeta(w, arr);
    const std::int64_t n = cfg.pageElems;
    if (a == nullptr || run.pageElems != n ||
        run.first + run.span > a->shape().numElems() ||
        a->find(run.first) != nullptr)
      return false;
    std::vector<Value>& page = a->cachePage(run.first / n);
    const std::size_t at = static_cast<std::size_t>(run.first % n);
    for (int i = 0, k = 0; i < run.span; ++i)
      if (run.has(i)) page[at + static_cast<std::size_t>(i)] = run.vals[k++];
    return true;
  }

  /// Parks a deferred read at the owner (I-structure semantics), appending a
  /// pool node to the element's FIFO list. Packed-cont dedup absorbs a
  /// re-executed requester's re-sent ReadReq: frames rebuild at their
  /// original index/generation, so the duplicate is bit-equal.
  void wireParkReader(Worker& w, WsCell& cell, std::uint64_t packed) {
    std::uint32_t tail = kNoPark;
    for (std::uint32_t i = cell.parks; i != kNoPark; i = w.wsParkPool[i].next) {
      if (w.wsParkPool[i].packed == packed) return;
      tail = i;
    }
    std::uint32_t node = w.wsParkFree;
    if (node != kNoPark) {
      w.wsParkFree = w.wsParkPool[node].next;
    } else {
      node = static_cast<std::uint32_t>(w.wsParkPool.size());
      w.wsParkPool.emplace_back();
    }
    w.wsParkPool[node] = WsPark{packed, kNoPark};
    (tail == kNoPark ? cell.parks : w.wsParkPool[tail].next) = node;
    w.st.amParks++;
  }

  /// Applies one element write to `cell`, element `off` of `arr` owned
  /// here, and drains parked readers. Returns false after reporting a
  /// single-assignment violation. Parks are drained even on an idempotent
  /// identical rewrite (recovery replay): the original writer may have died
  /// between publishing the element and its replies getting out, or the
  /// parks themselves may be log-rebuilt.
  bool wireApplyWrite(int pe, WsCell& cell, ArrayId arr, std::int64_t off,
                      const Value& v) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    if (!cell.v.empty()) {
      if (!(recMode() && cell.v.identical(v))) {
        fail("single-assignment violation at element " + std::to_string(off));
        return false;
      }
    } else {
      cell.v = v;
    }
    std::uint32_t i = cell.parks;
    cell.parks = kNoPark;
    const std::uint64_t key = elemWakeKey(arr, off);
    while (i != kNoPark) {
      const WsPark p = w.wsParkPool[i];
      w.wsParkPool[i].next = w.wsParkFree;
      w.wsParkFree = i;
      i = p.next;
      w.st.amParkFills++;
      sendAmReply(pe, Cont::unpack(p.packed), v, key);
    }
    return true;
  }

  /// A DimReply landed: frames blocked on the shape re-execute their array
  /// instruction (pc never advanced past it).
  void wireRequeueShapeWaiters(Worker& w, ArrayRec& a) {
    for (std::uint32_t idx : a.shapeWait) {
      if (idx >= w.frames.size()) continue;
      NFrame& f = *w.frames[idx];
      if (f.dead || !f.blocked || f.blockedSlot != kNoSlot) continue;
      f.blocked = false;
      w.ready.push_back(idx);
    }
    a.shapeWait.clear();
  }

  /// Blocks a frame on an unknown array shape and queries the allocator
  /// (id % numPEs) — once per (PE, array). blockedSlot stays kNoSlot so no
  /// slot write can unblock it; only the DimReply requeue does. An id past
  /// the table's bound was never allocated: unknownArray.
  Step wireAwaitShape(int pe, Worker& w, std::uint32_t frameIdx, NFrame& f,
                      const Instr& in, ArrayId arr) {
    ArrayRec* a = w.arrays.get(arr);
    if (a == nullptr) return unknownArray(f, in, arr);
    w.st.amShapeWaits++;
    a->shapeWait.push_back(frameIdx);
    f.blockedSlot = kNoSlot;
    if (!a->dimReqSent) {
      a->dimReqSent = true;
      w.st.amDimReqSent++;
      NToken tok;
      tok.amKind = static_cast<std::uint8_t>(AmKind::DimReq);
      tok.ctx = arr;
      tok.slot = static_cast<std::uint16_t>(pe);
      send(pe,
           static_cast<int>(arr % static_cast<ArrayId>(cfg.numWorkers)),
           std::move(tok));
    }
    return Step::Blocked;
  }

  /// Services one typed array message as owner / allocator. Runs on the
  /// receiving PE's owner thread (from deliver) or during log replay
  /// (fromLog: re-applied against the rebuilt store; regenerated replies are
  /// deferred and deduplicated at their requester).
  void handleAm(int pe, const NToken& tok, bool fromLog) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    const ArrayId arr = static_cast<ArrayId>(tok.ctx);
    switch (static_cast<AmKind>(tok.amKind)) {
      case AmKind::ReadReq: {
        if (workerMode() && !fromLog) logAm(pe, tok);
        w.st.amReadReqServed++;
        const std::int64_t off = static_cast<std::int64_t>(tok.senderCtx);
        ArrayRec* a = w.arrays.get(arr);
        WsCell* cell = wireOwnedCell(w, a, arr, off);
        if (cell == nullptr) return;
        if (!cell->v.empty()) {
          wireSendPage(pe, *a, arr, off, static_cast<int>(tok.cont.pe));
          sendAmReply(pe, tok.cont, cell->v, elemWakeKey(arr, off));
        } else {
          wireParkReader(w, *cell, tok.cont.pack());
        }
        break;
      }
      case AmKind::Write: {
        if (workerMode() && !fromLog) logAm(pe, tok);
        w.st.amWriteApplied++;
        const std::int64_t off = static_cast<std::int64_t>(tok.senderCtx);
        if (WsCell* cell = wireOwnedCell(w, w.arrays.get(arr), arr, off))
          (void)wireApplyWrite(pe, *cell, arr, off, tok.v);
        break;
      }
      case AmKind::DimReq: {
        if (workerMode() && !fromLog) logAm(pe, tok);
        w.st.amDimReqServed++;
        const ArrayRec* m = wireMeta(w, arr);
        if (m == nullptr) {
          // The allocator registers at ALLOC, before the id can escape (and
          // an AllocMeta log record precedes any replayed DimReq), so an
          // unknown id here is a stale or corrupted handle.
          fail("dimension query for unknown array id " + std::to_string(arr));
          return;
        }
        sendDimReply(pe, static_cast<int>(tok.slot), arr, m->shape());
        break;
      }
      case AmKind::DimReply: {
        ArrayShape s;
        s.rank = static_cast<int>(tok.slot);
        s.dim0 = static_cast<std::int64_t>(tok.senderCtx);
        s.dim1 = tok.v.asInt();
        // Past the table's bound no frame can be waiting: nothing to learn.
        ArrayRec* a = w.arrays.get(arr);
        if (a == nullptr) {
          w.st.tokensDropped++;
          break;
        }
        wireRegisterMeta(w, *a, arr, s);
        wireRequeueShapeWaiters(w, *a);
        break;
      }
      case AmKind::PageRun:
        // Never logged: a lost run costs only re-reads.
        if (wireCacheRun(w, arr, *tok.page)) {
          w.st.amPageRunsApplied++;
          w.st.amPageFillsApplied += tok.page->count;
        }
        break;
      default:
        w.st.tokensDropped++;  // decode rejects unknown kinds; belt-and-braces
        break;
    }
  }

  /// Ships replies regenerated by log replay once the transport is running.
  void flushDeferredAm(int pe) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    if (w.wsDeferred.empty()) return;
    std::vector<std::pair<int, NToken>> defs;
    defs.swap(w.wsDeferred);
    for (auto& [dest, tok] : defs) send(pe, dest, std::move(tok));
    transport->flush(pe);
  }

  // --- frame execution --------------------------------------------------------

  /// ALLOC's store half: registers minted array `id` in the active store.
  /// False after reporting that the store is exhausted.
  bool registerArray(Worker& w, ArrayId id, const ArrayShape& shape,
                     const SpCode& sp) {
    if (wireStore()) {
      ArrayRec* a = w.arrays.get(id);
      if (a == nullptr) {
        fail("array store exhausted in " + sp.name);
        return false;
      }
      // The allocator's shape record is the array's durable identity:
      // registered locally (it answers DimReqs) and, in worker mode, logged
      // so a respawn can rebuild it. Appended whenever replay did NOT
      // rebuild it — a kill can land with the mint stable but the AllocMeta
      // append lost, and the log must self-heal or a later incarnation's
      // replay could see a DimReq with no shape. Duplicate records replay
      // idempotently.
      if (workerMode() && !a->layout) logAllocMeta(w.id, id, shape);
      wireRegisterMeta(w, *a, id, shape);
      return true;
    }
    // Create-or-lookup even on a mint-log hit: the mint may have reached
    // stable storage while the kill landed before the table entry was
    // published. createArray is idempotent, so the replayed call either
    // publishes it now or finds the original with its elements intact (the
    // segment restore of recovery).
    w.st.shmArrayOps++;
    if (cellArray(w, id, &shape) != nullptr) return true;
    fail("array store exhausted in " + sp.name);
    return false;
  }

  /// ARD against the active store. Forced inline, with AWR's: as calls out
  /// of the executor's loop they cost 1-PE SIMPLE jobs about 6%.
  [[gnu::always_inline]] Step arrayRead(int pe, Worker& w,
                                        std::uint32_t frameIdx, NFrame& f,
                                        const Instr& in, ArrayId id) {
    ArrayRec* arr;
    if (const Step s = resolveArray(pe, w, frameIdx, f, in, id, arr);
        s != Step::Continue)
      return s;
    std::int64_t offset;
    if (!elemOffset(f, in, arr->shape(), &offset)) {
      fail("array read out of bounds in " + prog.sp(f.spCode).name);
      return Step::Stopped;
    }
    // Split phase in both stores: clear the target slot and continue —
    // downstream consumers block on it.
    f.slots[in.dst] = Value{};
    const Cont c{static_cast<std::uint16_t>(pe), frameIdx, in.dst, f.gen};
    if (wireStore()) {
      if (WsCell* cell = arr->find(offset)) {  // owned here
        w.st.amLocalReads++;
        if (!cell->v.empty()) {
          f.slots[in.dst] = cell->v;
          return Step::Continue;
        }
        wireParkReader(w, *cell, c.pack());  // deferred read at ourselves
      } else if (const Value* hit = arr->cached(offset)) {
        w.st.amPageHits++;
        f.slots[in.dst] = *hit;
        return Step::Continue;
      } else {
        w.st.amReadReqSent++;
        NToken tok;
        tok.amKind = static_cast<std::uint8_t>(AmKind::ReadReq);
        tok.ctx = id;
        tok.senderCtx = static_cast<std::uint64_t>(offset);
        tok.slot = static_cast<std::uint16_t>(pe);
        tok.cont = c;
        send(pe, arr->layout->ownerOfOffset(offset), std::move(tok));
      }
    } else {
      Value v;
      const ShmStore::Read r = cells->readOrPark(arr->ref, offset, c.pack(), &v);
      if (r == ShmStore::Read::Present) {
        f.slots[in.dst] = v;
        return Step::Continue;
      }
      if (r == ShmStore::Read::OutOfSpace) {
        fail("array store exhausted in " + prog.sp(f.spCode).name);
        return Step::Stopped;
      }
    }
    // Parked. In recovery the park is registered so the filling write's
    // wake is recognized as live (see Worker::myParks) and a worker
    // process's park sweeper can re-read the element.
    if (recMode()) w.myParks[elemWakeKey(id, offset)].insert(c.pack());
    return Step::Continue;
  }

  /// AWR against the active store.
  [[gnu::always_inline]] Step arrayWrite(int pe, Worker& w,
                                         std::uint32_t frameIdx, NFrame& f,
                                         const Instr& in, ArrayId id) {
    ArrayRec* arr;
    if (const Step s = resolveArray(pe, w, frameIdx, f, in, id, arr);
        s != Step::Continue)
      return s;
    std::int64_t offset;
    if (!elemOffset(f, in, arr->shape(), &offset)) {
      fail("array write out of bounds in " + prog.sp(f.spCode).name);
      return Step::Stopped;
    }
    const Value v = f.slots[in.dst];
    if (wireStore()) {
      NToken tok;
      tok.amKind = static_cast<std::uint8_t>(AmKind::Write);
      tok.ctx = id;
      tok.senderCtx = static_cast<std::uint64_t>(offset);
      tok.slot = static_cast<std::uint16_t>(pe);
      tok.v = v;
      if (WsCell* cell = arr->find(offset)) {  // owned here
        w.st.amLocalWrites++;
        // Worker mode logs its own writes like received ones: the element
        // lives in process memory, and this frame may retire (and so never
        // re-execute) before a kill. Logged before the apply, so every
        // reply the write releases is gated on it.
        if (workerMode()) logAm(pe, tok);
        return wireApplyWrite(pe, *cell, id, offset, v) ? Step::Continue
                                                        : Step::Stopped;
      }
      // Fire-and-forget: the owner applies, detects violations, and drains
      // parked readers. Delivery is exactly-once (per-link seq windows on
      // UDP, msgId dedup on the inbox), and a kill-replay re-send is an
      // idempotent identical overwrite at the owner.
      w.st.amWriteSent++;
      send(pe, arr->layout->ownerOfOffset(offset), std::move(tok));
      return Step::Continue;
    }
    switch (cells->write(arr->ref, offset, v, &w.woken)) {
      case ShmStore::Write::Filled:
        break;
      case ShmStore::Write::Rewrite:
        // A replayed write of the value the element already holds: a no-op.
        // Its parks went to the original write — or, if that writer's
        // process died before its wakes left, the readers' park sweeper
        // re-reads the element.
        if (recMode()) break;
        [[fallthrough]];
      case ShmStore::Write::Conflict:
        fail("single-assignment violation at element " +
             std::to_string(offset));
        return Step::Stopped;
    }
    for (const std::uint64_t packed : w.woken) {
      const Cont wc = Cont::unpack(packed);
      NToken tok;
      tok.toCont = true;
      tok.cont = wc;
      tok.v = v;
      tok.wakeKey = elemWakeKey(id, offset);
      send(pe, wc.pe, std::move(tok));
    }
    w.woken.clear();
    return Step::Continue;
  }

  /// The native side of the SP executor (runtime/sp_exec.hpp) and of the
  /// receive core (runtime/receive.hpp), bound to one worker: instructions
  /// are counted, arrays live in the active store, tokens leave through
  /// send(), and frame storage is recycled under generation tags.
  struct Exec {
    Impl& m;
    Worker& w;
    int pe;
    /// Instructions left in this slice (runSlice sets the budget).
    int sliceLeft = 0;

    static constexpr std::int64_t kMaxArrayElems = native::kMaxArrayElems;

    int numPEs() const { return m.cfg.numWorkers; }
    bool preempt() { return --sliceLeft < 0; }
    void charge(const NFrame&, const Instr&, bool) { w.st.instructions++; }
    void fail(const std::string& msg) { m.fail(msg); }
    std::uint64_t ctxBase() const { return jobCtxBase(m.cfg.jobId); }
    std::uint64_t& ctxCounter() { return w.ctxCounter; }
    RecoveryLog* recoveryLog() {
      return m.recMode() ? &m.recLogs[static_cast<std::size_t>(pe)] : nullptr;
    }
    void recordMint(std::uint64_t ctx, std::uint32_t seq, const Value& v) {
      m.logMintRec(pe, ctx, seq, v);
    }
    ParkedReplies& parkedReplies() { return w.recv.parked; }
    void replayedToken() { m.recReplayedTokens++; }

    // Receive core hooks.
    NFrame* liveFrame(std::uint32_t idx) {
      return idx < w.frames.size() && !w.frames[idx]->dead
                 ? w.frames[idx].get()
                 : nullptr;
    }
    /// Checked where tokens enter: the SP code a spawn resolves, the slot
    /// of that SP or of the frame (a forged token may name another SP), and
    /// a join-counter add only on a continuation, of an Int to an empty or
    /// Int slot.
    bool wellFormed(const NToken& tok, const NFrame* f) {
      const std::uint16_t slot = tok.toCont ? tok.cont.slot : tok.slot;
      const bool fits =
          f == nullptr ||
          (slot < f->slots.size() &&
           (!tok.add || (tok.v.isInt() && (f->slots[slot].empty() ||
                                           f->slots[slot].isInt()))));
      const bool ok = fits && (tok.toCont ||
                               (!tok.add && tok.spCode < m.prog.sps.size() &&
                                slot < m.prog.sps[tok.spCode].numSlots));
      if (!ok) w.st.badTokens++;
      return ok;
    }
    void drop(Drop) { w.st.tokensDropped++; }
    std::uint32_t spawn(std::uint16_t spCode, std::uint64_t ctx) {
      return m.createFrame(w, spCode, ctx);
    }
    void logRecord(const RecEntry& e) { m.logAppend(pe, e); }
    void parkedEarly() { m.recParkedEarly++; }
    void wake(std::uint32_t idx, NFrame& f, std::uint16_t slot) {
      if (f.blocked && f.blockedSlot == slot) {
        f.blocked = false;
        f.blockedSlot = kNoSlot;
        w.ready.push_back(idx);
      }
    }
    bool tracksStragglers() const { return m.trackStragglers(); }
    std::uint32_t retiredEntry(std::uint32_t) const { return kRetiredFrame; }
    bool holdsEnd() const { return m.workerMode(); }
    /// A rebuilt frame returns to its original index and generation; the
    /// index is the next one or a retired one, by log order.
    std::uint32_t restore(const RecEntry& e) {
      const std::uint32_t idx = e.frame;
      PODS_CHECK_MSG(idx <= w.frames.size(),
                     "recovery log creates frames out of order");
      if (idx == w.frames.size()) {
        w.frames.push_back(std::make_unique<NFrame>());
      } else {
        PODS_CHECK_MSG(w.frames[idx]->dead,
                       "recovery log reuses a live frame index");
      }
      NFrame& f = *w.frames[idx];
      f.reset(e.spCode, e.ctx, m.prog.sp(e.spCode).numSlots);
      f.gen = e.gen;
      f.blocked = false;
      f.dead = false;
      return idx;
    }
    void restoreEnd(NFrame& f) {
      f.dead = true;
      f.gen = static_cast<std::uint16_t>((f.gen + 1) & Cont::kGenMask);
      f.slots.clear();
    }
    /// The multi-process records of a rebuild (the core replays the rest).
    void replayRecord(const RecEntry& e) {
      if (e.kind == RecEntry::Kind::Recv) {
        // A wire-accepted inbound msgId (sender incarnation in `gen`).
        // Re-prime the UDP receive-dedup and ackable windows so a survivor's
        // retransmits of old-numbered tokens still dedup and ack instead of
        // double-applying — runs before transport threads exist (a no-op on
        // in-process transports).
        m.transport->primeRecv(e.msgId, static_cast<std::uint8_t>(e.gen));
        return;
      }
      if (static_cast<AmKind>(e.spCode) == AmKind::AllocMeta) {
        ArrayShape s;
        s.rank = static_cast<int>(e.slot);
        s.dim0 = static_cast<std::int64_t>(e.senderCtx);
        s.dim1 = e.v.asInt();
        const auto id = static_cast<ArrayId>(e.ctx);
        if (ArrayRec* a = w.arrays.get(id)) m.wireRegisterMeta(w, *a, id, s);
        return;
      }
      // Re-service the logged array message against the rebuilding store,
      // in its original receive order: writes are idempotent identical
      // overwrites, re-parked reads dedup by packed cont, and regenerated
      // replies and page runs are deferred here; the requester's myParks
      // registry drops wakes for parks it no longer holds, and caching a
      // final value twice is harmless.
      NToken t;
      t.amKind = static_cast<std::uint8_t>(e.spCode);
      t.ctx = e.ctx;
      t.slot = e.slot;
      t.senderCtx = e.senderCtx;
      t.v = e.v;
      t.cont = Cont::unpack(e.sendKey);
      m.handleAm(pe, t, /*fromLog=*/true);
    }

    Step alloc(std::uint32_t, NFrame& f, const Instr& in,
               const ArrayShape& shape) {
      // Ids come from this PE's stream, id = seq * numPEs + pe, so the
      // allocator of any id is id % numPEs with no cross-PE coordination.
      const Value v = mintOnce(*this, f, [&] {
        return Value::arrayv(static_cast<ArrayId>(
            (++w.arraySeq) * static_cast<std::uint64_t>(numPEs()) +
            static_cast<unsigned>(pe)));
      });
      if (!m.registerArray(w, v.asArray(), shape, m.prog.sp(f.spCode)))
        return Step::Stopped;
      f.slots[in.dst] = v;
      return Step::Continue;
    }
    [[gnu::always_inline]] Step read(std::uint32_t frameIdx, NFrame& f,
                                     const Instr& in, ArrayId id) {
      return m.arrayRead(pe, w, frameIdx, f, in, id);
    }
    [[gnu::always_inline]] Step write(std::uint32_t frameIdx, NFrame& f,
                                      const Instr& in, ArrayId id) {
      return m.arrayWrite(pe, w, frameIdx, f, in, id);
    }
    Step rangeFilter(std::uint32_t frameIdx, NFrame& f, const Instr& in,
                     ArrayId id) {
      // Answered from the layout, a pure function of (shape, config): the
      // wire store needs no owner round-trip.
      ArrayRec* arr;
      if (const Step s = m.resolveArray(pe, w, frameIdx, f, in, id, arr);
          s != Step::Continue)
        return s;
      const IdxRange r =
          in.dim == 0 ? arr->layout->ownedRows(pe)
                      : arr->layout->ownedColsOfRow(pe, f.slots[in.b].asInt());
      f.slots[in.dst] = Value::intv((in.op == Op::RFHI ? r.hi : r.lo) - in.off);
      return Step::Continue;
    }
    Step dimQuery(std::uint32_t frameIdx, NFrame& f, const Instr& in,
                  ArrayId id) {
      ArrayRec* arr;
      if (const Step s = m.resolveArray(pe, w, frameIdx, f, in, id, arr);
          s != Step::Continue)
        return s;
      const ArrayShape& shape = arr->shape();
      f.slots[in.dst] = Value::intv(in.dim == 1 ? shape.dim1 : shape.dim0);
      return Step::Continue;
    }

    void sendArg(bool broadcast, std::uint16_t spCode, std::uint16_t slot,
                 std::uint64_t ctx, const Value& v) {
      NToken tok;
      tok.spCode = spCode;
      tok.slot = slot;
      tok.ctx = ctx;
      tok.v = v;
      if (!broadcast) {
        m.send(pe, pe, std::move(tok));
        return;
      }
      for (int dest = 0; dest < numPEs(); ++dest) m.send(pe, dest, tok);
    }
    void sendCont(Cont c, const Value& v, bool add, std::uint64_t senderCtx,
                  std::uint64_t sendKey) {
      NToken tok;
      tok.toCont = true;
      tok.cont = c;
      tok.v = v;
      tok.add = add;
      tok.senderCtx = senderCtx;
      tok.sendKey = sendKey;
      m.send(pe, c.pe, std::move(tok));
    }
    void result(std::uint32_t idx, const Value& v) {
      std::lock_guard<std::mutex> g(m.resultM);
      // Multi-process: result slots are process-local (arrays live in the
      // cell store but results do not), so the store must reach the
      // supervisor's log or a kill after this frame retires loses it.
      // Replay re-execution of an already-applied store (resultSet set from
      // resumeResults) stores the identical value and is not re-logged.
      if (m.workerMode() && m.cfg.link != nullptr && !m.resultSet[idx])
        m.cfg.link->logResult(idx, v);
      m.results[idx] = v;
      m.resultSet[idx] = true;
    }
    /// Storage goes to the free list; the generation bump invalidates
    /// every outstanding continuation into it.
    Step end(std::uint32_t frameIdx, NFrame& f) {
      retire(*this, w.recv, f.ctx, frameIdx);
      if (m.workerMode()) {
        // Output commit for retirement: the End record may enter the log
        // only after every send this frame made is acked (otherwise a crash
        // after End could lose unacked output — replay would see the frame
        // as over and never re-execute it). Snapshot the per-destination
        // send high-water now; pumpRetiring completes the retirement when
        // the barrier passes. The frame dies now for everything else.
        Retiring r;
        r.frameIdx = frameIdx;
        r.ctx = f.ctx;
        m.transport->barrierSnapshot(r.snap);
        m.retiring.push_back(std::move(r));
      } else {
        w.freeList.push_back(frameIdx);
      }
      f.dead = true;
      f.gen = static_cast<std::uint16_t>((f.gen + 1) & Cont::kGenMask);
      f.slots.clear();  // drop payloads; capacity is kept for reuse
      w.st.framesRetired++;
      w.st.liveFrames.dec();
      return Step::Ended;
    }
  };

  // --- fail-stop recovery (kill mode) ----------------------------------------

  /// The fail-stop itself, run on the victim's own thread: every piece of
  /// volatile PE state is discarded and rebuilt from the stable receive log.
  /// Frames come back at their original indices and generations (the log
  /// records both at creation), END records turn storage back into retired
  /// stubs with the same post-retirement generation, and every live frame
  /// re-executes from pc 0. Logged continuation results are parked and
  /// re-delivered on demand (replayParked, runtime/sp_exec.hpp). The inbox
  /// and the WorkerStats ledger are deliberately untouched: in-flight tokens
  /// belong to the network, and the rebuilt live-frame count equals the
  /// discarded one, so the quiescence charges remain exact.
  void performKill(int pe) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    killFired = true;
    w.frames.clear();
    w.freeList.clear();
    w.ready.clear();
    w.recv.wipe();
    w.rx.resetReceiver();
    w.myParks.clear();
    // Wire store: each record's shape waiters and in-flight-DimReq flag
    // reference the wiped frames — re-executed frames re-block and re-query
    // — and its page cache is volatile, as in a respawned process. Shapes,
    // elements, parks and the allocation counter are *store* state, not PE
    // state (like the cell store): an in-process kill leaves them intact; a
    // respawned process starts empty and rebuilds them from the Am records
    // below.
    w.arrays.forEach([](ArrayId, ArrayRec& a) {
      a.shapeWait.clear();
      a.dimReqSent = false;
      a.pages.clear();
    });
    w.wsDeferred.clear();
    // Replies and page runs regenerated by Am replay cannot be sent yet
    // (worker mode runs this before any transport thread exists); they park
    // in wsDeferred and ship when the worker loop starts. Only set in worker
    // mode — a single worker thread — so no other thread can race the flag.
    const bool deferAm = workerMode() && wireStore();
    if (deferAm) amDeferSends = true;
    Exec ex{*this, w, pe};
    rebuild(ex, w.recv);
    if (deferAm) amDeferSends = false;
    for (std::uint32_t idx = 0;
         idx < static_cast<std::uint32_t>(w.frames.size()); ++idx) {
      if (w.frames[idx]->dead) {
        w.freeList.push_back(idx);
      } else {
        w.ready.push_back(idx);
        recReplayedFrames++;
      }
    }
  }

  // --- worker loop ------------------------------------------------------------

  /// True when any inbox lane (ring or overflow) holds a token. Racy by
  /// itself; conclusive inside the sleep handshake (after sleeping=true +
  /// seq_cst fence) and in the cv predicate (under w.m).
  bool inboxNonEmpty(Worker& w) const {
    for (int l = 0; l < w.laneCount; ++l) {
      SpscRing<NToken>* ring = w.lanes[l].load(std::memory_order_acquire);
      if (ring && !ring->empty()) return true;
    }
    return w.overflowCount.load(std::memory_order_relaxed) > 0;
  }

  /// Consumes one inbox token on the owner thread. In worker mode the wire
  /// accept is logged first (a Recv record carrying msgId + sender epoch)
  /// and its stream position handed to the transport: the cumulative ack
  /// for this sequence may go out only once that record is stable at the
  /// supervisor — output commit; never ack what stable storage hasn't seen.
  void consumeInboxToken(int pe, const NToken& tok) {
    if (workerMode()) {
      RecEntry e;
      e.kind = RecEntry::Kind::Recv;
      e.msgId = tok.msgId;
      e.gen = tok.epoch;
      const std::uint64_t seq = logAppend(pe, e);
      transport->noteDrained(tok.msgId, tok.epoch, seq);
    }
    deliver(pe, tok);
    finishPending();  // token consumed
  }

  void drainInbox(int pe) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    std::int64_t drained = 0;
    NToken tok;
    for (int l = 0; l < w.laneCount; ++l) {
      SpscRing<NToken>* ring = w.lanes[l].load(std::memory_order_acquire);
      if (!ring) continue;
      while (ring->tryPop(tok)) {
        inboxTokens.fetch_sub(1);
        ++drained;
        consumeInboxToken(pe, tok);
      }
    }
    if (w.overflowCount.load(std::memory_order_relaxed) > 0) {
      std::deque<NToken> batch;
      {
        std::lock_guard<std::mutex> g(w.m);
        batch.swap(w.overflow);
        w.overflowCount.store(0, std::memory_order_relaxed);
      }
      inboxTokens.fetch_sub(static_cast<std::int64_t>(batch.size()));
      drained += static_cast<std::int64_t>(batch.size());
      for (NToken& t : batch) {
        consumeInboxToken(pe, t);
      }
    }
    w.st.tokensIn += drained;
  }

  bool aborted() const {
    return cfg.abort != nullptr && cfg.abort->load(std::memory_order_relaxed);
  }
  /// The external abort flag is up: fail the run, which wakes every worker.
  void failAborted() {
    fail("aborted: external stop requested (watchdog); " +
         std::to_string(inboxTokens.load()) + " tokens in flight, pending=" +
         std::to_string(pending.load()));
  }

  void finishPending() {
    // Worker mode: a local zero is NOT global termination — a peer process
    // may still send tokens here. The supervisor decides the end of the run
    // (Poll/Status rounds) and stops this worker with an End frame.
    if (pending.fetch_sub(1) == 1 && !workerMode()) {
      stop.store(true);
      for (auto& w : workers) {
        std::lock_guard<std::mutex> g(w->m);
        w->cv.notify_all();
      }
    }
  }

  void runSlice(int pe, std::uint32_t frameIdx) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    NFrame& f = *w.frames[frameIdx];
    if (f.dead) return;
    Exec ex{*this, w, pe, cfg.sliceInstructions};
    switch (pods::run(prog, ex, frameIdx, f)) {
      case Step::Continue:
        // Slice budget exhausted: requeue and let the inbox drain.
        w.ready.push_back(frameIdx);
        break;
      case Step::Blocked:
        f.blocked = true;
        break;
      case Step::Ended:
        // Worker mode holds the retired frame's pending charge through the
        // END-retire barrier; pumpRetiring releases it with the End record.
        if (!workerMode()) finishPending();
        break;
      case Step::Stopped:
        break;
    }
  }

  // --- worker-mode deferred retirement + park sweeping -----------------------

  /// Completes retirements whose END barrier has passed: every send the
  /// frame made is acked under the current epochs, so its output is in the
  /// receivers' stable logs and the End record can safely enter ours. FIFO
  /// order keeps End records in retirement order, and storage is recycled
  /// only here — replay must never see a frame index reused before its
  /// previous occupant's End.
  void pumpRetiring(int pe) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    while (!retiring.empty()) {
      const Retiring& r = retiring.front();
      if (!transport->barrierPassed(r.snap)) return;
      Exec ex{*this, w, pe};
      writeEnd(ex, r.ctx);
      w.freeList.push_back(r.frameIdx);
      retiring.pop_front();
      finishPending();  // the frame's live charge, held through the barrier
    }
  }

  /// Self-serves parked reads whose element has appeared in the cell store
  /// without the wake token arriving. That happens in exactly one failure
  /// shape: the writer filled the element (taking its parked list) and its
  /// process died before the wake tokens were delivered — its replay finds
  /// the element set, so nobody will ever re-send the wake. Run from the
  /// idle path; a benign race with an in-flight wake resolves at deliver(),
  /// which drops whichever copy comes second (myParks registry).
  void sweepParks(int pe) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    for (auto it = w.myParks.begin(); it != w.myParks.end();) {
      const std::uint64_t key = it->first;
      const ShmStore::ArrayRef ref = cells->lookup(wakeKeyArray(key));
      Value v;
      if (!ref.valid() || !cells->tryRead(ref, wakeKeyOffset(key), &v)) {
        ++it;
        continue;
      }
      std::vector<std::uint64_t> conts(it->second.begin(), it->second.end());
      ++it;  // deliver() erases this key from myParks; advance first
      for (std::uint64_t packed : conts) {
        NToken tok;
        tok.toCont = true;
        tok.cont = Cont::unpack(packed);
        tok.v = v;
        tok.wakeKey = key;
        deliver(pe, tok);  // local self-delivery: no quiescence charges
      }
    }
  }

  void workerMain(int pe) {
    Worker& w = *workers[static_cast<std::size_t>(pe)];
    const bool killTarget = killMode() && pe == cfg.faults.killPe;
    const bool wmode = workerMode();
    // Respawn replay may have regenerated array-message replies before the
    // transport was up; the loop owns the transport now, so ship them.
    if (wireStore()) flushDeferredAm(pe);
    int slicesSinceFlush = 0;
    while (!stop.load()) {
      if (aborted()) {
        failAborted();
        break;
      }
      if (killTarget && !killFired &&
          std::chrono::steady_clock::now() >= killAt) {
        performKill(pe);
      }
      drainInbox(pe);
      if (wmode && !retiring.empty()) pumpRetiring(pe);
      if (!w.ready.empty()) {
        std::uint32_t idx = w.ready.front();
        w.ready.pop_front();
        runSlice(pe, idx);
        // A worker with a deep ready queue still ships its outboxes every
        // few slices — enough slack for sends to coalesce into near-full
        // batches. The worker loop is the transport's only flusher, so a
        // busy worker's sends wait at most four slices.
        if (++slicesSinceFlush >= 4) {
          transport->flush(pe);
          if (wmode) transport->pumpAcks();
          slicesSinceFlush = 0;
        }
        continue;
      }
      slicesSinceFlush = 0;
      // Out of local work: ship any tokens coalescing in this worker's
      // transport outboxes.
      transport->flush(pe);
      if (wmode) {
        transport->pumpAcks();
        pumpRetiring(pe);
        // The park sweeper reads elements straight from the cell store.
        // Under the wire store the equivalent failure shape (writer died
        // after applying, before its replies got out) is covered by Am log
        // replay regenerating the replies at the owner.
        if (!wireStore()) sweepParks(pe);
      }
      drainInbox(pe);
      if (!w.ready.empty()) continue;
      // The drain can send without making a frame ready — an owner serving
      // array messages queues replies — so flush once more. Every path from
      // a send to the cv-wait below passes a flush after it, and batching
      // can never park the last wake-up a peer is waiting for.
      transport->flush(pe);
      // Idle: publish sleeping, re-check the rings, register, run the
      // quiescence check, then block on the cv until a token push or stop
      // notifies us (no timeout — once sleeping is visible every producer
      // notifies under w.m, so a wakeup can't be missed; the seq_cst fence
      // pairs with the one in deposit()).
      std::unique_lock<std::mutex> g(w.m);
      w.sleeping.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (inboxNonEmpty(w) || stop.load()) {
        w.sleeping.store(false, std::memory_order_relaxed);
        continue;
      }
      w.st.idleTransitions++;
      idleWorkers.fetch_add(1);
      if (!wmode) {
        const std::uint64_t e1 = wakeEpoch.load();
        if (idleWorkers.load() == cfg.numWorkers && inboxTokens.load() == 0 &&
            pending.load() > 0 && wakeEpoch.load() == e1 && !stop.load()) {
          // Stable double-collect: no worker woke between the two epoch
          // reads, so all of them were idle across every read above — the
          // frames counted in `pending` can never be fed another token.
          g.unlock();
          fail("deadlock: " + std::to_string(pending.load()) +
               " live SPs blocked forever");
          idleWorkers.fetch_sub(1);
          w.sleeping.store(false, std::memory_order_relaxed);
          continue;
        }
      }
      if (wmode || (killTarget && !killFired)) {
        // Timed waits: the kill victim must observe its wall-clock deadline
        // even while idle, and a multiproc worker must keep re-polling
        // gated flushes, pending acks, the END barrier, and the park
        // sweeper — and its run ends out-of-band (ctl End → requestStop).
        // Local counters cannot distinguish deadlock from "peer busy", so
        // the double-collect above is the supervisor's job in worker mode
        // (Poll/Status rounds). Spurious timeouts just bump the epoch.
        w.cv.wait_for(g, std::chrono::milliseconds(1),
                      [&] { return inboxNonEmpty(w) || stop.load(); });
      } else if (cfg.abort != nullptr) {
        // No other thread watches the abort flag: poll it while staying
        // registered idle, so a timeout consumes nothing and the
        // double-collect above stays exact.
        while (!w.cv.wait_for(g, std::chrono::milliseconds(1), [&] {
          return inboxNonEmpty(w) || stop.load();
        })) {
          if (aborted()) {
            g.unlock();  // fail() takes every worker's mutex
            failAborted();
            break;
          }
        }
      } else {
        w.cv.wait(g, [&] { return inboxNonEmpty(w) || stop.load(); });
      }
      w.sleeping.store(false, std::memory_order_relaxed);
      idleWorkers.fetch_sub(1);
      wakeEpoch.fetch_add(1);  // deregister first, bump second, consume last
    }
  }

  NativeResult run() {
    if (supervisorMode()) {
      // The machine object is a shell in supervisor mode: the run happens
      // in forked worker processes. runSupervisor creates the cell store
      // (handed back here so gather() can read result arrays) and drives
      // the fleet — fork, boot, heartbeats, kill recovery, termination.
      return procmgr::runSupervisor(prog, cfg, cells, wireGathered);
    }
    if (killMode() && cfg.faults.killPe >= cfg.numWorkers) {
      NativeResult bad;
      bad.ok = false;
      bad.error = "kill fault targets worker " +
                  std::to_string(cfg.faults.killPe) + " but only " +
                  std::to_string(cfg.numWorkers) + " workers exist";
      return bad;
    }
    auto t0 = std::chrono::steady_clock::now();
    if (!wireStore()) {
      // A worker process maps the supervisor's memfd — on respawn, the
      // segment-restore step of recovery: elements written before the kill
      // are untouched by this process's death. In-process workers share a
      // pooled mapping. The wire store has no cell store at all: elements
      // live in per-PE owned slices, restored from the receive log's Am
      // records.
      std::string serr;
      cells = workerMode()
                  ? ShmStore::attach(procmgr::kWorkerStoreFd, &serr)
                  : ShmStore::acquireLocal(cfg.numWorkers, &serr);
      if (cells == nullptr) {
        NativeResult bad;
        bad.ok = false;
        bad.error = "cell store unavailable: " + serr;
        return bad;
      }
    }
    if (workerMode()) {
      const int pe = cfg.localPe;
      // Re-apply logged RESULT stores before replay: with the slot already
      // marked set, a replayed frame's re-execution of the store is a
      // silent overwrite with the identical value, not a fresh log append.
      for (const auto& [slot, v] : cfg.resumeResults) {
        if (slot < resultSet.size()) {
          results[slot] = v;
          resultSet[slot] = true;
        }
      }
      if (cfg.resume) {
        // Log replay: the supervisor shipped our full recovery stream in
        // Boot. Rebuild frames/mints/dedup and re-prime the UDP windows
        // (performKill's Recv records) before any transport thread exists.
        RecoveryLog& L = recLogs[static_cast<std::size_t>(pe)];
        L = std::move(cfg.resumeLog);
        std::uint64_t& seq = workers[static_cast<std::size_t>(pe)]->arraySeq;
        for (const auto& [ctx, m] : L.mints) {
          (void)ctx;
          for (const auto& [mseq, v] : m) {
            (void)mseq;
            if (v.isArray())
              seq = std::max<std::uint64_t>(
                  seq, v.asArray() / static_cast<unsigned>(cfg.numWorkers));
          }
        }
        performKill(pe);
        // In-process kill recovery inherits the machine's surviving ledger
        // (the original createFrame charges were never released), but this
        // is a fresh process: charge pending once per live frame the replay
        // rebuilt, or their eventual retirement drives the ledger negative
        // and the supervisor's termination count is off by the replay size.
        pending.fetch_add(static_cast<std::int64_t>(
            workers[static_cast<std::size_t>(pe)]->ready.size()));
        // Same story for the stats ledger: count every frame the replay
        // instantiated as created and every replayed-End stub as retired,
        // so this incarnation's framesCreated/framesRetired balance once
        // its live frames run to completion (the dead incarnation's
        // counters died with it — the supervisor only merges ours).
        {
          Worker& rw = *workers[static_cast<std::size_t>(pe)];
          for (const auto& fp : rw.frames) {
            rw.st.framesCreated++;
            rw.st.liveFrames.inc();
            if (fp->dead) {
              rw.st.framesRetired++;
              rw.st.liveFrames.dec();
            }
          }
        }
      }
    } else if (killMode()) {
      killAt = t0 + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::micro>(
                            cfg.faults.killTimeUs));
    }
    // No token spawns main (it may take no arguments). A worker process
    // boots it unless its resume log rebuilt it: the log starts with the
    // Boot record, so an empty one on PE 0 means nothing ever stabilized.
    if (!workerMode() || (cfg.localPe == 0 && recLogs[0].entries.empty())) {
      Exec ex{*this, *workers[0], 0};
      const std::uint64_t ctx = jobCtxBase(cfg.jobId);
      bootMain(ex, workers[0]->recv, prog.mainSp, ctx,
               createFrame(*workers[0], prog.mainSp, ctx));
    }
    // A worker process begins execution (and on resume, re-sending) only on
    // the supervisor's Start: it is gating the respawn barrier.
    if (workerMode() && cfg.link != nullptr && !cfg.link->waitStart()) {
      NativeResult bad;
      bad.ok = false;
      bad.error = "aborted before Start";
      return bad;
    }
    // Transport service threads (retransmit daemon, UDP sockets/receivers)
    // come up before the workers so no send can outrun them.
    std::string terr;
    if (!transport->start(&terr)) {
      NativeResult bad;
      bad.ok = false;
      bad.error = terr.empty() ? "transport failed to start" : terr;
      return bad;
    }
    // Pool mode (serving daemon): worker bodies run on a warm external
    // pool; completion is a counted latch instead of join().
    std::atomic<int> liveBodies{0};
    std::mutex poolDoneM;
    std::condition_variable poolDoneCv;
    for (int i = 0; i < cfg.numWorkers; ++i) {
      // Worker mode: exactly one PE runs in this process.
      if (workerMode() && i != cfg.localPe) continue;
      if (cfg.pool != nullptr) {
        liveBodies.fetch_add(1, std::memory_order_relaxed);
        cfg.pool->dispatch([this, i, &liveBodies, &poolDoneM, &poolDoneCv] {
          workerMain(i);
          std::lock_guard<std::mutex> g(poolDoneM);
          if (liveBodies.fetch_sub(1, std::memory_order_acq_rel) == 1)
            poolDoneCv.notify_all();
        });
      } else {
        workers[static_cast<std::size_t>(i)]->thread =
            std::thread([this, i] { workerMain(i); });
      }
    }
    if (cfg.pool != nullptr) {
      std::unique_lock<std::mutex> g(poolDoneM);
      poolDoneCv.wait(g, [&] {
        return liveBodies.load(std::memory_order_acquire) == 0;
      });
    }
    for (auto& w : workers)
      if (w->thread.joinable()) w->thread.join();
    // Workers have joined: no further send() is possible, so the transport
    // can quiesce its service threads.
    transport->stop();
    auto t1 = std::chrono::steady_clock::now();

    NativeResult out;
    out.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.results = results;
    out.resultsSet.reserve(resultSet.size());
    for (const bool set : resultSet)
      out.resultsSet.push_back(set ? 1 : 0);
    out.error = error;
    if (out.error.empty() && !workerMode()) {
      // Worker mode: RESULT slots may have been stored by OTHER processes;
      // the supervisor checks completeness after merging every Result.
      for (std::size_t r = 0; r < resultSet.size(); ++r) {
        if (!resultSet[r]) {
          out.error = "program result " + std::to_string(r) + " never set";
          break;
        }
      }
    }
    out.ok = out.error.empty();

    // Per-worker counters (threads joined: owner-only state is now visible),
    // rolled up into the aggregate "native.*" namespace.
    for (const auto& w : workers) {
      Counters c;
      c.add("tokensIn", w->st.tokensIn);
      c.add("tokensOut", w->st.tokensOut);
      c.add("tokensDropped", w->st.tokensDropped);
      c.add("framesCreated", w->st.framesCreated);
      c.add("framesRetired", w->st.framesRetired);
      c.add("framesReused", w->st.framesReused);
      c.add("framesPeak", w->st.liveFrames.peak());
      c.add("framesLive", w->st.liveFrames.current());
      c.add("idleTransitions", w->st.idleTransitions);
      c.add("instructions", w->st.instructions);
      c.add("dupSuppressed", w->st.dupSuppressed);
      c.add("badTokens", w->st.badTokens);
      out.counters.mergePrefixed(c, "native.");
      out.perWorker.push_back(std::move(c));
    }
    if (wireStore()) {
      // Array-message ledger ("net.am.*"). Fault-free invariants the tests
      // assert: readReqSent == readReqServed, writeSent == writeApplied,
      // dimReqSent == dimReqServed, parks == parkFills, pageRunsSent ==
      // pageRunsApplied (messages) and pageFillsSent == pageFillsApplied
      // (the elements they carry), summed over PEs — in multi-process mode
      // after the supervisor merges every worker.
      Counters am;
      for (const auto& w : workers) {
        am.add("readReqSent", w->st.amReadReqSent);
        am.add("readReqServed", w->st.amReadReqServed);
        am.add("writeSent", w->st.amWriteSent);
        am.add("writeApplied", w->st.amWriteApplied);
        am.add("dimReqSent", w->st.amDimReqSent);
        am.add("dimReqServed", w->st.amDimReqServed);
        am.add("repliesSent", w->st.amRepliesSent);
        am.add("pageHits", w->st.amPageHits);
        am.add("pageRunsSent", w->st.amPageRunsSent);
        am.add("pageRunsApplied", w->st.amPageRunsApplied);
        am.add("pageFillsSent", w->st.amPageFillsSent);
        am.add("pageFillsApplied", w->st.amPageFillsApplied);
        am.add("parks", w->st.amParks);
        am.add("parkFills", w->st.amParkFills);
        am.add("localReads", w->st.amLocalReads);
        am.add("localWrites", w->st.amLocalWrites);
        am.add("shapeWaits", w->st.amShapeWaits);
      }
      out.counters.mergePrefixed(am, "net.am.");
    }
    // Accesses served by the cell store — the acceptance proof that
    // --store=wire routes ALL array traffic over the transport is this
    // counter staying 0 (it moves only under --store=local).
    std::int64_t shmOps = 0;
    for (const auto& w : workers) shmOps += w->st.shmArrayOps;
    out.counters.add("native.shmArrayOps", shmOps);
    // Workers skip this one: the supervisor adds it exactly once, or the
    // merged total would read N * numWorkers.
    if (!workerMode()) out.counters.add("native.workers", cfg.numWorkers);
    // Inbox SPSC-ring overflow spills (tokens that fell back to the mutex
    // deque because a ring was full) — zero in healthy runs.
    std::int64_t overflow = 0;
    for (const auto& w : workers)
      overflow += w->overflowTotal.load(std::memory_order_relaxed);
    out.counters.add("native.inboxOverflow", overflow);
    // Transport-side counters (fault.drops/dups/delays, net.retx.resent,
    // per-link breakdown, UDP wire totals); machine-side fault counters stay
    // here because stalls and receiver dedup happen at delivery, not in the
    // transport.
    transport->addStats(out.counters);
    if (trackStragglers()) {
      // Receiver-half protocol counters (msgId dedup, straggler triage)
      // accumulate per worker; roll them up here so faulty runs report the
      // canonical counter-name set.
      for (const auto& w : workers) {
        w->rx.addStats(out.counters);
        out.counters.add(proto::kStragglers, w->recv.stragglers);
      }
    }
    if (plan.enabled()) {
      out.counters.add("fault.stalls", faultStalls.load());
      proto::Delivery::registerInjectionCounters(out.counters);
    }
    if (killMode() || (workerMode() && cfg.resume)) {
      // In multi-process mode fault.kills is the supervisor's counter (it
      // performs the kills); a resumed worker reports only the replay side.
      if (killMode()) out.counters.add("fault.kills", killFired ? 1 : 0);
      out.counters.add("recovery.replayedFrames", recReplayedFrames);
      out.counters.add("recovery.replayedTokens", recReplayedTokens);
      out.counters.add("recovery.parkedEarly", recParkedEarly);
      // Post-END ledger residency: bounded by live instances (recovery.hpp).
      std::int64_t liveKeys = 0, liveMints = 0;
      for (const auto& w : workers) liveKeys += w->recv.dedup.liveKeys();
      for (const RecoveryLog& L : recLogs)
        for (const auto& [ctx, m] : L.mints)
          liveMints += static_cast<std::int64_t>(m.size());
      out.counters.add("recovery.dedup.liveKeys", liveKeys);
      out.counters.add("recovery.mints.live", liveMints);
    }
    return out;
  }
};

NativeMachine::NativeMachine(const SpProgram& prog, NativeConfig cfg)
    : impl_(std::make_unique<Impl>(prog, cfg)) {}

NativeMachine::~NativeMachine() = default;

NativeResult NativeMachine::run() { return impl_->run(); }

std::optional<NativeArray> NativeMachine::gather(ArrayId id) const {
  if (impl_->cfg.store == StoreKind::Local) {
    // The cell store, read after every writer finished: in-process threads
    // have joined, worker processes have exited.
    if (impl_->cells == nullptr) return std::nullopt;
    const ShmStore::ArrayRef ref = impl_->cells->lookup(id);
    if (!ref.valid()) return std::nullopt;
    NativeArray view;
    view.shape = ref.shape;
    impl_->cells->gather(ref, &view.elems);
    return view;
  }
  if (impl_->supervisorMode()) {
    // Wire store, supervisor: merged from the workers' Result frames.
    auto it = impl_->wireGathered.find(id);
    if (it == impl_->wireGathered.end()) return std::nullopt;
    return it->second;
  }
  // In-process (threads joined — unguarded reads are safe) or a worker's
  // own view: shape from any record that knows it, elements from every
  // owner's slice.
  const ArrayRec* meta = nullptr;
  for (const auto& w : impl_->workers) {
    meta = Impl::wireMeta(*w, id);
    if (meta != nullptr) break;
  }
  if (meta == nullptr) return std::nullopt;
  NativeArray view;
  view.shape = meta->shape();
  view.elems.assign(static_cast<std::size_t>(view.shape.numElems()), Value{});
  for (const auto& w : impl_->workers) {
    const ArrayRec* rec = w->arrays.find(id);
    if (rec == nullptr) continue;
    const ArrayRec& a = *rec;
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
      const std::int64_t off = a.lo + static_cast<std::int64_t>(i);
      if (!a.cells[i].v.empty() &&
          off < static_cast<std::int64_t>(view.elems.size()))
        view.elems[static_cast<std::size_t>(off)] = a.cells[i].v;
    }
  }
  return view;
}

std::vector<WireArrayPart> NativeMachine::wireArrayParts() const {
  std::vector<WireArrayPart> parts;
  if (impl_->cfg.store != StoreKind::Wire) return parts;
  std::unordered_map<ArrayId, std::size_t> idx;
  auto partFor = [&](ArrayId id) -> WireArrayPart& {
    auto [it, inserted] = idx.try_emplace(id, parts.size());
    if (inserted) {
      parts.emplace_back();
      parts.back().id = id;
    }
    return parts[it->second];
  };
  const auto numPes = static_cast<ArrayId>(impl_->cfg.numWorkers);
  for (const auto& w : impl_->workers) {
    w->arrays.forEach([&](ArrayId id, const ArrayRec& a) {
      // Only the allocator's shape ships — cached DimReply copies are
      // redundant, and exactly one PE (id % numPEs) is the allocator.
      const bool allocator =
          a.layout && static_cast<int>(id % numPes) == w->id;
      const auto present = static_cast<std::size_t>(
          std::count_if(a.cells.begin(), a.cells.end(),
                        [](const WsCell& c) { return !c.v.empty(); }));
      if (!allocator && present == 0) return;
      WireArrayPart& p = partFor(id);
      if (allocator) {
        p.hasMeta = true;
        p.shape = a.shape();
      }
      p.elems.reserve(p.elems.size() + present);
      for (std::size_t i = 0; i < a.cells.size(); ++i)
        if (!a.cells[i].v.empty())
          p.elems.emplace_back(a.lo + static_cast<std::int64_t>(i),
                               a.cells[i].v);
    });
  }
  return parts;
}

WorkerStatus NativeMachine::workerStatus() const {
  const Impl& m = *impl_;
  WorkerStatus s;
  s.idle = m.idleWorkers.load() > 0;
  s.pending = m.pending.load();
  s.inboxTokens = m.inboxTokens.load();
  s.outstanding = m.transport != nullptr ? m.transport->outstanding() : 0;
  s.logAppended = m.cfg.link != nullptr ? m.cfg.link->logAppended() : 0;
  // Deposits only — NOT wakeEpoch: the worker-mode idle loop uses 1 ms
  // timed waits, so the epoch ticks forever and would keep two otherwise
  // identical quiet rounds from ever matching. Every cross-process event
  // the supervisor's check must see moves depositTotal or logAppended
  // (all wire arrivals deposit AND log a Recv record; retirement logs End).
  s.activity =
      static_cast<std::uint64_t>(m.depositTotal.load(std::memory_order_relaxed));
  if (std::getenv("PODS_MULTIPROC_DEBUG") != nullptr && s.idle &&
      s.pending > 0) {
    // Racy read of worker-owned frame state — debug diagnostics only.
    for (const auto& w : m.workers) {
      for (const auto& fp : w->frames) {
        const NFrame& f = *fp;
        if (f.dead) continue;
        std::fprintf(stderr,
                     "[pe%d dbg] live frame sp=%u ctx=%llu pc=%u blocked=%d "
                     "slot=%u replaying=%d\n",
                     m.cfg.localPe, unsigned(f.spCode),
                     static_cast<unsigned long long>(f.ctx), f.pc,
                     int(f.blocked), unsigned(f.blockedSlot),
                     int(f.replaying));
      }
    }
  }
  return s;
}

void NativeMachine::requestStop() {
  Impl& m = *impl_;
  m.stop.store(true);
  for (auto& w : m.workers) {
    std::lock_guard<std::mutex> g(w->m);
    w->cv.notify_all();
  }
}

void NativeMachine::noteLogStable(std::uint64_t upTo) {
  // The WorkerLink already advanced its stable watermark to `upTo`; this
  // call just retries whatever was gated on it (flushes, pending acks).
  (void)upTo;
  if (impl_->transport != nullptr) impl_->transport->onStableAdvance();
}

}  // namespace pods::native
