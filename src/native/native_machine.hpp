// Native threaded runtime for Subcompact Processes.
//
// The simulator (src/sim) reproduces the paper's *evaluation*; this runtime
// demonstrates the paper's *goal*: executing the same translated SP programs
// on a real shared-nothing-style multiprocessor — here, host threads, the
// modern stand-in for the iPSC/2 nodes the authors were targeting.
//
// Fidelity to the model:
//  - one worker thread per "PE"; every frame is owned by exactly one worker
//    and only its owner ever touches it (tokens cross threads through the
//    worker's inbox, lock-free SPSC rings with a mutex-guarded overflow
//    deque, so no per-frame locking exists);
//  - SP semantics are identical to the simulator's by construction, since
//    both engines run one SP executor (runtime/sp_exec.hpp) and one receive
//    core (runtime/receive.hpp): spawn-by-token
//    frame instantiation keyed on (SP code, context), blocking on empty
//    operand slots, split-phase I-structure reads with deferred-read
//    wake-up, counted completion joins, Range Filters computed from array
//    headers with the worker count as the PE count;
//  - single assignment is enforced; violations, bounds errors, stale array
//    handles, and deadlocks (all workers idle with live SPs) are detected
//    and reported — termination and deadlock are decided by a counting
//    quiescence protocol over live frames + in-flight tokens, never by
//    grace-period sleeps or polling timeouts (docs/ARCHITECTURE.md,
//    "Native runtime termination & memory model").
//
// Because the language is single-assignment, results are bit-identical to
// the simulator and the evaluators regardless of thread interleaving —
// that is the Church-Rosser property, and the tests assert it under
// repeated runs and varying worker counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "native/transport.hpp"
#include "runtime/array_layout.hpp"
#include "runtime/isa.hpp"
#include "support/fault.hpp"
#include "support/recovery.hpp"
#include "support/stats.hpp"

namespace pods::native {

/// Seam for a persistent host-thread pool standing in for per-run worker
/// spawn. A long-lived server (src/serve) keeps one warm pool across jobs so
/// a job's run() pays no thread create/join cost; dispatch() must execute
/// `fn` on some pool thread, and run() blocks until every dispatched body
/// has returned. The pool must have at least numWorkers threads available
/// for the whole run — worker bodies park until quiescence, so a smaller
/// pool deadlocks.
class ExecPool {
 public:
  virtual ~ExecPool() = default;
  virtual void dispatch(std::function<void()> fn) = 0;
};

/// Contexts are minted as (jobId | pe | counter) and never reused, so the
/// job id rides in the high bits of every context a run creates: 13 bits at
/// bit 49 — above the pe field (bit 40), below the array wake-key namespace
/// (bit 63), and small enough that minted contexts stay positive int64s.
inline constexpr std::uint32_t kJobIdBits = 13;
inline constexpr int kJobIdShift = 49;
inline std::uint64_t jobCtxBase(std::uint32_t jobId) {
  return static_cast<std::uint64_t>(jobId & ((1u << kJobIdBits) - 1))
         << kJobIdShift;
}

struct NativeConfig {
  int numWorkers = 4;      // the "PE count" seen by NUMPE / Range Filters
  int pageElems = 32;      // array layout granularity: ownership math, and
                           // under the wire store the unit a remote read
                           // ships and the requester caches
  int sliceInstructions = 1024;  // max instructions before draining the inbox
                                 // (must be >= 1: a zero budget would requeue
                                 // a frame forever without progress)
  /// Per-PE ownership weights for distributed-array page segmentation
  /// (runtime/array_layout.hpp). Empty = uniform; otherwise one entry >= 1
  /// per worker, sizing each worker's page share proportionally.
  std::vector<std::int64_t> peWeights;
  /// Fault injection (support/fault.hpp). On the inbox transport, nonzero
  /// rates put cross-worker token delivery behind an unreliable-transport
  /// shim: dropped/delayed tokens are re-driven by a wall-clock retransmit
  /// daemon with exponential backoff, duplicates are suppressed at the
  /// receiving worker by message id. On the UDP transports the same dice
  /// roll per datagram, batches and acks alike, under the link windows'
  /// own retransmit and sequence dedup. A kill entry (killPe) fail-stops a
  /// worker on either. Injected tokens keep their quiescence accounting, so
  /// termination and deadlock detection stay exact. Results remain
  /// bit-identical to a fault-free run (single assignment + dedup).
  FaultConfig faults;
  /// Cross-PE token transport (native/transport.hpp): the in-process inbox
  /// (default, behavior-unchanged) or per-PE UDP loopback sockets with an
  /// always-on ack/retransmit reliable-delivery protocol. Fault injection
  /// and kill recovery compose with either.
  TransportKind transport = TransportKind::Inbox;
  /// Array-store backend (native/store.hpp): `local` (default) is the
  /// lock-free I-structure cell store (native/shm_store.hpp), shared by the
  /// worker threads in-process and by the worker processes through one
  /// memfd under udp-multiproc; `wire` keeps owner-serviced array messages
  /// on the token wire. Outputs are bit-identical across backends; `wire` is
  /// the layering remote-host workers need (no shared memory, every cross-PE
  /// access a transported message).
  StoreKind store = StoreKind::Local;
  /// Optional external abort flag (e.g. a wall-clock watchdog): polled by
  /// the workers, between slices and every 1 ms while idle; when it becomes
  /// true the run fails fast with an "aborted" error instead of hanging.
  /// Pointee must outlive run().
  std::atomic<bool>* abort = nullptr;
  /// Multi-tenant namespace: every context this run mints (including the
  /// boot frame's) carries jobId in its high bits (jobCtxBase), so tokens,
  /// frames, straggler-ledger entries, and dedup keys of concurrent jobs
  /// can never collide. 0 (the default) reproduces the historical ctx
  /// values bit-for-bit.
  std::uint32_t jobId = 0;
  /// When set, run() executes worker bodies on this pool instead of
  /// spawning one thread per PE (the serving daemon's warm pool). Must
  /// outlive run(). Thread mode (nullptr) is unchanged.
  ExecPool* pool = nullptr;

  // ---- Multi-process mode (transport == UdpMultiproc) ------------------
  /// Supervisor: leave localPe at -1 — run() then forks one worker process
  /// per PE (native/procmgr.hpp) instead of spawning threads. Worker: the
  /// PE this process executes; everything below is filled from the Boot
  /// message by the worker entry point.
  int localPe = -1;
  std::uint8_t epoch = 0;            // worker incarnation (0 = first boot)
  WorkerLink* link = nullptr;        // control-channel seam (worker only)
  bool resume = false;               // rebuild from resumeLog before running
  RecoveryLog resumeLog;             // replayed stream from the supervisor
  /// Resume only: RESULT stores the previous incarnation had logged as
  /// stable, applied as (slot, value) before replay — result slots are
  /// process-local (not in the cell store), so the log is their only stable
  /// home.
  std::vector<std::pair<std::uint32_t, Value>> resumeResults;
  int sockFd = -1;                   // worker: inherited bound UDP socket
  std::vector<std::uint16_t> peerPorts;  // loopback data port of every PE
  std::uint32_t heartbeatPeriodMs = 25;
  std::uint32_t heartbeatTimeoutMs = 2000;
};

struct NativeResult {
  bool ok = false;
  std::string error;
  std::vector<Value> results;
  /// Parallel to results: whether slot r was stored by THIS process. In
  /// single-process runs every slot is set on success; in multi-process
  /// mode each worker sets only the slots its own frames stored and the
  /// supervisor merges + checks completeness.
  std::vector<std::uint8_t> resultsSet;
  double wallSeconds = 0.0;
  /// Aggregated run counters ("native.*"): frames created/retired/peak,
  /// free-list reuse, tokens in/out/dropped, idle transitions, instructions.
  Counters counters;
  /// Per-worker breakdown of the same counters (unprefixed names), index ==
  /// worker id. framesCreated - framesRetired must be 0 after a clean run.
  std::vector<Counters> perWorker;
};

/// One materialized array, readable after run() completes.
struct NativeArray {
  ArrayShape shape{};
  std::vector<Value> elems;
};

/// Wire store (`--store=wire`): one PE's slice of the array plane, shipped
/// to the supervisor inside its Result frame so post-run gather() works
/// without a cell store. `hasMeta` marks the allocator's authoritative
/// shape record; `elems` are the (offset, value) pairs this PE owns.
struct WireArrayPart {
  ArrayId id = 0;
  bool hasMeta = false;
  ArrayShape shape{};
  std::vector<std::pair<std::int64_t, Value>> elems;
};

/// Worker snapshot for the supervisor's termination protocol (ctl Status).
struct WorkerStatus {
  bool idle = false;
  std::int64_t pending = 0;
  std::int64_t inboxTokens = 0;
  std::int64_t outstanding = 0;
  std::uint64_t logAppended = 0;
  std::uint64_t activity = 0;
};

class NativeMachine {
 public:
  NativeMachine(const SpProgram& prog, NativeConfig cfg);
  ~NativeMachine();

  NativeMachine(const NativeMachine&) = delete;
  NativeMachine& operator=(const NativeMachine&) = delete;

  /// Executes the program to completion on real threads. Call once.
  NativeResult run();

  /// Post-run array snapshot (for result extraction); nullopt if unknown.
  std::optional<NativeArray> gather(ArrayId id) const;

  /// Wire store, post-run: this process's slice of every array it touched
  /// (owned elements + allocator shapes). Worker processes ship this to the
  /// supervisor in their Result frame; empty under LocalStore.
  std::vector<WireArrayPart> wireArrayParts() const;

  // ---- Worker-mode control (called from the procmgr ctl thread) --------
  /// Quiescence snapshot for a termination Poll.
  WorkerStatus workerStatus() const;
  /// Supervisor decided the run is over (End frame): stop the worker loop.
  void requestStop();
  /// The supervisor acknowledged log stability up to stream seq `upTo`:
  /// retry gated flushes and pump pending acks.
  void noteLogStable(std::uint64_t upTo);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pods::native
