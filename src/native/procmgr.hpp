// Process manager for multi-process PODS (`--transport=udp-multiproc`).
//
// The supervisor side turns the invoking tool into a parent of N worker
// processes, one per PE. It owns everything a worker must be able to lose:
//   * the bound UDP data-plane sockets (workers inherit their own fd across
//     fork/exec, the supervisor keeps a copy — so the port and any datagrams
//     buffered in the kernel survive a `kill -9` of the worker, exactly like
//     the paper's network interface surviving a PE failure);
//   * the cell store behind `--store=local` (the paper's structure memory,
//     separate from the PEs): one memfd each worker inherits and maps;
//   * each PE's recovery log, shipped over the control channel as the
//     worker appends it (pessimistic logging) — the "stable storage" a
//     respawned worker replays from.
// It monitors children with waitpid + control-channel heartbeats; a child
// that dies (planned `--faults=kill:...`, an external `kill -9`, or a hung
// PE tripping the heartbeat timeout) is respawned with epoch+1, re-booted
// with its full log, and resumes — the run completes with output
// bit-identical to a fault-free run.
//
// Termination is decided by the supervisor with a Dijkstra–Safra-style
// counting protocol over Status snapshots: two consecutive identical
// all-idle rounds with no tokens anywhere (inbox, unacked, outbox), all log
// records received, and no activity in between mean global quiescence —
// then Σpending == 0 is success and Σpending > 0 is deadlock, mirroring the
// in-process machine's double-collect.
#pragma once

#include <memory>
#include <unordered_map>

#include "native/native_machine.hpp"
#include "native/shm_store.hpp"
#include "runtime/isa.hpp"

namespace pods::native::procmgr {

/// The fd number at which a worker process inherits the cell store, next to
/// its ctl socket (3) and UDP data socket (4).
inline constexpr int kWorkerStoreFd = 5;

/// Runs the whole program as a supervised fleet of worker processes.
/// Creates the cell store (returned through `cellsOut` so
/// NativeMachine::gather can read result arrays post-run), binds the UDP
/// sockets, forks/execs one worker per PE, supervises, and merges the
/// workers' results and counters into one NativeResult.
///
/// Wire store (`cfg.store == StoreKind::Wire`): no cell store is created
/// (`cellsOut` stays null) — each worker ships its owned array slice in its
/// Result frame and the merged global arrays land in `wireOut`, keyed by
/// array id, for post-run gather().
NativeResult runSupervisor(const SpProgram& prog, const NativeConfig& cfg,
                           ShmStorePtr& cellsOut,
                           std::unordered_map<ArrayId, NativeArray>& wireOut);

/// Worker-process entry point. Scans argv for `--pods-worker=CTLFD,SOCKFD`;
/// when present this process is a forked worker: it speaks the control
/// protocol on CTLFD, runs its PE, and never returns (exits the process).
/// Must be called first in main() of every binary that can supervise
/// (tools/podsc and the multiproc test binary), before any other setup.
void maybeRunPodsWorker(int argc, char** argv);

}  // namespace pods::native::procmgr
