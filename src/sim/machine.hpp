// The PODS machine simulator (paper section 5.1, Figure 7).
//
// A distributed-memory MIMD machine of `numPEs` processing elements in a
// hypercube-like network. Each PE models five concurrently-operating
// functional units, each a serial resource with its own busy-time meter:
//
//   EU  Execution Unit   — runs the current SP control-driven; context
//                          switches on a disabled (empty-operand) instruction
//   MU  Matching Unit    — matches inter-SP tokens to frames by
//                          (SP id, context); instantiates frames on demand
//   MM  Memory Manager   — allocates/frees execution-memory frames
//   AM  Array Manager    — I-structure memory: presence bits, deferred
//                          reads, distributed allocation, remote page
//                          fetches with software caching
//   RU  Routing Unit     — forms messages (tokens batched by 20, pages via
//                          the Dunigan cost model) and injects them into the
//                          network (fixed 2.5-hop latency)
//
// The whole machine advances through one global discrete-event queue ordered
// by (time, sequence number), which makes every run bit-deterministic.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "runtime/isa.hpp"
#include "sim/array_store.hpp"
#include "sim/timing.hpp"
#include "support/fault.hpp"
#include "support/stats.hpp"

namespace pods::sim {

enum class Unit : std::uint8_t { EU = 0, MU = 1, MM = 2, AM = 3, RU = 4 };
inline constexpr int kNumUnits = 5;
const char* unitName(Unit u);

struct MachineConfig {
  int numPEs = 1;
  Timing timing{};
  bool cachePages = true;        // remote-page software caching (4.x)
  /// Per-PE ownership weights for distributed-array page segmentation
  /// (runtime/array_layout.hpp). Empty = uniform; otherwise one entry >= 1
  /// per PE, and PE i's share of every array's pages is proportional to
  /// peWeights[i]. Iteration partitioning (Range Filters, row ownership)
  /// follows the skewed segments automatically.
  std::vector<std::int64_t> peWeights;
  std::uint64_t maxEvents = 0;   // 0 = unlimited (safety valve for tests)
  /// When non-empty, write a Chrome-trace-format (chrome://tracing /
  /// Perfetto) JSON timeline of the run to this path: one row per
  /// functional unit per PE, with EU rows showing each SP execution slice.
  /// Capped at `maxTraceEvents`; simulated microseconds map to trace "us".
  /// A truncated trace carries one instant marker event and counts the
  /// overflow in the trace.dropped counter.
  std::string tracePath;
  std::size_t maxTraceEvents = 200'000;
  /// Fault injection + reliable delivery (support/fault.hpp). All-zero
  /// probabilities (the default) keep the exact lossless network path; any
  /// nonzero rate switches remote messages onto the ack/retransmit protocol,
  /// modeled entirely in simulated time so runs stay bit-deterministic for a
  /// fixed `faults.seed`. Counters: fault.* (injections), net.retx.*.
  FaultConfig faults;
  /// Optional external abort flag (e.g. a wall-clock watchdog): polled
  /// between events; when it becomes true the run stops with a structured
  /// "aborted" error and whatever statistics were accumulated. The pointee
  /// must outlive run(). nullptr = never aborted.
  std::atomic<bool>* abort = nullptr;
};

/// Per-SP-code profile: how many instances ran and what they cost. This is
/// the machine's built-in profiler; examples/benches use it to show where
/// Execution Unit time goes (e.g. conduction dominating SIMPLE).
struct SpProfile {
  std::string name;
  std::int64_t instances = 0;
  std::int64_t instructions = 0;
  SimTime euTime{};
};

struct RunStats {
  bool ok = false;
  std::string error;
  SimTime total{};
  std::vector<std::array<SimTime, kNumUnits>> busy;  // [pe][unit]
  Counters counters;
  std::vector<Value> results;
  std::vector<SpProfile> spProfiles;  // indexed by SP code id
  /// Host-side wall clock spent inside run() and the number of simulator
  /// events dispatched. Kept out of `counters` on purpose: counters must be
  /// bit-deterministic (the fuzz suites compare full counter maps across
  /// runs), wall time is not. podsc derives sim.events.persec from these
  /// for --stats-json.
  double wallSeconds = 0.0;
  std::uint64_t events = 0;

  double utilization(int pe, Unit u) const {
    if (total.ns <= 0) return 0.0;
    return static_cast<double>(
               busy[static_cast<std::size_t>(pe)][static_cast<int>(u)].ns) /
           static_cast<double>(total.ns);
  }
  /// The paper's "average utilization of each functional unit" (Figure 8).
  double avgUtilization(Unit u) const {
    double s = 0.0;
    for (std::size_t pe = 0; pe < busy.size(); ++pe)
      s += utilization(static_cast<int>(pe), u);
    return busy.empty() ? 0.0 : s / static_cast<double>(busy.size());
  }
};

class Machine {
 public:
  Machine(const SpProgram& prog, MachineConfig cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Runs the program to quiescence and returns timing/statistics. May be
  /// called once per Machine instance.
  RunStats run();

  /// Post-run access to array contents (for result extraction and tests).
  const ArrayStore& arrays() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pods::sim
