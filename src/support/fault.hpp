// Deterministic fault injection for the simulated and native PODS machines.
//
// The paper's "ultimate goal" is running PODS on a real iPSC/2-class
// machine, where messages get lost, duplicated, and delayed. PODS's own
// semantics make an unreliable transport survivable by construction: tokens
// land in single-assignment frame slots and array writes are I-structure
// writes, so *redelivery* of a message is harmless as long as non-idempotent
// tokens (ADDC join counters, spawn-by-token) are deduplicated by message
// id. Both engines therefore pair injection with a reliable-delivery layer:
// acknowledgments + retransmit with exponential backoff in the simulator
// (all in simulated time, so a faulty run stays bit-deterministic for a
// fixed seed), and a retransmit daemon with wall-clock backoff in the
// native runtime.
//
// A FaultPlan is a *pure function* of (seed, transmission id): deciding the
// fate of transmission #n never consults mutable state, so the simulator —
// which numbers transmissions in deterministic event order — replays the
// exact same fault schedule on every run with the same seed.
#pragma once

#include <cstdint>
#include <string>

#include "support/rng.hpp"

namespace pods {
namespace proto {

/// Retransmit tuning and decisions shared by every reliable-delivery
/// driver: the sim Routing Unit (simulated time), the native inbox
/// transport, and the UDP transport's send windows (both wall-clock). Each
/// driver keeps a message's attempt count beside the message itself and
/// asks giveUpAt() and backoffUs() — one policy, one set of defaults, so
/// the three drivers cannot silently drift apart.
struct RetryPolicy {
  /// Initial retransmit timeout in microseconds (simulated or wall-clock,
  /// depending on the driver). Doubles on every retry up to the cap below.
  double rtoUs = 500.0;
  /// Give up — a structured runtime error, never silent loss — once a
  /// message has been transmitted this many times.
  int maxAttempts = 100;
  /// Backoff cap: the effective timeout is rtoUs << min(attempt-1, this).
  int maxBackoffDoublings = 6;
  /// Floor applied when fault injection is *off* but the transport is still
  /// inherently lossy (UDP on loopback): 500 us causes spurious retransmits
  /// against real kernel scheduling jitter, so fault-free wall-clock drivers
  /// use at least this RTO. Loopback fault-free only ever loses a datagram
  /// to kernel-buffer exhaustion, so a generous floor costs nothing in the
  /// common case — while a tight one turns every scheduling hiccup (and
  /// every lazily-acked batch stream) into a retransmit storm.
  double faultFreeFloorUs = 25000.0;

  /// Base timeout for attempt 1 — the configured RTO, or the lossless-floor
  /// maximum when injection is disabled.
  double baseRtoUs(bool faultsEnabled) const {
    return faultsEnabled ? rtoUs : (rtoUs > faultFreeFloorUs ? rtoUs : faultFreeFloorUs);
  }
  /// Timeout to arm after transmission #attempt (1-based): exponential
  /// backoff with a doubling cap.
  double backoffUs(int attempt, double base) const {
    const int shift = attempt - 1 < maxBackoffDoublings ? attempt - 1 : maxBackoffDoublings;
    return base * static_cast<double>(1ULL << shift);
  }
  /// True when a message that has already been transmitted `attempt` times
  /// must not be retransmitted again.
  bool giveUpAt(int attempt) const { return attempt >= maxAttempts; }
};

}  // namespace proto

/// What the (simulated) network does with one transmission of one message.
enum class FaultAction : std::uint8_t {
  Deliver,    // arrives normally
  Drop,       // vanishes; the sender's retransmit timer recovers it
  Duplicate,  // arrives twice; the receiver's dedup set suppresses the copy
  Delay,      // arrives late (extra latency beyond the normal network hop)
};

/// User-facing fault-injection knobs, carried by MachineConfig::faults and
/// NativeConfig::faults. All probabilities are per *transmission* (a
/// retransmission rolls fresh dice), in [0, 0.5]. Defaults are all-zero:
/// injection disabled and both engines on their exact pre-fault fast paths.
struct FaultConfig {
  double dropProb = 0.0;   // message loss: tokens, array-page messages, and
                           // (native --store=wire) every owner-serviced
                           // array message — reads, writes, shape queries
                           // and their replies ride the same dice
  double dupProb = 0.0;    // message duplication
  double delayProb = 0.0;  // message delay (extra latency, no loss)
  double stallProb = 0.0;  // transient PE stall on message receipt
  std::uint64_t seed = 1;  // fault schedule seed (podsc --fault-seed)

  // Retransmit tuning shared by all three reliable-delivery drivers.
  proto::RetryPolicy retry{};

  // Injection latencies, simulator (simulated microseconds).
  double simDelayUs = 120.0;  // injected extra latency of a delayed message
  double simStallUs = 200.0;  // injected transient EU stall

  // Injection latencies, native runtime (wall-clock microseconds).
  double nativeDelayUs = 100.0;  // injected delivery delay
  double nativeStallUs = 100.0;  // injected worker stall

  // Fail-stop injection: kill PE `killPe` once at `killTimeUs` (simulated
  // microseconds in the simulator, wall-clock microseconds after run start
  // in the native runtime) and restart it `killRestartUs` later from its
  // allocate/spawn log. killPe < 0 disables the kill.
  int killPe = -1;
  double killTimeUs = 0.0;
  double killRestartUs = 400.0;

  bool killEnabled() const { return killPe >= 0; }

  // A kill implies the reliable-delivery layer: messages addressed to the
  // dead PE must be buffered/retransmitted until it restarts, so both
  // engines route every message through the ack/retransmit path whenever
  // any fault — lossy or fail-stop — is configured.
  bool enabled() const {
    return dropProb > 0.0 || dupProb > 0.0 || delayProb > 0.0 ||
           stallProb > 0.0 || killEnabled();
  }

  /// Parses a `podsc --faults=` spec: comma-separated entries that are
  /// either `key:probability` pairs with keys drop, dup, delay, stall —
  /// e.g. "drop:0.01,dup:0.005,delay:0.02" (probabilities in [0, 0.5]) —
  /// or a fail-stop `kill:PE@TIMEUS[+RESTARTUS]` entry, e.g. "kill:2@350"
  /// or "kill:2@350+800". Returns false (and fills `err`) on a malformed
  /// spec; `out` keeps its other fields (seed, timeouts) untouched.
  static bool parse(const std::string& spec, FaultConfig& out,
                    std::string* err = nullptr);
};

/// Seeded, stateless fault schedule. Every decision mixes the seed, a
/// per-purpose salt, and the transmission id through SplitMix64, so callers
/// that number transmissions deterministically get a deterministic schedule
/// and retransmissions (fresh ids) get independent dice.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.enabled(); }
  const FaultConfig& config() const { return cfg_; }

  /// Fate of transmission #id (message sends and acknowledgments alike).
  FaultAction action(std::uint64_t id) const {
    if (!enabled()) return FaultAction::Deliver;
    const double u = draw(0x6d65737361676573ULL /* "messages" */, id);
    if (u < cfg_.dropProb) return FaultAction::Drop;
    if (u < cfg_.dropProb + cfg_.dupProb) return FaultAction::Duplicate;
    if (u < cfg_.dropProb + cfg_.dupProb + cfg_.delayProb)
      return FaultAction::Delay;
    return FaultAction::Deliver;
  }

  /// True when receipt #id additionally stalls the receiving PE.
  bool stallHit(std::uint64_t id) const {
    return cfg_.stallProb > 0.0 &&
           draw(0x7374616c6c730aULL /* "stalls" */, id) < cfg_.stallProb;
  }

 private:
  /// One uniform draw in [0, 1), pure in (seed, salt, id).
  double draw(std::uint64_t salt, std::uint64_t id) const {
    SplitMix64 rng(cfg_.seed ^ (salt * 0x9E3779B97F4A7C15ULL) ^
                   ((id + 1) * 0xD1B54A32D192ED03ULL));
    return rng.unit();
  }

  FaultConfig cfg_{};
};

}  // namespace pods
