// Statistics utilities: busy-time accounting for functional units and
// named event counters, used to reproduce the paper's utilization figures
// (Figure 8, Figure 9).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "support/simtime.hpp"

namespace pods {

/// Accumulates the busy time of a serial resource (a PE functional unit).
/// Utilization is busy / elapsed, exactly as the paper defines "the fraction
/// of the time a given facility is busy".
class BusyMeter {
 public:
  void addBusy(SimTime span) { busy_ += span; }
  SimTime busy() const { return busy_; }

  double utilization(SimTime elapsed) const {
    if (elapsed.ns <= 0) return 0.0;
    return static_cast<double>(busy_.ns) / static_cast<double>(elapsed.ns);
  }

 private:
  SimTime busy_{};
};

/// JSON string escaping for the stats writer (quotes, backslashes, control
/// characters).
std::string jsonEscape(const std::string& s);

/// --stats-json: the full counter registry of a run as one JSON object,
/// machine-readable for bench_gate.py, check_stats_schema.py and friends.
/// Keys are sorted because Counters::all() returns a sorted view, so files
/// diff cleanly. Host-side quantities (wall time, the simulator's event
/// rate, the native engine's ns per instruction) go into a "derived"
/// object, not "counters": the counter registry is the deterministic
/// contract, wall time is not.
class Counters;
bool writeStatsJson(const std::string& path, const std::string& engine,
                    int pes, double timeMs, const Counters& counters,
                    double wallSeconds = 0.0, std::uint64_t events = 0);

/// A set of named monotonic counters (tokens routed, pages shipped, ...).
class Counters {
 public:
  void add(const std::string& name, std::int64_t delta = 1) { map_[name] += delta; }
  std::int64_t get(const std::string& name) const {
    auto it = map_.find(name);
    return it == map_.end() ? 0 : it->second;
  }
  const std::map<std::string, std::int64_t>& all() const { return map_; }
  void merge(const Counters& other) {
    for (const auto& [k, v] : other.map_) map_[k] += v;
  }
  /// merge() with every incoming name prefixed — used to roll per-resource
  /// counter sets (e.g. one per native worker) into one namespaced total.
  void mergePrefixed(const Counters& other, const std::string& prefix) {
    for (const auto& [k, v] : other.map_) map_[prefix + k] += v;
  }

 private:
  std::map<std::string, std::int64_t> map_;
};

/// A level gauge with a high-water mark: current value plus the peak it ever
/// reached. Used for per-worker live-frame accounting in the native runtime
/// (frames live/peak), where "peak vs retired" is the leak check.
class PeakGauge {
 public:
  void inc(std::int64_t delta = 1) {
    cur_ += delta;
    if (cur_ > peak_) peak_ = cur_;
  }
  void dec(std::int64_t delta = 1) { cur_ -= delta; }
  std::int64_t current() const { return cur_; }
  std::int64_t peak() const { return peak_; }

 private:
  std::int64_t cur_ = 0;
  std::int64_t peak_ = 0;
};

/// Simple online mean/min/max accumulator.
class Summary {
 public:
  void add(double x);
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double min() const { return min_; }
  double max() const { return max_; }
  std::int64_t count() const { return n_; }

 private:
  std::int64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pods
