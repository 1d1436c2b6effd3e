// Micro-benchmarks (google-benchmark) of the simulator event engine: the
// radix-heap event queue against a plain std::priority_queue reference under
// the classic hold model (steady-state pop-one push-one at a future
// deadline), both carrying the event header the simulator queues, and the
// event queue end-to-end through an 8-PE simulated run. These measure the
// *host-side* cost of event dispatch, not simulated time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "core/pods.hpp"
#include "sim/event_queue.hpp"
#include "workloads/kernels.hpp"

namespace {

// The 12-byte header the simulator queues per event (kind, PE, incarnation,
// body index; `Ev` in src/sim/machine.cpp). Event bodies live outside the
// queue, so both queues move exactly what a simulator run moves.
struct Payload {
  std::uint8_t kind = 0;
  std::uint16_t pe = 0;
  std::uint32_t inc = 0;
  std::uint32_t body = 0;
};
static_assert(sizeof(Payload) == 12);

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

// Hold-model deltas: mostly near-future (compute/net latencies), with an
// occasional far-future retransmit-backoff-shaped outlier. Mirrors the
// distribution the simulator actually feeds the queue.
std::int64_t holdDelta(std::uint64_t& rng) {
  if (lcg(rng) % 64 == 0)
    return static_cast<std::int64_t>(lcg(rng) % 40'000'000);
  return static_cast<std::int64_t>(lcg(rng) % 30'000);
}

void BM_EventQueueHold(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  pods::sim::EventQueue<Payload> q;
  std::uint64_t rng = 42;
  std::int64_t now = 0;
  for (std::size_t i = 0; i < depth; ++i) q.push(holdDelta(rng), Payload{});
  for (auto _ : state) {
    pods::sim::EvKey k;
    Payload p = q.pop(&k);
    benchmark::DoNotOptimize(p);
    now = k.t;
    q.push(now + holdDelta(rng), Payload{});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_HeapHold(benchmark::State& state) {
  struct Ent {
    pods::sim::EvKey key;
    Payload p;
  };
  struct Later {
    bool operator()(const Ent& a, const Ent& b) const { return b.key < a.key; }
  };
  const auto depth = static_cast<std::size_t>(state.range(0));
  std::priority_queue<Ent, std::vector<Ent>, Later> q;
  std::uint64_t rng = 42, seq = 0;
  std::int64_t now = 0;
  for (std::size_t i = 0; i < depth; ++i)
    q.push({{holdDelta(rng), ++seq}, Payload{}});
  for (auto _ : state) {
    Ent e = q.top();
    q.pop();
    benchmark::DoNotOptimize(e);
    now = e.key.t;
    q.push({{now + holdDelta(rng), ++seq}, Payload{}});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapHold)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

// End-to-end: a fault-free 8-PE simulated run, reported as the simulator's
// event dispatch rate.
void BM_SimFill2d(benchmark::State& state) {
  auto cr = pods::compile(pods::workloads::fill2dSource(32, 32));
  std::uint64_t events = 0;
  for (auto _ : state) {
    pods::sim::MachineConfig mc;
    mc.numPEs = 8;
    pods::PodsRun run = pods::runPods(*cr.compiled, mc);
    events += run.stats.events;
    benchmark::DoNotOptimize(run);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimFill2d);

}  // namespace

BENCHMARK_MAIN();
