// Micro-benchmarks (google-benchmark) of the native array plane: the
// cell-store LocalStore against the owner-serviced wire store on an
// array-heavy stencil whose halo reads cross page-ownership boundaries
// every row. The headline counter is us/remote — the end-to-end cost of
// one remote array access (request, service, value reply, or a page-cache
// hit) — plus rec/dgram, how well array records share datagrams with
// ordinary tokens under UDP batching (the row-parallel read bursts and
// park-fill reply bursts are exactly the traffic the outbox coalescer
// exists for).
//
// The wire-store runs double as a self-gate: a fault-free run must finish
// with zero retransmits and must batch more than two records per datagram,
// or the binary exits nonzero (the bench gate's wall-time tolerance would
// shrug at a protocol regression; these invariants don't).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "core/pods.hpp"
#include "workloads/kernels.hpp"

namespace {

constexpr int kN = 24;     // stencil grid edge
constexpr int kSteps = 3;  // relaxation sweeps

const pods::Compiled& compiled() {
  static pods::CompileResult cr =
      pods::compile(pods::workloads::stencilSource(kN, kSteps));
  if (!cr.ok) {
    std::fprintf(stderr, "micro_arrays: compile failed:\n%s",
                 cr.diagnostics.c_str());
    std::exit(1);
  }
  return *cr.compiled;
}

pods::native::NativeConfig config(pods::native::StoreKind store,
                                  pods::native::TransportKind transport) {
  pods::native::NativeConfig nc;
  nc.numWorkers = 4;
  nc.pageElems = 8;  // small pages: maximize cross-PE ownership churn
  nc.store = store;
  nc.transport = transport;
  return nc;
}

pods::NativeRun runOrDie(const pods::native::NativeConfig& nc,
                         const char* what) {
  pods::NativeRun run = pods::runNative(compiled(), nc);
  if (!run.stats.ok) {
    std::fprintf(stderr, "micro_arrays: %s run failed: %s\n", what,
                 run.stats.error.c_str());
    std::exit(1);
  }
  return run;
}

// Remote accesses an iteration generates: split-phase reads (sent as
// requests or answered by the page cache) + remote writes + shape queries,
// so us/remote stays per remote access however many reads hit. Under
// LocalStore these are cell-store ops instead, so the same denominator is
// derived from the kernel, not the counters.
std::int64_t remoteOps(const pods::NativeRun& run) {
  const auto& c = run.stats.counters;
  return c.get("net.am.readReqSent") + c.get("net.am.pageHits") +
         c.get("net.am.writeSent") + c.get("net.am.dimReqSent");
}

void gateWireInvariants(const pods::NativeRun& run, bool udp) {
  const auto& c = run.stats.counters;
  if (c.get("net.retx.resent") != 0) {
    std::fprintf(stderr,
                 "micro_arrays: FAIL net.retx.resent=%lld on a fault-free "
                 "wire run (expected 0)\n",
                 static_cast<long long>(c.get("net.retx.resent")));
    std::exit(1);
  }
  if (!udp) return;
  const std::int64_t records = c.get("net.udp.batch.tokens");
  const std::int64_t dgrams = c.get("net.udp.batch.datagrams");
  if (dgrams <= 0 || records <= 2 * dgrams) {
    std::fprintf(stderr,
                 "micro_arrays: FAIL %lld records in %lld datagrams "
                 "(expected > 2 records/datagram)\n",
                 static_cast<long long>(records),
                 static_cast<long long>(dgrams));
    std::exit(1);
  }
}

void BM_Store(benchmark::State& state, pods::native::StoreKind store,
              pods::native::TransportKind transport, const char* what) {
  const auto nc = config(store, transport);
  const bool udp = transport == pods::native::TransportKind::Udp;
  const bool wire = store == pods::native::StoreKind::Wire;
  std::int64_t remotes = 0, records = 0, dgrams = 0;
  double wall = 0;
  for (auto _ : state) {
    pods::NativeRun run = runOrDie(nc, what);
    if (wire) {
      gateWireInvariants(run, udp);
      remotes += remoteOps(run);
    }
    records += run.stats.counters.get("net.udp.batch.tokens");
    dgrams += run.stats.counters.get("net.udp.batch.datagrams");
    wall += run.stats.wallSeconds;
    benchmark::DoNotOptimize(run);
  }
  if (wire && remotes > 0) {
    state.counters["us/remote"] =
        wall * 1e6 / static_cast<double>(remotes);
  }
  if (dgrams > 0) {
    state.counters["rec/dgram"] =
        static_cast<double>(records) / static_cast<double>(dgrams);
  }
}

void BM_LocalInbox(benchmark::State& s) {
  BM_Store(s, pods::native::StoreKind::Local,
           pods::native::TransportKind::Inbox, "local/inbox");
}
void BM_WireInbox(benchmark::State& s) {
  BM_Store(s, pods::native::StoreKind::Wire,
           pods::native::TransportKind::Inbox, "wire/inbox");
}
void BM_LocalUdp(benchmark::State& s) {
  BM_Store(s, pods::native::StoreKind::Local, pods::native::TransportKind::Udp,
           "local/udp");
}
void BM_WireUdp(benchmark::State& s) {
  BM_Store(s, pods::native::StoreKind::Wire, pods::native::TransportKind::Udp,
           "wire/udp");
}
// wire/inbox vs local/inbox isolates protocol overhead (park/fill, typed
// records) from socket cost; wire/udp is the deployment-shaped number.
// Iteration counts are pinned: each iteration is a whole engine run (ms,
// not ns), so adaptive timing would stretch the binary past what the
// whole-binary wall-clock gate wants, without adding precision.
BENCHMARK(BM_LocalInbox)->Iterations(100);
BENCHMARK(BM_WireInbox)->Iterations(100);
BENCHMARK(BM_LocalUdp)->Iterations(50);
BENCHMARK(BM_WireUdp)->Iterations(50);

}  // namespace

BENCHMARK_MAIN();
