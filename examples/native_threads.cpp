// Example: the native threaded runtime.
//
// The simulator reproduces the paper's measurements; this example runs the
// *same* translated Subcompact Processes on real host threads — the modern
// stand-in for the iPSC/2 nodes the authors targeted — and shows that
// single assignment makes the results independent of thread interleaving
// while wall-clock time scales with worker count.
//
//   ./build/examples/native_threads [n] [steps]
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/pods.hpp"
#include "support/table.hpp"
#include "workloads/simple.hpp"

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 48;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (n < 4 || n > 256 || steps < 1) {
    std::fprintf(stderr, "usage: %s [n] [steps]\n", argv[0]);
    return 1;
  }
  pods::CompileResult cr =
      pods::compile(pods::workloads::simpleSource(n, steps));
  if (!cr.ok) {
    std::fprintf(stderr, "%s", cr.diagnostics.c_str());
    return 1;
  }
  std::printf("SIMPLE %dx%d x %d steps on real threads (host has %u cores)\n\n",
              n, n, steps, std::thread::hardware_concurrency());

  pods::BaselineRun seq = pods::runSequentialBaseline(*cr.compiled);
  if (!seq.stats.ok) {
    std::fprintf(stderr, "sequential failed: %s\n", seq.stats.error.c_str());
    return 1;
  }

  pods::TextTable table(
      {"workers", "wall (ms)", "speedup", "frames", "tokens", "identical"});
  double base = 0.0;
  // Sweep to at least 4 workers even on small hosts: oversubscription still
  // demonstrates interleaving-independence (speedup then needs real cores).
  int maxWorkers = static_cast<int>(std::thread::hardware_concurrency());
  if (maxWorkers < 4) maxWorkers = 4;
  for (int workers = 1; workers <= maxWorkers; workers *= 2) {
    pods::native::NativeConfig nc;
    nc.numWorkers = workers;
    pods::NativeRun run = pods::runNative(*cr.compiled, nc);
    if (!run.stats.ok) {
      std::fprintf(stderr, "workers=%d: %s\n", workers,
                   run.stats.error.c_str());
      return 1;
    }
    std::string why;
    bool same = pods::sameOutputs(run.out, seq.out, &why);
    if (!same) std::fprintf(stderr, "workers=%d: %s\n", workers, why.c_str());
    double ms = run.stats.wallSeconds * 1e3;
    if (workers == 1) base = ms;
    table.row()
        .cell(std::int64_t{workers})
        .cell(ms, 1)
        .cell(base / ms, 2)
        .cell(run.stats.counters.get("native.framesCreated"))
        .cell(run.stats.counters.get("native.tokensOut"))
        .cell(same ? "yes" : "NO");
  }
  table.print();
  std::printf(
      "\n(Wall-clock times vary run to run; the *results* never do — that\n"
      "is the Church-Rosser determinacy the paper's model guarantees.)\n");
  return 0;
}
