// podsc — the PODS compiler/runner command-line tool.
//
// Compiles an IdLite source file through the full pipeline and runs it on
// the selected engine, with dumps of every intermediate representation.
//
// Usage:
//   podsc [options] <file.idl>
//
// Options:
//   --engine=pods|seq|static|native   execution engine (default: pods)
//   --pes N            PE / worker count                 (default: 4)
//   --pe-weights=W0,W1,...  skew distributed-array ownership: PE i's page
//                      share is proportional to Wi (one integer >= 1 per
//                      PE; pods/native engines). Default: uniform.
//   --no-distribute    compile without the Partitioner
//   --block-range      ablation: block-partition Range Filters
//   --page N           array page size in elements       (default: 32)
//   --no-cache         disable remote-page caching (pods engine)
//   --trace=FILE       write a Chrome-trace timeline (pods engine)
//   --transport=inbox|udp|udp-multiproc  native engine: cross-PE token
//                      transport — the in-process inbox (default), per-PE
//                      UDP loopback sockets with ack/retransmit reliable
//                      delivery, or PEs as real supervised OS processes on
//                      the same UDP wire (kill -9 a worker: the supervisor
//                      respawns it and replays its log; output is
//                      bit-identical to a fault-free run)
//   --store=local|wire native engine: array-store backend — the lock-free
//                      I-structure cell store the PEs share, threads or
//                      processes alike (default), or owner-serviced array
//                      messages on the token wire (every non-local array
//                      access is a transported, fault-injectable, logged
//                      message; outputs are bit-identical to local)
//   --faults=SPEC      inject message faults (pods/native engines):
//                      comma-separated key:prob with keys drop, dup, delay,
//                      stall — e.g. --faults=drop:0.01,dup:0.005,delay:0.02
//   --fault-seed N     fault schedule seed                (default: 1)
//   --timeout SEC      wall-clock watchdog: abort a stuck run, dump stats,
//                      exit 124
//   --verify           cross-check results against the sequential engine
//   --stats            print machine statistics
//   --stats-json=FILE  write the run's counter registry as JSON
//                      (pods/native engines)
//   --dump-graph       print the dataflow-graph block tree
//   --dump-plan        print the Partitioner's decisions
//   --dump-sps         print the translated SP disassembly
//   --dump-dot         print graphviz of main's dataflow graph
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "core/pods.hpp"
#include "ir/dot.hpp"
#include "native/procmgr.hpp"
#include "support/fault.hpp"
#include "support/table.hpp"

namespace {

struct Options {
  std::string engine = "pods";
  int pes = 4;
  std::vector<std::int64_t> peWeights;
  bool distribute = true;
  bool blockRange = false;
  int page = 32;
  bool cache = true;
  pods::native::TransportKind transport = pods::native::TransportKind::Inbox;
  bool transportSet = false;
  pods::native::StoreKind store = pods::native::StoreKind::Local;
  bool storeSet = false;
  bool verify = false;
  bool stats = false;
  bool dumpGraph = false;
  bool dumpPlan = false;
  bool dumpSps = false;
  bool dumpDot = false;
  std::string trace;
  std::string statsJson;
  pods::FaultConfig faults;
  int timeoutSec = 0;  // 0 = no watchdog
  std::string file;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--engine=pods|seq|static|native] [--pes N] "
               "[--pe-weights=W0,W1,...] "
               "[--no-distribute] [--block-range] [--page N] [--no-cache] "
               "[--transport=inbox|udp|udp-multiproc] [--store=local|wire] "
               "[--trace=FILE] [--faults=SPEC] [--fault-seed N] "
               "[--timeout SEC] "
               "[--verify] [--stats] [--stats-json=FILE] [--dump-graph] "
               "[--dump-plan] [--dump-sps] [--dump-dot] <file.idl>\n",
               argv0);
  return 2;
}

/// Wall-clock watchdog (podsc --timeout): after `seconds`, raises the
/// engines' cooperative abort flag; if the run still hasn't unwound after a
/// grace period (an engine stuck inside one step, or the seq/static
/// evaluators which have no abort hook), hard-exits with status 124.
class Watchdog {
 public:
  std::atomic<bool> abortFlag{false};

  void arm(int seconds) {
    if (seconds <= 0) return;
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> g(m_);
      if (cv_.wait_for(g, std::chrono::seconds(seconds),
                       [&] { return done_; })) {
        return;  // run finished in time
      }
      std::fprintf(stderr,
                   "podsc: watchdog: run exceeded %d s, requesting abort\n",
                   seconds);
      abortFlag.store(true);
      if (!cv_.wait_for(g, std::chrono::seconds(5), [&] { return done_; })) {
        std::fprintf(stderr,
                     "podsc: watchdog: abort not honored after 5 s grace, "
                     "hard exit\n");
        std::_Exit(124);
      }
    });
  }

  /// Marks the run finished and joins; call before process exit.
  void disarm() {
    {
      std::lock_guard<std::mutex> g(m_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  bool fired() const { return abortFlag.load(); }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

bool parseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // std::atoi would accept trailing junk ("8x" -> 8) and return 0 for
    // unparseable input, indistinguishable from an explicit 0. from_chars
    // rejects both, and naming the flag beats the bare usage line.
    auto intArg = [&](const char* flag, int min, int& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "podsc: %s requires an integer argument\n", flag);
        return false;
      }
      const char* s = argv[++i];
      int v = 0;
      auto [end, ec] = std::from_chars(s, s + std::strlen(s), v);
      if (ec != std::errc{} || *end != '\0') {
        std::fprintf(stderr, "podsc: %s: '%s' is not an integer\n", flag, s);
        return false;
      }
      if (v < min) {
        std::fprintf(stderr, "podsc: %s must be >= %d (got %d)\n", flag, min,
                     v);
        return false;
      }
      out = v;
      return true;
    };
    if (a.rfind("--engine=", 0) == 0) {
      o.engine = a.substr(9);
      if (o.engine != "pods" && o.engine != "seq" && o.engine != "static" &&
          o.engine != "native") {
        return false;
      }
    } else if (a == "--pes") {
      if (!intArg("--pes", 1, o.pes)) return false;
    } else if (a.rfind("--pe-weights=", 0) == 0) {
      o.peWeights.clear();
      const std::string spec = a.substr(13);
      std::size_t pos = 0;
      while (pos <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        const char* s = spec.data() + pos;
        const char* e = spec.data() + comma;
        long long w = 0;
        auto [end, ec] = std::from_chars(s, e, w);
        if (ec != std::errc{} || end != e || w < 1) {
          std::fprintf(stderr,
                       "podsc: --pe-weights wants comma-separated integers "
                       ">= 1 (got '%s')\n",
                       spec.c_str());
          return false;
        }
        o.peWeights.push_back(w);
        pos = comma + 1;
      }
    } else if (a == "--page") {
      if (!intArg("--page", 1, o.page)) return false;
    } else if (a == "--no-distribute") {
      o.distribute = false;
    } else if (a == "--block-range") {
      o.blockRange = true;
    } else if (a == "--no-cache") {
      o.cache = false;
    } else if (a.rfind("--transport=", 0) == 0) {
      if (!pods::native::parseTransportKind(a.substr(12), o.transport)) {
        std::fprintf(stderr,
                     "podsc: --transport must be 'inbox', 'udp', or "
                     "'udp-multiproc' (got '%s')\n",
                     a.substr(12).c_str());
        return false;
      }
      o.transportSet = true;
    } else if (a.rfind("--store=", 0) == 0) {
      if (!pods::native::parseStoreKind(a.substr(8), o.store)) {
        std::fprintf(stderr,
                     "podsc: --store must be 'local' or 'wire' (got '%s')\n",
                     a.substr(8).c_str());
        return false;
      }
      o.storeSet = true;
    } else if (a.rfind("--trace=", 0) == 0) {
      o.trace = a.substr(8);
    } else if (a.rfind("--stats-json=", 0) == 0) {
      o.statsJson = a.substr(13);
    } else if (a.rfind("--faults=", 0) == 0) {
      std::string err;
      if (!pods::FaultConfig::parse(a.substr(9), o.faults, &err)) {
        std::fprintf(stderr, "podsc: %s\n", err.c_str());
        return false;
      }
    } else if (a == "--fault-seed") {
      int seed = 0;
      if (!intArg("--fault-seed", 0, seed)) return false;
      o.faults.seed = static_cast<std::uint64_t>(seed);
    } else if (a == "--timeout") {
      if (!intArg("--timeout", 0, o.timeoutSec)) return false;
    } else if (a == "--verify") {
      o.verify = true;
    } else if (a == "--stats") {
      o.stats = true;
    } else if (a == "--dump-graph") {
      o.dumpGraph = true;
    } else if (a == "--dump-plan") {
      o.dumpPlan = true;
    } else if (a == "--dump-sps") {
      o.dumpSps = true;
    } else if (a == "--dump-dot") {
      o.dumpDot = true;
    } else if (!a.empty() && a[0] == '-') {
      return false;
    } else if (o.file.empty()) {
      o.file = a;
    } else {
      return false;
    }
  }
  return !o.file.empty();
}

void printOutputs(const pods::ProgramOutputs& out) {
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const pods::Value& v = out.results[i];
    if (!v.isArray()) {
      std::printf("result %zu: %s\n", i, v.str().c_str());
      continue;
    }
    if (!out.arrays[i]) {
      std::printf("result %zu: <unknown array>\n", i);
      continue;
    }
    const auto& a = *out.arrays[i];
    double sum = 0.0;
    std::int64_t present = 0;
    for (const pods::Value& e : a.elems) {
      if (!e.empty()) {
        sum += e.asReal();
        ++present;
      }
    }
    if (a.shape.rank == 2) {
      std::printf("result %zu: matrix(%lld, %lld)", i,
                  static_cast<long long>(a.shape.dim0),
                  static_cast<long long>(a.shape.dim1));
    } else {
      std::printf("result %zu: array(%lld)", i,
                  static_cast<long long>(a.shape.dim0));
    }
    std::printf(" written=%lld/%zu sum=%.6g first=[",
                static_cast<long long>(present), a.elems.size(), sum);
    for (std::size_t e = 0; e < a.elems.size() && e < 5; ++e) {
      std::printf("%s%s", e ? ", " : "", a.elems[e].str().c_str());
    }
    std::printf("%s]\n", a.elems.size() > 5 ? ", ..." : "");
  }
}

void dumpCounters(const pods::Counters& counters) {
  for (const auto& [k, v] : counters.all()) {
    std::fprintf(stderr, "  %-28s %lld\n", k.c_str(),
                 static_cast<long long>(v));
  }
}

/// Shared --stats-json writer (support/stats.cpp) plus the tool's error
/// message on failure.
bool writeStatsOrWarn(const std::string& path, const std::string& engine,
                    int pes, double timeMs, const pods::Counters& counters,
                    double wallSeconds = 0.0, std::uint64_t events = 0) {
  if (pods::writeStatsJson(path, engine, pes, timeMs, counters, wallSeconds,
                           events)) {
    return true;
  }
  std::fprintf(stderr, "podsc: cannot write '%s'\n", path.c_str());
  return false;
}

int runTool(const Options& o, Watchdog& dog) {
  std::ifstream in(o.file);
  if (!in) {
    std::fprintf(stderr, "podsc: cannot open '%s'\n", o.file.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  pods::CompileOptions copts;
  copts.distribute = o.distribute;
  copts.forceBlockRange = o.blockRange;
  pods::CompileResult cr = pods::compile(buf.str(), copts);
  if (!cr.ok) {
    std::fprintf(stderr, "%s", cr.diagnostics.c_str());
    return 1;
  }
  const pods::Compiled& c = *cr.compiled;
  std::printf("compiled %s: %zu SPs, %zu instructions\n", o.file.c_str(),
              c.program.sps.size(), c.program.totalInstrs());

  if (o.dumpGraph) {
    for (const auto& fn : c.graph.fns) {
      std::printf("%s", pods::ir::dumpFunction(fn).c_str());
    }
  }
  if (o.dumpPlan) std::printf("%s", c.plan.describe(c.graph).c_str());
  if (o.dumpSps) std::printf("%s", c.program.disasm().c_str());
  if (o.dumpDot) std::printf("%s", pods::ir::toDot(c.graph.main()).c_str());

  pods::ProgramOutputs out;
  if (o.engine == "pods") {
    pods::sim::MachineConfig mc;
    mc.numPEs = o.pes;
    mc.peWeights = o.peWeights;
    mc.cachePages = o.cache;
    mc.timing.pageElems = o.page;
    mc.tracePath = o.trace;
    mc.faults = o.faults;
    mc.abort = &dog.abortFlag;
    pods::PodsRun run = pods::runPods(c, mc);
    if (!run.stats.ok) {
      std::fprintf(stderr, "podsc: run failed: %s\n", run.stats.error.c_str());
      if (dog.fired()) {
        std::fprintf(stderr, "counter snapshot at abort:\n");
        dumpCounters(run.stats.counters);
      }
      return 1;
    }
    std::printf("engine=pods pes=%d simulated time: %.3f ms\n", o.pes,
                run.stats.total.ms());
    if (!o.statsJson.empty() &&
        !writeStatsOrWarn(o.statsJson, "pods", o.pes, run.stats.total.ms(),
                        run.stats.counters, run.stats.wallSeconds,
                        run.stats.events)) {
      return 1;
    }
    if (o.stats) {
      std::printf("EU utilization: %.1f%%\n",
                  100.0 * run.stats.avgUtilization(pods::sim::Unit::EU));
      for (const auto& [k, v] : run.stats.counters.all()) {
        std::printf("  %-28s %lld\n", k.c_str(), static_cast<long long>(v));
      }
    }
    out = std::move(run.out);
  } else if (o.engine == "seq") {
    pods::BaselineRun run = pods::runSequentialBaseline(c);
    if (!run.stats.ok) {
      std::fprintf(stderr, "podsc: run failed: %s\n", run.stats.error.c_str());
      return 1;
    }
    std::printf("engine=seq modeled time: %.3f ms\n", run.stats.total.ms());
    out = std::move(run.out);
  } else if (o.engine == "static") {
    pods::BaselineRun run = pods::runStaticBaseline(c, o.pes);
    if (!run.stats.ok) {
      std::fprintf(stderr, "podsc: run failed: %s\n", run.stats.error.c_str());
      return 1;
    }
    std::printf("engine=static pes=%d modeled time: %.3f ms\n", o.pes,
                run.stats.total.ms());
    out = std::move(run.out);
  } else {  // native
    pods::native::NativeConfig nc;
    nc.numWorkers = o.pes;
    nc.peWeights = o.peWeights;
    nc.pageElems = o.page;
    nc.faults = o.faults;
    nc.transport = o.transport;
    nc.store = o.store;
    nc.abort = &dog.abortFlag;
    pods::NativeRun run = pods::runNative(c, nc);
    if (!run.stats.ok) {
      std::fprintf(stderr, "podsc: run failed: %s\n", run.stats.error.c_str());
      if (dog.fired()) {
        std::fprintf(stderr, "counter snapshot at abort:\n");
        dumpCounters(run.stats.counters);
        for (std::size_t w = 0; w < run.stats.perWorker.size(); ++w) {
          const pods::Counters& pc = run.stats.perWorker[w];
          std::fprintf(
              stderr,
              "  worker %-2zu frames=%lld live=%lld tokensIn=%lld "
              "tokensOut=%lld idle=%lld\n",
              w, static_cast<long long>(pc.get("framesCreated")),
              static_cast<long long>(pc.get("framesLive")),
              static_cast<long long>(pc.get("tokensIn")),
              static_cast<long long>(pc.get("tokensOut")),
              static_cast<long long>(pc.get("idleTransitions")));
        }
      }
      return 1;
    }
    std::printf(
        "engine=native workers=%d transport=%s store=%s wall time: %.3f ms\n",
        o.pes, pods::native::transportKindName(o.transport),
        pods::native::storeKindName(o.store), run.stats.wallSeconds * 1e3);
    if (!o.statsJson.empty() &&
        !writeStatsOrWarn(o.statsJson, "native", o.pes,
                        run.stats.wallSeconds * 1e3, run.stats.counters,
                        run.stats.wallSeconds)) {
      return 1;
    }
    if (o.stats) {
      for (const auto& [k, v] : run.stats.counters.all()) {
        std::printf("  %-28s %lld\n", k.c_str(), static_cast<long long>(v));
      }
      for (std::size_t w = 0; w < run.stats.perWorker.size(); ++w) {
        const pods::Counters& c = run.stats.perWorker[w];
        std::printf("  worker %-2zu frames=%lld peak=%lld reused=%lld "
                    "tokensIn=%lld tokensOut=%lld idle=%lld\n",
                    w, static_cast<long long>(c.get("framesCreated")),
                    static_cast<long long>(c.get("framesPeak")),
                    static_cast<long long>(c.get("framesReused")),
                    static_cast<long long>(c.get("tokensIn")),
                    static_cast<long long>(c.get("tokensOut")),
                    static_cast<long long>(c.get("idleTransitions")));
      }
    }
    out = std::move(run.out);
  }

  printOutputs(out);

  if (o.verify) {
    pods::BaselineRun seq = pods::runSequentialBaseline(c);
    if (!seq.stats.ok) {
      std::fprintf(stderr, "podsc: verify run failed: %s\n",
                   seq.stats.error.c_str());
      return 1;
    }
    std::string why;
    if (!pods::sameOutputs(out, seq.out, &why)) {
      std::fprintf(stderr, "podsc: VERIFY FAILED: %s\n", why.c_str());
      return 1;
    }
    std::printf("verify: identical to the sequential engine\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Multi-process mode: when this process is a forked PE worker
  // (--transport=udp-multiproc supervisor exec'd us with --pods-worker=...),
  // hand the process over before any tool setup. Never returns in that case.
  pods::native::procmgr::maybeRunPodsWorker(argc, argv);
  Options o;
  if (!parseArgs(argc, argv, o)) return usage(argv[0]);
  if (o.faults.enabled() && (o.engine == "seq" || o.engine == "static")) {
    std::fprintf(stderr,
                 "podsc: --faults needs a message-passing engine "
                 "(--engine=pods or --engine=native)\n");
    return 2;
  }
  if (o.transportSet && o.engine != "native") {
    std::fprintf(stderr,
                 "podsc: --transport applies to the native engine only "
                 "(--engine=native)\n");
    return 2;
  }
  if (o.storeSet && o.engine != "native") {
    std::fprintf(stderr,
                 "podsc: --store applies to the native engine only "
                 "(--engine=native)\n");
    return 2;
  }
  if (!o.peWeights.empty()) {
    if (o.engine != "pods" && o.engine != "native") {
      std::fprintf(stderr,
                   "podsc: --pe-weights needs a distributed engine "
                   "(--engine=pods or --engine=native)\n");
      return 2;
    }
    if (static_cast<int>(o.peWeights.size()) != o.pes) {
      std::fprintf(stderr,
                   "podsc: --pe-weights wants exactly one weight per PE "
                   "(%d weights for --pes %d)\n",
                   static_cast<int>(o.peWeights.size()), o.pes);
      return 2;
    }
  }
  if (!o.statsJson.empty() && o.engine != "pods" && o.engine != "native") {
    std::fprintf(stderr,
                 "podsc: --stats-json needs a machine engine "
                 "(--engine=pods or --engine=native)\n");
    return 2;
  }

  Watchdog dog;
  dog.arm(o.timeoutSec);
  int rc = runTool(o, dog);
  dog.disarm();
  if (dog.fired()) rc = 124;
  return rc;
}
