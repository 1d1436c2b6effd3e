#!/usr/bin/env python3
"""Benchmark regression gate.

Measures whole-binary wall-clock time for a fixed set of benchmark binaries
at a small fixed configuration (PODS_BENCH_SMALL=1) and gates pull requests
against a committed baseline.

    bench_gate.py measure --build-dir build --out BENCH_PR.json [--reps 5]
    bench_gate.py compare BENCH_BASELINE.json BENCH_PR.json [--tolerance 0.20]

Schema of the JSON files: {bench name: median wall-us over N reps}, plus a
"_meta" object (host, date, reps) that the comparison ignores.

Whole-binary wall time is deliberately coarse: it absorbs per-iteration
noise that google-benchmark's own counters would surface, which is what a
cross-machine gate with a generous tolerance wants. The committed baseline
should be refreshed (re-run `measure` and commit the output as
BENCH_BASELINE.json) whenever the benchmark set changes or a deliberate
perf-affecting change lands.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone

# Bench name -> path relative to the build dir. Small, fixed configs: the
# point is trajectory, not precision.
BENCHES = {
    "fig10_speedup": "bench/fig10_speedup",
    "micro_engine": "bench/micro_engine",
    "micro_serve": "bench/micro_serve",
    "micro_eventq": "bench/micro_eventq",
    "micro_arrays": "bench/micro_arrays",
}

# Counter-registry snapshots (podsc --stats-json) archived alongside the
# wall-time medians: (engine, program, pes, extra podsc flags). Keys are
# "_"-prefixed in the report so compare() ignores them — they are forensic
# context for a regression, not a gated quantity.
STATS_RUNS = {
    "heat_pods_4pe": ("pods", "programs/heat.idl", 4, ()),
    "heat_native_4pe": ("native", "programs/heat.idl", 4, ()),
    "heat_native_udp_4pe": ("native", "programs/heat.idl", 4,
                            ("--transport=udp",)),
    "heat_native_udp_wire_4pe": ("native", "programs/heat.idl", 4,
                                 ("--transport=udp", "--store=wire")),
}

# Counters whose baseline-vs-candidate drift compare() prints (never gates):
# the UDP hot-path quantities a wall-time regression usually traces back to.
STATS_DELTA_COUNTERS = (
    "net.udp.tokensSent",
    "net.udp.datagramsSent",
    "net.udp.acksSent",
    "net.udp.batch.flushFull",
    "net.retx.resent",
    "native.inboxOverflow",
    "net.am.readReqSent",
    "net.am.pageHits",
    "net.am.pageRunsSent",
    "net.am.pageFillsSent",
    "net.am.parks",
    "native.shmArrayOps",
)


def archive_stats(build_dir):
    """Run podsc --stats-json for each STATS_RUNS entry; returns name->dict."""
    podsc = os.path.join(build_dir, "podsc")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = {}
    for name, (engine, program, pes, extra) in STATS_RUNS.items():
        src = os.path.join(root, program)
        if not (os.path.exists(podsc) and os.path.exists(src)):
            print(f"bench_gate: skipping stats run {name} (missing binary "
                  "or program)", file=sys.stderr)
            continue
        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            proc = subprocess.run(
                [podsc, f"--engine={engine}", "--pes", str(pes),
                 f"--stats-json={tmp.name}", *extra, src],
                stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                print(f"bench_gate: stats run {name} exited "
                      f"{proc.returncode}", file=sys.stderr)
                continue
            with open(tmp.name) as f:
                out[name] = json.load(f)
        print(f"  archived counter registry for {name}")
    return out


def measure(args):
    env = dict(os.environ, PODS_BENCH_SMALL="1")
    paths = {}
    for name, rel in BENCHES.items():
        path = os.path.join(args.build_dir, rel)
        if not os.path.exists(path):
            print(f"bench_gate: missing benchmark binary {path}", file=sys.stderr)
            return 1
        paths[name] = path
    # Reps are interleaved round-robin across the benches (A B A B ...)
    # rather than blocked per bench, so slow drift on the host — thermal
    # state, a background job ramping up — biases every bench's sample set
    # the same way instead of landing entirely on whichever bench ran last.
    samples = {name: [] for name in BENCHES}
    for rep in range(args.reps):
        for name in BENCHES:
            t0 = time.monotonic()
            proc = subprocess.run(
                [paths[name]], env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.STDOUT)
            elapsed_us = (time.monotonic() - t0) * 1e6
            if proc.returncode != 0:
                print(f"bench_gate: {name} rep {rep} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            samples[name].append(elapsed_us)
            print(f"  {name} rep {rep + 1}/{args.reps}: "
                  f"{elapsed_us / 1e3:.1f} ms")
    results = {}
    for name in BENCHES:
        results[name] = round(statistics.median(samples[name]), 1)
        print(f"{name}: median {results[name] / 1e3:.1f} ms "
              f"over {args.reps} reps")
    results["_meta"] = {
        "host": platform.node(),
        "platform": platform.platform(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "reps": args.reps,
        "env": {"PODS_BENCH_SMALL": "1"},
    }
    results["_stats"] = archive_stats(args.build_dir)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {k: v for k, v in data.items() if not k.startswith("_")}


def load_stats(path):
    with open(path) as f:
        return json.load(f).get("_stats", {})


def tokens_per_datagram(counters):
    """Mean batched-token occupancy, from the raw sums (the counter
    registry holds integers, so it keeps no ratio)."""
    dgrams = counters.get("net.udp.batch.datagrams", 0)
    if dgrams <= 0:
        return None
    return counters.get("net.udp.batch.tokens", 0) / dgrams


def print_stats_deltas(baseline_path, candidate_path):
    """Forensic (never gated) drift report over the archived counter
    registries: wall time, batching occupancy, the native engine's cost per
    instruction (derived.native.ns_per_instr), the hot-path counters in
    STATS_DELTA_COUNTERS, and the counter names present on only one side
    (a stale archive, or a counter added or retired). Runs present on only
    one side are skipped."""
    base, pr = load_stats(baseline_path), load_stats(candidate_path)
    common = sorted(set(base) & set(pr))
    if not common:
        return
    print("\ncounter-registry drift (forensic, not gated):")
    for name in common:
        b, p = base[name], pr[name]
        line = f"  {name}: {b.get('time_ms', 0):.1f} -> " \
               f"{p.get('time_ms', 0):.1f} ms"
        btpd = tokens_per_datagram(b.get("counters", {}))
        ptpd = tokens_per_datagram(p.get("counters", {}))
        if btpd is not None or ptpd is not None:
            line += (f", tokens/datagram "
                     f"{btpd if btpd is not None else 0:.1f} -> "
                     f"{ptpd if ptpd is not None else 0:.1f}")
        bns = b.get("derived", {}).get("native.ns_per_instr")
        pns = p.get("derived", {}).get("native.ns_per_instr")
        if bns is not None or pns is not None:
            line += (f", ns/instr "
                     f"{'-' if bns is None else f'{bns:.1f}'} -> "
                     f"{'-' if pns is None else f'{pns:.1f}'}")
        print(line)
        bc, pc = b.get("counters", {}), p.get("counters", {})
        for side, names in (("baseline", set(bc) - set(pc)),
                            ("candidate", set(pc) - set(bc))):
            if names:
                print(f"    only in {side}: {', '.join(sorted(names))}")
        for key in STATS_DELTA_COUNTERS:
            bv, pv = bc.get(key), pc.get(key)
            if bv is None and pv is None:
                continue
            if (bv or 0) != (pv or 0):
                print(f"    {key}: {bv if bv is not None else '-'} -> "
                      f"{pv if pv is not None else '-'}")


def compare(args):
    base = load(args.baseline)
    pr = load(args.candidate)
    failed = []
    for name in sorted(base):
        if name not in pr:
            print(f"MISSING  {name}: in baseline but not measured")
            failed.append(name)
            continue
        b, p = base[name], pr[name]
        delta = (p - b) / b if b > 0 else 0.0
        status = "OK"
        if delta > args.tolerance:
            status = "REGRESSED"
            failed.append(name)
        print(f"{status:9s}{name}: baseline {b / 1e3:.1f} ms, "
              f"candidate {p / 1e3:.1f} ms ({delta:+.1%}, "
              f"tolerance +{args.tolerance:.0%})")
    for name in sorted(set(pr) - set(base)):
        print(f"NEW      {name}: {pr[name] / 1e3:.1f} ms "
              "(not in baseline; not gated)")
    print_stats_deltas(args.baseline, args.candidate)
    if failed:
        print(f"bench_gate: FAIL — {', '.join(failed)}", file=sys.stderr)
        return 1
    print("bench_gate: all benchmarks within tolerance")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("measure", help="run the benches, write a JSON report")
    m.add_argument("--build-dir", default="build")
    m.add_argument("--out", default="BENCH_PR.json")
    m.add_argument("--reps", type=int, default=5)
    m.set_defaults(func=measure)

    c = sub.add_parser("compare", help="gate a candidate against a baseline")
    c.add_argument("baseline")
    c.add_argument("candidate")
    c.add_argument("--tolerance", type=float, default=0.20,
                   help="max allowed median regression (fraction, def 0.20)")
    c.set_defaults(func=compare)

    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
