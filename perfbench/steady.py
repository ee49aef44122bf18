#!/usr/bin/env python3
"""Steadiness tooling for the repository benchmark.

Run every workload repeatedly, alternating the workload order between
rounds, and print each end-to-end metric's median, quartiles and relative
spread (interquartile range over median) beside a third of its bound:

    python3 perfbench/steady.py run --seeds 10 --out /tmp/a.json

Compare two such sets of runs against the bounds in BENCHMARK.json (the
second set's median may be worse than the first's by at most the bound):

    python3 perfbench/steady.py compare /tmp/a.json /tmp/b.json

Run from the repository root.  Seeds are 1..N unless --first-seed moves
them; each run measures BENCHMARK.json's run_seconds.  A run whose
throughput had to count repetitions the hypervisor stole CPU time from
prints `steady no`; a workload with such runs has its throughput marked
UNRESOLVED.  Exit code 1 means a spread or a comparison is outside its
bound, 2 that everything is within bounds but something is unresolved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect: {lines[-1]}")
    notes = dict(line.split(None, 1) for line in lines[:-1] if len(line.split(None, 1)) == 2)
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "repetition_mops": notes.get("repetition_mops/steal", "").split(),
        "steady": notes.get("steady") != "no",
    }


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def cmd_run(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = {w: [] for w in workloads}
    for i in range(args.seeds):
        seed = args.first_seed + i
        # Alternate the order so no workload always runs right after the
        # same neighbour (page cache, frequency, allocator state).
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            run = run_once(w, seed, seconds, 0)
            runs[w].append(run)
            print(f"{w:<12} seed {seed:<4} " + "  ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
                  + ("" if run["steady"] else "  (not steady)"), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
    return report(bench, runs)


def unsteady(samples):
    return sum(not s.get("steady", True) for s in samples)


def report(bench, runs):
    worst = 0
    print(f"\n{'workload':<12} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for w, samples in runs.items():
        for m in bench["end_to_end"]:
            values = [s["metrics"][m["name"]] for s in samples]
            if len(values) < 2:
                continue
            q1, med, q3, rel = spread(values)
            limit = m["bound"] / 3
            flag = "" if rel <= limit else "  WIDE"
            if m["name"] == "throughput_mops" and unsteady(samples):
                flag += f"  UNRESOLVED ({unsteady(samples)} of {len(samples)} runs not steady)"
            worst = max(worst, 1 if "WIDE" in flag else 2 if flag else 0)
            print(f"{w:<12} {m['name']:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f} {limit:>8.4f}{flag}")
    return worst


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    if first["seconds"] != second["seconds"]:
        raise SystemExit(f"the sets measured {first['seconds']} s and {second['seconds']} s per run; "
                         "only sets of the same length compare")
    first, second = first["runs"], second["runs"]
    worst = 0
    print(f"{'workload':<12} {'metric':<18} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for w in first:
        if w not in second:
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(s["metrics"][m["name"]] for s in first[w])
            b = statistics.median(s["metrics"][m["name"]] for s in second[w])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  REGRESSED"
            if m["name"] == "throughput_mops" and (unsteady(first[w]) or unsteady(second[w])):
                flag += f"  UNRESOLVED ({unsteady(first[w])} + {unsteady(second[w])} runs not steady)"
            worst = max(worst, 1 if "REGRESSED" in flag else 2 if flag else 0)
            print(f"{w:<12} {m['name']:<18} {a:>12.6g} {b:>12.6g} {worse:>9.4f} {m['bound']:>6}{flag}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run each workload repeatedly and print spreads")
    run.add_argument("--seeds", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out", help="write the runs to this JSON file")
    compare = sub.add_parser("compare", help="compare two sets of runs against the bounds")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
