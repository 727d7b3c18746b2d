#!/usr/bin/env python3
"""Records and compares benchmark trajectory files (BENCH_*.json).

Usage, from the repository root:

    python3 scripts/bench_record.py --out BENCH_<n>.json
    python3 scripts/bench_record.py --compare OLD.json NEW.json

`--out` runs `perfbench/run.py` RUNS times for every workload named in
BENCHMARK.json, untraced (`--trace 0`, the end-to-end metrics) and traced
(`--trace 1`, the per-layer metrics), at a fixed seed and run length. It
writes every result line, the median of each metric over the runs, the
`report_digest` lines, `host_cores` and `git describe --always --dirty`.

`--compare` prints each metric's relative change between the medians of
two records. It marks an end-to-end metric that moved the wrong way by
more than its BENCHMARK.json bound, a larger share of failed operations,
and every changed `report_digest`, and exits 1 if it marked anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SEED = 7
RUNS = 3
SECONDS = 10
TRACE_MODES = (0, 1)
# A run builds perfbench first; the first build of a clean checkout is slow.
RUN_TIMEOUT_S = 1200


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def run_once(workload, trace):
    """One perfbench run: its result object and its other output lines."""
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(SECONDS),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited with {done.returncode}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(results):
    """Median of every metric over `results`, by name."""
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def record(workloads):
    outputs = {w: {f"trace{t}": [] for t in TRACE_MODES} for w in workloads}
    # Runs interleave workloads and modes, so slow drift on a shared host
    # spreads over all of them instead of landing on one.
    for i in range(RUNS):
        for w in workloads:
            for t in TRACE_MODES:
                print(f"run {i + 1}/{RUNS}: {w} --trace {t}", file=sys.stderr)
                outputs[w][f"trace{t}"].append(run_once(w, t))

    cores = set()
    modes = {}
    for w, by_mode in outputs.items():
        modes[w] = {}
        for mode, runs in by_mode.items():
            results = [result for result, _ in runs]
            lines = [line for _, other in runs for line in other]
            cores.update(int(l.split()[1]) for l in lines if l.startswith("host_cores "))
            modes[w][mode] = {
                "medians": summarize(results),
                "report_digests": sorted({l for l in lines if l.startswith("report_digest ")}),
                "results": results,
            }
    if len(cores) != 1:
        raise RuntimeError(f"runs disagree on host_cores: {sorted(cores)}")
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    return {
        "git": git,
        "host_cores": cores.pop(),
        "seed": SEED,
        "runs": RUNS,
        "seconds": SECONDS,
        "workloads": modes,
    }


def relative(old, new):
    if old == new:
        return 0.0
    if old == 0:
        return float("inf") if new > old else float("-inf")
    return (new - old) / abs(old)


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def compare(old, new, benchmark):
    """Printable lines and marks for the change from record `old` to `new`.

    A mark is a `(workload, mode, what)` tuple; `what` is a metric name,
    "failed" or "report_digest".
    """
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    lines = [f"old {old['git']} ({old['host_cores']} cores), "
             f"new {new['git']} ({new['host_cores']} cores)"]
    marks = []
    for w in sorted(set(old["workloads"]) | set(new["workloads"])):
        old_modes = old["workloads"].get(w, {})
        new_modes = new["workloads"].get(w, {})
        for mode in sorted(set(old_modes) | set(new_modes)):
            if mode not in old_modes or mode not in new_modes:
                lines.append(f"{w} {mode}: only in the {'new' if mode in new_modes else 'old'} record")
                continue
            a, b = old_modes[mode], new_modes[mode]
            for name in sorted(set(a["medians"]) | set(b["medians"])):
                if name not in a["medians"] or name not in b["medians"]:
                    side = "new" if name in b["medians"] else "old"
                    lines.append(f"{w:<16} {mode:<7} {name:<36} only in the {side} record")
                    continue
                x, y = a["medians"][name], b["medians"][name]
                delta = relative(x, y)
                line = f"{w:<16} {mode:<7} {name:<36} {x:>14.6g} {y:>14.6g} {delta:>+9.1%}"
                gate = bounds.get(name)
                if gate:
                    worse = -delta if gate["better"] == "higher" else delta
                    if worse > gate["bound"]:
                        line += f"  WORSE beyond bound {gate['bound']:.0%}"
                        marks.append((w, mode, name))
                lines.append(line)
            if failed_share(b["results"]) > failed_share(a["results"]):
                lines.append(f"{w} {mode}: failed share rose from "
                             f"{failed_share(a['results']):.3g} to {failed_share(b['results']):.3g}")
                marks.append((w, mode, "failed"))
            if a["report_digests"] != b["report_digests"]:
                lines.append(f"{w} {mode}: report_digest changed")
                lines += [f"  old {d}" for d in a["report_digests"]]
                lines += [f"  new {d}" for d in b["report_digests"]]
                marks.append((w, mode, "report_digest"))
    lines.append(f"{len(marks)} marked")
    return lines, marks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", metavar="BENCH.json")
    action.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    args = parser.parse_args()

    benchmark = load_benchmark()
    if args.out:
        rec = record([w["name"] for w in benchmark["workloads"]])
        with open(args.out, "w") as f:
            json.dump(rec, f, indent=1)
            f.write("\n")
        return 0

    records = []
    for path in args.compare:
        with open(path) as f:
            records.append(json.load(f))
    lines, marks = compare(records[0], records[1], benchmark)
    print("\n".join(lines))
    return 1 if marks else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"bench_record.py: {e}", file=sys.stderr)
        sys.exit(2)
