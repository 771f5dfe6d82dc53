"""Steadiness check: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--seconds S]

Set A uses seeds 1..runs and set B seeds 101..100+runs; the runs
alternate between the sets and which set goes first, so drift in the
machine falls on both.  For every end-to-end metric on every workload
it prints each set's median and quartiles, the spread (quartile
distance over median), how far B's median is worse than A's, and
whether both spreads and the distance between the medians, in either
direction, stay within the metric's bound in BENCHMARK.json.  It also
checks that both sets fail the same share of operations.  The table is also written to
.perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {' '.join(cmd)} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report, ok = {}, True
    for wl in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = i + 1 if name == "A" else i + 101
                sets[name].append(_run(wl, seed, args.seconds))
                print(f"{wl} set {name} seed {seed}: done", file=sys.stderr)
        shares = {s: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for s, runs in sets.items()}
        rows = {}
        for key, m in metrics.items():
            row = {s: _stats([r["metrics"][key]["value"] for r in runs]) for s, runs in sets.items()}
            a, b = row["A"]["median"], row["B"]["median"]
            row["b_worse_by"] = (b - a) / a if m["better"] == "lower" else (a - b) / a
            row["ok"] = row["A"]["spread"] <= m["bound"] and row["B"]["spread"] <= m["bound"] \
                and abs(row["b_worse_by"]) <= m["bound"]
            ok &= row["ok"]
            rows[key] = row
        same_share = len(set(shares.values())) == 1
        ok &= same_share and all(r["correct"] for runs in sets.values() for r in runs)
        report[wl] = {"metrics": rows, "failed_share": shares, "same_failed_share": same_share}
        print(f"\n{wl}: failed share {shares}  same: {same_share}")
        print(f"{'metric':14} {'bound':>6}  " + "  ".join(
            f"{s + ' median [q1, q3] spread':>38}" for s in sets) + "  B worse by  ok")
        for key, row in rows.items():
            cells = "  ".join(
                f"{row[s]['median']:10.4g} [{row[s]['q1']:9.4g}, {row[s]['q3']:9.4g}] {row[s]['spread']:6.3f}"
                for s in sets)
            print(f"{key:14} {metrics[key]['bound']:6.2f}  {cells}  {row['b_worse_by']:+10.3f}  {row['ok']}")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nsteady: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
