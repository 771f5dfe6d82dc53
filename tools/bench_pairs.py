"""Alternating parent/change runs of perfbench/run.py, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV [--change REV] --seeds 1501-1510 \
        [--claim WORKLOAD:METRIC] [--machine TEXT] --out BENCH_<n>.json

Each side is the committed tree of its revision, extracted by git archive
into a temporary directory, so both sides run their own perfbench/ and
src/ and nothing in the repository is touched.  For every workload and
seed, one pair runs both sides one after the other, the parent first in
even pairs and the change first in odd ones, one benchmark process at a
time.  Then each side makes one traced run on seed 1 and hashes its
outputs on seed 1's traced blocks.  The workloads, the run length, the
end-to-end metrics and their bounds come from BENCHMARK.json, and the
'change' key is the subject of the change commit.

For each metric the file gives both sides' runs, their medians and
quartiles (statistics.quantiles, n=4), how many pairs the change won,
change_worse_by (the change's median loss as a share of the parent's,
negative for a gain) and the parent's quartile distance.  A claim is
met when the change wins at least 9 pairs in 10 and the medians differ,
in the better direction, by more than the parent's quartile distance.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# hashes each output of seed 1's traced blocks: ring spec, bound, every
# coefficient's terms with each scalar's type name, and the fields of
# dataclasses and slotted objects, recursively
_HASHER = r"""
import hashlib, sys
sys.path[:0] = ["src", "perfbench"]
import workloads

def canon(x):
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, tuple(canon(y) for y in x))
    if isinstance(x, dict):
        return ("dict", tuple(sorted((repr(k), canon(v)) for k, v in x.items())))
    if isinstance(x, (int, str, float, bool, type(None))) or type(x).__name__ == "Fraction":
        return (type(x).__name__, repr(x))
    if hasattr(x, "spec") and callable(x.spec):
        return ("ring", x.spec())
    names = getattr(x, "__dataclass_fields__", None) or getattr(type(x), "__slots__", None)
    if names is None:
        names = sorted(vars(x))
    return (type(x).__name__, tuple((n, canon(getattr(x, n, None))) for n in names))

w = workloads.WORKLOADS[sys.argv[1]]
h = hashlib.sha256()
n = 0
for b in range(w.trace_blocks):
    for task in w.block_at(1, b):
        out = w.run(task)
        if w.check(task, out):
            sys.exit(f"{sys.argv[1]}: an output fails its check")
        h.update(repr(canon(out)).encode())
        n += 1
print(n, h.hexdigest()[:16])
"""


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _extract(rev: str, dest: str) -> str:
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def _run(tree: str, argv: list) -> dict:
    """The last line of perfbench/run.py's output in tree, as JSON."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"run.py {' '.join(argv)} in {tree} exited {proc.returncode}: {proc.stderr[-500:]}"
        )
    return json.loads(lines[-1])


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _sig(x: float) -> float:
    return float(f"{x:.5g}")


def summarize(spec: dict, parent: list, change: list) -> dict:
    """One metric's entry: spec holds unit, better and bound; runs in pair order."""
    lower = spec["better"] == "lower"

    def side(runs):
        q1, med, q3 = statistics.quantiles(runs, n=4)
        runs = [_sig(x) for x in runs]
        return {"median": _sig(med), "q1": _sig(q1), "q3": _sig(q3), "runs": runs}

    p, c = side(parent), side(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    worse = (c["median"] - p["median"]) if lower else (p["median"] - c["median"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_wins_pairs": f"{wins}/{len(parent)}",
        "change_worse_by": round(worse / p["median"], 4) if p["median"] else None,
        "parent_quartile_distance": _sig(p["q3"] - p["q1"]),
    }


def claim_met(entry: dict) -> bool:
    """At least 9 pairs in 10 won, and a median gain above the parent's quartile distance."""
    won, pairs = map(int, entry["change_wins_pairs"].split("/"))
    gain = -entry["change_worse_by"] * entry["parent"]["median"]
    return 10 * won >= 9 * pairs and gain > entry["parent_quartile_distance"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision of the change side (default HEAD)")
    ap.add_argument("--seeds", required=True, help="e.g. 1501-1510 or 3,5,7")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--machine", default=None, help="default: platform and CPU count")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    revs = {side: _git("rev-parse", rev).decode().strip() for side, rev in
            (("parent", args.parent), ("change", args.change))}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: _extract(rev, os.path.join(tmp, side)) for side, rev in revs.items()}
        workloads, traced, hashes = {}, {}, {"parent": {}, "change": {}}
        for name in names:
            runs = {"parent": [], "change": []}
            order = []
            for i, seed in enumerate(seeds):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(sides[0])
                for side in sides:
                    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
                    runs[side].append(_run(trees[side], argv))
                    rate = runs[side][-1]["metrics"]["tasks_per_s"]["value"]
                    print(f"{name} seed {seed} {side}: {rate:.1f} tasks/s", flush=True)
            workloads[name] = {
                "seeds": seeds,
                "first_in_pair": order,
                "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
                "metrics": {
                    key: summarize(
                        spec,
                        [r["metrics"][key]["value"] for r in runs["parent"]],
                        [r["metrics"][key]["value"] for r in runs["change"]],
                    )
                    for key, spec in specs.items()
                },
            }
            argv = ["--workload", name, "--seed", "1", "--trace", "1"]
            tr = {s: _run(trees[s], argv) for s in trees}
            traced[name] = {
                key: {s: _sig(tr[s]["metrics"][key]["value"]) for s in tr}
                for key in tr["parent"]["metrics"]
                if tr["parent"]["metrics"][key]["value"] or tr["change"]["metrics"][key]["value"]
            }
            for side, tree in trees.items():
                out = subprocess.run([sys.executable, "-c", _HASHER, name], cwd=tree,
                                     capture_output=True, text=True, check=True).stdout.split()
                hashes[side][name] = {"tasks": int(out[0]), "sha256_prefix": out[1]}

    result = {
        "change": _git("log", "-1", "--format=%s", revs["change"]).decode().strip(),
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "python": platform.python_version(),
        "machine": args.machine or f"{platform.system()} {platform.machine()}, "
                                   f"{os.cpu_count()} CPUs, one benchmark process at a time",
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g}  (untraced)",
        "method": "tools/bench_pairs.py: alternating parent/change pairs with the same seed, each "
                  "side from git archive of its revision; first_in_pair gives the order; median "
                  "and quartiles by statistics.quantiles(n=4); change_worse_by is the share of "
                  "the parent median",
    }
    if args.claim:
        wl, metric = args.claim.split(":")
        result["claim"] = {
            "workload": wl,
            "metric": metric,
            "rule": "change wins at least 9/10 pairs and the medians differ by more than the "
                    "parent's quartile distance",
            "met": claim_met(workloads[wl]["metrics"][metric]),
        }
    result["workloads"] = workloads
    result["traced_seed_1"] = traced
    result["traced_note"] = (
        "python3 perfbench/run.py --workload <workload> --seed 1 --trace 1, one run per side; "
        "values per task, zero on both sides left out; counts repeat exactly, times are from "
        "that one run"
    )
    result["output_hashes_seed_1"] = dict(hashes, equal=hashes["parent"] == hashes["change"])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
