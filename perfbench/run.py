"""Run the moorealg benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md): dvr_orbits, field_orbits, cli_session; "all"
runs them one after another.  Each workload runs in a fresh child
interpreter (worker.py), which makes the timed run and samples set-up
in further fresh interpreters, started one at a time between its
blocks.  With --trace 1 the child makes the traced run instead and the
per-layer metrics are printed.  Every metric is printed as "name value unit";
the last line is one JSON object with the keys correct, attempted,
failed and metrics (for "all", one such object keyed by workload).
Results and span files go to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("dvr_orbits", "field_orbits", "cli_session")
DEADLINE_S = 170  # a single-workload run ends within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class RunError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order is fixed, so traced counts repeat
    env.pop("MOORE_DEFAULT_TRUNC", None)  # every command line names its truncation
    return env


def _worker(args, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    # a session of its own, so a timeout also ends the set-up workers it starts
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker {' '.join(args)} did not finish in time") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        detail = (stderr.strip() or stdout.strip()).splitlines()[-3:]
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}: {' | '.join(detail)}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        res = _worker(base + ["--mode", "traced"], deadline)
        units = _per_layer_units()
        n = res["attempted"]
        metrics = {
            key: {"value": res["per_layer"][key] / n, "unit": unit} for key, unit in units.items()
        }
        task_s = res["busy_s"] / n
        shares = {key[: -len(".self_s")]: m["value"] / task_s for key, m in metrics.items() if key.endswith(".self_s")}
        shares["outside every span"] = 1 - sum(shares.values())
        info = {
            "traced_task_ms": 1000 * task_s,
            "traced_tasks": n,
            "self_time_share": {k: round(v, 4) for k, v in shares.items()},
            "spans": res["spans"],
        }
    else:
        res = _worker(base + ["--mode", "timed"], deadline)
        metrics = {key: {"value": res[key], "unit": unit} for key, unit in END_TO_END}
        info = {
            "setup_samples_s": res["setup_samples_s"],
            "tail": f"p{res['tail_pct']} of {res['attempted']} tasks, {res['tail_beyond']} beyond it",
            "untraced_task_ms": 1000 * res["busy_s"] / res["attempted"],
        }
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result_{name}_seed{seed}_trace{int(trace)}.json"), "w") as fh:
        json.dump(dict(result, info=info, notes=res["notes"]), fh, indent=1)
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} attempted {res['attempted']} failed {res['failed']} correct {result['correct']}")
    for key, val in info.items():
        print(f"{name} info {key}: {val}")
    for note in res["notes"]:
        print(f"{name} failure: {note}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                args.seconds = json.load(fh)["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
