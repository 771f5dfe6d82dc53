"""One workload in one fresh interpreter: set-up, then a timed or traced run.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|timed|traced

Set-up is timed from the first line of this file to the first answered
task: importing moorealg and the benchmark modules, every lazy import
the warm-up task triggers, generating the first block of the seed's
corpus, and one warm-up task.  ``timed`` then runs whole blocks, one
task at a time, until the tasks have run for S seconds and at least the
workload's minimum task count is reached.  Later blocks are generated,
and outputs checked, between tasks with the clock stopped.  Between
blocks it also starts ``setup`` workers, one at a time and waiting for
each, so that SETUP_SAMPLES set-up times (its own included) are spread
over the whole run; it reports their median.  ``traced``
runs the workload's fixed number of blocks with spans installed (see
spans.py) and writes the spans to .perfbench_out/.  The result is one
JSON line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 13  # set-up times per timed run, the timed worker's own included


def _load_program():
    """Import moorealg from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "moorealg", "__init__.py")):
        raise SystemExit(f"worker: no moorealg sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import moorealg

    if not os.path.abspath(moorealg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"worker: moorealg was imported from {moorealg.__file__}, not {SRC}")


def _tail(lat, pct):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(lat)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _setup_sample(argv) -> float:
    """The set-up time of one more fresh interpreter, run while this one waits."""
    cmd = [sys.executable, os.path.abspath(__file__), *argv, "--mode", "setup"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker: set-up sample exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(lines[-1])["setup_s"]


def measure(wl, block_at, seconds, tracer=None, after_block=None) -> dict:
    """Run whole blocks ``block_at(0)``, ``block_at(1)``, ..., one task at
    a time, and check every output.

    Untraced, it stops after the first block that brings the tasks' own
    run time to ``seconds`` with at least ``wl.min_tasks`` attempted;
    traced, after ``wl.trace_blocks`` blocks.  A task that raises, or
    whose outputs fail the check or make it raise, counts as failed.
    ``after_block(busy)`` is called after each block with the tasks' run
    time so far.
    """
    clock = time.perf_counter
    lat, notes = [], []
    busy, errors, wrong, b = 0.0, 0, 0, 0
    while True:
        for task in block_at(b):
            if tracer:
                tracer.task = len(lat)
            t0 = clock()
            try:
                out = wl.run(task)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            t1 = clock()
            lat.append(t1 - t0)
            busy += t1 - t0
            if isinstance(out, Exception):
                errors += 1
                notes.append(f"{type(out).__name__}: {out}")
                continue
            with tracer.paused() if tracer else nullcontext():
                try:
                    problems = wl.check(task, out)
                except Exception as exc:  # output too malformed to check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                wrong += 1
                notes.append("; ".join(problems))
        b += 1
        if after_block:
            after_block(busy)
        if tracer:
            if b >= wl.trace_blocks:
                break
        elif busy >= seconds and len(lat) >= wl.min_tasks:
            break
    return {
        "latencies": lat,
        "attempted": len(lat),
        "failed": errors + wrong,
        "wrong": wrong,
        "notes": notes[:5],
        "blocks": b,
        "busy_s": busy,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    first = wl.block_at(args.seed, 0)
    warm = wl.warmup()
    answer = wl.run(warm)
    setup_s = time.perf_counter() - T0
    warm_problems = wl.check(warm, answer)
    if warm_problems:
        print(json.dumps({"error": "warm-up task failed its check", "notes": warm_problems}))
        return 1
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def block_at(b):
        return first if b == 0 else wl.block_at(args.seed, b)

    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        result = measure(wl, block_at, args.seconds, tracer)
    else:
        tracer, samples = None, [setup_s]
        argv_base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

        def sample_setup(busy):
            # one more sample each time the tasks pass another 1/SETUP_SAMPLES of the run
            while len(samples) < SETUP_SAMPLES and busy >= args.seconds * len(samples) / SETUP_SAMPLES:
                samples.append(_setup_sample(argv_base))

        result = measure(wl, block_at, args.seconds, after_block=sample_setup)
        sample_setup(math.inf)
        result.update(setup_s=statistics.median(samples), setup_samples_s=samples)
    lat = result.pop("latencies")
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.totals()
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_out = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
        tracer.write(spans_out)
        result["spans"] = os.path.relpath(spans_out, ROOT)
    else:
        tail, beyond = _tail(lat, wl.tail_pct)
        result.update(
            tasks_per_s=len(lat) / result["busy_s"],
            task_p50_ms=statistics.median(lat) * 1000,
            task_tail_ms=tail * 1000,
            tail_pct=wl.tail_pct,
            tail_beyond=beyond,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
