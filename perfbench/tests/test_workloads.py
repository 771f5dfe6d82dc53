"""Corpora repeat, checks catch corrupted outputs, and failures are counted."""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

from moorealg import PowerSeries

import worker
from conftest import BENCH, ROOT
from workloads import WORKLOADS


def _shape(name, task):
    if name == "dvr_orbits":
        return (task["p"], task["K"], task["k"])
    if name == "field_orbits":
        return (task["ring"], task["N"], task["action"] is not None)
    return task["argv"][0]


def _corpus(wl, seed):
    return [wl.block_at(seed, b) for b in range(3)]


def test_corpus_is_a_function_of_the_seed():
    for name, wl in WORKLOADS.items():
        a, b, c = _corpus(wl, 7), _corpus(wl, 7), _corpus(wl, 8)
        assert a == b, name
        assert a != c, name
        assert a[0] != a[1], f"{name}: blocks repeat"
        shapes = {tuple(_shape(name, t) for t in block) for block in a + c}
        assert len(shapes) == 1, f"{name}: blocks differ in make-up"


class _Tampered:
    """A workload whose run() passes its outputs through `tamper`."""

    min_tasks = 1
    trace_blocks = 1

    def __init__(self, wl, tamper):
        self.wl, self.tamper = wl, tamper

    def run(self, task):
        return self.tamper(self.wl.run(task))

    def check(self, task, out):
        return self.wl.check(task, out)


def _counts(wl, task):
    res = worker.measure(wl, lambda b: [task, task], seconds=0)
    return res["attempted"], res["failed"], res["wrong"]


def test_dvr_check_catches_one_corrupted_coefficient():
    wl = WORKLOADS["dvr_orbits"]
    task = wl.warmup()
    out = wl.run(task)
    assert wl.check(task, out) == []
    moved, first, second, again = out
    k = task["k"]
    bump = PowerSeries(first.form.ring, {k: 1}, first.form.trunc)

    def tamper(o):
        return (o[0], dataclasses.replace(o[1], form=o[1].form + bump), o[2], o[3])

    assert wl.check(task, tamper(out))
    assert _counts(_Tampered(wl, lambda o: o), task) == (2, 0, 0)
    assert _counts(_Tampered(wl, tamper), task) == (2, 2, 2)


def test_field_check_catches_a_wrong_reversion():
    wl = WORKLOADS["field_orbits"]
    task = wl.warmup()
    out = wl.run(task)
    assert wl.check(task, out) == []
    g = out["g"]
    bad = dict(out, g=g + PowerSeries(g.ring, {3: 1}, g.trunc))
    problems = wl.check(task, bad)
    assert any("reversion" in p for p in problems)


def test_cli_check_catches_a_wrong_rank_and_counts_errors():
    wl = WORKLOADS["cli_session"]
    task = next(t for t in wl.block(random.Random(1)) if t["verb"] == "hh_golden")
    rc, text, err = wl.run(task)
    assert rc == 0 and wl.check(task, (rc, text, err)) == []
    data = json.loads(text)
    data["rank"] += 1
    assert wl.check(task, (rc, json.dumps(data), err))

    def boom(_):
        raise ValueError("injected")

    failing = _Tampered(wl, boom)
    assert _counts(failing, task) == (2, 2, 0)


def test_a_check_that_raises_counts_the_task_as_wrong():
    wl = WORKLOADS["cli_session"]
    task = next(t for t in wl.block(random.Random(1)) if t["verb"] == "act")

    def drop_series(out):
        rc, text, err = out
        data = json.loads(text)
        del data["series"]
        return rc, json.dumps(data), err

    res = worker.measure(_Tampered(wl, drop_series), lambda b: [task, task], seconds=0)
    assert (res["attempted"], res["failed"], res["wrong"]) == (2, 2, 2)
    assert "check raised KeyError" in res["notes"][0]


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args] if cwd == ROOT
        else [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_two_traced_runs_give_identical_counts():
    args = ["--workload", "cli_session", "--seed", "3", "--trace", "1"]
    first = _run(args)
    second = _run(args, env=dict(os.environ, PYTHONHASHSEED="123"))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a = json.loads(first.stdout.splitlines()[-1])["metrics"]
    b = json.loads(second.stdout.splitlines()[-1])["metrics"]
    counts = [k for k, m in a.items() if m["unit"] == "count/task"]
    assert counts and all(a[k] == b[k] for k in counts)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "cli_session", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
