"""Per-call times of the series layer (reversion, compose, *, reciprocal)
and of the field tail reduction that runs on it (canonicalize_char0).

    python3 tools/layer_times.py

Runs on the moorealg of the tree it sits in (its src/ comes first on the
path), so a copy of each revision times itself.  For every ring and
truncation N in RINGS and SIZES the inputs are drawn once from SEED: a dense
unit-linear f to revert, a dense f and a dense unit-linear g for
compose(f, g), two dense series of order 0 for *, one with a unit
constant term for reciprocal and, over the fields, one of height 2 for
canonicalize_char0, whose tail reduction then takes up to one substitution
per exponent 3..N.  Every coefficient through t^N is a
nonzero scalar drawn by moorealg._draws, a unit at t^0 and t^1; over [v]
the coefficient of t^i is that scalar times v^(i-1), so the data are
homogeneous, as graded data are, and every value stays one monomial.
Each call is repeated until BUDGET seconds have passed, and at least
three times; the median is reported.  Over Q at N = 128 the dense inputs
make one reversion take about 30 s, nearly all of it the composition that
checks it, so a run takes about two minutes.  The output is one
JSON line:

    {"seed": 1, "budget_s": 0.2, "python": "3.11.x",
     "ms_per_call": {RING: {OP: {N: ms}}}}
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from moorealg._draws import rand_scalar  # noqa: E402
from moorealg.moduli import canonicalize_char0  # noqa: E402
from moorealg.rings import parse_ring  # noqa: E402
from moorealg.series import PowerSeries, compose, reciprocal, reversion  # noqa: E402

RINGS = ("Q", "F7", "F2305843009213693951", "Zp:5:3", "F5[v]")
SIZES = (16, 32, 64, 128)
SEED = 1
BUDGET = 0.2


def _dense(ring, rng, n: int, lo: int) -> PowerSeries:
    """A series with a coefficient at every t^i, lo <= i <= n; see the module doc."""
    coeffs = {}
    for i in range(lo, n + 1):
        c = rand_scalar(ring, rng, nonzero=True)
        while i <= 1 and not c.is_unit():
            c = rand_scalar(ring, rng, nonzero=True)
        coeffs[i] = c * ring.vpow(i - 1) if ring.laurent else c
    return PowerSeries(ring, coeffs, n)


def _inputs(ring, n: int, rng) -> dict:
    """The calls to time at truncation n: name -> (function, arguments)."""
    calls = {
        "reversion": (reversion, (_dense(ring, rng, n, 1),)),
        "compose": (compose, (_dense(ring, rng, n, 1), _dense(ring, rng, n, 1))),
        "mul": (PowerSeries.__mul__, (_dense(ring, rng, n, 0), _dense(ring, rng, n, 0))),
        "reciprocal": (reciprocal, (_dense(ring, rng, n, 0),)),
    }
    if ring.is_field:
        calls["canonicalize_char0"] = (canonicalize_char0, (_dense(ring, rng, n, 2),))
    return calls


def _median_ms(fn, args) -> float:
    times = []
    end = time.perf_counter() + BUDGET
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return round(1000 * statistics.median(times), 4)


def main() -> int:
    table = {}
    for spec in RINGS:
        ring = parse_ring(spec)
        rows = table[spec] = {}
        for n in SIZES:
            rng = random.Random(f"{SEED}:{spec}:{n}")
            for op, (fn, xs) in _inputs(ring, n, rng).items():
                rows.setdefault(op, {})[n] = _median_ms(fn, xs)
    print(json.dumps({"seed": SEED, "budget_s": BUDGET,
                      "python": platform.python_version(), "ms_per_call": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
