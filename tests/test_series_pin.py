"""Golden pin of the one-variable series kernel.

Each case draws seeded series over one ring and hashes what compose,
the product, reciprocal and reversion return: bounds from -1 to EXACT,
the zero series, nilpotent leading coefficients over Z/p^K, elementary
substitutions t + a*t^r (the binomial pass on the plain rings) next to
other sparse and dense ones.  A series is serialized as its bound and
its sorted (exponent, coefficient) pairs, the coefficient through
`format_elem`, so the pin reads values only and not how a series
stores them; a raised library error is recorded by its class name.
The polynomial mode has no unit beyond the constants, so only compose
and the product are pinned there.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from moorealg.errors import MooreError
from moorealg.rings import CoeffRing, format_elem, parse_ring
from moorealg.series import EXACT, PowerSeries, compose, reciprocal, reversion

from util import rand_coeff, rand_unit

PINS = {
    "Q": "924b137809bc2d3e",
    "F7": "022592446ddbef87",
    "F2": "0d130412175e7203",
    "Zp:5:3": "b384a15e5e31795b",
    "Q[v]": "6bd1354ee75e5915",
    "F5[v]": "aa81f8ae633ed4b6",
    "Zp:3:4[v]": "84f226f2cbe14957",
    "Poly": "5741b97d855d9117",
}

POLY = CoeffRing("Poly", symbols=("a", "b"))


def _ring(text):
    return POLY if text == "Poly" else parse_ring(text)


def _bound(rng):
    return rng.choice((-1, 0, 1, 3, 5, 8, EXACT, EXACT))


def _draw(ring, rng, lo):
    """A series from t^lo on: dense, sparse or zero, sometimes nilpotent-led over Z/p^K."""
    bound = _bound(rng)
    top = rng.randint(lo, 7) if bound == EXACT else bound
    density = rng.choice((0.0, 0.5, 1.0, 1.0))  # 0.0 draws the zero series
    coeffs = {i: rand_coeff(ring, rng) for i in range(lo, top + 1) if rng.random() < density}
    if ring.mode == "Zp" and coeffs and rng.random() < 0.4:
        coeffs[min(coeffs)] = ring.from_int(ring.p * rng.randrange(1, ring.p))
    return PowerSeries(ring, coeffs, bound)


def _elementary(ring, rng):
    """t + a*t^r: a with a denominator and a sign over Q, a non-unit over Z/p^K."""
    if ring.mode == "Q" and not ring.laurent:
        a = ring.from_int(Fraction(-7, 3))
    elif ring.mode == "Zp" and rng.random() < 0.5:
        a = ring.from_int(ring.p * rng.randrange(1, ring.p))
    else:
        a = rand_coeff(ring, rng)
    r = rng.randint(2, 9)
    return PowerSeries(ring, {1: ring.one(), r: a}, rng.choice((r - 1, r + 2, EXACT)))


def _serial(x):
    if isinstance(x, type):
        return x.__name__
    return (x.trunc, sorted((i, format_elem(c)) for i, c in x.coeffs.items()))


def _outcome(op, *args):
    try:
        return _serial(op(*args))
    except MooreError as err:
        return _serial(type(err))


def _digest(ring_text):
    ring = _ring(ring_text)
    units = ring.mode != "Poly"
    parts = []
    for seed in range(60):
        rng = random.Random(seed)
        f = _draw(ring, rng, 0)
        g = _draw(ring, rng, rng.choice((1, 1, 2, 3)))
        e = _elementary(ring, rng)
        parts += [
            _outcome(compose, f, g),
            _outcome(compose, f, e),
            _outcome(compose, g, e),
            _outcome(PowerSeries.__mul__, f, g),
            _outcome(PowerSeries.__mul__, g, e),
        ]
        if not units:
            continue
        u = f + PowerSeries(ring, {0: rand_unit(ring, rng)}, EXACT)
        h = g + PowerSeries(ring, {1: rand_unit(ring, rng)}, EXACT)
        parts += [
            _outcome(PowerSeries.__mul__, u, h),
            _outcome(compose, u, h),
            _outcome(reciprocal, u),
            _outcome(reciprocal, f),
            _outcome(reversion, h),
            _outcome(reversion, e),
        ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("ring_text", sorted(PINS))
def test_series_kernel_matches_pin(ring_text):
    assert _digest(ring_text) == PINS[ring_text]
