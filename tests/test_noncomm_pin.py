"""Golden pin of the word-algebra layer.

Each case draws seeded word series, endomorphisms and derivations over
one ring and hashes what apply_endo, derivation_apply and conjugate
return: random images and inputs with bounds from -1 to EXACT, zero
images among them, structure derivations, and conjugations of odd
structures by normalized endomorphisms as the orbit questions make
them.  A word series is serialized as its bound and its sorted (word,
coefficient) pairs, the coefficient through `format_elem`, so the pin
reads values only and not how a series stores them.
"""

import hashlib
import random

import pytest

from moorealg._draws import rand_series
from moorealg.moduli import MooreAlgebra
from moorealg.noncomm import (
    Derivation,
    GradingContext,
    NCEndo,
    NCSeries,
    apply_endo,
    conjugate,
    derivation_apply,
    moore_mstar,
    normalized_endo,
)
from moorealg.rings import CoeffRing, format_elem, parse_ring
from moorealg.series import EXACT, PowerSeries

from util import rand_coeff

PINS = {
    "Q": "c66dd1d190b26ef3",
    "F5": "27450f44b3b62432",
    "F7": "e49bb250ba820543",
    "F2": "883c10d817e86e7f",
    "Zp:5:3": "8c7b17bf91c0f4ba",
    "Zp:2:4": "726ca0c9627ff22a",
    "Q[v]": "b327db3581be9aff",
    "F5[v]": "b162eb96cce389d4",
    "Poly": "73ee1862d6dcb81f",
}

POLY = CoeffRing("Poly", symbols=("a", "b"))
ODD = GradingContext(1)


def _ring(text):
    return POLY if text == "Poly" else parse_ring(text)


def _words(ring, grading, rng, longest, bound):
    terms = {}
    for _ in range(rng.choice((0, 1, 3, 5))):
        w = "".join(rng.choice("Tt") for _ in range(rng.randint(1, longest)))
        terms[w] = rand_coeff(ring, rng)
    return NCSeries(ring, grading, terms, bound)


def _bound(rng):
    return rng.choice((-1, 0, 2, 4, 6, EXACT, EXACT))


def _serial(x):
    return (x.maxlen, sorted((w, format_elem(c)) for w, c in x.terms.items()))


def _odd_datum(ring, rng, n):
    """An odd structure (v, w) on even exponents >= 2, known through n."""
    def part():
        return PowerSeries(ring, {i: rand_coeff(ring, rng) for i in range(2, n + 1, 2)}, n)

    return moore_mstar(MooreAlgebra.odd(part(), part()))


def _digest(ring_text):
    ring = _ring(ring_text)
    parts = []
    for seed in range(16):
        rng = random.Random(seed)
        grading = GradingContext(seed % 2)
        images = [_words(ring, grading, rng, 3, _bound(rng)) for _ in range(2)]
        phi = NCEndo(*images)
        x = _words(ring, grading, rng, 5, _bound(rng))
        values = [_words(ring, grading, rng, 3, _bound(rng)) for _ in range(2)]
        xi = Derivation(*values, seed // 2 % 2)
        parts += [_serial(apply_endo(phi, x)), _serial(derivation_apply(xi, x))]
        n = rng.choice((4, 6, 8))
        m = _odd_datum(ring, rng, n)
        parts += [_serial(derivation_apply(m, m.image(ch))) for ch in "Tt"]
        if ring.mode == "Poly":
            continue
        endo = normalized_endo(
            ODD, rand_series(ring, rng, n), rand_series(ring, rng, n, unit_linear=True)
        )
        parts += [_serial(apply_endo(endo, m.image(ch))) for ch in "Tt"]
        c = conjugate(endo, m)
        parts += [_serial(c.onTau), _serial(c.onT)]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("ring_text", sorted(PINS))
def test_word_algebra_matches_pin(ring_text):
    assert _digest(ring_text) == PINS[ring_text]
