"""Golden pin of the bar-side cochain layer.

Each case draws seeded cochains against the dual of an even Moore
structure and hashes what the cochain layer computes from them: the
normalized cochain and its witness, the Hochschild differential, the
structure itself and the Stasheff defects of it and of a tampered copy.
A cochain is serialized as its basis, degree and arity bound plus the
sorted (word, output, coefficient) entries, the coefficient through
`format_elem`, so the pin reads values only and not how a cochain
stores them.
"""

import hashlib
import random

import pytest

from moorealg._draws import rand_cochain
from moorealg.ainfty import (
    GradedBasis,
    dualize,
    hochschild_differential,
    normalize_cochain,
    stasheff_defect,
)
from moorealg.moduli import MooreAlgebra
from moorealg.noncomm import Derivation, NCSeries, moore_mstar
from moorealg.rings import format_elem, parse_ring
from moorealg.series import parse_series

PINS = {
    ("Q", 0): "16ad25da95b02ef0",
    ("Q", 2): "bb203dce58fb6cc5",
    ("F5", 0): "4c89b7d2c4fe53b3",
    ("F5", 2): "09f56d4fa7a13826",
    ("Zp:5:3", 0): "90be566af66e86dc",
    ("Zp:5:3", 2): "03613d99a4237858",
    ("F3[v]", 0): "e7440688df27af8c",
    ("F3[v]", 2): "00d1a77357e7dd3f",
}


def _entries(c):
    """Sorted (word, output, coefficient text) triples of a cochain."""
    table = getattr(c, "table", None)
    if table is None:  # stored as one table per arity
        table = {}
        for k in range(c.max_arity() + 1):
            table.update(c.component(k).table)
    return sorted(
        (word, out, format_elem(x)) for word, vec in table.items() for out, x in vec.items()
    )


def _serial(c):
    return (c.basis.generators, c.degree, c.arity_bound, _entries(c))


def _digest(ring_text, d):
    ring = parse_ring(ring_text)
    basis = GradedBasis.two_cell(d)
    u = parse_series(ring, "t^2 + 2*t^3", 8)
    xi = moore_mstar(MooreAlgebra.even(u, d))
    m = dualize(xi, basis)
    extra = NCSeries(ring, xi.grading, {"Ttt": 1}, 8)
    tampered = dualize(Derivation(xi.onTau, xi.onT + extra, 1), basis)
    parts = [_serial(m), stasheff_defect(m), stasheff_defect(tampered)]
    for seed in range(4):
        for degree in (0, 1, 2):
            for max_arity in (2, 3):
                c = rand_cochain(ring, basis, random.Random(seed), degree, max_arity)
                norm, witness = normalize_cochain(c, m)
                parts += [_serial(norm), _serial(witness)]
                parts.append(_serial(hochschild_differential(c, m)))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("ring_text, d", sorted(PINS))
def test_cochain_layer_matches_pin(ring_text, d):
    assert _digest(ring_text, d) == PINS[ring_text, d]


def test_tampered_structure_has_a_defect():
    # the pin would not see a defect that is always None
    ring = parse_ring("Q")
    xi = moore_mstar(MooreAlgebra.even(parse_series(ring, "t^2 + 2*t^3", 8), 0))
    extra = NCSeries(ring, xi.grading, {"Ttt": 1}, 8)
    tampered = dualize(Derivation(xi.onTau, xi.onT + extra, 1), GradedBasis.two_cell(0))
    assert stasheff_defect(tampered) == (4, ("y", "y", "1", "1"))
