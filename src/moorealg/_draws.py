"""Seeded random draws: scalars, coefficients, units, series and cochains.

One generator family, shared by the ``selftest`` and
``normalize-cochain`` verbs and by the test suite.  Every draw takes
an explicit ``random.Random``, so a seed fixes the whole sequence.

Over Q the scalars are fractions with numerators in -9..9 and
denominators in 1..9; over F_p and Z/p^K they are uniform residues.
In the graded Laurent modes a coefficient is a sum of one or two
v-monomials v^j, -2 <= j <= 2.
"""

from fractions import Fraction

from .ainfty import HochschildCochain, MultiComponent
from .rings import CoeffRing
from .series import PowerSeries


def rand_scalar(ring: CoeffRing, rng, nonzero=False):
    """A random base-ring scalar (no v)."""
    while True:
        if ring.mode == "Q":
            x = ring.el({0: Fraction(rng.randint(-9, 9), rng.randint(1, 9))})
        elif ring.mode == "Fp":
            x = ring.from_int(rng.randrange(ring.p))
        elif ring.mode == "Zp":
            x = ring.from_int(rng.randrange(ring.p ** ring.K))
        else:
            raise ValueError("no random scalars in polynomial mode")
        if x or not nonzero:
            return x


def rand_elem(ring: CoeffRing, rng, nonzero=False):
    """A random coefficient, using one or two v-monomials in Laurent mode."""
    while True:
        if not ring.laurent:
            x = rand_scalar(ring, rng, nonzero=False)
        else:
            x = ring.zero()
            for _ in range(rng.randint(1, 2)):
                j = rng.randint(-2, 2)
                x = x + ring.vpow(j, 1) * rand_scalar(ring, rng)
        if x or not nonzero:
            return x


def rand_unit(ring: CoeffRing, rng):
    while True:
        if ring.laurent:
            x = ring.vpow(rng.randint(-2, 2), 1) * rand_scalar(ring, rng, nonzero=True)
        else:
            x = rand_scalar(ring, rng, nonzero=True)
        if x.is_unit():
            return x


def rand_series(ring, rng, trunc, ord_min=1, step=1, unit_linear=False, density=0.7):
    """Random truncated series on the exponents ord_min, ord_min + step, ...;
    optionally with a unit linear coefficient."""
    coeffs = {}
    for i in range(ord_min, trunc + 1, step):
        if rng.random() < density:
            coeffs[i] = rand_elem(ring, rng)
    if unit_linear:
        coeffs[1] = rand_unit(ring, rng)
    return PowerSeries(ring, coeffs, trunc)


def rand_cochain(ring, basis, rng, degree, max_arity=3, bound=None, min_slot=0):
    """Random parity-homogeneous cochain.

    Output generators are picked so their suspended parity matches the
    input word parity plus the declared degree; min_slot > 0 keeps the
    unit out of that many leading slots.
    """
    names = basis.names
    comps = {}
    for k in range(max_arity + 1):
        table = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(names) for _ in range(k))
            if basis.UNIT in word[:min(min_slot, k)]:
                continue
            par = (basis.word_sparity(word) + degree) % 2
            targets = [n for n in names if basis.sparity(n) == par]
            if not targets:
                continue
            table.setdefault(word, {})[rng.choice(targets)] = rand_elem(ring, rng)
        comps[k] = MultiComponent(ring, basis, k, degree, table)
    if bound is None:
        bound = max_arity + 2
    return HochschildCochain(ring, basis, degree, comps, bound)
