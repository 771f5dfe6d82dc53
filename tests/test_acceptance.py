"""Full-system acceptance gate.

One test per shipped guarantee, numbered; every test prints its own
PASS/FAIL line so a verbose run reads as a checklist.  All equalities
are exact; nothing here tolerates an epsilon.
"""

import random
import time

from moorealg.ainfty import (
    GradedBasis,
    dualize,
    dualize_back,
    hochschild_differential,
    is_normalized,
    normalize_cochain,
)
from moorealg.errors import WildCaseError
from moorealg.hochschild import hh_bruteforce, hh_closed_form, quotient_dims
from moorealg.moduli import (
    MooreAlgebra,
    act,
    act_full,
    canonicalize_char0,
    canonicalize_dvr,
    orbit_invariant_char0,
)
from moorealg.noncomm import (
    GradingContext,
    check_square_zero,
    conjugate,
    moore_mstar,
    normalized_endo,
)
from moorealg.rings import CoeffRing
from moorealg.series import (
    EXACT,
    PowerSeries,
    compose,
    is_canonical,
    ps_t,
    reversion,
)
from util import (
    agree_cochain,
    agree_derivation,
    h_op,
    is_trivial,
    rand_cochain,
    rand_series,
)

Q = CoeffRing("Q")
F5 = CoeffRing("Fp", 5)
F7 = CoeffRing("Fp", 7)
F5V = CoeffRing("Fp", 5, laurent=True)
Z56 = CoeffRing("Zp", 5, 6)
Z56V = CoeffRing("Zp", 5, 6, laurent=True)


class _gate:
    """Prints the checklist line no matter how the body exits."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.label}): {verdict}")
        return False


def test_criterion_01_universal_even_square_zero():
    with _gate(1, "universal even square-zero, formal u1..u8, word length 10"):
        start = time.monotonic()
        ring = CoeffRing("Poly", symbols=tuple(f"u{i}" for i in range(1, 9)))
        u = PowerSeries(ring, {i: ring.sym(f"u{i}") for i in range(1, 9)}, EXACT)
        xi = moore_mstar(MooreAlgebra.even(u, 0))
        ok, witness = check_square_zero(xi, maxlen=10)
        assert ok and witness is None
        assert time.monotonic() - start < 60.0


def test_criterion_02_universal_odd_square_zero():
    with _gate(2, "universal odd square-zero, formal v1..v4 w1..w4, word length 10"):
        names = tuple(f"v{i}" for i in range(1, 5)) + tuple(
            f"w{i}" for i in range(1, 5)
        )
        ring = CoeffRing("Poly", symbols=names)
        v = PowerSeries(ring, {2 * i: ring.sym(f"v{i}") for i in range(1, 5)}, EXACT)
        w = PowerSeries(ring, {2 * i: ring.sym(f"w{i}") for i in range(1, 5)}, EXACT)
        xi = moore_mstar(MooreAlgebra.odd(v, w, 1))
        ok, witness = check_square_zero(xi, maxlen=10)
        assert ok and witness is None


def test_criterion_03_action_formula_vs_conjugation():
    with _gate(3, "coefficient action formula = conjugation, 50 tuples over F7"):
        rng = random.Random(3001)
        odd = GradingContext(1)
        for _ in range(50):
            A = rand_series(F7, rng, 8, ord_min=2, step=2, density=0.6)
            B = rand_series(F7, rng, 8, ord_min=2, step=2, density=0.6)
            G = rand_series(F7, rng, 8, step=2, density=0.6)
            F = rand_series(F7, rng, 8, step=2, unit_linear=True, density=0.6)
            Ap, Bp = act_full(A, B, G, F)
            got = conjugate(
                normalized_endo(odd, G, F),
                moore_mstar(MooreAlgebra.odd(v=B, w=A)),
            )
            want = moore_mstar(MooreAlgebra.odd(v=Bp, w=Ap))
            assert min(got.onTau.maxlen, got.onT.maxlen) >= 8
            assert agree_derivation(got, want)


def _rand_q_with_height(rng, n, trunc):
    coeffs = {n: Q.from_int(rng.choice((1, 2, 3, -1, -2, 5)))}
    for i in range(n + 1, trunc + 1):
        if rng.random() < 0.6:
            c = rng.randrange(-4, 5)
            if c:
                coeffs[i] = Q.from_int(c)
    return PowerSeries(Q, coeffs, trunc)


def test_criterion_04_char0_canonical_forms():
    with _gate(4, "char-0 canonicalization and orbit invariant, 30 random u over Q"):
        rng = random.Random(3002)
        for j in range(30):
            n = 2 + j % 4
            u = _rand_q_with_height(rng, n, 10)
            cf = canonicalize_char0(u)
            assert cf.n == n
            lead = u.coeffs[n]
            assert cf.form.coeffs == {n: lead}
            assert compose(u, cf.witness).coeffs == {n: lead}
            M = MooreAlgebra.even(u)
            inv = orbit_invariant_char0(M)
            for _ in range(5):
                f = rand_series(Q, rng, 10, unit_linear=True)
                assert orbit_invariant_char0(act(M, f)) == inv


def _rand_z56_tame(rng, trunc):
    # u1 = 5 exactly; resample until the anchor degree is prime to 5
    while True:
        coeffs = {1: Z56.from_int(5)}
        for i in range(2, trunc + 1):
            if rng.random() < 0.6:
                c = rng.randrange(5**6)
                if c:
                    coeffs[i] = Z56.from_int(c)
        u = PowerSeries(Z56, coeffs, trunc)
        try:
            return u, canonicalize_dvr(u)
        except WildCaseError:
            continue


def test_criterion_05_dvr_canonical_forms():
    with _gate(5, "valuation-ring canonicalization, 30 random u over Z/5^6"):
        rng = random.Random(3003)
        for _ in range(30):
            u, cf = _rand_z56_tame(rng, 10)
            assert cf.kind in ("trivial", "canonical")
            if cf.kind == "trivial":
                assert is_trivial(cf.form)
            else:
                assert is_canonical(cf.form) == (True, cf.n)
            assert compose(u, cf.witness).coeffs == cf.form.coeffs
            again = canonicalize_dvr(cf.form)
            assert again.kind == cf.kind and again.form.coeffs == cf.form.coeffs
            for _ in range(5):
                f = rand_series(Z56, rng, 10, unit_linear=True)
                moved = canonicalize_dvr(compose(u, f))
                assert moved.kind == cf.kind
                assert moved.form.coeffs == cf.form.coeffs


def test_criterion_06_brute_force_matches_quotient():
    with _gate(6, "brute-force cohomology dims = quotient by u', 20 random u"):
        rng = random.Random(3004)
        for ring in (F5, F7):
            for _ in range(10):
                u = rand_series(ring, rng, 8)
                M = MooreAlgebra.even(u)
                assert hh_bruteforce(M, 6) == quotient_dims(u, 6)


def test_criterion_07_golden_family():
    with _gate(7, "golden family over Z/5^6[v]: branches, ranks, discrepancy flag"):
        # u = 5t: the residue branch, infinite rank over the residue field
        u0 = PowerSeries(Z56V, {1: Z56V.from_int(5)}, 12)
        rep0 = hh_closed_form(MooreAlgebra.even(u0))
        assert rep0.torsion == "residue-algebra"
        assert rep0.rank is None
        assert rep0.quotient == "(R/p)[[t]]"
        res = PowerSeries(
            F5V,
            {i: Z56V.residue(c) for i, c in u0.coeffs.items() if Z56V.residue(c)},
            12,
        )
        assert hh_bruteforce(MooreAlgebra.even(res), 4) == [1, 1, 1, 1, 1]
        # u = 5t + v t^2: free of rank 1
        u1 = PowerSeries(Z56V, {1: Z56V.from_int(5), 2: Z56V.vpow(1)}, 12)
        rep1 = hh_closed_form(MooreAlgebra.even(u1))
        assert rep1.torsion == "torsion-free"
        assert rep1.rank == 1
        # u = 5t + v^n t^n: computed rank n-1, residue height n, flag SET
        for n in (2, 3, 4, 6):
            un = PowerSeries(
                Z56V, {1: Z56V.from_int(5), n: Z56V.vpow(n)}, 12
            )
            rep = hh_closed_form(MooreAlgebra.even(un))
            assert rep.rank == n - 1
            assert rep.mod_p_height == n
            assert rep.discrepancy is True


def test_criterion_08_normalization_retraction():
    with _gate(8, "normalization retraction, 20 random cochains of arity <= 4"):
        rng = random.Random(3005)
        basis = GradedBasis.two_cell(0)
        u = PowerSeries(F5, {1: F5.from_int(1), 3: F5.from_int(2)}, 8)
        m = dualize(moore_mstar(MooreAlgebra.even(u)), basis)
        for j in range(20):
            c = rand_cochain(F5, basis, rng, j % 3, max_arity=4, bound=6)
            # stepwise: slot i clears and stays cleared
            cur = c
            for i in range(3):
                assert is_normalized(cur, upto=i)
                cur = h_op(i, cur, m)
                assert is_normalized(cur, upto=i + 1)
            # each step commutes with the differential
            for i in (0, 1):
                lhs = hochschild_differential(h_op(i, c, m), m)
                rhs = h_op(i, hochschild_differential(c, m), m)
                assert agree_cochain(lhs, rhs)
            # and the full composite lands in normalized cochains
            norm, _ = normalize_cochain(c, m)
            assert is_normalized(norm)


def test_criterion_09_bar_cobar_round_trip():
    with _gate(9, "dualize / dualize-back round trip, 20 random structures"):
        rng = random.Random(3006)
        for j in range(10):
            ring = F5 if j % 2 else Q
            u = rand_series(ring, rng, 8)
            M = MooreAlgebra.even(u, 0)
            xi = moore_mstar(M)
            back = dualize_back(dualize(xi, GradedBasis.two_cell(0)))
            assert agree_derivation(back, xi, upto=8)
        for j in range(10):
            ring = F5 if j % 2 else Q
            v = rand_series(ring, rng, 8, ord_min=2, step=2, density=0.6)
            w = rand_series(ring, rng, 8, ord_min=2, step=2, density=0.6)
            M = MooreAlgebra.odd(v, w, 1)
            xi = moore_mstar(M)
            back = dualize_back(dualize(xi, GradedBasis.two_cell(1)))
            assert agree_derivation(back, xi, upto=8)


def test_criterion_10_reversion_round_trip():
    with _gate(10, "reversion round trip, 50 random unit-linear series"):
        rng = random.Random(3007)
        for ring in (Q, F7):
            for _ in range(25):
                f = rand_series(ring, rng, 12, unit_linear=True)
                assert compose(f, reversion(f)) == ps_t(ring, 12)
