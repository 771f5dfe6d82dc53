"""Cohomology analyses: closed form, brute force, valuation structure."""

import random

import pytest

from moorealg.errors import (
    FieldRequiredError,
    NoUniformizerError,
    PrecisionError,
    StructureError,
    ZeroDivisorError,
)
from moorealg import hochschild
from moorealg.hochschild import (
    hh_bruteforce,
    hh_closed_form,
    quotient_dims,
    weierstrass_factor,
)
from moorealg.moduli import MooreAlgebra, act
from moorealg.rings import CoeffRing
from moorealg.series import EXACT, PowerSeries, derivative
from util import rand_series

Q = CoeffRing("Q")
F3 = CoeffRing("Fp", 3)
F5 = CoeffRing("Fp", 5)
F7 = CoeffRing("Fp", 7)
F5V = CoeffRing("Fp", 5, laurent=True)
Z53 = CoeffRing("Zp", 5, 3)
Z56 = CoeffRing("Zp", 5, 6)
Z56V = CoeffRing("Zp", 5, 6, laurent=True)
POLY = CoeffRing("Poly", symbols=("a",))


def S(ring, coeffs, trunc):
    out = {}
    for i, c in coeffs.items():
        e = c if not isinstance(c, int) else ring.from_int(c)
        out[i] = e
    return PowerSeries(ring, out, trunc)


def even(ring, coeffs, trunc, d=0):
    return MooreAlgebra.even(S(ring, coeffs, trunc), d)


class TestWeierstrassFactor:
    def test_linear_exact(self):
        f = S(Z56, {0: 5, 1: 1}, EXACT)
        w, r = weierstrass_factor(f)
        assert r == 1
        assert w.coeffs == {0: Z56.from_int(5), 1: Z56.one()}

    def test_unit_cofactor_divides_out(self):
        # (1 + t)(t + 5) = 5 + 6t + t^2
        f = S(Z56, {0: 5, 1: 6, 2: 1}, 10)
        w, r = weierstrass_factor(f)
        assert r == 1
        assert w.coeffs == {0: Z56.from_int(5), 1: Z56.one()}

    def test_already_distinguished(self):
        f = S(Z56, {0: 5, 1: 5, 2: 1}, 10)
        w, r = weierstrass_factor(f)
        assert r == 2
        assert w.coeffs == f.coeffs

    def test_rank_zero(self):
        w, r = weierstrass_factor(S(Z56, {0: 3, 1: 7}, 8))
        assert r == 0
        assert w.coeffs == {0: Z56.one()}

    def test_laurent_frozen(self):
        # 5 + 2v*t = 2v * (t + 5*(2v)^-1), and 5 * 7813 = 7815 mod 5^6
        f = PowerSeries(Z56V, {0: Z56V.from_int(5), 1: Z56V.el({1: 2})}, 11)
        w, r = weierstrass_factor(f)
        assert r == 1
        assert w.coeffs == {0: Z56V.el({-1: 7815}), 1: Z56V.one()}

    def test_exact_product(self):
        # t * (5t + t^2) with both factors exact is exact; a product that
        # lost its EXACT bound made the reciprocal count towards it
        f = S(Z53, {1: 1}, EXACT) * S(Z53, {1: 5, 2: 1}, EXACT)
        w, r = weierstrass_factor(f)
        assert (w, r) == (S(Z53, {3: 1, 2: 5}, EXACT), 3)
        assert w.trunc == EXACT

    def test_mode_gate(self):
        with pytest.raises(NoUniformizerError):
            weierstrass_factor(S(F5, {1: 1}, 8))

    def test_no_unit_in_window(self):
        with pytest.raises(PrecisionError):
            weierstrass_factor(S(Z56, {0: 5, 1: 10}, 6))

    def test_window_too_small(self):
        with pytest.raises(PrecisionError):
            weierstrass_factor(S(Z56, {0: 5, 3: 1}, 3))


class TestClosedForm:
    def test_uniformizer_times_t(self):
        r = hh_closed_form(even(Z56, {1: 5}, 10))
        assert r.torsion == "residue-algebra"
        assert r.rank is None
        assert r.quotient == "(R/p)[[t]]"
        assert r.mod_p_height is None
        assert not r.discrepancy
        assert r.to_json()["rank"] == "infinity"

    def test_frobenius_shape_residue(self):
        # unit slots only at exponents divisible by p
        r = hh_closed_form(even(Z56, {1: 5, 2: 10, 5: 1}, 12))
        assert r.torsion == "residue-algebra"
        assert r.mod_p_height == 5

    def test_golden_rank_one(self):
        M = even(Z56V, {1: 5, 2: Z56V.el({1: 1})}, 12)
        r = hh_closed_form(M)
        assert r.torsion == "torsion-free"
        assert r.rank == 1
        assert r.ramification_index == 1
        assert r.eisenstein.coeffs == {0: Z56V.el({-1: 7815}), 1: Z56V.one()}
        assert r.mod_p_height == 2
        assert r.discrepancy

    def test_contractible(self):
        r = hh_closed_form(even(Z56, {1: 1, 2: 3}, 10))
        assert r.rank == 0
        assert r.quotient == "0"
        assert r.torsion == "torsion-free"
        assert r.ramification_index is None
        assert r.mod_p_height is None

    def test_rank_equals_height_off_the_tame_locus(self):
        # first unit slot at p itself: factor degree 5 = height, no flag
        r = hh_closed_form(even(Z56, {1: 5, 5: 1, 6: 1}, 12))
        assert r.rank == 5
        assert r.mod_p_height == 5
        assert not r.discrepancy

    def test_field_collapses(self):
        r = hh_closed_form(even(Q, {1: 1, 3: 2}, 10))
        assert r.rank == 0
        assert r.torsion == "not-applicable"
        r = hh_closed_form(even(F7, {1: 3}, 8))
        assert r.rank == 0

    def test_zero_divisor_gates(self):
        with pytest.raises(ZeroDivisorError):
            hh_closed_form(even(Q, {2: 1}, 8))
        with pytest.raises(ZeroDivisorError):
            hh_closed_form(even(Z56, {2: 1}, 8))

    def test_unknown_linear_coefficient_is_not_read_as_zero(self):
        # at trunc 0 nothing is known about u_1, so neither gate may pass
        for ring in (F5, Z56):
            with pytest.raises(PrecisionError):
                hh_closed_form(even(ring, {}, 0))
        # the ring is checked before the coefficient is read
        with pytest.raises(FieldRequiredError):
            hh_closed_form(even(POLY, {}, 0))

    def test_odd_rejected(self):
        sq = PowerSeries(F5, {2: F5.one()}, 8)
        M = MooreAlgebra.odd(sq, sq)
        with pytest.raises(StructureError):
            hh_closed_form(M)

    def test_poly_mode_rejected(self):
        with pytest.raises(FieldRequiredError):
            hh_closed_form(even(POLY, {1: POLY.one()}, 8))


class TestStructure:
    def test_family_flags(self):
        # leading slot v^n t^n: computed degree n-1 against height n
        for n in (2, 3, 4):
            M = even(Z56V, {1: 5, n: Z56V.el({n: 1})}, 12)
            r = hh_closed_form(M)
            assert r.rank == n - 1
            assert r.mod_p_height == n
            assert r.discrepancy
            assert r.torsion == "torsion-free"

    def test_golden_eisenstein_degree_two(self):
        # u' = 5 + 3v^3 t^2; 5 * inverse(3) = 5210 mod 5^6
        M = even(Z56V, {1: 5, 3: Z56V.el({3: 1})}, 12)
        r = hh_closed_form(M)
        assert r.eisenstein.coeffs == {0: Z56V.el({-3: 5210}), 2: Z56V.one()}

    def test_residue_branch(self):
        r = hh_closed_form(even(Z56, {1: 5}, 10))
        assert r.torsion == "residue-algebra"
        assert not r.discrepancy


class TestBruteforce:
    def test_t_squared(self):
        assert hh_bruteforce(even(F5, {2: 1}, 10), 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_derivative_vanishes(self):
        assert hh_bruteforce(even(F3, {3: 1}, 10), 6) == [1] * 7
        assert hh_bruteforce(even(F5, {5: 1, 10: 2}, 12), 6) == [1] * 7

    def test_laurent_graded_field(self):
        M = even(F5V, {2: F5V.el({1: 1})}, 10)
        assert hh_bruteforce(M, 5) == [1, 0, 0, 0, 0, 0]

    def test_matches_quotient_oracle(self):
        rng = random.Random(61)
        for ring in (F5, F7):
            for _ in range(10):
                u = rand_series(ring, rng, 8, density=0.5)
                if not u.coeffs:
                    continue
                M = MooreAlgebra.even(u)
                assert hh_bruteforce(M, 6) == quotient_dims(u, 6)

    def test_never_reads_the_series_derivative(self, monkeypatch):
        # the complex is built on words, so it cannot inherit a fault of
        # the series derivative that the quotient by u' is read from
        cases = [
            (even(F5, {2: 1, 3: 1}, 10), 6),
            (even(F5, {5: 1, 10: 2}, 12), 6),
            (even(Q, {1: 1, 4: 3}, 8, d=2), 5),
        ]
        want = [quotient_dims(M.u, n) for M, n in cases]

        def refuse(f):
            raise AssertionError("the brute-force route read u'")

        monkeypatch.setattr(hochschild, "derivative", refuse)
        assert [hh_bruteforce(M, n) for M, n in cases] == want

    def test_precision_boundary(self):
        for maxdeg in (0, 3, 6):
            with pytest.raises(PrecisionError):
                hh_bruteforce(even(F7, {3: 1}, maxdeg), maxdeg)
            dims = hh_bruteforce(even(F7, {3: 1}, maxdeg + 1), maxdeg)
            assert dims == [1, 1, 0, 0, 0, 0, 0][: maxdeg + 1]

    def test_cell_degree_two(self):
        for ring, coeffs in ((F5, {2: 1, 3: 1}), (Q, {3: 2, 4: 1}), (F3, {3: 1})):
            M0, M2 = even(ring, coeffs, 10), even(ring, coeffs, 10, d=2)
            assert hh_bruteforce(M2, 6) == hh_bruteforce(M0, 6)
            assert hh_bruteforce(M2, 6) == quotient_dims(M2.u, 6)
        assert hh_bruteforce(even(Q, {3: 2, 4: 1}, 10, d=2), 4) == [1, 1, 0, 0, 0]

    def test_graded_field_two_v_powers(self):
        # u = v^2 t^5 + 3 v t^7: the t^5 term dies in u' over F5, so u'
        # starts with 21 v t^6 = v t^6
        M = even(F5V, {5: F5V.el({2: 1}), 7: F5V.el({1: 3})}, 10)
        assert hh_bruteforce(M, 8) == [1] * 6 + [0] * 3
        assert hh_bruteforce(M, 8) == quotient_dims(M.u, 8)

    def test_gates(self):
        with pytest.raises(FieldRequiredError):
            hh_bruteforce(even(Z56, {2: 1}, 10), 4)
        with pytest.raises(StructureError):
            hh_bruteforce(even(F5, {2: 1}, 10), -1)
        with pytest.raises(PrecisionError):
            hh_bruteforce(even(F5, {2: 1}, 4), 6)


class TestOrbitStability:
    def test_dvr_invariants_stable(self):
        rng = random.Random(71)
        base = [
            even(Z56, {1: 5}, 10),
            even(Z56, {1: 5, 2: 5, 3: 1, 4: 1}, 10),
            even(Z56V, {1: 5, 2: Z56V.el({1: 1})}, 10),
        ]
        for M in base:
            r0 = hh_closed_form(M)
            sig0 = (r0.rank, r0.torsion, r0.mod_p_height, r0.discrepancy)
            for _ in range(4):
                if M.u.ring.laurent:
                    f = PowerSeries(
                        M.u.ring,
                        {1: M.u.ring.one(), 2: M.u.ring.el({1: rng.randrange(1, 5)})},
                        10,
                    )
                else:
                    f = rand_series(Z56, rng, 10, unit_linear=True)
                r1 = hh_closed_form(act(M, f))
                assert (r1.rank, r1.torsion, r1.mod_p_height, r1.discrepancy) == sig0

    def test_residue_criterion_is_intrinsic(self):
        # the derivative test and the exponent-shape test agree on randoms
        rng = random.Random(72)
        for _ in range(40):
            u = rand_series(Z56, rng, 9, density=0.6)
            coeffs = dict(u.coeffs)
            coeffs[1] = Z56.from_int(5 * rng.choice([1, 2, 3, 4, 6, 7]))
            u = PowerSeries(Z56, coeffs, 9)
            up = derivative(u)
            kills = all(c.valuation() >= 1 for c in up.coeffs.values())
            shape = all(
                i % 5 == 0 for i, c in u.coeffs.items() if c.valuation() == 0
            )
            assert kills == shape
            r = hh_closed_form(MooreAlgebra.even(u))
            assert (r.torsion == "residue-algebra") == kills
