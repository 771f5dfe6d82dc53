"""Power series arithmetic: pinned examples and structural properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moorealg.series as series
from moorealg.errors import (
    CompositionError,
    HeightUndefinedError,
    InternalError,
    MooreError,
    NotAUnitError,
    NotInvertibleError,
    ParseError,
    PrecisionError,
)
from moorealg.rings import CoeffRing, parse_ring
from moorealg.series import (
    EXACT,
    PowerSeries,
    compose,
    derivative,
    format_series,
    height,
    is_canonical,
    parse_series,
    ps_t,
    reciprocal,
    reversion,
    super_derivative,
    weierstrass_rank,
)

from util import (
    agree,
    check_bound,
    compose_by_powers,
    ext,
    is_trivial,
    mul_by_terms,
    parse_elem,
    rand_coeff,
    rand_elem,
    rand_series,
    rand_unit,
    reciprocal_by_solving,
    reversion_by_coefficients,
    series_from_json,
    series_to_json,
    times,
)

Q = CoeffRing("Q")
F5 = CoeffRing("Fp", p=5)
F7 = CoeffRing("Fp", p=7)
Z53 = CoeffRing("Zp", p=5, K=3)
Z56 = CoeffRing("Zp", p=5, K=6)
Z56V = CoeffRing("Zp", p=5, K=6, laurent=True)
F11 = CoeffRing("Fp", p=11)
Z34V = CoeffRing("Zp", p=3, K=4, laurent=True)
F5V = CoeffRing("Fp", p=5, laurent=True)
QV = CoeffRing("Q", laurent=True)
POLY = CoeffRing("Poly", symbols=("a", "b"))


def qs(text, trunc=8):
    return parse_series(Q, text, trunc)


class TestPinnedValues:
    def test_compose_example(self):
        f = qs("t^2 + t^3", 4)
        g = qs("t - 1/2*t^2", 4)
        out = compose(f, g)
        assert out.trunc == 4
        assert out == parse_series(Q, "t^2 - 5/4*t^4", 4)

    def test_reversion_example(self):
        f = qs("t + t^2", 4)
        g = reversion(f)
        assert g == parse_series(Q, "t - t^2 + 2*t^3 - 5*t^4", 4)

    def test_derivative_example(self):
        u = parse_series(Z56V, "5*t + v*t^2", 8)
        assert derivative(u) == parse_series(Z56V, "5 + 2*v*t", 7)

    def test_height_example(self):
        u = parse_series(F5, "5*t + t^2", 8)
        assert height(u) == 2

    def test_trivial_canonical_predicates(self):
        t1 = parse_series(Z56, "5*t", 8)
        c1 = parse_series(Z56, "5*t + t^2", 8)
        n1 = parse_series(Z56, "5*t + t^2 + t^3", 8)
        assert is_trivial(t1) and not is_trivial(c1)
        assert is_canonical(c1) == (True, 2)
        assert is_canonical(t1) == (False, None)
        assert is_canonical(n1) == (False, None)
        assert not is_trivial(n1)

    def test_weierstrass_rank_examples(self):
        assert weierstrass_rank(parse_series(Z56V, "5 + 2*v*t", 8)) == 1
        assert weierstrass_rank(parse_series(Z56V, "1", 8)) == 0
        # derivative of 5t + v^3 t^3: first unit coefficient sits at degree 2
        assert weierstrass_rank(parse_series(Z56V, "5 + 3*v^3*t^2", 8)) == 2
        with pytest.raises(PrecisionError):
            weierstrass_rank(parse_series(Z56, "5 + 25*t", 8))
        # exact: no coefficient will ever be a unit, and the message says so
        # without printing the EXACT sentinel
        with pytest.raises(NotAUnitError) as err:
            weierstrass_rank(parse_series(Z56, "5 + 25*t", EXACT))
        assert str(EXACT) not in str(err.value)

    def test_super_derivative(self):
        f = qs("t^2 + t^3 + 4*t^5", 8)
        assert super_derivative(f) == qs("t^2 + 4*t^4", 7)


class TestTruncationDiscipline:
    def test_mul_gains_from_orders(self):
        a = qs("t^2", 5)
        b = qs("t^3", 5)
        assert (a * b).trunc == 7  # min(5+3, 5+2)

    def test_mul_with_known_zero(self):
        z = PowerSeries(Q, {}, 5)
        a = qs("1 + t", 5)
        assert (z * a).trunc == 5 + 0  # order of a is 0
        assert (z * a).is_zero()

    def test_compose_keeps_linear_trunc(self):
        f = qs("t + t^2", 6)
        g = qs("t + t^3", 6)
        assert compose(f, g).trunc == 6

    def test_compose_stretches_with_inner_order(self):
        f = qs("t + t^2", 3)
        g = qs("t^2", 9)
        # errors in f enter at (3+1)*2 - 1 = 7; in g at (1-1)*2 + 9 = 9
        assert compose(f, g).trunc == 7

    def test_exact_product_stays_exact(self):
        t = PowerSeries(Z53, {1: 1}, EXACT)
        g = parse_series(Z53, "5*t + t^2", EXACT)
        assert (t * g).trunc == EXACT
        assert repr(t * g) == "<5*t^2 + t^3 + O(t^EXACT) : Zp:5:3>"

    def test_compose_needs_zero_constant(self):
        with pytest.raises(CompositionError):
            compose(qs("t"), qs("1 + t"))

    def test_coeff_beyond_truncation_raises(self):
        with pytest.raises(PrecisionError):
            qs("t", 3).coeff(4)


def _ord(f):
    return min(f.coeffs) if f.coeffs else ext(f.trunc) + 1


def _rand_bounded(rng, ord_min):
    """A random F7 series, zero about a third of the time, EXACT half of the time.

    Finite bounds run from -1 (nothing known) to 6.
    """
    f = rand_series(F7, rng, rng.randint(-1, 6), ord_min, density=rng.choice((0, 0.5, 0.9)))
    return PowerSeries(F7, f.coeffs, EXACT) if rng.random() < 0.5 else f


class TestPrecisionModel:
    """Exact inputs give exact results; otherwise the module docstring's formulas."""

    def test_add_and_mul(self):
        rng = random.Random(51)
        for _ in range(200):
            a, b = _rand_bounded(rng, 0), _rand_bounded(rng, 0)
            na, nb = ext(a.trunc), ext(b.trunc)
            check_bound((a + b).trunc, min(na, nb), a.trunc, b.trunc)
            check_bound(
                (a * b).trunc, min(na + _ord(b), nb + _ord(a)), a.trunc, b.trunc
            )

    def test_compose(self):
        rng = random.Random(52)
        for _ in range(200):
            f, g = _rand_bounded(rng, 0), _rand_bounded(rng, 1)
            og = _ord(g)
            want = min(
                times(ext(f.trunc) + 1, og) - 1,
                times(max(_ord(f), 1) - 1, og) + ext(g.trunc),
            )
            check_bound(compose(f, g).trunc, want, f.trunc, g.trunc)

    def test_derivative_and_shift(self):
        rng = random.Random(53)
        for _ in range(200):
            f = _rand_bounded(rng, 0)
            n = ext(f.trunc)
            check_bound(derivative(f).trunc, n - 1, f.trunc)
            check_bound(super_derivative(f).trunc, n - 1, f.trunc)
            k = rng.randint(0, 3)
            check_bound(f.shifted(k).trunc, n + k, f.trunc)

    def test_constructor_clamps(self):
        assert PowerSeries(F7, {1: 1}, EXACT + 5).trunc == EXACT
        assert PowerSeries(F7, {}, EXACT).order() == EXACT
        nothing = PowerSeries(F7, {0: 1, 1: 1}, -5)
        assert nothing.trunc == -1 and nothing.is_zero()
        assert nothing.order() == 0
        with pytest.raises(PrecisionError):
            nothing.coeff(0)

    def test_derivative_below_trunc_one_knows_nothing(self):
        # the constant term of f' is f_1, which trunc 0 does not know
        assert derivative(qs("t", 1)) == qs("1", 0)
        assert derivative(qs("t", 0)) == PowerSeries(Q, {}, -1)
        assert super_derivative(qs("t", 0)) == PowerSeries(Q, {}, -1)


class TestReversion:
    def test_failed_check_names_the_series(self, monkeypatch):
        real = series.compose

        def off_by_a_constant(f, g):
            out = real(f, g)
            return out + PowerSeries(out.ring, {0: 1}, out.trunc)

        monkeypatch.setattr(series, "compose", off_by_a_constant)
        with pytest.raises(InternalError) as ei:
            reversion(qs("t + t^2", 4))
        assert "f = t + t^2" in str(ei.value)

    def test_linear_unit_required(self):
        with pytest.raises(NotInvertibleError):
            reversion(qs("t^2"))
        with pytest.raises(NotInvertibleError):
            reversion(parse_series(Z56, "5*t + t^2", 6))

    def test_unknown_linear_coefficient_is_not_read_as_zero(self):
        for trunc in (0, -1):
            with pytest.raises(PrecisionError):
                reversion(qs("t", trunc))
        with pytest.raises(PrecisionError):
            reciprocal(qs("1", -1))

    def test_round_trip_both_ways(self):
        rng = random.Random(11)
        for ring in (Q, F7):
            for _ in range(10):
                f = rand_series(ring, rng, trunc=9, unit_linear=True)
                g = reversion(f)
                assert agree(compose(f, g), ps_t(ring, 9))
                assert agree(compose(g, f), ps_t(ring, 9))
        rng = random.Random(64)
        for spec in ("Q", "F7", "F2305843009213693951", "Zp:5:3"):
            ring = parse_ring(spec)
            f = rand_series(ring, rng, trunc=64, unit_linear=True)
            g = reversion(f)
            assert g.trunc == 64
            assert agree(compose(f, g), ps_t(ring, 64))
            assert agree(compose(g, f), ps_t(ring, 64))

    def test_matches_coefficient_by_coefficient_oracle(self):
        rng = random.Random(41)
        for ring in (Q, F7, F11, Z56, Z34V, F5V):
            for n in (1, 2, 3, 5, 8, 12, 16, 24):
                corpus = (
                    rand_series(ring, rng, n, unit_linear=True, density=0.2),
                    rand_series(ring, rng, n, unit_linear=True, density=1.0),
                    PowerSeries(ring, {1: rand_unit(ring, rng)}, n),
                )
                for f in corpus:
                    got, want = reversion(f), reversion_by_coefficients(f)
                    assert got.trunc == want.trunc == n
                    assert got.coeffs == want.coeffs, format_series(f)

    def test_rescaled_inputs_match_the_oracle(self):
        # reversion solves f(s/f_1), or over Q the integer series
        # (D/F_1^2)*f(F_1*s) with F = D*f: leads of either sign, integral
        # or not, sharing primes with D or not; the shortest truncations;
        # a gap after the linear term; unit leads other than 1 over Z/p^K;
        # and a constant unit lead in the polynomial mode
        a, b = POLY.sym("a"), POLY.sym("b")
        cases = [
            parse_series(Q, f"{lead}*t + {tail}", 9)
            for lead in ("-3/2", "-2/9", "5/6", "-1", "7")
            for tail in ("1/4*t^2 - 5/3*t^4", "1/27*t^5 - 9/8*t^3 - t^7", "3*t^2 + 2/9*t^3")
        ]
        for ring, text in ((Q, "-3/2*t + 2/5*t^2"), (F7, "3*t + 5*t^2"),
                           (Z53, "7*t + 40*t^2"), (F5V, "2*v*t + v^3*t^2")):
            cases += [parse_series(ring, text, n) for n in (1, 2)]
        cases += [parse_series(ring, "2*t + t^4 - 3*t^5 + t^9", 12) for ring in (Q, F7, Z53, Z34V)]
        cases += [parse_series(Z53, f"{lead}*t + 5*t^2 + 31*t^3 + 100*t^5", 10)
                  for lead in (2, 7, 124, 51)]
        cases.append(PowerSeries(POLY, {1: POLY.from_int(-3), 2: a,
                                        3: a * b - POLY.from_int(2), 5: b * b}, 6))
        for f in cases:
            got, want = reversion(f), reversion_by_coefficients(f)
            assert got.trunc == want.trunc == f.trunc
            assert got.coeffs == want.coeffs, (f.ring.spec(), format_series(f))
            if f.ring == Q:
                # the integer solve lifts to Fractions, not ints
                assert all(type(c.terms[0]) is Fraction for c in got.coeffs.values())

    @pytest.mark.parametrize(
        "f",
        [
            parse_series(Q, "1 + t + t^2", 5),
            parse_series(Q, "t^2 + t^3", 5),
            parse_series(Q, "t + t^2", 0),
            parse_series(Z56, "5*t + t^2", 6),
            parse_series(F5V, "(1 + v)*t + t^3", 6),
            parse_series(Z34V, "3*v*t + t^2", 6),
            parse_series(Q, "t + t^2", EXACT),
            parse_series(F7, "3*t", EXACT),
        ],
    )
    def test_bad_inputs_raise_as_the_oracle_does(self, f):
        with pytest.raises(Exception) as want:
            reversion_by_coefficients(f)
        with pytest.raises(Exception) as got:
            reversion(f)
        assert type(got.value) is type(want.value)


class TestComposeOracle:
    """compose against the power-by-power oracle in tests/util.py."""

    @staticmethod
    def _elem(ring, rng, nonzero=False):
        """rand_elem, and over the polynomial mode util.rand_coeff."""
        if ring.mode != "Poly":
            return rand_elem(ring, rng, nonzero=nonzero)
        while True:
            x = rand_coeff(ring, rng)
            if x or not nonzero:
                return x

    @classmethod
    def _series(cls, ring, rng, n, ord_min=1, unit_linear=False, density=0.7):
        """rand_series, and over the polynomial mode a series of rand_coeff draws."""
        if ring.mode != "Poly":
            return rand_series(ring, rng, n, ord_min=ord_min, unit_linear=unit_linear, density=density)
        coeffs = {i: cls._elem(ring, rng) for i in range(ord_min, n + 1) if rng.random() < density}
        if unit_linear:
            coeffs[1] = ring.from_int(rng.choice((-2, -1, 1, 3)))
        return PowerSeries(ring, coeffs, n)

    @classmethod
    def _substitutions(cls, ring, rng, n):
        one = ring.one()
        s = rng.randint(2, max(2, n))
        # t + a*t^r takes compose's binomial pass on the plain rings: a with
        # a denominator and a sign over Q, a non-unit over Z/p^K
        if ring.mode == "Q":
            a = ring.from_int(Fraction(-7, 3))
        elif ring.mode == "Zp":
            a = ring.from_int(ring.p * rng.randrange(1, ring.p))
        else:
            a = cls._elem(ring, rng, nonzero=True)
        # c*t takes compose's scaling pass on the plain rings: c = a as
        # above, and a unit other than one
        if ring.mode == "Zp":
            unit = ring.from_int(rng.randrange(2, ring.p) + ring.p * rng.randrange(ring.p ** (ring.K - 1)))
        else:
            unit = ring.from_int(-2)
        return (
            PowerSeries(ring, {1: one, s: cls._elem(ring, rng, nonzero=True)}, n),
            PowerSeries(ring, {1: one, s: cls._elem(ring, rng)}, EXACT),
            cls._series(ring, rng, n, density=1.0),
            cls._series(ring, rng, n, unit_linear=True, density=1.0),
            PowerSeries(ring, {1: one, 2: one, 3: cls._elem(ring, rng), 5: one}, n),
            PowerSeries(ring, {2: one, 3: one, 4: cls._elem(ring, rng)}, EXACT),
            cls._series(ring, rng, n, ord_min=max(1, n - 1)),
            PowerSeries(ring, {}, n),
            PowerSeries(ring, {1: one, s: a}, EXACT),
            PowerSeries(ring, {1: one, rng.randint(2, 4): a}, n + 3),
            PowerSeries(ring, {1: one, n + 2: a}, EXACT),  # r past the bound
            PowerSeries(ring, {1: one, 2: a}, 2),  # known only through t^2
            PowerSeries(ring, {1: a}, EXACT),
            PowerSeries(ring, {1: unit}, EXACT),
            PowerSeries(ring, {1: a}, max(1, n // 2)),  # below f's bound
            PowerSeries(ring, {1: unit}, max(1, n // 2)),
        )

    @classmethod
    def _outers(cls, ring, rng, n):
        return (
            cls._series(ring, rng, n, ord_min=0, density=1.0),
            cls._series(ring, rng, n, ord_min=1, density=0.5),
            cls._series(ring, rng, n, ord_min=2, density=0.7),
            PowerSeries(ring, {0: ring.one(), 2: cls._elem(ring, rng), 3: ring.one()}, EXACT),
            PowerSeries(ring, {0: cls._elem(ring, rng)}, n),
            PowerSeries(ring, {}, n),
            PowerSeries(ring, {1: cls._elem(ring, rng), 2: ring.one(), 5: cls._elem(ring, rng)}, EXACT),
        )

    def test_matches_power_by_power_oracle(self):
        rng = random.Random(43)
        for ring in (Q, F7, Z56, Z34V, F5V, QV, POLY):
            for n in (1, 3, 6, 10):
                for g in self._substitutions(ring, rng, n):
                    for f in self._outers(ring, rng, n):
                        got, want = compose(f, g), compose_by_powers(f, g)
                        assert got.trunc == want.trunc, (format_series(f), format_series(g))
                        assert got.coeffs == want.coeffs, (format_series(f), format_series(g))

    def test_binomial_pass_only_for_t_plus_a_t_r_on_plain_rings(self, monkeypatch):
        # and the scaling pass only for c*t
        calls = {"_substitute_plain": 0, "_rescaled": 0}

        def counted(name):
            library = getattr(series, name)

            def wrapper(*args):
                calls[name] += 1
                return library(*args)

            monkeypatch.setattr(series, name, wrapper)

        counted("_substitute_plain")
        counted("_rescaled")
        for ring, plain in ((Q, True), (F7, True), (Z56, True), (QV, False), (F5V, False), (Z34V, False)):
            one, two = ring.one(), ring.from_int(2)
            f = PowerSeries(ring, {0: one, 2: two, 3: one, 6: two}, 9)
            for g, binomial, scaling in (
                (PowerSeries(ring, {1: one, 3: two}, EXACT), plain, False),
                (PowerSeries(ring, {1: two, 3: two}, EXACT), False, False),
                (PowerSeries(ring, {1: one, 2: one, 3: two}, EXACT), False, False),
                (PowerSeries(ring, {1: one}, EXACT), False, plain),
                (PowerSeries(ring, {1: two}, EXACT), False, plain),
            ):
                calls.update(dict.fromkeys(calls, 0))
                got, want = compose(f, g), compose_by_powers(f, g)
                assert calls == {"_substitute_plain": binomial, "_rescaled": scaling}, (
                    ring.spec(),
                    format_series(g),
                )
                assert got.trunc == want.trunc and got.coeffs == want.coeffs

    def test_nilpotent_leading_coefficient_empties_the_powers(self):
        # (5t)^6 = 0 over Z/5^6, so the powers of g run out before f does
        g = parse_series(Z56, "5*t + 25*t^2", 12)
        f = parse_series(Z56, "1 + t + 2*t^3 + t^7 + 3*t^9", 12)
        got, want = compose(f, g), compose_by_powers(f, g)
        assert got.trunc == want.trunc
        assert got.coeffs == want.coeffs

    @pytest.mark.parametrize(
        "f, g",
        [
            (qs("t + t^2", 5), qs("1 + t", 5)),
            (qs("t + t^2", 5), parse_series(F7, "t", 5)),
            (parse_series(Z56, "t", 5), parse_series(Z53, "t + t^2", 5)),
            (parse_series(QV, "t", EXACT), parse_series(Q, "t", EXACT)),
        ],
    )
    def test_bad_inputs_raise_as_the_oracle_does(self, f, g):
        with pytest.raises(Exception) as want:
            compose_by_powers(f, g)
        with pytest.raises(Exception) as got:
            compose(f, g)
        assert type(got.value) is type(want.value)


class TestReciprocal:
    def test_inverts_to_the_truncation(self):
        rng = random.Random(13)
        for ring in (Q, F7, Z56, Z34V):
            for n in (0, 1, 4, 9):
                for _ in range(4):
                    f = rand_series(ring, rng, n)
                    f = f + PowerSeries(ring, {0: rand_unit(ring, rng)}, EXACT)
                    inv = reciprocal(f)
                    assert inv.trunc == n
                    assert f * inv == PowerSeries(ring, {0: ring.one()}, n)

    def test_exact_inputs(self):
        with pytest.raises(PrecisionError):
            reciprocal(parse_series(Q, "2 + t", EXACT))
        inv = reciprocal(parse_series(Z56, "2", EXACT))
        assert inv == PowerSeries(Z56, {0: Z56.from_int(2).inverse()}, EXACT)

    def test_non_unit_constant_term(self):
        with pytest.raises(NotInvertibleError):
            reciprocal(parse_series(Z56, "5 + t", 4))
        with pytest.raises(NotInvertibleError):
            reciprocal(parse_series(Q, "t", 4))


def laurent_twin(f: PowerSeries) -> PowerSeries:
    """f over the same ring with [v], every coefficient at v^0.

    On the twin the series kernel runs on RingElem values instead of
    base scalars, so the twin checks the other value kind on the same
    draws.
    """
    r = f.ring
    rv = CoeffRing(r.mode, p=r.p, K=r.K, laurent=True)
    return PowerSeries(rv, {i: rv.el({0: c.terms[0]}) for i, c in f.coeffs.items()}, f.trunc)


class TestPlainKernel:
    """compose, mul, reciprocal and reversion on Q, F_p and Z/p^K, and on
    their [v] twins, against the oracles in tests/util.py, which share no
    series arithmetic with the library."""

    RINGS = (Q, F7, CoeffRing("Fp", p=2), Z53)

    @staticmethod
    def _draw(ring, rng, lo):
        bound = rng.choice((-1, 0, 1, rng.randint(2, 6), rng.randint(2, 6), EXACT, EXACT))
        top = rng.randint(lo, 6) if bound == EXACT else bound
        density = rng.choice((0.0, 0.5, 1.0, 1.0))  # 0.0 draws the zero series
        coeffs = {i: rand_elem(ring, rng) for i in range(lo, top + 1) if rng.random() < density}
        if ring.mode == "Zp" and coeffs and rng.random() < 0.3:
            # a nilpotent leading coefficient: its powers die out mod p^K
            coeffs[min(coeffs)] = ring.from_int(ring.p * rng.randrange(1, ring.p))
        return PowerSeries(ring, coeffs, bound)

    @staticmethod
    def _outcome(op, *args):
        try:
            return op(*args)
        except MooreError as err:
            return type(err)

    def _check(self, got, want):
        if isinstance(want, type):
            assert got is want
            return
        ring = got.ring
        assert got.trunc == want.trunc
        assert {i: c.terms for i, c in got.coeffs.items()} == {
            i: c.terms for i, c in want.coeffs.items()
        }
        # {0: Fraction(1)} == {0: 1}, so the scalar type is checked apart
        for c in got.coeffs.values():
            for x in c.terms.values():
                if ring.mode == "Q":
                    assert type(x) is Fraction
                else:
                    assert type(x) is int and 0 <= x < ring.modulus

    def test_matches_the_oracles(self):
        rng = random.Random(29)
        for ring in self.RINGS:
            for _ in range(150):
                f = self._draw(ring, rng, 0)
                g = self._draw(ring, rng, rng.choice((1, 1, 2, 3)))  # order >= 2 too
                u = f + PowerSeries(ring, {0: rand_unit(ring, rng)}, EXACT)
                h = g + PowerSeries(ring, {1: rand_unit(ring, rng)}, EXACT)
                for op, oracle, args in (
                    (compose, compose_by_powers, (f, g)),
                    (compose, compose_by_powers, (g, h)),
                    (PowerSeries.__mul__, mul_by_terms, (f, g)),
                    (PowerSeries.__mul__, mul_by_terms, (u, f)),
                    (reciprocal, reciprocal_by_solving, (u,)),
                    (reciprocal, reciprocal_by_solving, (f,)),
                    (reversion, reversion_by_coefficients, (h,)),
                ):
                    for xs in (args, tuple(map(laurent_twin, args))):
                        self._check(self._outcome(op, *xs), self._outcome(oracle, *xs))


class TestSubstitutionKernel:
    """series._substitute_plain, f(t + a*t^r) by binomials, against compose_by_powers.

    compose itself runs this kernel on t + a*t^r, so the reference is the
    power-by-power oracle, which shares no series arithmetic with it.
    """

    RINGS = tuple(CoeffRing("Zp", p, K) for p, K in ((7, 4), (5, 6), (2, 5), (3, 6)))

    def test_matches_compose(self):
        rng = random.Random(1515)
        for ring in self.RINGS:
            p, m = ring.p, ring.modulus
            for _ in range(120):
                n = rng.randint(0, 12)
                density = rng.choice((0.0, 0.5, 1.0))
                f = [rng.randrange(m) if rng.random() < density else 0 for _ in range(n + 1)]
                unit = rng.randrange(1, p) + p * rng.randrange(m // p)
                a = rng.choice((0, unit, p * rng.randrange(m // p)))
                r = rng.randint(2, 13)
                fs = PowerSeries(ring, dict(enumerate(f)), n)
                want = compose_by_powers(fs, PowerSeries(ring, {1: 1, r: a}, EXACT))
                got = series._substitute_plain(f, a, r, n, m)
                assert all(type(x) is int and 0 <= x < m for x in got)
                # compose keeps f's bound, and the kernel stops where it stops
                assert want.trunc == n and len(got) <= n + 1
                assert dict((i, x) for i, x in enumerate(got) if x) == {
                    i: c.terms[0] for i, c in want.coeffs.items()
                }

    def test_two_lists_move_as_each_alone(self):
        # the Z/p^K reduction moves form and witness in one pass; each must
        # come out as the one-list kernel moves it, up to trailing zeros
        def stripped(xs):
            return xs[: max((i + 1 for i, x in enumerate(xs) if x), default=0)]

        rng = random.Random(2424)
        for ring in self.RINGS:
            p, K, m = ring.p, ring.K, ring.modulus
            for _ in range(120):
                n = rng.randint(0, 12)
                f = [rng.randrange(m) for _ in range(rng.randint(0, n + 1))]
                w = [rng.randrange(m) for _ in range(rng.choice((0, len(f) // 2, len(f) + 3)))]
                unit = rng.randrange(1, p) + p * rng.randrange(m // p)
                # p^(K-1)*unit squares to zero: every row past the first vanishes
                a = rng.choice((0, unit, p * rng.randrange(m // p), p ** (K - 1) * unit % m))
                r = rng.randint(2, 7)
                got, wgot = series._substitute_plain(f, a, r, n, m, w=w)
                assert len(got) == len(wgot)
                assert all(type(x) is int and 0 <= x < m for x in got + wgot)
                assert stripped(got) == stripped(series._substitute_plain(f, a, r, n, m))
                assert stripped(wgot) == stripped(series._substitute_plain(w, a, r, n, m))


class TestHeight:
    def test_zero_series_has_no_height(self):
        with pytest.raises(HeightUndefinedError):
            height(PowerSeries(Q, {}, 6))

    def test_orbit_invariance(self):
        rng = random.Random(23)
        for _ in range(20):
            u = rand_series(F7, rng, trunc=9, ord_min=2)
            if u.is_zero():
                continue
            f = rand_series(F7, rng, trunc=9, unit_linear=True)
            assert height(compose(u, f)) == height(u)


class TestAlgebraProperties:
    def test_compose_associative(self):
        rng = random.Random(7)
        for _ in range(15):
            f = rand_series(F7, rng, trunc=8, ord_min=1)
            g = rand_series(F7, rng, trunc=8, unit_linear=True)
            h = rand_series(F7, rng, trunc=8, unit_linear=True)
            left = compose(compose(f, g), h)
            right = compose(f, compose(g, h))
            assert agree(left, right)

    def test_product_rule(self):
        rng = random.Random(9)
        for _ in range(15):
            f = rand_series(Q, rng, trunc=7, ord_min=0)
            g = rand_series(Q, rng, trunc=7, ord_min=0)
            lhs = derivative(f * g)
            rhs = derivative(f) * g + f * derivative(g)
            assert agree(lhs, rhs)

    def test_chain_rule(self):
        rng = random.Random(31)
        for _ in range(10):
            f = rand_series(F7, rng, trunc=8, ord_min=1)
            g = rand_series(F7, rng, trunc=8, unit_linear=True)
            lhs = derivative(compose(f, g))
            rhs = compose(derivative(f), g) * derivative(g)
            assert agree(lhs, rhs)

    def test_add_and_mul_operators(self):
        a, b = qs("t"), qs("t^2")
        assert a + b == qs("t + t^2")
        prod = a * b
        # product picks up slack from each factor's order: min(8+2, 8+1) = 9
        assert prod.trunc == 9
        assert prod == PowerSeries(Q, {3: Q.one()}, 9)


class TestTextForm:
    @pytest.mark.parametrize(
        "ring,text",
        [
            (Q, "t - 1/2*t^2 + 5/8*t^3"),
            (Z56V, "5*t + v*t^2 + 3*t^4"),
            (Z56V, "(5 + v)*t^2"),
            (F5, "1 + 2*t"),
            (Q, "-t + 2*t^3"),
        ],
    )
    def test_round_trip(self, ring, text):
        s = parse_series(ring, text, 8)
        assert format_series(s) == text
        assert parse_series(ring, format_series(s), 8) == s

    def test_parse_positions(self):
        with pytest.raises(ParseError) as ei:
            parse_series(Q, "t + v", 8)
        assert ei.value.pos == 4
        with pytest.raises(ParseError):
            parse_series(Q, "t^-1", 8)
        with pytest.raises(ParseError):
            parse_series(Q, "t t", 8)

    def test_elem_round_trip(self):
        x = parse_elem(Z56V, "3*v^-1 + 2")
        assert x == Z56V.el({-1: 3, 0: 2})

    def test_random_round_trips(self):
        rng = random.Random(41)
        for ring in (Q, F7, Z56V):
            for _ in range(25):
                s = rand_series(ring, rng, trunc=7, ord_min=0)
                assert parse_series(ring, format_series(s), 7) == s


class TestJsonForm:
    def test_round_trip(self):
        s = parse_series(Z56V, "5*t + v*t^2", 12)
        blob = series_to_json(s)
        assert blob["ring"] == "Zp:5:6[v]"
        assert blob["trunc"] == 12
        assert series_from_json(blob) == s


@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=6))
@settings(max_examples=40)
def test_add_commutes_hypothesis(cs):
    a = PowerSeries(Q, {i: Q.el({0: c}) for i, c in enumerate(cs)}, 8)
    b = PowerSeries(Q, {i + 1: Q.el({0: c}) for i, c in enumerate(reversed(cs))}, 8)
    assert a + b == b + a
