"""Coefficient ring arithmetic: pinned values and algebraic properties."""

import copy
import pickle
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorealg.cli import main
from moorealg.errors import (
    FactorizationError,
    IncompatibleRingError,
    NoUniformizerError,
    NotAUnitError,
    ParseError,
)
from moorealg import _ntheory
from moorealg.rings import CoeffRing, format_elem, parse_ring
from moorealg.series import PowerSeries

from util import inverse_by_geometric_series

Q = CoeffRing("Q")
QV = CoeffRing("Q", laurent=True)
F5 = CoeffRing("Fp", p=5)
F7 = CoeffRing("Fp", p=7)
Z53 = CoeffRing("Zp", p=5, K=3)
Z56 = CoeffRing("Zp", p=5, K=6)
Z56V = CoeffRing("Zp", p=5, K=6, laurent=True)


class TestPinnedValues:
    def test_inverse_two_mod_5_cubed(self):
        # 2 * 63 = 126 = 125 + 1
        assert Z53.from_int(2).inverse() == Z53.from_int(63)

    def test_inverse_two_mod_5_sixth(self):
        # (5^6 + 1) / 2
        assert Z56.from_int(2).inverse() == Z56.from_int(7813)

    def test_valuation_fifty(self):
        assert Z56.from_int(50).valuation() == 2

    def test_valuation_zero_is_precision(self):
        assert Z56.zero().valuation() == 6

    def test_inverse_three_mod_seven(self):
        assert F7.from_int(3).inverse() == F7.from_int(5)

    def test_laurent_padic_unit_split(self):
        # 2v + 5 reduces to the monomial 2v mod 5, hence is a unit
        x = Z56V.el({1: 2, 0: 5})
        assert x.is_unit()
        assert x * x.inverse() == Z56V.one()

    def test_laurent_padic_nonunits(self):
        assert not Z56V.el({1: 5}).is_unit()
        assert not Z56V.el({1: 2, 0: 3}).is_unit()
        assert not Z56V.zero().is_unit()

    def test_laurent_rational_inverse(self):
        x = QV.vpow(-1, 3)
        assert x * x.inverse() == QV.one()
        assert x.inverse() == QV.vpow(1, Fraction(1, 3))


class TestArith:
    def test_operators(self):
        a, b = Q.from_int(7), Q.el({0: Fraction(1, 2)})
        assert a + b == Q.el({0: Fraction(15, 2)})
        assert a - b == Q.el({0: Fraction(13, 2)})
        assert a * b == Q.el({0: Fraction(7, 2)})

    def test_mixed_rings_rejected(self):
        with pytest.raises(IncompatibleRingError):
            Q.one() + F5.one()

    @pytest.mark.parametrize("x", [F7.from_int(3), QV.el({1: 2, -1: Fraction(1, 3)})])
    def test_a_sum_may_start_at_integer_zero(self, x):
        assert 0 + x is x
        y = x.ring.one()
        assert sum((x, y)) == x + y

    @pytest.mark.parametrize("left", [1, False, 0.0])
    def test_only_integer_zero_adds_from_the_left(self, left):
        with pytest.raises(TypeError):
            left + F7.from_int(3)

    def test_laurent_product_collects_exponents(self):
        x = QV.el({1: 1, 0: 1})          # v + 1
        y = QV.el({1: 1, 0: -1})         # v - 1
        assert x * y == QV.el({2: 1, 0: -1})

    def test_fp_normalization(self):
        assert F5.from_int(12) == F5.from_int(2)
        assert F5.from_int(-1) == F5.from_int(4)
        assert F5.from_int(10).is_zero()

    def test_zp_zero_divisors(self):
        a = Z53.from_int(25)
        b = Z53.from_int(5)
        assert not (a * b)          # 125 = 0 mod 5^3
        assert not a.is_unit()
        with pytest.raises(NotAUnitError):
            a.inverse()

    def test_valuation_needs_uniformizer(self):
        with pytest.raises(NoUniformizerError):
            Q.one().valuation()


class TestPolynomialMode:
    def test_symbols_expand(self):
        P = CoeffRing("Poly", symbols=("a", "b"))
        x = P.sym("a") + P.sym("b")
        sq = x * x
        assert sq == P.el({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_constant_units_only(self):
        P = CoeffRing("Poly", symbols=("a",))
        assert P.from_int(3).is_unit()
        assert P.from_int(3).inverse() == P.el({(0,): Fraction(1, 3)})
        assert not P.sym("a").is_unit()


class TestInterning:
    def test_equal_arguments_give_one_object(self):
        assert CoeffRing("Zp", 5, 6) is parse_ring("Zp:5:6") is Z56
        assert CoeffRing("Fp", p=5, laurent=True) is parse_ring("F5[v]")
        assert CoeffRing("Poly", symbols=["a", "b"]) is CoeffRing("Poly", symbols=("a", "b"))
        assert CoeffRing("Poly", symbols=("a", "b")) is not CoeffRing("Poly", symbols=("b", "a"))
        # K means nothing outside Zp mode, as before interning
        assert CoeffRing("Fp", 5, 3) is F5
        assert Z53 is not Z56 and Z56 is not Z56V

    def test_identity_equality(self):
        assert Z56 == CoeffRing("Zp", p=5, K=6)
        assert Z56 != Z53
        assert Q != "Q"
        assert len({Q, CoeffRing("Q"), parse_ring("Q")}) == 1

    @pytest.mark.parametrize(
        "ring", [Q, QV, F5, Z56, Z56V, CoeffRing("Poly", symbols=("a", "b"))]
    )
    def test_copies_are_the_same_object(self, ring):
        assert copy.copy(ring) is ring
        assert copy.deepcopy(ring) is ring
        assert pickle.loads(pickle.dumps(ring)) is ring
        x = ring.one()
        assert copy.deepcopy(x).ring is ring
        assert pickle.loads(pickle.dumps(x)) == x

    @pytest.mark.parametrize(
        "args",
        [
            ("R",),
            ("Fp", 4),
            ("Zp", 6, 2),
            ("Zp", 5, 0),
            ("Zp", 5, None),
            ("Poly", None, None, True, ("a",)),
            ("Poly", None, None, False, ()),
            ("Poly", None, None, False, ("a", "a")),
        ],
    )
    def test_invalid_rings_raise_every_time_and_stay_out(self, args):
        before = dict(CoeffRing._interned)
        for _ in range(2):
            with pytest.raises(ValueError):
                CoeffRing(*args)
        assert CoeffRing._interned == before

    def test_modulus(self):
        assert Z56.modulus == 5**6
        assert Z56V.modulus == 5**6
        assert F7.modulus == 7
        assert Q.modulus is None
        assert QV.modulus is None
        assert CoeffRing("Poly", symbols=("a",)).modulus is None

    def test_mixed_rings_still_rejected(self):
        with pytest.raises(IncompatibleRingError):
            Z56.one() * Z53.one()
        with pytest.raises(IncompatibleRingError):
            Z56.one() + Z56V.one()
        with pytest.raises(IncompatibleRingError):
            Z56.residue(Z53.one())


class TestZpInverse:
    """Zp inverses against the geometric-series reference."""

    def check(self, x):
        inv = x.inverse()
        assert x * inv == x.ring.one()
        assert inv == inverse_by_geometric_series(x)

    @pytest.mark.parametrize("p,K", [(5, 3), (2, 5)])
    def test_every_unit(self, p, K):
        ring = CoeffRing("Zp", p=p, K=K)
        for n in range(1, p**K):
            if n % p:
                self.check(ring.from_int(n))

    def test_laurent_monomials(self):
        ring = CoeffRing("Zp", p=3, K=4, laurent=True)
        for j in range(-3, 4):
            for c in (1, 2, 5, 40, 80):
                self.check(ring.el({j: c}))

    def test_laurent_multi_term_units(self):
        # one unit monomial plus multiples of p: the geometric series is used
        ring = CoeffRing("Zp", p=5, K=3, laurent=True)
        for c0 in (1, 2, 7, 124):
            for c1 in (5, 25, 100, 120):
                self.check(ring.el({0: c0, 2: c1}))
                self.check(ring.el({-1: c1, 1: c0, 3: 50}))


class TestRingSpecs:
    @pytest.mark.parametrize(
        "text", ["Q", "F7", "Zp:5:6", "Q[v]", "F5[v]", "Zp:5:6[v]"]
    )
    def test_round_trip(self, text):
        assert parse_ring(text).spec() == text

    @pytest.mark.parametrize("text", ["", "F4", "Zp:6:2", "Zp:5:0", "Q[w]", "garbage"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_ring(text)

    @pytest.mark.parametrize("text, field", [("Zp:5:1", "F5"), ("Zp:2:1[v]", "F2[v]")])
    def test_precision_one_names_the_field(self, text, field):
        # Z/p has no nonzero uniformizer, so no Z/p^K verb can classify over it
        with pytest.raises(ParseError, match=rf"; write {re.escape(field)}( |$)"):
            parse_ring(text)


class TestPrimality:
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7; the next two are strong pseudoprimes to
    # the first 11 and 12 prime bases, with no factor in the trial table;
    # 109632756855221220787343101 is a strong pseudoprime to base 2
    # above the 13-base bound, so the Lucas half rejects it
    COMPOSITES = [
        561,
        3215031751,
        3825123056546413051,  # 149491 * 747451 * 34233211
        318665857834031151167461,  # 399165290221 * 798330580441
        109632756855221220787343101,  # 7403808373237 * 14807616746473
        (2**61 - 1) * (2**89 - 1),
        (2**89 - 1) ** 2,
    ]

    @pytest.mark.parametrize("n", COMPOSITES)
    def test_rejects_pseudoprimes(self, n):
        assert not _ntheory.is_prime(n)
        with pytest.raises(ValueError):
            CoeffRing("Fp", p=n)
        with pytest.raises(ParseError):
            parse_ring(f"F{n}")
        with pytest.raises(ParseError):
            parse_ring(f"Zp:{n}:2")

    def test_base_two_pseudoprime_above_the_bound(self):
        n = 109632756855221220787343101
        assert n > _ntheory._MR_LIMIT and _ntheory._strong_prp(n, 2)
        assert not _ntheory._strong_lucas_prp(n)

    def test_strong_lucas_pseudoprimes(self):
        # the first strong Lucas pseudoprimes pass the Lucas half alone,
        # and base 2 rejects them
        for n in (5459, 5777, 10877, 16109, 18971):
            assert _ntheory._strong_lucas_prp(n)
            assert not _ntheory._strong_prp(n, 2)

    def test_matches_a_sieve(self):
        top = 70000
        sieve = bytearray([1]) * top
        sieve[:2] = b"\0\0"
        for i in range(2, 265):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, top, i)))
        assert [n for n in range(-3, top) if _ntheory.is_prime(n)] == [
            n for n in range(top) if sieve[n]
        ]

    @pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1, 2**127 - 1, 10**24 + 7])
    def test_large_primes(self, n):
        # 2^61 - 1 used to take trial division up to its square root
        assert CoeffRing("Fp", p=n).modulus == n
        assert parse_ring(f"Zp:{n}:2").modulus == n * n

    def test_factor(self):
        p, q = 100000000003, 200000000041
        assert _ntheory.factor(1) == {}
        assert _ntheory.factor(2**10 * 3**4 * 257) == {2: 10, 3: 4, 257: 1}
        assert _ntheory.factor(p * q * 7) == {7: 1, p: 1, q: 1}
        assert _ntheory.factor(p**3 * q**2) == {p: 3, q: 2}
        assert _ntheory.factor((2**89 - 1) ** 2 * 263) == {263: 1, 2**89 - 1: 2}

    def test_factor_gives_up_on_two_large_primes(self, capsys):
        # rho would need about 10^7 steps here; it stops at its budget, and
        # the class representative over Q fails with it
        n = 5 * 123110759865763 * 542260659917219
        start = time.perf_counter()
        with pytest.raises(FactorizationError) as err:
            _ntheory.factor(n)
        assert err.value.cofactor == n // 5
        assert time.perf_counter() - start < 10
        argv = ["invariant", "--ring", "Q", "--series", f"{n}*t^2 + t^3", "--trunc", "8"]
        assert main(argv) == 3
        assert "FactorizationError" in capsys.readouterr().err

    def test_primitive_root_is_the_smallest(self):
        assert [_ntheory.primitive_root(p) for p in (2, 3, 5, 7, 23, 41, 71, 191)] == [
            1, 2, 2, 3, 5, 6, 7, 19,
        ]
        p = 2**61 - 1
        g = _ntheory.primitive_root(p)
        assert g == 37
        for h in range(2, g):
            assert any(pow(h, (p - 1) // q, p) == 1 for q in _ntheory.factor(p - 1))


class TestIntegerScalars:
    # outside scalars in the modular modes must be integers; a Fraction
    # with denominator 1 counts as its numerator
    @pytest.mark.parametrize("ring", [F7, Z53, CoeffRing("Fp", p=7, laurent=True)])
    @pytest.mark.parametrize("bad", [Fraction(1, 2), 2.5, 3.0, "3"])
    def test_non_integers_raise(self, ring, bad):
        with pytest.raises(IncompatibleRingError):
            ring.from_int(bad)
        with pytest.raises(IncompatibleRingError):
            ring.el({0: bad})
        with pytest.raises(IncompatibleRingError):
            PowerSeries(ring, {1: bad}, 5)
        if ring.laurent:
            with pytest.raises(IncompatibleRingError):
                ring.vpow(1, bad)

    def test_whole_fractions_are_integers(self):
        assert Z53.el({0: Fraction(-250, 2)}) == Z53.from_int(0)
        assert F7.from_int(Fraction(15, 3)).terms == {0: 5}
        assert type(F7.from_int(Fraction(15, 3)).terms[0]) is int

    def test_q_keeps_fractions(self):
        assert Q.from_int(Fraction(1, 2)).terms == {0: Fraction(1, 2)}
        assert QV.vpow(2, Fraction(3, 4)).terms == {2: Fraction(3, 4)}


class TestResidue:
    def test_residue_of_padic(self):
        assert Z56.residue_ring() == F5
        assert Z56.residue(Z56.from_int(7813)) == F5.from_int(3)

    def test_residue_laurent(self):
        x = Z56V.el({1: 2, 0: 5})
        assert Z56V.residue(x) == CoeffRing("Fp", p=5, laurent=True).el({1: 2})


class TestFormatting:
    def test_laurent_layout(self):
        x = Z56V.el({-1: 3, 0: 2})
        assert format_elem(x) == "3*v^-1 + 2"

    def test_negative_rationals(self):
        x = QV.el({0: Fraction(-1, 2), 2: 1})
        assert format_elem(x) == "-1/2 + v^2"

    def test_zero(self):
        assert format_elem(Q.zero()) == "0"


@st.composite
def _fp_pairs(draw):
    a = draw(st.integers(min_value=0, max_value=4))
    b = draw(st.integers(min_value=0, max_value=4))
    return F5.from_int(a), F5.from_int(b)


class TestProperties:
    @given(_fp_pairs())
    def test_fp_commutativity(self, pair):
        a, b = pair
        assert a * b == b * a
        assert a + b == b + a

    @given(st.integers(min_value=1, max_value=5 ** 6 - 1))
    @settings(max_examples=60)
    def test_zp_valuation_multiplicative(self, n):
        x = Z56.from_int(n)
        y = Z56.from_int(35)
        expect = min(6, x.valuation() + y.valuation())
        assert (x * y).valuation() == expect

    @given(st.integers(min_value=1, max_value=5 ** 6 - 1))
    @settings(max_examples=60)
    def test_zp_units_invert(self, n):
        x = Z56.from_int(n)
        if x.is_unit():
            assert x * x.inverse() == Z56.one()
        else:
            assert n % 5 == 0

    @given(
        st.fractions(min_value=-10, max_value=10),
        st.fractions(min_value=-10, max_value=10),
        st.fractions(min_value=-10, max_value=10),
    )
    @settings(max_examples=60)
    def test_q_distributivity(self, x, y, z):
        a, b, c = (Q.el({0: t}) for t in (x, y, z))
        assert a * (b + c) == a * b + a * c
