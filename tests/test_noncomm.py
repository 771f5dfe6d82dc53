"""Word algebra, derivations, endomorphisms, structure derivations."""

import random

import pytest

from moorealg.errors import (
    IncompatibleRingError,
    NotInvertibleError,
    ParityError,
    PrecisionError,
    StructureError,
)
from moorealg.rings import CoeffRing
from moorealg.series import EXACT, PowerSeries, compose
from moorealg.noncomm import (
    Derivation,
    GradingContext,
    NCEndo,
    NCSeries,
    apply_endo,
    check_square_zero,
    conjugate,
    derivation_apply,
    derivation_commutator,
    endo_inverse,
    format_ncseries,
    moore_mstar,
    nc_from_powers,
    nc_mul,
    nc_scalar,
    nc_to_powers,
    nc_word,
    nc_zero,
    normalized_endo,
)

from util import (
    agree_derivation,
    agree_nc,
    check_bound,
    commutator,
    endo_compose,
    ext,
    from_ext,
    rand_derivation,
    rand_nc,
    rand_series,
    times,
)

Q = CoeffRing("Q")
F7 = CoeffRing("Fp", 7)
EVEN = GradingContext(0)
ODD = GradingContext(1)


class _Datum:
    """Bare container standing in for a classified two-cell algebra."""

    def __init__(self, kind, d, u=None, v=None, w=None):
        self.kind = kind
        self.d = d
        self.u = u
        self.v = v
        self.w = w


def even_mstar(ring, coeffs, trunc=EXACT, d=0):
    u = PowerSeries(ring, coeffs, trunc)
    return moore_mstar(_Datum("even", d, u=u))


def odd_mstar(ring, vcoeffs, wcoeffs, trunc=EXACT, d=1):
    v = PowerSeries(ring, vcoeffs, trunc)
    w = PowerSeries(ring, wcoeffs, trunc)
    return moore_mstar(_Datum("odd", d, v=v, w=w))


class TestWordAlgebra:
    def test_commutator_odd_even(self):
        # suspension letter against an even cell letter
        tau = nc_word(Q, EVEN, "T")
        t = nc_word(Q, EVEN, "t")
        assert commutator(tau, t).terms == {"Tt": Q.one(), "tT": -Q.one()}

    def test_commutator_odd_odd(self):
        tau = nc_word(Q, EVEN, "T")
        assert commutator(tau, tau).terms == {"TT": Q.from_int(2)}

    def test_commutator_even_even_vanishes(self):
        t = nc_word(Q, EVEN, "t")
        assert commutator(t, t).is_zero()

    def test_commutator_odd_cell_letter(self):
        tau = nc_word(Q, ODD, "T")
        t = nc_word(Q, ODD, "t")
        assert commutator(tau, t).terms == {"Tt": Q.one(), "tT": Q.one()}

    def test_mul_truncation(self):
        a = nc_word(Q, EVEN, "t", maxlen=3)
        b = nc_word(Q, EVEN, "tt", maxlen=3)
        prod = nc_mul(a, b)
        # min(3 + 2, 3 + 1)
        assert prod.maxlen == 4
        assert prod.terms == {"ttt": Q.one()}

    def test_mul_is_noncommutative(self):
        tau = nc_word(Q, EVEN, "T")
        t = nc_word(Q, EVEN, "t")
        assert nc_mul(tau, t).terms == {"Tt": Q.one()}
        assert nc_mul(t, tau).terms == {"tT": Q.one()}

    def test_coeff_beyond_maxlen(self):
        a = nc_word(Q, EVEN, "t", maxlen=3)
        assert a.coeff("ttt").terms == {}
        with pytest.raises(PrecisionError):
            a.coeff("tttt")

    def test_parity_checks(self):
        mixed = NCSeries(Q, EVEN, {"T": 1, "t": 1}, 5)
        with pytest.raises(ParityError):
            mixed.parity()
        with pytest.raises(ParityError):
            commutator(mixed, nc_word(Q, EVEN, "t", maxlen=5))

    def test_grading_mismatch(self):
        with pytest.raises(IncompatibleRingError):
            nc_mul(nc_word(Q, EVEN, "t"), nc_word(Q, ODD, "t"))

    def test_mul_associative(self):
        rng = random.Random(11)
        for _ in range(20):
            a = rand_nc(F7, ODD, rng, 6)
            b = rand_nc(F7, ODD, rng, 6)
            c = rand_nc(F7, ODD, rng, 6)
            assert agree_nc(nc_mul(nc_mul(a, b), c), nc_mul(a, nc_mul(b, c)))

    def test_product_parity_adds(self):
        rng = random.Random(12)
        for g in (EVEN, ODD):
            a = rand_nc(F7, g, rng, 6, parity=1)
            b = rand_nc(F7, g, rng, 6, parity=1)
            p = nc_mul(a, b)
            if not p.is_zero():
                assert p.parity() == 0

    def test_powers_round_trip(self):
        f = PowerSeries(Q, {1: 2, 4: 3}, 7)
        assert nc_to_powers(nc_from_powers(EVEN, f)) == f
        with pytest.raises(StructureError):
            nc_to_powers(nc_word(Q, EVEN, "Tt"))

    def test_format(self):
        x = NCSeries(F7, EVEN, {"Tt": 2, "ttT": 5, "": 3}, 9)
        assert format_ncseries(x) == "3 + 2*Tt + 5*ttT"
        assert format_ncseries(nc_zero(Q, EVEN)) == "0"
        y = NCSeries(Q, EVEN, {"T": -2, "tt": 1}, 9)
        assert format_ncseries(y) == "-2*T + tt"


class TestDerivationApply:
    def test_bracket_with_suspension_letter(self):
        # xi with xi(T) = T^2 and xi(t) = [T, t]: applying it to a letter
        # just reads off the stored image.
        xi = Derivation(
            nc_word(Q, EVEN, "TT"),
            NCSeries(Q, EVEN, {"Tt": 1, "tT": -1}, EXACT),
            1,
        )
        assert derivation_apply(xi, nc_word(Q, EVEN, "t")).terms == {
            "Tt": Q.one(),
            "tT": -Q.one(),
        }
        assert derivation_apply(xi, nc_word(Q, EVEN, "T")).terms == {"TT": Q.one()}

    def test_leibniz_on_a_square(self):
        xi = Derivation(
            nc_word(Q, EVEN, "TT"),
            NCSeries(Q, EVEN, {"Tt": 1, "tT": -1}, EXACT),
            1,
        )
        out = derivation_apply(xi, nc_word(Q, EVEN, "tt"))
        # (Tt - tT)t + t(Tt - tT): the middle words cancel
        assert out.terms == {"Ttt": Q.one(), "ttT": -Q.one()}

    def test_shift_only_derivation(self):
        # xi(T) = u(t), xi(t) = 0 applied to Tt gives u(t)t
        u = PowerSeries(Q, {1: 2, 3: 1}, EXACT)
        xi = Derivation(nc_from_powers(EVEN, u), nc_zero(Q, EVEN), 1)
        out = derivation_apply(xi, nc_word(Q, EVEN, "Tt"))
        assert out.terms == {"tt": Q.from_int(2), "tttt": Q.one()}

    def test_prefix_sign(self):
        # odd xi across an odd prefix letter flips the sign
        xi = Derivation(nc_zero(Q, EVEN), nc_word(Q, EVEN, "t"), 1)
        out = derivation_apply(xi, nc_word(Q, EVEN, "Tt"))
        assert out.terms == {"Tt": -Q.one()}

    def test_linearity(self):
        rng = random.Random(13)
        for g in (EVEN, ODD):
            xi = rand_derivation(F7, g, rng, 8, 1)
            x = rand_nc(F7, g, rng, 6)
            y = rand_nc(F7, g, rng, 6)
            lhs = derivation_apply(xi, x + y)
            rhs = derivation_apply(xi, x) + derivation_apply(xi, y)
            assert agree_nc(lhs, rhs)

    def test_weight_filtration(self):
        # images of order k move word length up by at least k-1
        rng = random.Random(14)
        for _ in range(10):
            xi = rand_derivation(F7, ODD, rng, 8, rng.randint(0, 1))
            omin = min(xi.onTau.order(), xi.onT.order())
            x = rand_nc(F7, ODD, rng, 6)
            out = derivation_apply(xi, x)
            if not out.is_zero():
                assert out.order() >= x.order() + omin - 1


class TestDerivationCommutator:
    def test_odd_self_bracket_is_twice_square(self):
        rng = random.Random(15)
        xi = rand_derivation(F7, ODD, rng, 8, 1)
        br = derivation_commutator(xi, xi)
        assert agree_nc(br.onTau, derivation_apply(xi, xi.onTau).scaled(2))
        assert agree_nc(br.onT, derivation_apply(xi, xi.onT).scaled(2))
        assert br.parity == 0

    def test_cell_direction_against_structure(self):
        # [B(t) d/dt, structure derivation] has value u'(t)B(t) on T and 0 on t
        u = PowerSeries(Q, {1: 3, 2: 1, 4: 5}, EXACT)
        mstar = even_mstar(Q, u.coeffs)
        b = PowerSeries(Q, {3: 2}, EXACT)
        xi_b = Derivation(nc_zero(Q, EVEN), nc_from_powers(EVEN, b), 0)
        br = derivation_commutator(xi_b, mstar)
        # u' B = (3 + 2t + 20t^3) * 2t^3
        want = PowerSeries(Q, {3: 6, 4: 4, 6: 40}, EXACT)
        assert br.onTau == nc_from_powers(EVEN, want)
        assert br.onT.is_zero()
        assert br.parity == 1

    def test_suspension_direction_is_central(self):
        # [A(t) d/dT, structure derivation] = 0, constant terms included
        mstar = even_mstar(Q, {1: 3, 2: 1, 4: 5})
        a = PowerSeries(Q, {0: 1, 1: 2, 3: 1}, EXACT)
        xi_a = Derivation(nc_from_powers(EVEN, a), nc_zero(Q, EVEN), 1)
        br = derivation_commutator(xi_a, mstar)
        assert br.onTau.is_zero()
        assert br.onT.is_zero()

    def test_jacobi(self):
        rng = random.Random(16)
        for g in (EVEN, ODD):
            for _ in range(8):
                p, q, r = (rng.randint(0, 1) for _ in range(3))
                x = rand_derivation(F7, g, rng, 9, p)
                y = rand_derivation(F7, g, rng, 9, q)
                z = rand_derivation(F7, g, rng, 9, r)
                lhs = derivation_commutator(x, derivation_commutator(y, z))
                rhs1 = derivation_commutator(derivation_commutator(x, y), z)
                rhs2 = derivation_commutator(y, derivation_commutator(x, z))
                total = rhs1.onTau + rhs2.onTau.scaled(-1 if p * q else 1) - lhs.onTau
                assert total.is_zero() or not total.terms
                total_t = rhs1.onT + rhs2.onT.scaled(-1 if p * q else 1) - lhs.onT
                assert total_t.is_zero() or not total_t.terms


class TestStructureDerivation:
    def test_even_shape(self):
        Z53 = CoeffRing("Zp", 5, 3)
        xi = even_mstar(Z53, {1: 5})
        assert xi.onTau.terms == {"t": Z53.from_int(5), "TT": Z53.one()}
        assert xi.onT.terms == {"Tt": Z53.one(), "tT": -Z53.one()}
        assert xi.parity == 1

    def test_even_zero_series(self):
        xi = even_mstar(Q, {})
        assert xi.onTau.terms == {"TT": Q.one()}

    def test_odd_shape(self):
        xi = odd_mstar(Q, {2: 3}, {4: 2})
        assert xi.onTau.terms == {"tttt": Q.from_int(2), "TT": Q.one()}
        assert xi.onT.terms == {"tt": Q.from_int(3), "Tt": Q.one(), "tT": Q.one()}

    def test_kind_degree_mismatch(self):
        with pytest.raises(ParityError):
            even_mstar(Q, {1: 1}, d=1)
        with pytest.raises(ParityError):
            odd_mstar(Q, {}, {}, d=0)

    def test_even_random_square_zero(self):
        rng = random.Random(17)
        for _ in range(6):
            u = rand_series(F7, rng, 8)
            ok, witness = check_square_zero(even_mstar(F7, u.coeffs, trunc=8))
            assert ok and witness is None

    def test_odd_random_square_zero(self):
        rng = random.Random(18)
        for _ in range(6):
            v = {2 * i: rng.randrange(7) for i in range(1, 5)}
            w = {2 * i: rng.randrange(7) for i in range(1, 5)}
            ok, witness = check_square_zero(odd_mstar(F7, v, w, trunc=8))
            assert ok and witness is None

    def test_even_universal_symbolic(self):
        # formal coefficients: the square vanishes identically, untruncated
        ring = CoeffRing("Poly", symbols=tuple(f"u{i}" for i in range(1, 9)))
        u = PowerSeries(ring, {i: ring.sym(f"u{i}") for i in range(1, 9)}, EXACT)
        ok, witness = check_square_zero(moore_mstar(_Datum("even", 0, u=u)))
        assert ok and witness is None

    def test_odd_universal_symbolic(self):
        names = tuple(f"v{i}" for i in range(1, 5)) + tuple(f"w{i}" for i in range(1, 5))
        ring = CoeffRing("Poly", symbols=names)
        v = PowerSeries(ring, {2 * i: ring.sym(f"v{i}") for i in range(1, 5)}, EXACT)
        w = PowerSeries(ring, {2 * i: ring.sym(f"w{i}") for i in range(1, 5)}, EXACT)
        ok, witness = check_square_zero(moore_mstar(_Datum("odd", 1, v=v, w=w)))
        assert ok and witness is None

    def test_tampered_odd(self):
        # adding t^3 to the value on the odd cell letter breaks the square
        base = odd_mstar(Q, {}, {})
        xi = Derivation(
            base.onTau, base.onT + nc_word(Q, ODD, "ttt"), 1
        )
        sq_tau = derivation_apply(xi, xi.onTau)
        sq_t = derivation_apply(xi, xi.onT)
        assert sq_tau.is_zero()
        assert sq_t.terms == {"tttT": Q.from_int(2), "ttttt": Q.one()}
        ok, witness = check_square_zero(xi)
        assert not ok
        assert witness == ("t", "tttT")

    def test_tampered_odd_symbolic(self):
        ring = CoeffRing("Poly", symbols=("v1",))
        v = PowerSeries(ring, {2: ring.sym("v1")}, EXACT)
        w = PowerSeries(ring, {}, EXACT)
        base = moore_mstar(_Datum("odd", 1, v=v, w=w))
        xi = Derivation(base.onTau, base.onT + nc_word(ring, ODD, "ttt"), 1)
        sq_t = derivation_apply(xi, xi.onT)
        assert sq_t.terms == {
            "tttT": ring.from_int(2),
            "tttt": ring.sym("v1"),
            "ttttt": ring.one(),
        }

    def test_tampered_even(self):
        base = even_mstar(Q, {1: 5, 2: 1})
        xi = Derivation(base.onTau, base.onT + nc_word(Q, EVEN, "ttt"), 1)
        sq_tau = derivation_apply(xi, xi.onTau)
        sq_t = derivation_apply(xi, xi.onT)
        # i * u_i * t^(i+2) and 3t^5 - 2 t^3 T
        assert sq_tau.terms == {"ttt": Q.from_int(5), "tttt": Q.from_int(2)}
        assert sq_t.terms == {"ttttt": Q.from_int(3), "tttT": Q.from_int(-2)}
        ok, witness = check_square_zero(xi)
        assert not ok
        assert witness == ("T", "ttt")

    def test_even_parity_required(self):
        xi = even_mstar(Q, {1: 1})
        even_xi = Derivation(xi.onTau, xi.onT, 0)
        with pytest.raises(ParityError):
            check_square_zero(even_xi)

    def test_maxlen_cap(self):
        ring = CoeffRing("Poly", symbols=("u1", "u2"))
        u = PowerSeries(ring, {1: ring.sym("u1"), 2: ring.sym("u2")}, EXACT)
        ok, _ = check_square_zero(moore_mstar(_Datum("even", 0, u=u)), maxlen=6)
        assert ok


class TestEndo:
    def test_inverse_identity(self):
        phi = normalized_endo(EVEN, PowerSeries(Q, {}, 8), PowerSeries(Q, {1: 1}, 8))
        inv = endo_inverse(phi)
        assert nc_to_powers(inv.imageT).coeffs == {1: Q.one()}
        assert inv.imageTau.terms == {"T": Q.one()}

    def test_inverse_scaling(self):
        phi = normalized_endo(EVEN, PowerSeries(Q, {}, 8), PowerSeries(Q, {1: 2}, 8))
        inv = endo_inverse(phi)
        f = nc_to_powers(inv.imageT)
        assert f.coeffs == {1: Q.el({0: "1/2"})}

    def test_inverse_pure_shift(self):
        g = PowerSeries(Q, {2: 3, 5: 1}, 9)
        phi = normalized_endo(EVEN, g, PowerSeries(Q, {1: 1}, 9))
        inv = endo_inverse(phi)
        shift = inv.imageTau - nc_word(Q, EVEN, "T")
        assert nc_to_powers(shift).coeffs == {2: Q.from_int(-3), 5: -Q.one()}

    def test_inverse_composes_to_identity(self):
        rng = random.Random(19)
        for ring in (Q, F7):
            for g in (EVEN, ODD):
                shift = rand_series(ring, rng, 8, ord_min=2)
                sub = rand_series(ring, rng, 8, unit_linear=True)
                phi = normalized_endo(g, shift, sub)
                both = endo_compose(phi, endo_inverse(phi))
                assert agree_nc(both.imageTau, nc_word(ring, g, "T", maxlen=8))
                assert agree_nc(both.imageT, nc_word(ring, g, "t", maxlen=8))

    def test_requires_unit_linear_part(self):
        phi = normalized_endo(Q, PowerSeries(Q, {}, 6), PowerSeries(Q, {2: 1}, 6))
        with pytest.raises(NotInvertibleError):
            endo_inverse(phi)

    def test_non_normalized_inverse_rejected(self):
        phi = NCEndo(nc_word(Q, EVEN, "T", maxlen=6), nc_word(Q, EVEN, "Tt", maxlen=6))
        with pytest.raises(StructureError):
            endo_inverse(phi)

    def test_scalar_part_rejected(self):
        with pytest.raises(StructureError):
            NCEndo(nc_scalar(Q, EVEN, 1, maxlen=6), nc_word(Q, EVEN, "t", maxlen=6))

    def test_substitution_is_a_homomorphism(self):
        rng = random.Random(20)
        for g in (EVEN, ODD):
            shift = rand_series(F7, rng, 8, ord_min=2)
            sub = rand_series(F7, rng, 8, unit_linear=True)
            phi = normalized_endo(g, shift, sub)
            x = rand_nc(F7, g, rng, 5)
            y = rand_nc(F7, g, rng, 5)
            lhs = apply_endo(phi, nc_mul(x, y))
            rhs = nc_mul(apply_endo(phi, x), apply_endo(phi, y))
            assert agree_nc(lhs, rhs)

    def test_conjugate_by_identity(self):
        xi = even_mstar(F7, {1: 3, 3: 2}, trunc=9)
        phi = normalized_endo(EVEN, PowerSeries(F7, {}, 9), PowerSeries(F7, {1: 1}, 9))
        assert agree_derivation(conjugate(phi, xi), xi)

    def test_conjugate_rescaling_recoordinatizes(self):
        # t -> 3t carries the classifying series u to u(3t)
        u = PowerSeries(F7, {1: 1, 3: 2}, 9)
        xi = even_mstar(F7, u.coeffs, trunc=9)
        phi = normalized_endo(EVEN, PowerSeries(F7, {}, 9), PowerSeries(F7, {1: 3}, 9))
        got = conjugate(phi, xi)
        want = even_mstar(F7, compose(u, PowerSeries(F7, {1: 3}, 9)).coeffs, trunc=9)
        assert agree_derivation(got, want)

    def test_conjugation_is_a_right_action(self):
        rng = random.Random(21)
        for _ in range(4):
            u = rand_series(F7, rng, 7)
            xi = even_mstar(F7, u.coeffs, trunc=7)
            phi = normalized_endo(
                EVEN,
                rand_series(F7, rng, 7, ord_min=2),
                rand_series(F7, rng, 7, unit_linear=True),
            )
            psi = normalized_endo(
                EVEN,
                rand_series(F7, rng, 7, ord_min=2),
                rand_series(F7, rng, 7, unit_linear=True),
            )
            lhs = conjugate(endo_compose(phi, psi), xi)
            rhs = conjugate(phi, conjugate(psi, xi))
            assert agree_derivation(lhs, rhs, upto=5)

    def test_conjugate_preserves_square_zero_odd(self):
        # parity-preserving automorphisms in the odd case carry odd
        # exponents only: the cell letter itself is odd
        rng = random.Random(22)
        for _ in range(4):
            v = {2 * i: rng.randrange(7) for i in range(1, 4)}
            w = {2 * i: rng.randrange(7) for i in range(1, 4)}
            xi = odd_mstar(F7, v, w, trunc=8)
            shift = PowerSeries(F7, {i: rng.randrange(7) for i in (3, 5, 7)}, 8)
            sub = PowerSeries(
                F7,
                {1: rng.randrange(1, 7), 3: rng.randrange(7), 5: rng.randrange(7)},
                8,
            )
            phi = normalized_endo(ODD, shift, sub)
            ok, _ = check_square_zero(conjugate(phi, xi))
            assert ok

    def test_conjugate_preserves_square_zero_even(self):
        # in the even case only shift-free automorphisms preserve parity
        rng = random.Random(23)
        for _ in range(4):
            u = rand_series(F7, rng, 8)
            xi = even_mstar(F7, u.coeffs, trunc=8)
            phi = normalized_endo(
                EVEN,
                PowerSeries(F7, {}, 8),
                rand_series(F7, rng, 8, unit_linear=True),
            )
            ok, _ = check_square_zero(conjugate(phi, xi))
            assert ok


def _ord(x):
    return min(len(w) for w in x.terms) if x.terms else ext(x.maxlen) + 1


def _rand_bounded(rng, scalar=False):
    """A random F7 word series, zero about a fifth of the time, EXACT half of the time.

    Finite bounds run from -1 (nothing known) to 5.
    """
    maxlen = EXACT if rng.random() < 0.5 else rng.randint(-1, 5)
    x = rand_nc(F7, ODD, rng, maxlen, nwords=rng.choice((0, 1, 2, 3, 4)))
    if scalar and rng.random() < 0.3:
        x = x + nc_scalar(F7, ODD, 3, maxlen)
    return x


class TestPrecisionModel:
    """Exact inputs give exact results; otherwise the module docstring's formulas."""

    def test_add_and_mul(self):
        rng = random.Random(61)
        for _ in range(200):
            a, b = _rand_bounded(rng, scalar=True), _rand_bounded(rng, scalar=True)
            la, lb = ext(a.maxlen), ext(b.maxlen)
            check_bound((a + b).maxlen, min(la, lb), a.maxlen, b.maxlen)
            check_bound(
                nc_mul(a, b).maxlen, min(la + _ord(b), lb + _ord(a)), a.maxlen, b.maxlen
            )

    def test_derivation_apply(self):
        # images may carry a scalar part: the order-0 case lowers word length
        rng = random.Random(62)
        for _ in range(200):
            on_tau, on_t = _rand_bounded(rng, scalar=True), _rand_bounded(rng, scalar=True)
            xi = Derivation(on_tau, on_t, 1)
            x = _rand_bounded(rng)
            s = min(_ord(on_tau), _ord(on_t)) - 1
            limg = min(ext(on_tau.maxlen), ext(on_t.maxlen))
            want = min(ext(x.maxlen) + s, _ord(x) + limg - 1)
            got = derivation_apply(xi, x).maxlen
            check_bound(got, want, x.maxlen, on_tau.maxlen, on_t.maxlen)

    def test_apply_endo(self):
        rng = random.Random(63)
        for _ in range(100):
            exact_images = rng.random() < 0.5
            images = []
            for _ in range(2):
                img = _rand_bounded(rng)
                images.append(
                    NCSeries(F7, ODD, img.terms, EXACT) if exact_images else img
                )
            phi = NCEndo(*images)
            x = _rand_bounded(rng)
            o = min(_ord(img) for img in images)
            want = times(ext(x.maxlen) + 1, o) - 1
            got = apply_endo(phi, x).maxlen
            if exact_images:
                check_bound(got, want, x.maxlen)
            else:
                # truncated images can only lower the bound further
                assert got <= from_ext(want)
        # letters sent to zero exactly: even an input known to length 0 is
        # mapped onto its scalar part, exactly
        zero = NCEndo(nc_zero(F7, ODD), nc_zero(F7, ODD))
        assert apply_endo(zero, nc_scalar(F7, ODD, 2, 0)).maxlen == EXACT

    def test_constructor_clamps(self):
        assert nc_zero(F7, ODD, EXACT + 5).maxlen == EXACT
        assert nc_zero(F7, ODD).order() == EXACT
        nothing = NCSeries(F7, ODD, {"": 1, "t": 1}, -5)
        assert nothing.maxlen == -1 and nothing.is_zero()
        assert nothing.order() == 0
