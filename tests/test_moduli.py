"""Classification layer: the action, orbit invariants, canonical forms."""

import random
from fractions import Fraction

import pytest

from moorealg.errors import (
    FieldRequiredError,
    HeightUndefinedError,
    IncompatibleRingError,
    InternalError,
    MooreError,
    NoUniformizerError,
    NotAUnitError,
    NotInvertibleError,
    ParityError,
    PrecisionError,
    StructureError,
    WildCaseError,
)
from moorealg import moduli
from moorealg.moduli import (
    CanonicalForm,
    MooreAlgebra,
    act,
    act_full,
    canonicalize_char0,
    canonicalize_dvr,
    degree_audit,
    equivalent,
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
    format_series,
    ps_t,
    super_derivative,
)

from util import (
    agree_derivation,
    digit_sweep_by_probes,
    ps_zero,
    rand_series,
)

Q = CoeffRing("Q")
QV = CoeffRing("Q", laurent=True)
F2 = CoeffRing("Fp", 2)
F5 = CoeffRing("Fp", 5)
F7 = CoeffRing("Fp", 7)
Z56 = CoeffRing("Zp", 5, 6)
Z56V = CoeffRing("Zp", 5, 6, laurent=True)
POLY = CoeffRing("Poly", symbols=("a",))

EVEN = GradingContext(0)
ODD = GradingContext(1)

Fr = Fraction


def S(ring, coeffs, trunc):
    return PowerSeries(ring, coeffs, trunc)


class TestMooreAlgebra:
    def test_even_fields(self):
        M = MooreAlgebra.even(S(Q, {2: 1}, 8))
        assert M.kind == "even" and M.d == 0
        assert M.v is None and M.w is None
        assert M.ring == Q

    def test_even_carries_degree(self):
        assert MooreAlgebra.even(S(Q, {2: 1}, 8), d=4).d == 4

    def test_even_rejects_odd_degree(self):
        with pytest.raises(ParityError):
            MooreAlgebra.even(S(Q, {2: 1}, 8), d=1)

    def test_even_rejects_constant_term(self):
        with pytest.raises(StructureError):
            MooreAlgebra.even(S(Q, {0: 1, 2: 1}, 8))

    def test_odd_fields(self):
        M = MooreAlgebra.odd(S(F5, {2: 3}, 6), S(F5, {2: 4}, 6))
        assert M.kind == "odd" and M.d == 1
        assert M.u is None
        assert M.ring == F5

    def test_odd_rejects_even_degree(self):
        with pytest.raises(ParityError):
            MooreAlgebra.odd(S(F5, {2: 3}, 6), S(F5, {2: 4}, 6), d=2)

    def test_odd_rejects_odd_exponents(self):
        with pytest.raises(ParityError):
            MooreAlgebra.odd(S(F5, {3: 1}, 6), S(F5, {2: 4}, 6))

    def test_odd_rejects_low_exponents(self):
        with pytest.raises(ParityError):
            MooreAlgebra.odd(S(F5, {2: 3}, 6), S(F5, {0: 1, 2: 4}, 6))

    def test_odd_rejects_ring_mismatch(self):
        with pytest.raises(IncompatibleRingError):
            MooreAlgebra.odd(S(F5, {2: 3}, 6), S(F7, {2: 4}, 6))

    def test_bad_kind(self):
        with pytest.raises(StructureError):
            MooreAlgebra("evenish", 0, u=S(Q, {2: 1}, 8))

    def test_feeds_word_layer(self):
        xi = moore_mstar(MooreAlgebra.even(S(F5, {2: 1}, EXACT)))
        assert check_square_zero(xi, maxlen=6) == (True, None)


class TestAct:
    def test_identity(self):
        u = S(F7, {2: 1, 3: 4}, 8)
        M = MooreAlgebra.even(u, d=4)
        out = act(M, ps_t(F7, EXACT))
        assert out.u == u
        assert out.d == 4

    def test_linear_rescale(self):
        # substituting r*t scales the degree-n slot by r^n
        out = act(MooreAlgebra.even(S(F7, {2: 1}, 6)), S(F7, {1: 3}, 6))
        assert out.u.coeffs == {2: F7.from_int(2)}

    def test_unknown_linear_coefficient_is_not_read_as_zero(self):
        M = MooreAlgebra.even(S(F7, {2: 1}, 8))
        with pytest.raises(PrecisionError):
            act(M, ps_zero(F7, 0))

    def test_right_action_law(self):
        rng = random.Random(101)
        for _ in range(5):
            u = rand_series(F7, rng, 8)
            f = rand_series(F7, rng, 8, unit_linear=True)
            g = rand_series(F7, rng, 8, unit_linear=True)
            M = MooreAlgebra.even(u)
            assert act(act(M, f), g).u == act(M, compose(f, g)).u

    def test_matches_conjugation(self):
        # substitution on the series side must track conjugating the
        # structure derivation by the letter-level endomorphism
        rng = random.Random(102)
        for _ in range(5):
            u = rand_series(F7, rng, 8, ord_min=2)
            f = rand_series(F7, rng, 8, unit_linear=True)
            M = MooreAlgebra.even(u)
            got = conjugate(
                normalized_endo(EVEN, ps_zero(F7, 8), f), moore_mstar(M)
            )
            want = moore_mstar(act(M, f))
            assert min(got.onTau.maxlen, want.onTau.maxlen) >= 8
            assert agree_derivation(got, want)

    def test_rejects_constant_term(self):
        with pytest.raises(NotInvertibleError):
            act(MooreAlgebra.even(S(F7, {2: 1}, 6)), S(F7, {0: 1, 1: 1}, 6))

    def test_rejects_nonunit_linear(self):
        with pytest.raises(NotInvertibleError):
            act(MooreAlgebra.even(S(F7, {2: 1}, 6)), S(F7, {2: 1}, 6))
        with pytest.raises(NotInvertibleError):
            act(MooreAlgebra.even(S(Z56, {1: 5, 2: 1}, 6)), S(Z56, {1: 5}, 6))

    def test_rejects_odd_datum(self):
        M = MooreAlgebra.odd(S(F7, {2: 3}, 6), S(F7, {2: 4}, 6))
        with pytest.raises(StructureError):
            act(M, ps_t(F7, 6))

    def test_rejects_ring_mismatch(self):
        with pytest.raises(IncompatibleRingError):
            act(MooreAlgebra.even(S(F7, {2: 1}, 6)), ps_t(F5, 6))


class TestActFull:
    def test_identity_pair(self):
        rng = random.Random(111)
        A = rand_series(F7, rng, 8, ord_min=2, step=2, density=0.6)
        B = rand_series(F7, rng, 8, ord_min=2, step=2, density=0.6)
        Ap, Bp = act_full(A, B, ps_zero(F7, 8), ps_t(F7, 8))
        assert Ap == A and Bp == B

    def test_identity_pair_exact_linear(self):
        A = S(F7, {2: 3, 6: 1}, 8)
        B = S(F7, {4: 2}, 8)
        Ap, Bp = act_full(A, B, ps_zero(F7, EXACT), ps_t(F7, EXACT))
        assert Ap == A and Bp == B

    def test_substitution_only(self):
        # with no shift and no letter-mixing the action is plain composition
        rng = random.Random(112)
        A = rand_series(F7, rng, 8, ord_min=2, step=2, density=0.6)
        F = rand_series(F7, rng, 8, step=2, unit_linear=True, density=0.6)
        Ap, Bp = act_full(A, ps_zero(F7, 8), ps_zero(F7, 8), F)
        assert Ap == compose(A, F)
        assert Bp.is_zero()

    def test_matches_conjugation(self):
        rng = random.Random(113)
        for _ in range(8):
            A = rand_series(F7, rng, 8, ord_min=2, step=2, density=0.6)
            B = rand_series(F7, rng, 8, ord_min=2, step=2, density=0.6)
            G = rand_series(F7, rng, 8, step=2, density=0.6)
            F = rand_series(F7, rng, 8, step=2, unit_linear=True, density=0.6)
            Ap, Bp = act_full(A, B, G, F)
            got = conjugate(
                normalized_endo(ODD, G, F),
                moore_mstar(MooreAlgebra.odd(v=B, w=A)),
            )
            want = moore_mstar(MooreAlgebra.odd(v=Bp, w=Ap))
            assert min(got.onTau.maxlen, got.onT.maxlen) >= 8
            assert agree_derivation(got, want)

    def test_shift_only_square_term(self):
        # F = t isolates the shift contributions: A picks up -G^2 and the
        # cross term -B*dG, B the anticommutator 2tG
        G = S(F7, {1: 2, 3: 1}, 8)
        A = S(F7, {2: 5}, 8)
        B = S(F7, {2: 3}, 8)
        Ap, Bp = act_full(A, B, G, ps_t(F7, 8))
        assert Ap == A - G * G - B * super_derivative(G)
        assert Bp == G.shifted(1).scaled(F7.from_int(2)) + B

    def test_parity_gates(self):
        good_A = S(F7, {2: 1}, 8)
        good_G = S(F7, {1: 1}, 8)
        good_F = S(F7, {1: 1}, 8)
        with pytest.raises(ParityError):
            act_full(S(F7, {3: 1}, 8), good_A, good_G, good_F)
        with pytest.raises(ParityError):
            act_full(S(F7, {0: 1}, 8), good_A, good_G, good_F)
        with pytest.raises(ParityError):
            act_full(good_A, S(F7, {2: 1, 5: 1}, 8), good_G, good_F)
        with pytest.raises(ParityError):
            act_full(good_A, good_A, S(F7, {2: 1}, 8), good_F)
        with pytest.raises(ParityError):
            act_full(good_A, good_A, good_G, S(F7, {1: 1, 2: 1}, 8))

    def test_substitution_needs_unit_linear(self):
        A = S(F7, {2: 1}, 8)
        with pytest.raises(NotInvertibleError):
            act_full(A, A, ps_zero(F7, 8), S(F7, {3: 1}, 8))
        AZ = S(Z56, {2: 1}, 8)
        with pytest.raises(NotInvertibleError):
            act_full(AZ, AZ, ps_zero(Z56, 8), S(Z56, {1: 5}, 8))

    def test_ring_mismatch(self):
        A = S(F7, {2: 1}, 8)
        with pytest.raises(IncompatibleRingError):
            act_full(A, S(F5, {2: 1}, 8), ps_zero(F7, 8), ps_t(F7, 8))

    def test_exact_nonlinear_substitution(self):
        A = S(F7, {2: 1}, EXACT)
        with pytest.raises(PrecisionError):
            act_full(A, A, ps_zero(F7, EXACT), S(F7, {1: 1, 3: 1}, EXACT))


class TestOrbitInvariant:
    def test_rational_examples(self):
        n, rep = orbit_invariant_char0(MooreAlgebra.even(S(Q, {2: 1, 3: 1}, 8)))
        assert (n, rep) == (2, Q.from_int(1))
        n, rep = orbit_invariant_char0(MooreAlgebra.even(S(Q, {5: 3}, EXACT)))
        assert (n, rep) == (5, Q.from_int(3))

    def test_rational_power_reduction(self):
        # 96 = 2^5 * 3 so its fifth-power class is that of 3
        a = orbit_invariant_char0(MooreAlgebra.even(S(Q, {5: 96}, 8)))
        b = orbit_invariant_char0(MooreAlgebra.even(S(Q, {5: 3}, 8)))
        assert a == b == (5, Q.from_int(3))

    def test_rational_squares(self):
        a = orbit_invariant_char0(MooreAlgebra.even(S(Q, {2: 4}, 8)))
        assert a == (2, Q.from_int(1))

    def test_rational_signs(self):
        # -1 is a cube, not a square
        assert orbit_invariant_char0(MooreAlgebra.even(S(Q, {3: -1}, 8))) == (
            3,
            Q.from_int(1),
        )
        assert orbit_invariant_char0(MooreAlgebra.even(S(Q, {2: -1}, 8))) == (
            2,
            Q.from_int(-1),
        )

    def test_rational_fractions(self):
        # 1/2 and 4 differ by the cube 8
        got = orbit_invariant_char0(
            MooreAlgebra.even(S(Q, {3: Q.el({0: Fr(1, 2)})}, 8))
        )
        assert got == (3, Q.from_int(4))

    def test_prime_field_examples(self):
        want = {1: 1, 2: 1, 3: 3, 4: 1, 5: 3, 6: 3}
        for c, rep in want.items():
            got = orbit_invariant_char0(MooreAlgebra.even(S(F7, {2: c}, 8)))
            assert got == (2, F7.from_int(rep)), c

    def test_prime_field_cubes(self):
        a = orbit_invariant_char0(MooreAlgebra.even(S(F7, {3: 6}, 8)))
        b = orbit_invariant_char0(MooreAlgebra.even(S(F7, {3: 1}, 8)))
        assert a == b == (3, F7.from_int(1))

    def test_two_element_field(self):
        got = orbit_invariant_char0(MooreAlgebra.even(S(F2, {3: 1}, 8)))
        assert got == (3, F2.from_int(1))

    def test_laurent_keeps_internal_degree(self):
        a = orbit_invariant_char0(MooreAlgebra.even(S(QV, {2: QV.vpow(1)}, 8)))
        b = orbit_invariant_char0(MooreAlgebra.even(S(QV, {2: QV.vpow(1, 4)}, 8)))
        c = orbit_invariant_char0(MooreAlgebra.even(S(QV, {2: QV.vpow(3)}, 8)))
        assert a == (2, QV.vpow(1))
        assert a == b
        assert c == (2, QV.vpow(3)) and a != c

    def test_laurent_nonunit_leading(self):
        u = S(QV, {2: QV.vpow(1) + QV.one()}, 8)
        with pytest.raises(NotAUnitError):
            orbit_invariant_char0(MooreAlgebra.even(u))

    def test_wild_height(self):
        with pytest.raises(WildCaseError):
            orbit_invariant_char0(MooreAlgebra.even(S(F5, {5: 1, 6: 1}, 8)))

    def test_needs_field(self):
        with pytest.raises(FieldRequiredError):
            orbit_invariant_char0(MooreAlgebra.even(S(Z56, {1: 5, 2: 1}, 8)))
        with pytest.raises(FieldRequiredError):
            orbit_invariant_char0(MooreAlgebra.even(S(POLY, {2: 1}, 8)))

    def test_zero_series(self):
        with pytest.raises(HeightUndefinedError):
            orbit_invariant_char0(MooreAlgebra.even(ps_zero(Q, 8)))

    def test_odd_datum(self):
        M = MooreAlgebra.odd(S(F7, {2: 3}, 6), S(F7, {2: 4}, 6))
        with pytest.raises(StructureError):
            orbit_invariant_char0(M)


class TestCanonicalizeChar0:
    def test_already_reduced_exact(self):
        u = S(Q, {2: 1}, EXACT)
        cf = canonicalize_char0(u)
        assert cf.kind == "graded_field" and cf.n == 2
        assert cf.form == u
        assert cf.witness == ps_t(Q, EXACT)

    def test_frozen_rational(self):
        u = S(Q, {2: 1, 3: 1}, 4)
        cf = canonicalize_char0(u)
        assert cf.form.coeffs == {2: Q.from_int(1)}
        assert cf.witness.coeffs == {
            1: Q.from_int(1),
            2: Q.el({0: Fr(-1, 2)}),
            3: Q.el({0: Fr(5, 8)}),
            4: Q.el({0: Fr(-5, 8)}),
        }
        assert compose(u, cf.witness) == cf.form

    def test_rational_longer(self):
        u = S(Q, {2: 1, 3: 1}, 10)
        cf = canonicalize_char0(u)
        assert cf.form.coeffs == {2: Q.from_int(1)} and cf.form.trunc == 10
        assert cf.witness.coeffs[2] == Q.el({0: Fr(-1, 2)})
        assert compose(u, cf.witness) == cf.form

    def test_frozen_prime_field(self):
        u = S(F7, {3: 2, 4: 1}, 6)
        cf = canonicalize_char0(u)
        assert cf.n == 3
        assert cf.form.coeffs == {3: F7.from_int(2)}
        # first corrective substitution is t - t^2/6 = t + t^2
        assert cf.witness.coeffs[2] == F7.from_int(1)
        assert compose(u, cf.witness) == cf.form

    def test_laurent(self):
        u = S(QV, {2: QV.vpow(1), 3: 1}, 5)
        cf = canonicalize_char0(u)
        assert cf.form.coeffs == {2: QV.vpow(1)}
        assert compose(u, cf.witness) == cf.form

    def test_random_heights(self):
        rng = random.Random(121)
        for n in range(2, 6):
            coeffs = {n: rng.randint(1, 9)}
            for i in range(n + 1, 11):
                coeffs[i] = Fr(rng.randint(-9, 9), rng.randint(1, 5))
            u = S(Q, coeffs, 10)
            cf = canonicalize_char0(u)
            assert cf.n == n
            assert cf.form.coeffs == {n: u.coeffs[n]}
            assert compose(u, cf.witness) == cf.form

    def test_exact_with_tail(self):
        with pytest.raises(PrecisionError):
            canonicalize_char0(S(Q, {2: 1, 3: 1}, EXACT))

    def test_wild_height(self):
        with pytest.raises(WildCaseError):
            canonicalize_char0(S(F5, {5: 1, 6: 1}, 8))
        with pytest.raises(WildCaseError):
            canonicalize_char0(S(F5, {10: 1}, 12))

    def test_gates(self):
        with pytest.raises(FieldRequiredError):
            canonicalize_char0(S(Z56, {1: 5, 2: 1}, 8))
        with pytest.raises(HeightUndefinedError):
            canonicalize_char0(ps_zero(Q, 8))
        with pytest.raises(StructureError):
            canonicalize_char0(S(Q, {0: 1, 2: 1}, 8))
        with pytest.raises(NotAUnitError):
            canonicalize_char0(S(QV, {2: QV.vpow(1) + QV.one()}, 8))


class TestCanonicalizeDvr:
    def test_trivial_immediate(self):
        u = S(Z56, {1: 5}, 10)
        cf = canonicalize_dvr(u)
        assert cf.kind == "trivial" and cf.n is None
        assert cf.form == u
        assert cf.witness == ps_t(Z56, 10)

    def test_trivial_immediate_exact(self):
        cf = canonicalize_dvr(S(Z56, {1: 5}, EXACT))
        assert cf.kind == "trivial"
        assert cf.witness == ps_t(Z56, EXACT)

    def test_trivial_rescale(self):
        cf = canonicalize_dvr(S(Z56, {1: 10}, 10))
        assert cf.kind == "trivial"
        assert cf.form.coeffs == {1: Z56.from_int(5)}
        assert cf.witness.coeffs == {1: Z56.from_int(7813)}

    def test_trivial_rescale_exact(self):
        cf = canonicalize_dvr(S(Z56, {1: 10}, EXACT))
        assert cf.kind == "trivial"
        assert cf.witness.coeffs == {1: Z56.from_int(7813)}
        assert cf.witness.trunc == EXACT

    def test_trivial_with_tail(self):
        u = S(Z56, {1: 5, 3: 5}, 8)
        cf = canonicalize_dvr(u)
        assert cf.kind == "trivial"
        assert cf.form.coeffs == {1: Z56.from_int(5)}
        assert compose(u, cf.witness) == cf.form

    def test_already_canonical(self):
        u = S(Z56, {1: 5, 2: 1}, 8)
        cf = canonicalize_dvr(u)
        assert cf.kind == "canonical" and cf.n == 2
        assert cf.form == u
        assert cf.witness == ps_t(Z56, 8)

    def test_gauge_fixes_top_digit(self):
        # 5t + 9376t^2 = (5t + t^2) o (12501 t); the top base-5 digit of
        # the leading unit slot is the one orbit freedom and is gauged out
        u = S(Z56, {1: 5, 2: 9376}, 8)
        assert compose(S(Z56, {1: 5, 2: 1}, 8), S(Z56, {1: 12501}, EXACT)) == u
        cf = canonicalize_dvr(u)
        assert cf.kind == "canonical" and cf.n == 2
        assert cf.form.coeffs == {1: Z56.from_int(5), 2: Z56.from_int(1)}
        assert cf.witness.coeffs == {1: Z56.from_int(3126)}
        assert compose(u, cf.witness) == cf.form

    def test_double_iteration(self):
        u = S(Z56, {1: 5, 2: 5, 3: 1, 4: 1}, 10)
        cf = canonicalize_dvr(u)
        assert cf.kind == "canonical" and cf.n == 3
        assert set(cf.form.coeffs) <= {1, 2, 3}
        mid = cf.form.coeffs.get(2)
        assert mid is None or mid.valuation() >= 1
        assert compose(u, cf.witness) == cf.form

    def test_idempotent(self):
        cf = canonicalize_dvr(S(Z56, {1: 5, 2: 5, 3: 1, 4: 1}, 10))
        again = canonicalize_dvr(cf.form)
        assert again.form == cf.form
        assert again.witness.coeffs == {1: Z56.from_int(1)}

    def test_orbit_invariance_canonical(self):
        rng = random.Random(131)
        u = S(Z56, {1: 5, 2: 5, 3: 1, 4: 1}, 10)
        base = canonicalize_dvr(u)
        for _ in range(5):
            f = rand_series(Z56, rng, 10, unit_linear=True)
            cf = canonicalize_dvr(compose(u, f))
            assert cf.kind == base.kind and cf.n == base.n
            assert cf.form.coeffs == base.form.coeffs

    def test_orbit_invariance_deep_slack(self):
        # height 4 leaves a three-wide invisible window at truncation 10,
        # the worst slack the digit sweep has to clear
        rng = random.Random(133)
        u = S(Z56, {1: 5, 2: 10, 3: 15, 4: 2, 6: 1}, 10)
        base = canonicalize_dvr(u)
        assert base.n == 4
        for _ in range(3):
            f = rand_series(Z56, rng, 10, unit_linear=True)
            v = compose(u, f)
            cf = canonicalize_dvr(v)
            assert cf.form.coeffs == base.form.coeffs
            assert compose(v, cf.witness) == cf.form

    def test_orbit_invariance_trivial(self):
        rng = random.Random(132)
        u = S(Z56, {1: 5, 2: 25, 4: 5}, 8)
        for _ in range(4):
            f = rand_series(Z56, rng, 8, unit_linear=True)
            cf = canonicalize_dvr(compose(u, f))
            assert cf.kind == "trivial"
            assert cf.form.coeffs == {1: Z56.from_int(5)}

    def test_wild_degree(self):
        with pytest.raises(WildCaseError):
            canonicalize_dvr(S(Z56, {1: 5, 5: 1}, 8))
        with pytest.raises(WildCaseError):
            canonicalize_dvr(S(Z56, {1: 5, 2: 5, 10: 1}, 12))

    def test_linear_slot_gates(self):
        with pytest.raises(StructureError):
            canonicalize_dvr(S(Z56, {1: 1, 2: 1}, 8))
        with pytest.raises(StructureError):
            canonicalize_dvr(S(Z56, {1: 25, 2: 1}, 8))
        with pytest.raises(StructureError):
            canonicalize_dvr(S(Z56, {2: 1}, 8))
        with pytest.raises(StructureError):
            canonicalize_dvr(S(Z56, {0: 5, 1: 5}, 8))

    def test_mode_gate(self):
        with pytest.raises(NoUniformizerError):
            canonicalize_dvr(S(Q, {1: 5, 2: 1}, 8))
        with pytest.raises(NoUniformizerError):
            canonicalize_dvr(S(F5, {1: 1}, 8))

    def test_exact_needs_work(self):
        with pytest.raises(PrecisionError):
            canonicalize_dvr(S(Z56, {1: 5, 2: 1, 3: 1}, EXACT))
        with pytest.raises(PrecisionError):
            canonicalize_dvr(S(Z56, {1: 5, 2: 5}, EXACT))

    def test_truncation_too_small(self):
        with pytest.raises(PrecisionError):
            canonicalize_dvr(ps_zero(Z56, 0))

    def test_laurent_shape(self):
        u = S(Z56V, {1: 5, 2: Z56V.vpow(1)}, 8)
        cf = canonicalize_dvr(u)
        assert cf.kind == "canonical" and cf.n == 2
        assert cf.form == u
        assert cf.witness == ps_t(Z56V, 8)


def _anchored_input(rng, p, K, k, N):
    """u = p*c*t + (multiples of p below t^k) + unit*t^k + tail, and a unit-linear f."""
    ring = CoeffRing("Zp", p, K)
    mod = p**K

    def unit():
        return rng.randrange(1, p) + p * rng.randrange(mod // p)

    u = {1: p * rng.randrange(1, p), k: unit()}
    u.update({i: p * rng.randrange(1, mod // p) for i in range(2, k) if rng.random() < 0.7})
    u.update({i: rng.randrange(1, mod) for i in range(k + 1, N + 1) if rng.random() < 0.7})
    f = {1: unit()}
    f.update({i: rng.randrange(1, mod) for i in range(2, N + 1) if rng.random() < 0.7})
    return S(ring, u, N), S(ring, f, N)


def _canonical_outcome(u):
    try:
        cf = canonicalize_dvr(u)
    except MooreError as exc:
        return type(exc)
    return (cf.kind, cf.n, cf.form.coeffs, cf.form.trunc, cf.witness.coeffs, cf.witness.trunc)


class TestDigitSweep:
    def test_matches_probe_oracle(self, monkeypatch):
        # predicted moves against trying every (m, jm, d): identical kind,
        # height, form, witness and truncations on a seeded corpus of two
        # inputs per ring, which together take every anchor 2..7 and every
        # truncation rule k+1, k+2, 8, 10, 12
        rng = random.Random(6006)
        rings = ((5, 6), (7, 4), (3, 6), (5, 3), (2, 5), (11, 3))
        inputs = []
        for q in range(2 * len(rings)):
            p, K = rings[q // 2]
            k = 2 + q % 6
            if k % p == 0:
                k -= 1
            N = (k + 1, k + 2, 8, 10, 12)[q % 5]
            u, f = _anchored_input(rng, p, K, k, N)
            inputs += [u, compose(u, f)]
        got = [_canonical_outcome(x) for x in inputs]
        monkeypatch.setattr(
            moduli, "_digit_sweep", lambda cur, wit, k, source: digit_sweep_by_probes(cur, wit, k)
        )
        for x, outcome in zip(inputs, got):
            assert outcome == _canonical_outcome(x), format_series(x)

    def test_wrong_prediction_raises(self, monkeypatch):
        # a corrupted unit response predicts a d that does not clear the digit
        true_response = moduli._unit_response
        monkeypatch.setattr(
            moduli, "_unit_response", lambda *args: [2 * x % 7 for x in true_response(*args)]
        )
        u = S(CoeffRing("Zp", 7, 4), {1: 7, 2: 1, 3: 1}, 3)
        with pytest.raises(InternalError) as err:
            canonicalize_dvr(u)
        assert format_series(u) in str(err.value)


class TestEquivalent:
    def test_rational_squares(self):
        a = MooreAlgebra.even(S(Q, {2: 1}, 6))
        b = MooreAlgebra.even(S(Q, {2: 4}, 6))
        c = MooreAlgebra.even(S(Q, {2: 3}, 6))
        assert equivalent(a, b)
        assert not equivalent(a, c)

    def test_prime_field(self):
        a = MooreAlgebra.even(S(F7, {2: 1}, 6))
        b = MooreAlgebra.even(S(F7, {2: 2}, 6))
        c = MooreAlgebra.even(S(F7, {2: 3}, 6))
        assert equivalent(a, b)
        assert not equivalent(a, c)

    def test_zero_series(self):
        z = MooreAlgebra.even(ps_zero(Q, 6))
        assert equivalent(z, MooreAlgebra.even(ps_zero(Q, 6)))
        assert not equivalent(z, MooreAlgebra.even(S(Q, {2: 1}, 6)))

    def test_degree_mismatch(self):
        a = MooreAlgebra.even(S(Q, {2: 1}, 6))
        b = MooreAlgebra.even(S(Q, {2: 1}, 6), d=2)
        assert not equivalent(a, b)

    def test_dvr_distinct_forms(self):
        a = MooreAlgebra.even(S(Z56, {1: 5, 2: 1}, 8))
        b = MooreAlgebra.even(S(Z56, {1: 5, 3: 1}, 8))
        assert not equivalent(a, b)

    def test_dvr_trivial_orbit(self):
        a = MooreAlgebra.even(S(Z56, {1: 5}, 8))
        b = MooreAlgebra.even(S(Z56, {1: 10}, 8))
        c = MooreAlgebra.even(S(Z56, {1: 5, 2: 1}, 8))
        assert equivalent(a, b)
        assert not equivalent(a, c)

    def test_dvr_gauge_pair(self):
        a = MooreAlgebra.even(S(Z56, {1: 5, 2: 1}, 8))
        b = MooreAlgebra.even(S(Z56, {1: 5, 2: 9376}, 8))
        assert equivalent(a, b)

    def test_random_orbits(self):
        rng = random.Random(141)
        for _ in range(4):
            n = rng.randint(2, 5)
            coeffs = {n: rng.randint(1, 6)}
            for i in range(n + 1, 9):
                coeffs[i] = rng.randrange(7)
            M = MooreAlgebra.even(S(F7, coeffs, 8))
            f = rand_series(F7, rng, 8, unit_linear=True)
            assert equivalent(M, act(M, f))

    def test_wild_propagates(self):
        a = MooreAlgebra.even(S(F5, {5: 1}, 8))
        with pytest.raises(WildCaseError):
            equivalent(a, a)

    def test_gates(self):
        a = MooreAlgebra.even(S(F7, {2: 1}, 6))
        with pytest.raises(IncompatibleRingError):
            equivalent(a, MooreAlgebra.even(S(F5, {2: 1}, 6)))
        with pytest.raises(StructureError):
            equivalent(a, MooreAlgebra.odd(S(F7, {2: 3}, 6), S(F7, {2: 4}, 6)))
        p = MooreAlgebra.even(S(POLY, {2: 1}, 6))
        with pytest.raises(FieldRequiredError):
            equivalent(p, p)


class TestDegreeAudit:
    def test_periodic_family_passes(self):
        u = S(Z56V, {1: 5, 2: Z56V.vpow(1)}, 8)
        assert degree_audit(MooreAlgebra.even(u)) == []

    def test_constant_slot_fails_for_higher_degree(self):
        u = S(Z56V, {1: 5, 2: 1}, 8)
        report = degree_audit(MooreAlgebra.even(u, d=2))
        assert {e["exponent"] for e in report} == {1, 2}
        (two,) = [e for e in report if e["exponent"] == 2]
        assert two["expected_degree"] == 6
        assert two["found_degrees"] == [0]

    def test_non_laurent_is_vacuous(self):
        assert degree_audit(MooreAlgebra.even(S(F7, {2: 1}, 6))) == []

    def test_odd_variant(self):
        v = S(QV, {2: QV.vpow(1)}, 6)
        w = S(QV, {2: QV.vpow(2)}, 6)
        assert degree_audit(MooreAlgebra.odd(v, w)) == []
        report = degree_audit(MooreAlgebra.odd(v, S(QV, {2: QV.vpow(1)}, 6)))
        assert len(report) == 1
        assert report[0]["series"] == "w"
        assert report[0]["expected_degree"] == 4
        assert report[0]["found_degrees"] == [2]
