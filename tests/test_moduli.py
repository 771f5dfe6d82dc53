"""Classification layer: the action, orbit invariants, canonical forms."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

import moorealg
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
from moorealg.rings import CoeffRing, parse_ring
from moorealg.series import (
    EXACT,
    PowerSeries,
    compose,
    format_series,
    ps_t,
    super_derivative,
    _residues,
)

from util import (
    agree_derivation,
    digit_sweep_by_probes,
    dvr_reduce_by_compose,
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


def _sympy_class_rep_q(c, n):
    """The rational class representative as sympy's factorint gives it."""
    from sympy import factorint

    exps = dict(factorint(abs(c.numerator)))
    for q, k in factorint(c.denominator).items():
        exps[q] = exps.get(q, 0) - k
    rep = Fraction(1)
    for q, k in exps.items():
        if k % n:
            rep *= Fraction(q) ** (k % n)
    if n % 2 == 0 and c < 0:
        rep = -rep
    return rep


def _sympy_class_rep_fp(c, p, n):
    """The prime-field class representative by sympy's primitive root and log."""
    from sympy.ntheory import discrete_log
    from sympy.ntheory.residue_ntheory import primitive_root

    d = gcd(n, p - 1)
    if d == 1 or c == 1:
        return 1
    g = primitive_root(p)
    return pow(g, discrete_log(p, c, g) % d, p)


class TestClassRepsAgainstSympy:
    # a seeded corpus against sympy's factorint, primitive_root and
    # discrete_log, which the library no longer imports

    def test_rational_corpus(self):
        from sympy import nextprime

        rng = random.Random(1301)
        p12, q12 = 100000000003, 100001000009  # two 12-digit primes
        nums = [1, p12 * q12, p12**2 * 9999, 1000000000039**2, 2**99]
        # perfect powers, with bases up to 10^6 or 10^(30/k)
        nums += [
            rng.randrange(2, min(10**6, int(10 ** (30 / k)))) ** k
            for k in range(2, 13)
            for _ in range(3)
        ]
        nums += [rng.randrange(1, 10**15) for _ in range(40)]
        nums += [
            rng.randrange(1, 10**6) * nextprime(rng.randrange(10**23)) for _ in range(15)
        ]
        nums += [
            rng.randrange(1, 10**4) ** rng.randrange(2, 6) * rng.randrange(1, 10**6)
            for _ in range(20)
        ]
        dens = [1, 1, 2**40, 3**25, p12] + [rng.randrange(1, 10**12) for _ in range(40)]
        assert max(nums) <= 10**30
        for i, num in enumerate(nums):
            n = 1 + i % 12
            c = Fraction(rng.choice((1, -1)) * num, rng.choice(dens))
            got = moduli._class_rep_q(c, n)
            assert got == _sympy_class_rep_q(c, n), (c, n)
            assert type(got) is Fraction

    def test_prime_field_corpus(self):
        from sympy import prevprime, randprime

        rng = random.Random(1302)
        primes = [2, 3, 5, 7, 8191, prevprime(10**5)]
        primes += [randprime(2, 10**5) for _ in range(60)]
        # 61-bit primes with smooth p - 1, so that sympy's log is quick
        primes += [2**61 - 1, 1269221146860616951, 1681552155375457861, 1740290253200640181]
        for p in primes:
            cs = {1, p - 1} | {rng.randrange(1, p) for _ in range(4)}
            for n in range(1, 13):
                if n % p == 0:
                    continue
                for c in cs:
                    got = moduli._class_rep_fp(c, p, n)
                    assert got == _sympy_class_rep_fp(c, p, n), (c, p, n)
                    assert type(got) is int

    def test_no_sympy_at_run_time(self):
        src = os.path.dirname(os.path.dirname(moorealg.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = """
import sys
from moorealg import cli
from moorealg.moduli import MooreAlgebra, orbit_invariant_char0
from moorealg.rings import CoeffRing
from moorealg.series import PowerSeries
for ring in (CoeffRing("Q"), CoeffRing("Fp", 7)):
    orbit_invariant_char0(MooreAlgebra.even(PowerSeries(ring, {2: 3, 3: 1}, 8)))
argv = ["invariant", "--ring", "Q", "--series", "12*t^2 + t^3", "--trunc", "8"]
assert cli.main(argv) == 0
assert "sympy" not in sys.modules, sorted(m for m in sys.modules if "sympy" in m)
"""
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["height: 2", "class: 3"]


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

    def test_zero_linear_coefficient_over_z_mod_p(self):
        # over Z/p the zero residue has valuation K = 1, yet it is no unit
        # multiple of p: the gate rejects it as it does for K >= 2
        for K in (1, 2):
            ring = CoeffRing("Zp", 5, K)
            u = S(ring, {2: 1, 3: 1}, 6)
            with pytest.raises(StructureError):
                canonicalize_dvr(u)
            with pytest.raises(StructureError):
                equivalent(MooreAlgebra.even(u), MooreAlgebra.even(u))

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


def _graded(ring, bar, e, shift):
    """Put v^(e*i + shift) on the t^i coefficient of a plain {i: int} map."""
    return {i: ring.vpow(e * i + shift, c) for i, c in bar.items()}


class TestGradedCanonicalForms:
    def test_homogeneous_reproducer(self):
        # both sides are degree-homogeneous (e = 1); without the digit
        # sweep they got 5t + 24v^3t^4 and 5t + 100vt^2 + 24v^3t^4
        ring = CoeffRing("Zp", 5, 3, laurent=True)
        u = S(ring, {1: 5, 4: ring.vpow(3, 49)}, 6)
        f = S(ring, {1: 1, 5: ring.vpow(4, 31)}, 6)
        want = {1: ring.from_int(5), 4: ring.vpow(3, 4)}
        for x in (u, compose(u, f)):
            cf = canonicalize_dvr(x)
            assert (cf.kind, cf.n, cf.form.coeffs) == ("canonical", 4, want)
            assert compose(x, cf.witness) == cf.form
        assert equivalent(MooreAlgebra.even(u), MooreAlgebra.even(compose(u, f)))

    def test_cell_degree_is_read_from_the_linear_slot(self):
        # u_1 = 5v fixes e = 2 (d = 2); the input is already canonical
        u = S(Z56V, {1: Z56V.vpow(1, 5), 2: Z56V.vpow(3)}, 8)
        cf = canonicalize_dvr(u)
        assert (cf.kind, cf.n) == ("canonical", 2)
        assert cf.form == u
        assert cf.witness == ps_t(Z56V, 8)
        assert degree_audit(MooreAlgebra.even(cf.form, 2)) == []

    def test_act_then_recanonicalize(self):
        rng = random.Random(151)
        for spec in ("Zp:5:3[v]", "Zp:5:6[v]"):
            ring = parse_ring(spec)
            m = ring.p**ring.K
            for e in (-1, 0, 1, 2):
                for N in (3, 5, 7, 9):
                    bar = {i: rng.randrange(m) for i in range(2, N + 1) if rng.random() < 0.7}
                    bar[1] = 5 * rng.choice((1, 2, 3, 4, 6))
                    fbar = {i: rng.randrange(m) for i in range(2, N + 1) if rng.random() < 0.7}
                    fbar[1] = rng.choice((1, 2, 3, 4, 6, 7))
                    u = S(ring, _graded(ring, bar, e, -1), N)
                    f = S(ring, _graded(ring, fbar, e, -e), N)
                    outcomes = []
                    for x in (u, compose(u, f)):
                        try:
                            cf = canonicalize_dvr(x)
                        except WildCaseError:
                            outcomes.append(WildCaseError)
                            continue
                        assert compose(x, cf.witness) == cf.form
                        assert degree_audit(MooreAlgebra.even(cf.form, 2 * e - 2)) == []
                        outcomes.append((cf.kind, cf.n, cf.form.coeffs))
                    assert outcomes[0] == outcomes[1], (spec, e, N, format_series(u))

    def test_inhomogeneous_input_raises(self):
        ring = CoeffRing("Zp", 5, 3, laurent=True)
        for coeffs in (
            {1: 5, 4: 49},  # d = 0 needs v^3 on t^4
            {1: 5, 2: ring.vpow(1), 3: ring.vpow(1)},
            {1: ring.vpow(0, 5) + ring.vpow(1, 5), 2: ring.vpow(1)},  # u_1 not a monomial
        ):
            with pytest.raises(StructureError):
                canonicalize_dvr(S(ring, coeffs, 6))
        a = MooreAlgebra.even(S(ring, {1: 5, 4: 49}, 6))
        b = MooreAlgebra.even(S(ring, {1: 5, 4: 49, 5: 30}, 6))
        with pytest.raises(StructureError):
            equivalent(a, b)
        # homogeneous for d = 0, but the data claim d = 2
        u = S(ring, {1: 5, 4: ring.vpow(3, 49)}, 6)
        with pytest.raises(StructureError):
            equivalent(MooreAlgebra.even(u, 2), MooreAlgebra.even(u, 2))

    def test_gates_match_the_plain_ring(self):
        with pytest.raises(StructureError):
            canonicalize_dvr(S(Z56V, {1: 25, 2: Z56V.vpow(1)}, 8))
        with pytest.raises(StructureError):
            canonicalize_dvr(S(Z56V, {2: Z56V.vpow(1)}, 8))
        with pytest.raises(StructureError):
            canonicalize_dvr(S(Z56V, {0: Z56V.vpow(-1, 5), 1: 5}, 8))
        with pytest.raises(PrecisionError):
            canonicalize_dvr(ps_zero(Z56V, 0))
        with pytest.raises(WildCaseError):
            canonicalize_dvr(S(Z56V, {1: 5, 5: Z56V.vpow(4)}, 8))


def _orbit_oracle(p, K, N):
    """Every admissible series over Z/p^K at truncation N, and its orbit.

    Admissible: for K > 1, u_1 of valuation exactly 1; over the field
    F_p (K = 1), every series with u_0 = 0.  Orbits come from union-find
    under t -> g*t (g a unit) and t -> t + t^m (2 <= m <= N), composed
    by a plain-integer binomial loop.  Returns the series (coefficient
    tuples for t^1..t^N), the root of each one's orbit, and the index of
    each series in that list.
    """
    mod = p**K
    units = [g for g in range(1, mod) if g % p]
    linear = range(p) if K == 1 else [p * a for a in range(1, mod // p) if a % p]
    series = [(a,) + rest for a in linear for rest in product(range(mod), repeat=N - 1)]
    index = {s: i for i, s in enumerate(series)}
    parent = list(range(len(series)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, s):
        a, b = find(i), find(index[s])
        parent[a] = b

    for i, s in enumerate(series):
        for g in units:
            union(i, tuple(c * pow(g, e, mod) % mod for e, c in enumerate(s, 1)))
        for m in range(2, N + 1):
            # u(t + t^m) = sum of u_e * C(e, j) * t^(e + j(m - 1))
            out = [0] * (N + 1)
            for e, c in enumerate(s, 1):
                for j in range(e + 1):
                    x = e + j * (m - 1)
                    if x > N:
                        break
                    out[x] += c * comb(e, j)
            union(i, tuple(x % mod for x in out[1:]))
    return series, [find(i) for i in range(len(series))], index


def forms_separate_orbits(p, K, N):
    """Check canonicalize_dvr on every admissible series over Z/p^K at N.

    Every member of an orbit gets the same outcome, and no two orbits
    share a form; a form lies in the orbit it names.  Returns the number
    of series and of orbits.  tools/exhaustive_orbits.py runs it on cases
    too slow for the suite.
    """
    ring = CoeffRing("Zp", p, K)
    series, root, index = _orbit_oracle(p, K, N)
    outcome = {}
    owner = {}
    for s, r in zip(series, root):
        try:
            cf = canonicalize_dvr(S(ring, dict(enumerate(s, 1)), N))
        except MooreError as exc:
            got = type(exc)
        else:
            form = tuple(cf.form.coeff(i).terms.get(0, 0) for i in range(1, N + 1))
            got = (cf.kind, cf.n, form, cf.form.trunc)
            assert root[index[form]] == r, s
            assert owner.setdefault(form, r) == r, s
        assert outcome.setdefault(r, got) == got, s
    return len(series), len(outcome)


class TestExhaustiveOrbits:
    @pytest.mark.parametrize(
        "p, K, N, orbits",
        [(3, 2, 4, 11), (2, 3, 4, 8), (2, 3, 5, 16), (5, 2, 3, 9), (2, 2, 6, 20)],
    )
    def test_forms_separate_orbits(self, p, K, N, orbits):
        assert forms_separate_orbits(p, K, N)[1] == orbits


class TestExhaustiveFieldOrbits:
    @pytest.mark.parametrize("p, N, orbits", [(5, 5, 10), (7, 4, 9), (3, 7, 21), (2, 9, 32)])
    def test_invariant_separates_orbits(self, p, N, orbits):
        # every member of an orbit gets the same invariant or the same
        # error class (WildCaseError when p divides the height), and no
        # two orbits share an invariant
        ring = CoeffRing("Fp", p)
        series, root, _ = _orbit_oracle(p, 1, N)
        assert len(set(root)) == orbits
        outcome = {}
        owner = {}
        for s, r in zip(series, root):
            u = S(ring, dict(enumerate(s, 1)), N)
            try:
                n, rep = orbit_invariant_char0(MooreAlgebra.even(u))
            except MooreError as exc:
                got = type(exc)
            else:
                got = (n, tuple(sorted(rep.terms.items())))
                assert owner.setdefault(got, r) == r, s
            assert outcome.setdefault(r, got) == got, s


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

        def sweep_by_probes(cs, ws, k, ring, n, source):
            cur, wit = digit_sweep_by_probes(_as_series(ring, cs, n), _as_series(ring, ws, n), k)
            return _residues(cur), _residues(wit)

        monkeypatch.setattr(moduli, "_digit_sweep", sweep_by_probes)
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


def _residue_table(s):
    """(trunc, {i: residue}) of a series over Z/p^K; every residue an int in [0, m)."""
    table = {}
    for i, c in s.coeffs.items():
        ((key, x),) = c.terms.items()
        assert key == 0 and type(x) is int and 0 <= x < s.ring.modulus
        table[i] = x
    return s.trunc, table


def _as_series(ring, xs, n):
    """The series over Z/p^K with xs[i] at t^i through n; xs must hold ints in [0, m)."""
    assert all(type(x) is int and 0 <= x < ring.modulus for x in xs)
    return PowerSeries(ring, {i: x for i, x in enumerate(xs[: n + 1]) if x}, n)


def _reduce_on_lists(u, wit, k):
    """moduli._dvr_reduce on the residue lists of u and wit, lifted back.

    The library knows both lists through u's bound N.  A witness known
    through less is read back only through its own bound b: each
    substitution's entries up to t^b depend only on entries up to t^b.
    """
    ring, n = u.ring, u.trunc
    cs, ws = moduli._dvr_reduce(_residues(u), None if wit is None else _residues(wit), k, ring, n)
    return _as_series(ring, cs, n), None if wit is None else _as_series(ring, ws, min(n, wit.trunc))


def _same_reduction(got, want):
    assert _residue_table(got[0]) == _residue_table(want[0])
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert _residue_table(got[1]) == _residue_table(want[1])


class TestDvrReduceOnResidues:
    """moduli._dvr_reduce on residue lists against dvr_reduce_by_compose."""

    RINGS = ((5, 6), (7, 4), (3, 6), (2, 5), (11, 3), (5, 3))

    @staticmethod
    def _corpus(seed):
        # (u, f, k) with anchors 2..7 over every ring, and Z/5^6 at anchor 4,
        # N = 10, which the digit sweep moves on every draw
        rng = random.Random(seed)
        out = []
        for p, K in TestDvrReduceOnResidues.RINGS:
            for k in range(2, 8):
                if k % p == 0:
                    continue
                N = rng.choice((k + 1, k + 2, 8, 10, 12))
                out.append(_anchored_input(rng, p, K, k, N) + (k,))
        for _ in range(3):
            out.append(_anchored_input(rng, 5, 6, 4, 10) + (4,))
        return out

    def test_direct_calls(self):
        for u, f, k in self._corpus(1515):
            ring, N = u.ring, u.trunc
            longer = PowerSeries(ring, f.coeffs, N + 3)
            for wit in (None, ps_t(ring, N), f, f.truncated(N - 2), longer):
                want = dvr_reduce_by_compose(u, wit, k)
                if wit is longer:
                    # the library only gives a witness the form's bound N
                    want = (want[0], want[1].truncated(N))
                _same_reduction(_reduce_on_lists(u, wit, k), want)

    def test_calls_made_by_canonicalize_dvr(self, monkeypatch):
        # every call from the main reduction, the sweep's unit probes
        # (wit=None) and its applied moves (a witness, inside the sweep)
        library_reduce, library_sweep = moduli._dvr_reduce, moduli._digit_sweep
        in_sweep = []
        seen = []

        def reduce(cs, ws, k, ring, n):
            got = library_reduce(cs, ws, k, ring, n)
            cur, wit = _as_series(ring, cs, n), None if ws is None else _as_series(ring, ws, n)
            lifted = (_as_series(ring, got[0], n), None if ws is None else _as_series(ring, got[1], n))
            _same_reduction(lifted, dvr_reduce_by_compose(cur, wit, k))
            seen.append((bool(in_sweep), ws is not None))
            return got

        def sweep(*args):
            in_sweep.append(True)
            try:
                return library_sweep(*args)
            finally:
                in_sweep.pop()

        monkeypatch.setattr(moduli, "_dvr_reduce", reduce)
        monkeypatch.setattr(moduli, "_digit_sweep", sweep)
        for u, f, _ in self._corpus(1516):
            for x in (u, compose(u, f)):
                canonicalize_dvr(x)
        assert (False, True) in seen  # the main reduction
        assert (True, False) in seen  # a unit probe
        assert (True, True) in seen  # an applied sweep move

    def test_exact_input(self):
        # no tail: only the gauge runs, and the bound stays EXACT
        u = S(Z56, {1: 5, 3: 1 + 4 * 5**5}, EXACT)
        got = _reduce_on_lists(u, ps_t(Z56, EXACT), 3)
        _same_reduction(got, dvr_reduce_by_compose(u, ps_t(Z56, EXACT), 3))
        assert got[0].trunc == got[1].trunc == EXACT
        with pytest.raises(PrecisionError):
            _reduce_on_lists(S(Z56, {1: 5, 2: 1, 3: 1}, EXACT), None, 2)

    def test_a_stuck_tail_raises(self, monkeypatch):
        # a substitution that changes nothing would loop for ever; the pass
        # bound K*(N - k) turns that into an InternalError
        monkeypatch.setattr(moduli, "_substitute_plain", lambda f, a, r, n, m: f)
        with pytest.raises(InternalError):
            _reduce_on_lists(S(Z56, {1: 5, 2: 1, 3: 1}, 8), None, 2)

    def test_one_conversion_in_one_out(self, monkeypatch):
        # form and witness become residue lists once and series once, however
        # many sweep moves run in between; the input is the one test_cli and
        # CI pin, on which the sweep applies 7 moves
        calls = {"_residues": 0, "_lifted": 0, "moves": 0}

        def counted(name):
            library = getattr(moduli, name)

            def wrapper(*args):
                calls[name] += 1
                return library(*args)

            monkeypatch.setattr(moduli, name, wrapper)

        counted("_residues")
        counted("_lifted")
        library_reduce = moduli._dvr_reduce

        def reduce(cs, ws, k, ring, n):
            calls["moves"] += ws is not None
            return library_reduce(cs, ws, k, ring, n)

        monkeypatch.setattr(moduli, "_dvr_reduce", reduce)
        coeffs = {1: 15, 2: 14560, 3: 6015, 4: 4174, 5: 65, 7: 6683, 9: 12958}
        cf = canonicalize_dvr(S(Z56, coeffs, 10))
        assert format_series(cf.form) == "5*t + 40*t^2 + 120*t^3 + 59*t^4"
        # the main reduction and 7 applied moves
        assert calls == {"_residues": 2, "_lifted": 2, "moves": 8}


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
