"""Bar-side cochain tables, the Hochschild complex, and two-cell dualization."""

import random

import pytest

from moorealg.errors import (
    BasisError,
    IncompatibleRingError,
    ParityError,
    StructureError,
)
from moorealg.rings import CoeffRing
from moorealg.series import EXACT, PowerSeries
from moorealg.noncomm import (
    Derivation,
    GradingContext,
    NCSeries,
    moore_mstar,
    nc_word,
)
from moorealg.ainfty import (
    AInfStructure,
    GradedBasis,
    HochschildCochain,
    dualize,
    dualize_back,
    hochschild_differential,
    is_normalized,
    is_unital,
    normalize_cochain,
    s_op,
    stasheff_defect,
    structure_square,
)

from util import (
    agree_cochain,
    agree_derivation,
    bar_homotopy_word,
    check_bound,
    coderivation_extend,
    ext,
    h_op,
    rand_cochain,
)

Q = CoeffRing("Q")
F5 = CoeffRing("Fp", 5)
Z52 = CoeffRing("Zp", 5, 2)

B0 = GradedBasis.two_cell(0)
B1 = GradedBasis.two_cell(1)


class _Datum:
    def __init__(self, kind, d, u=None, v=None, w=None):
        self.kind = kind
        self.d = d
        self.u = u
        self.v = v
        self.w = w


def even_struct(ring, coeffs, trunc=EXACT, d=0):
    """Structure derivation of an even two-cell algebra, as a bar structure."""
    xi = moore_mstar(_Datum("even", d, u=PowerSeries(ring, coeffs, trunc)))
    return xi, dualize(xi, GradedBasis.two_cell(d))


def odd_struct(ring, vcoeffs, wcoeffs, trunc=EXACT, d=1):
    v = PowerSeries(ring, vcoeffs, trunc)
    w = PowerSeries(ring, wcoeffs, trunc)
    xi = moore_mstar(_Datum("odd", d, v=v, w=w))
    return xi, dualize(xi, GradedBasis.two_cell(d))


def exterior_structure(ring):
    """Differential graded algebra on 1, x, y, xy with dy = x, x*x = 0.

    Suspension turns the product into the arity-2 component with a sign
    from the left factor's degree, and the differential into minus m1.
    """
    basis = GradedBasis((("1", 0), ("x", 0), ("y", 1), ("xy", 1)))
    table = {
        ("y",): {"x": -1},
        ("1", "1"): {"1": 1},
        ("1", "x"): {"x": 1},
        ("1", "y"): {"y": 1},
        ("1", "xy"): {"xy": 1},
        ("x", "1"): {"x": 1},
        ("y", "1"): {"y": -1},
        ("xy", "1"): {"xy": -1},
        ("x", "y"): {"xy": 1},
        ("y", "x"): {"xy": -1},
    }
    return basis, AInfStructure(ring, basis, table)


def non_associative_m2(bound):
    """m2 = {(y,y): y, (1,y): y} on the two-cell basis at d = 0: m2 o m2 != 0."""
    return AInfStructure(Q, B0, {("y", "y"): {"y": 1}, ("1", "y"): {"y": 1}}, bound)


class TestGradedBasis:
    def test_two_cell(self):
        assert B0.generators == (("1", 0), ("y", 1))
        assert B1.degree("y") == 2

    def test_sparity(self):
        # suspension shifts parity: the unit suspends to an odd element
        assert B0.sparity("1") == 1
        assert B0.sparity("y") == 0
        assert B1.sparity("y") == 1
        assert B0.word_sparity(("1", "y", "1")) == 0

    def test_unit_required(self):
        with pytest.raises(BasisError):
            GradedBasis((("x", 0), ("y", 1)))
        with pytest.raises(BasisError):
            GradedBasis((("1", 2), ("y", 1)))

    def test_duplicate_names(self):
        with pytest.raises(BasisError):
            GradedBasis((("1", 0), ("y", 1), ("y", 3)))

    def test_unknown_generator(self):
        with pytest.raises(BasisError):
            B0.degree("z")


class TestCochainTable:
    def test_table_cleanup(self):
        c = HochschildCochain(Q, B0, -1, {("y",): {"1": 0, "y": 2}, ("1",): {"y": 0}})
        assert c.table == {("y",): {"y": Q.from_int(2)}}

    def test_words_of_every_arity_share_one_table(self):
        table = {(): {"y": 1}, ("y",): {"1": 2}, ("y", "y", "y"): {"y": 3}}
        c = HochschildCochain(Q, B0, 0, table, 2)
        assert c.table == {(): {"y": Q.one()}, ("y",): {"1": Q.from_int(2)}}
        assert c.max_arity() == 2
        assert HochschildCochain(Q, B0, 0, table).max_arity() == 3

    def test_unknown_names(self):
        with pytest.raises(BasisError):
            HochschildCochain(Q, B0, -1, {("z",): {"1": 1}})
        with pytest.raises(BasisError):
            HochschildCochain(Q, B0, -1, {("y",): {"z": 1}})

    def test_arithmetic(self):
        a = HochschildCochain(Q, B0, -1, {("y",): {"1": 3}})
        b = HochschildCochain(Q, B0, -1, {("y",): {"1": -3, "y": 1}})
        assert (a + b).table == {("y",): {"y": Q.one()}}
        assert (a - a).is_zero()
        assert a.scaled(2).table == {("y",): {"1": Q.from_int(6)}}
        assert (-a).table == {("y",): {"1": Q.from_int(-3)}}

    def test_mismatches(self):
        a = HochschildCochain(Q, B0, -1, {("y",): {"1": 3}})
        with pytest.raises(IncompatibleRingError):
            a + HochschildCochain(F5, B0, -1, {})
        with pytest.raises(IncompatibleRingError):
            HochschildCochain(Q, B0, -1, {("y",): {"1": F5.one()}})
        with pytest.raises(StructureError):
            a + HochschildCochain(Q, B0, 0, {("y", "y"): {"1": 1}})


class TestCompose:
    """Slot composition, seen through the differential and the square."""

    def test_single_slot_is_plain_composition(self):
        m = AInfStructure(Q, B0, {("y",): {"y": 3}})
        c = HochschildCochain(Q, B0, -1, {("y",): {"1": 2}})
        # c is odd, so d(c) = c.m + m.c, and m.c is zero: m reads y, c writes 1
        got = hochschild_differential(c, m)
        assert got.degree == -2
        assert got.table == {("y",): {"1": Q.from_int(6)}}

    def test_slot_sign_after_odd_prefix(self):
        # inserting an odd map past the suspended unit flips the sign
        m = AInfStructure(Q, B0, {("1", "y"): {"y": 1}, ("1", "1"): {"y": 7}})
        square = structure_square(m)
        assert square.degree == -2
        assert square.table == {
            ("1", "1", "y"): {"y": Q.from_int(-1)},
            ("1", "1", "1"): {"y": Q.from_int(-7)},
        }

    def test_even_inner_sees_no_sign(self):
        m = AInfStructure(Q, B0, {("1", "y"): {"y": 1}})
        c = HochschildCochain(Q, B0, 0, {("1", "1"): {"y": 7}})
        # c is even, so d(c) = c.m - m.c, and c.m is zero: c reads 1, m
        # writes y; m.c puts c past the suspended unit with no slot sign
        got = hochschild_differential(c, m)
        assert got.table == {("1", "1", "1"): {"y": Q.from_int(-7)}}


class TestCoderivation:
    def test_single_letter(self):
        m = AInfStructure(Q, B0, {("y",): {"1": 2}})
        assert coderivation_extend(m, ("y",)) == {("1",): Q.from_int(2)}
        assert coderivation_extend(m, ()) == {}

    def test_insertion_positions(self):
        m = AInfStructure(Q, B0, {("y", "y"): {"1": 3}})
        got = coderivation_extend(m, ("y", "y", "y"))
        assert got == {("1", "y"): Q.from_int(3), ("y", "1"): Q.from_int(3)}

    def test_prefix_sign(self):
        # the skipped suspended unit is odd, so the insertion is negated
        m = AInfStructure(Q, B0, {("y", "y"): {"1": 3}})
        got = coderivation_extend(m, ("1", "y", "y"))
        assert got == {("1", "1"): Q.from_int(-3)}

    def test_cancelling_insertions_are_dropped(self):
        _, m = exterior_structure(Q)
        # both unit multiplications hit ("1", "y"), with opposite signs
        got = coderivation_extend(m, ("1", "1", "y"))
        assert got == {("1", "1", "x"): Q.from_int(-1)}


class TestStasheff:
    def test_exterior_structure_is_square_zero(self):
        _, m = exterior_structure(Q)
        assert structure_square(m).is_zero()
        assert stasheff_defect(m) is None

    def test_moore_even_exact(self):
        _, m = even_struct(Z52, {1: 5})
        assert stasheff_defect(m) is None

    def test_moore_even_truncated(self):
        _, m = even_struct(F5, {1: 1, 3: 2, 4: 3}, trunc=6)
        assert m.arity_bound == 6
        assert stasheff_defect(m) is None

    def test_moore_odd_truncated(self):
        _, m = odd_struct(F5, {2: 3}, {2: 4, 4: 1}, trunc=7)
        assert stasheff_defect(m) is None

    def test_tampered_structure_has_defect(self):
        _, m = even_struct(F5, {1: 1, 3: 2}, trunc=6)
        extra = HochschildCochain(F5, B0, -1, {("y", "y", "y"): {"y": 1}})
        bad = AInfStructure(F5, B0, (m + extra).table, m.arity_bound)
        defect = stasheff_defect(bad)
        assert defect is not None
        arity, word = defect
        assert isinstance(arity, int) and isinstance(word, tuple)

    def test_no_arity_zero(self):
        with pytest.raises(StructureError):
            AInfStructure(Q, B0, {(): {"y": 1}})

    def test_exact_square_reaches_past_the_support(self):
        # m2 o m2 lands in arity 3, above the support of an exact structure
        exact = non_associative_m2(EXACT)
        assert stasheff_defect(exact) == (3, ("1", "1", "y"))
        assert {len(w) for w in structure_square(exact).table} == {3}
        assert stasheff_defect(non_associative_m2(3)) == (3, ("1", "1", "y"))


class TestUnital:
    def test_exterior_structure(self):
        _, m = exterior_structure(Q)
        assert is_unital(m)

    def test_moore_duals(self):
        _, m = even_struct(Z52, {1: 5})
        assert is_unital(m)
        _, modd = odd_struct(Q, {2: 3}, {2: 4})
        assert is_unital(modd)

    def test_broken_unit_action(self):
        basis, m = exterior_structure(Q)
        extra = HochschildCochain(Q, basis, -1, {("1", "y"): {"y": 1}})
        assert not is_unital(AInfStructure(Q, basis, (m + extra).table))

    def test_unit_in_higher_arity(self):
        basis, m = exterior_structure(Q)
        table = dict(m.table)
        table["1", "x", "y"] = {"xy": 1}
        assert not is_unital(AInfStructure(Q, basis, table))


class TestDualize:
    def test_even_exact_tables(self):
        _, m = even_struct(Z52, {1: 5})
        table = {
            ("y",): {"1": 5},
            ("1", "1"): {"1": 1},
            ("1", "y"): {"y": 1},
            ("y", "1"): {"y": -1},
        }
        assert m == AInfStructure(Z52, B0, table)

    def test_even_coefficients_land_on_powers_of_the_cell(self):
        _, m = even_struct(Q, {1: 1, 3: 2, 4: 3})
        for i, c in ((1, 1), (3, 2), (4, 3)):
            assert m.table[("y",) * i]["1"] == Q.from_int(c)

    def test_odd_exact_tables(self):
        _, m = odd_struct(Q, {2: 3}, {2: 4})
        assert m.table["y", "y"] == {"1": Q.from_int(4), "y": Q.from_int(3)}
        # cell degree is even here, so both unit actions carry a plus
        assert m.table["y", "1"] == {"y": Q.one()}
        assert m.table["1", "y"] == {"y": Q.one()}
        assert m.table["1", "1"] == {"1": Q.one()}

    def test_round_trip_exact(self):
        xi, m = even_struct(Z52, {1: 5})
        back = dualize_back(m)
        assert back.onTau == xi.onTau
        assert back.onT == xi.onT
        assert back.parity == 1

    def test_round_trip_truncated(self):
        xi, m = even_struct(F5, {1: 1, 3: 2, 4: 3}, trunc=6)
        assert agree_derivation(dualize_back(m), xi)
        xo, mo = odd_struct(F5, {2: 3}, {2: 4, 4: 1}, trunc=7)
        assert agree_derivation(dualize_back(mo), xo)

    def test_round_trip_from_structure_side(self):
        _, m = odd_struct(Q, {2: 3}, {2: 4})
        again = dualize(dualize_back(m), B1)
        assert again == m

    def test_a_structure_is_a_degree_minus_one_cochain(self):
        _, m = odd_struct(Q, {2: 3}, {2: 4})
        assert isinstance(m, HochschildCochain)
        assert m.degree == -1
        doubled = m + m
        assert type(doubled) is HochschildCochain
        assert doubled == m.scaled(2)
        assert (m - m).is_zero()

    def test_parity_gate(self):
        zero = NCSeries(Q, GradingContext(0), {}, EXACT)
        flat = Derivation(zero, zero, 0)
        with pytest.raises(ParityError):
            dualize(flat, B0)

    def test_basis_degree_gate(self):
        xi, _ = even_struct(Q, {1: 1})
        with pytest.raises(BasisError):
            dualize(xi, B1)

    def test_two_cell_basis_required(self):
        basis, m = exterior_structure(Q)
        with pytest.raises(BasisError):
            dualize_back(m)
        xi, _ = even_struct(Q, {1: 1})
        with pytest.raises(BasisError):
            dualize(xi, basis)

    def test_scalar_part_rejected(self):
        g = GradingContext(0)
        tau = nc_word(Q, g, "T")
        xi = Derivation(tau + NCSeries(Q, g, {"": 1}, EXACT), tau, 1)
        with pytest.raises(StructureError):
            dualize(xi, B0)


class TestDifferential:
    def test_structure_cochain_is_closed(self):
        for _, m in (even_struct(F5, {1: 1, 3: 2}, trunc=6), exterior_structure(Q)):
            assert m.degree == -1
            assert hochschild_differential(m, m).is_zero()

    def test_bracket_with_itself_is_twice_the_square(self):
        # m has odd degree, so [m, m] = m.m + m.m
        for bound in (EXACT, 3):
            m = non_associative_m2(bound)
            bracket = hochschild_differential(m, m)
            assert bracket.degree == -2
            assert {len(w) for w in bracket.table} == {3}
            assert bracket == structure_square(m).scaled(2)

    def test_arity_zero_cochain(self):
        basis, m = exterior_structure(Q)
        c = HochschildCochain(
            basis=basis,
            ring=Q,
            degree=2,
            table={(): {"y": 1}},
        )
        dc = hochschild_differential(c, m)
        assert dc.degree == 1
        # the two unit multiplications on either side cancel at arity 1;
        # only the differential of y survives at arity 0
        assert dc.table == {(): {"x": Q.one()}}

    def test_arity_zero_cochain_lowers_the_structure_bound(self):
        # m_(n+1) composed with c_0 lands in arity n, so a structure known
        # through arity 3 gives the differential through arity 2 only
        c = HochschildCochain(F5, B0, 0, {(): {"y": 1}}, 6)
        u = {1: 1, 3: 2, 4: 1}
        short = hochschild_differential(c, even_struct(F5, u, trunc=3)[1])
        full = hochschild_differential(c, even_struct(F5, u, trunc=8)[1])
        assert short.arity_bound == 2
        assert full.arity_bound == 6
        arity3 = {w: v for w, v in full.table.items() if len(w) == 3}
        assert arity3 == {("y", "y", "y"): {"1": F5.one()}}
        assert agree_cochain(short, full)

    def test_differential_squares_to_zero(self):
        rng = random.Random(11)
        basis, m = exterior_structure(Q)
        for degree in (0, 1, 2):
            c = rand_cochain(Q, basis, rng, degree, max_arity=3)
            assert hochschild_differential(hochschild_differential(c, m), m).is_zero()
        xi, mm = even_struct(F5, {1: 1, 3: 2}, trunc=6)
        for degree in (0, 1):
            c = rand_cochain(F5, B0, rng, degree, max_arity=3)
            assert hochschild_differential(hochschild_differential(c, mm), mm).is_zero()

    def test_normalized_cochains_stay_normalized(self):
        rng = random.Random(12)
        basis, m = exterior_structure(Q)
        for degree in (0, 1, 2, 3):
            c = rand_cochain(Q, basis, rng, degree, max_arity=3, min_slot=99)
            assert is_normalized(c)
            assert is_normalized(hochschild_differential(c, m))

    def test_normalized_stay_normalized_over_moore(self):
        rng = random.Random(13)
        _, m = even_struct(Z52, {1: 5})
        for degree in (0, 1, 2):
            c = rand_cochain(Z52, B0, rng, degree, max_arity=4, min_slot=99)
            assert is_normalized(hochschild_differential(c, m))


class TestNormalization:
    def test_s_op_reads_the_unit_slot(self):
        c = HochschildCochain(Q, B0, 1, {("1", "y"): {"y": 5}}, 4)
        got = s_op(0, c)
        assert got.degree == 2
        assert got.arity_bound == 3
        assert got.table == {("y",): {"y": Q.from_int(-5)}}
        assert s_op(1, c).is_zero()

    def test_s_op_prefix_sign(self):
        c = HochschildCochain(Q, B0, 1, {("y", "1"): {"1": 5}, ("1", "1"): {"y": 7}}, 4)
        # the cell suspends to even parity, so the y prefix keeps the
        # baseline minus; the odd suspended unit prefix flips it
        got = s_op(1, c).table
        assert got == {("y",): {"1": Q.from_int(-5)}, ("1",): {"y": Q.from_int(7)}}

    def test_h_op_fixes_normalized_cochains(self):
        rng = random.Random(21)
        basis, m = exterior_structure(Q)
        c = rand_cochain(Q, basis, rng, 1, max_arity=3, min_slot=99)
        for i in (0, 1):
            assert agree_cochain(h_op(i, c, m), c)

    def test_h_op_normalizes_first_slot(self):
        rng = random.Random(22)
        basis, m = exterior_structure(Q)
        for degree in (0, 1, 2):
            c = rand_cochain(Q, basis, rng, degree, max_arity=3)
            assert is_normalized(h_op(0, c, m), upto=1)

    def test_h_op_steps_extend_normalization(self):
        rng = random.Random(23)
        basis, m = exterior_structure(Q)
        cur = rand_cochain(Q, basis, rng, 1, max_arity=4, bound=6)
        for i in (0, 1, 2):
            cur = h_op(i, cur, m)
            assert is_normalized(cur, upto=i + 1)

    def test_h_op_is_a_chain_map(self):
        rng = random.Random(24)
        basis, m = exterior_structure(Q)
        for degree in (0, 1, 2):
            c = rand_cochain(Q, basis, rng, degree, max_arity=3)
            for i in (0, 1):
                lhs = hochschild_differential(h_op(i, c, m), m)
                rhs = h_op(i, hochschild_differential(c, m), m)
                assert agree_cochain(lhs, rhs)

    def test_normalize_cochain(self):
        rng = random.Random(25)
        basis, m = exterior_structure(Q)
        for degree in (0, 1, 2):
            c = rand_cochain(Q, basis, rng, degree, max_arity=3, bound=5)
            norm, witness = normalize_cochain(c, m)
            assert is_normalized(norm)
            assert witness.degree == degree + 1

    def test_normalize_over_truncated_moore(self):
        rng = random.Random(26)
        _, m = even_struct(F5, {1: 1, 3: 2}, trunc=8)
        c = rand_cochain(F5, B0, rng, 1, max_arity=4, bound=6)
        norm, _ = normalize_cochain(c, m)
        assert is_normalized(norm)

    def test_closed_cochains_normalize_within_their_class(self):
        rng = random.Random(27)
        basis, m = exterior_structure(Q)
        for degree in (1, 2):
            b = rand_cochain(Q, basis, rng, degree, max_arity=3, bound=6)
            c = hochschild_differential(b, m)
            norm, witness = normalize_cochain(c, m)
            assert agree_cochain(norm, c - hochschild_differential(witness, m))


class TestPrecisionModel:
    """Exact inputs give exact results; otherwise the module docstring's formulas."""

    @staticmethod
    def _rand_bound(rng):
        # finite bounds run from -1 (nothing known) to 5
        return EXACT if rng.random() < 0.5 else rng.randint(-1, 5)

    def test_sum_s_op_and_differential(self):
        rng = random.Random(71)
        for _ in range(40):
            nm = self._rand_bound(rng)
            _, m = even_struct(F5, {1: 1, 3: 2}, trunc=nm)
            assert m.arity_bound == nm
            a = rand_cochain(F5, B0, rng, 1, max_arity=3, bound=self._rand_bound(rng))
            b = rand_cochain(F5, B0, rng, 1, max_arity=3, bound=self._rand_bound(rng))
            na, nb = ext(a.arity_bound), ext(b.arity_bound)
            check_bound((a + b).arity_bound, min(na, nb), a.arity_bound, b.arity_bound)
            check_bound((a - b).arity_bound, min(na, nb), a.arity_bound, b.arity_bound)
            for i in (0, 1):
                check_bound(s_op(i, a).arity_bound, na - 1, a.arity_bound)
            # an arity-0 component of the cochain composes into m one arity up
            nm_used = ext(nm) - 1 if () in a.table else ext(nm)
            check_bound(
                hochschild_differential(a, m).arity_bound,
                min(na, nm_used),
                a.arity_bound,
                nm,
            )

    def test_s_op_of_a_cochain_known_through_arity_zero(self):
        # s_op reads arity k - 1 from arity k: from arity 1 it knows
        # arity 0, and from arity 0 alone it knows nothing
        table = {("1",): {"y": 1}}
        known = s_op(0, HochschildCochain(Q, B0, 0, table, 1))
        assert known == HochschildCochain(Q, B0, 1, {(): {"y": -1}}, 0)
        blind = s_op(0, HochschildCochain(Q, B0, 0, table, 0))
        assert blind.arity_bound == -1
        assert blind.is_zero()

    def test_constructor_clamps(self):
        c = HochschildCochain(Q, B0, 1, {}, EXACT + 5)
        assert c.arity_bound == EXACT
        assert AInfStructure(Q, B0, {}, EXACT + 5).arity_bound == EXACT
        nothing = HochschildCochain(Q, B0, 1, {(): {"y": 1}}, -5)
        assert nothing.arity_bound == -1 and nothing.is_zero()
        assert AInfStructure(Q, B0, {}, -5).arity_bound == -1


def _bar_diff(m, vec):
    out = {}
    for word, coeff in vec.items():
        for w, c in coderivation_extend(m, word).items():
            tot = out.get(w)
            add = c * coeff
            out[w] = add if tot is None else tot + add
    return {w: c for w, c in out.items() if c.terms}


def _bar_s(ring, basis, vec):
    out = {}
    for word, coeff in vec.items():
        for w, c in bar_homotopy_word(ring, basis, word).items():
            tot = out.get(w)
            add = c * coeff
            out[w] = add if tot is None else tot + add
    return {w: c for w, c in out.items() if c.terms}


def _bar_add(a, b):
    out = dict(a)
    for w, c in b.items():
        tot = out.get(w)
        tot = c if tot is None else tot + c
        if tot.terms:
            out[w] = tot
        elif w in out:
            del out[w]
    return out


class TestBarHomotopy:
    def test_identity_on_nonempty_words(self):
        rng = random.Random(31)
        basis, m = exterior_structure(Q)
        names = basis.names
        for _ in range(12):
            word = tuple(rng.choice(names) for _ in range(rng.randint(1, 4)))
            vec = {word: Q.one()}
            got = _bar_add(
                _bar_diff(m, _bar_s(Q, basis, vec)),
                _bar_s(Q, basis, _bar_diff(m, vec)),
            )
            assert got == vec, word

    def test_identity_over_moore_dual(self):
        rng = random.Random(32)
        _, m = even_struct(Z52, {1: 5})
        names = B0.names
        for _ in range(8):
            word = tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
            vec = {word: Z52.one()}
            got = _bar_add(
                _bar_diff(m, _bar_s(Z52, B0, vec)),
                _bar_s(Z52, B0, _bar_diff(m, vec)),
            )
            assert got == vec

    def test_empty_word_is_missed(self):
        basis, m = exterior_structure(Q)
        vec = {(): Q.one()}
        got = _bar_add(
            _bar_diff(m, _bar_s(Q, basis, vec)),
            _bar_s(Q, basis, _bar_diff(m, vec)),
        )
        assert got == {}
