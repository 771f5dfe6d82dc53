"""Bar-side multilinear structures on a finite free graded module.

Components of arity k are stored as sparse tables over k-tuples of basis
generator names, always as maps on the SUSPENDED module: the structure
maps all have degree -1, and the suspended parity of a generator of
degree n is (n + 1) mod 2.  The tensor-word conventions:

    extended coderivation   sum over insertions, sign (-1)^(s(a1)+..+s(ai))
    slot composition        sign (-1)^(|inner| * (s(a1)+..+s(ak)))
    differential            [c, m] = c.m - (-1)^|c| m.c

Arity truncation follows the one precision model of the series module:
a structure or cochain with arity_bound N promises exact components
through arity N and says nothing beyond, arity_bound = EXACT marks
an object whose higher components are genuinely zero, and -1 marks one
of which nothing is known.  Bounds saturate at both ends:

    sum                -> min(Na, Nb)
    differential       -> min(Nc, Nm), or min(Nc, Nm - 1) if the cochain
                          has an arity-0 component
    s_op               -> N - 1 (-1: nothing is known)

Dualization identifies the two-cell bar structures with the letter
derivations of the word algebra: the suspension letter pairs with the
suspended unit and the cell letter with the suspended cell, a word reads
its arguments in reversed order, and the pairing sign for a degree-odd
map is (-1)^(s(a1)+..+s(ak)).  Both directions use the same sign, so the
round trip is the identity.
"""

from .errors import (
    BasisError,
    IncompatibleRingError,
    ParityError,
    StructureError,
)
from .noncomm import Derivation, GradingContext, NCSeries
from .rings import CoeffRing, RingElem
from .series import EXACT, capped, lowered


class GradedBasis:
    """Ordered generators with integer degrees and a designated unit."""

    __slots__ = ("generators", "_degrees")

    UNIT = "1"

    def __init__(self, generators):
        gens = tuple((str(n), int(d)) for n, d in generators)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise BasisError("duplicate generator names")
        degrees = dict(gens)
        if degrees.get(self.UNIT) != 0:
            raise BasisError("basis needs the unit generator 1 in degree 0")
        self.generators = gens
        self._degrees = degrees

    @classmethod
    def two_cell(cls, d: int) -> "GradedBasis":
        """Unit plus one cell generator of degree d+1."""
        return cls((("1", 0), ("y", d + 1)))

    @property
    def names(self):
        return tuple(n for n, _ in self.generators)

    def degree(self, name: str) -> int:
        try:
            return self._degrees[name]
        except KeyError:
            raise BasisError(f"unknown generator {name!r}") from None

    def sparity(self, name: str) -> int:
        """Parity of the suspended generator."""
        return (self.degree(name) + 1) % 2

    def word_sparity(self, word) -> int:
        return sum(self.sparity(a) for a in word) % 2

    def __eq__(self, other):
        return isinstance(other, GradedBasis) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"GradedBasis({list(self.generators)})"


def _norm_vector(ring, vec) -> dict:
    out = {}
    for name, c in vec.items():
        if isinstance(c, int):
            c = ring.from_int(c)
        elif c.ring != ring:
            raise IncompatibleRingError("vector entry from a different ring")
        if c.terms:
            out[name] = c
    return out


class MultiComponent:
    """One arity-k multilinear map, as a sparse table of output vectors."""

    __slots__ = ("ring", "basis", "arity", "degree", "table")

    def __init__(self, ring: CoeffRing, basis: GradedBasis, arity: int, degree: int, table):
        if arity < 0:
            raise StructureError("negative arity")
        self.ring = ring
        self.basis = basis
        self.arity = arity
        self.degree = degree
        clean = {}
        for word, vec in table.items():
            word = tuple(word)
            if len(word) != arity:
                raise StructureError(f"word {word} does not have arity {arity}")
            for a in word:
                basis.degree(a)
            v = _norm_vector(ring, vec)
            for name in v:
                basis.degree(name)
            if v:
                clean[word] = v
        self.table = clean

    def is_zero(self) -> bool:
        return not self.table

    def evaluate(self, word) -> dict:
        """Output vector on one input word (empty dict when unsupported)."""
        return dict(self.table.get(tuple(word), {}))

    def coeff(self, word, name) -> RingElem:
        return self.table.get(tuple(word), {}).get(name, self.ring.zero())

    def _combine(self, other, flip: bool):
        if self.ring != other.ring or self.basis != other.basis:
            raise IncompatibleRingError("components over different bases")
        if self.arity != other.arity or self.degree != other.degree:
            raise StructureError("arity or degree mismatch in component sum")
        out = {w: dict(v) for w, v in self.table.items()}
        for w, v in other.table.items():
            tgt = out.setdefault(w, {})
            for name, c in v.items():
                c = -c if flip else c
                s = tgt.get(name)
                tgt[name] = c if s is None else s + c
        return MultiComponent(self.ring, self.basis, self.arity, self.degree, out)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c) -> "MultiComponent":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        table = {
            w: {name: c * x for name, x in v.items()} for w, v in self.table.items()
        }
        return MultiComponent(self.ring, self.basis, self.arity, self.degree, table)

    def __eq__(self, other):
        return (
            isinstance(other, MultiComponent)
            and self.ring == other.ring
            and self.basis == other.basis
            and self.arity == other.arity
            and self.degree == other.degree
            and self.table == other.table
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"MultiComponent(arity={self.arity}, degree={self.degree}, "
            f"support={sorted(self.table)})"
        )


def zero_component(ring, basis, arity, degree) -> MultiComponent:
    return MultiComponent(ring, basis, arity, degree, {})


def compose_components(outer: MultiComponent, inner: MultiComponent) -> MultiComponent:
    """Sum over insertion slots of outer, with the slot-prefix sign."""
    if outer.ring != inner.ring or outer.basis != inner.basis:
        raise IncompatibleRingError("components over different bases")
    basis = outer.basis
    odd_inner = inner.degree % 2
    arity = outer.arity + inner.arity - 1
    degree = outer.degree + inner.degree
    out = {}
    for wout, vout in outer.table.items():
        ppar = 0
        for slot in range(outer.arity):
            if slot:
                ppar = (ppar + basis.sparity(wout[slot - 1])) % 2
            neg = bool(odd_inner and ppar)
            for win, vin in inner.table.items():
                c = vin.get(wout[slot])
                if c is None:
                    continue
                if neg:
                    c = -c
                combined = wout[:slot] + win + wout[slot + 1:]
                tgt = out.setdefault(combined, {})
                for name, x in vout.items():
                    add = c * x
                    s = tgt.get(name)
                    tgt[name] = add if s is None else s + add
    return MultiComponent(outer.ring, basis, arity, degree, out)


class _ComponentBag:
    """Shared shape of structures and cochains: components per arity."""

    __slots__ = ("ring", "basis", "components", "arity_bound")

    def _init_bag(self, ring, basis, components, arity_bound):
        arity_bound = capped(arity_bound)
        self.ring = ring
        self.basis = basis
        self.arity_bound = arity_bound
        comps = {}
        for k, comp in dict(components).items():
            if comp.ring != ring or comp.basis != basis:
                raise IncompatibleRingError("component over a different base")
            if comp.arity != k:
                raise StructureError(f"component at key {k} has arity {comp.arity}")
            if comp.degree != self._degree_of(k):
                raise StructureError(f"component at arity {k} has a wrong degree")
            if k > arity_bound:
                continue
            if not comp.is_zero():
                comps[k] = comp
        self.components = comps

    def component(self, k: int) -> MultiComponent:
        comp = self.components.get(k)
        if comp is None:
            return zero_component(self.ring, self.basis, k, self._degree_of(k))
        return comp

    def max_arity(self) -> int:
        """Largest arity worth iterating: the bound, or the support cap."""
        if self.arity_bound < EXACT:
            return self.arity_bound
        return max(self.components, default=0)

    def is_zero(self) -> bool:
        return not self.components


class AInfStructure(_ComponentBag):
    """Components m1, m2, ... of degree -1 each; no arity-0 piece."""

    __slots__ = ()

    def __init__(self, ring, basis, components, arity_bound=EXACT):
        if 0 in dict(components):
            raise StructureError("structures have no arity-0 component")
        self._init_bag(ring, basis, components, arity_bound)

    def _degree_of(self, k):
        return -1

    def __repr__(self):
        bound = "" if self.arity_bound == EXACT else f", bound {self.arity_bound}"
        return f"AInfStructure(arities {sorted(self.components)}{bound})"


class HochschildCochain(_ComponentBag):
    """Homogeneous cochain: one component per arity, common total degree."""

    __slots__ = ("degree",)

    def __init__(self, ring, basis, degree, components, arity_bound=EXACT):
        self.degree = degree
        self._init_bag(ring, basis, components, arity_bound)

    def _degree_of(self, k):
        return self.degree

    def _combine(self, other, flip):
        if self.ring != other.ring or self.basis != other.basis:
            raise IncompatibleRingError("cochains over different bases")
        if self.degree != other.degree:
            raise StructureError("degree mismatch in cochain sum")
        bound = min(self.arity_bound, other.arity_bound)
        out = {}
        for k in set(self.components) | set(other.components):
            if k > bound:
                continue
            comp = self.component(k)
            comp = comp - other.component(k) if flip else comp + other.component(k)
            out[k] = comp
        return HochschildCochain(self.ring, self.basis, self.degree, out, bound)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def scaled(self, c) -> "HochschildCochain":
        out = {k: comp.scaled(c) for k, comp in self.components.items()}
        return HochschildCochain(self.ring, self.basis, self.degree, out, self.arity_bound)

    def __eq__(self, other):
        return (
            isinstance(other, HochschildCochain)
            and self.ring == other.ring
            and self.basis == other.basis
            and self.degree == other.degree
            and self.arity_bound == other.arity_bound
            and self.components == other.components
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"HochschildCochain(degree={self.degree}, "
            f"arities {sorted(self.components)})"
        )


def structure_square(m: AInfStructure) -> dict:
    """Arity-indexed components of the structure composed with itself."""
    out = _big_compose(m.components, m.components, m.max_arity())
    return {n: comp for n, comp in out.items() if not comp.is_zero()}


def stasheff_defect(m: AInfStructure):
    """First failing structure identity as (arity, word), or None."""
    square = structure_square(m)
    for n in sorted(square):
        comp = square[n]
        word = min(comp.table)
        return n, word
    return None


def is_unital(m: AInfStructure) -> bool:
    """Strict unit conditions over the whole basis, to the arity bound.

    The unit multiplies as identity up to the suspension sign, and every
    other component vanishes as soon as the unit appears in a slot.
    """
    basis = m.basis
    unit = basis.UNIT
    ring = m.ring
    if m.arity_bound >= 2:
        m2 = m.component(2)
        for a in basis.names:
            if m2.evaluate((unit, a)) != {a: ring.one()}:
                return False
            want = -ring.one() if basis.degree(a) % 2 else ring.one()
            if m2.evaluate((a, unit)) != {a: want}:
                return False
    for k, comp in m.components.items():
        if k == 2:
            continue
        for word in comp.table:
            if unit in word:
                return False
    return True


# -- Hochschild complex ---------------------------------------------------


def _big_compose(outer_comps, inner_comps, bound):
    """All-arity slot composition, grouped by resulting arity."""
    out = {}
    for i, ci in outer_comps.items():
        if i < 1:
            continue
        for j, cj in inner_comps.items():
            n = i + j - 1
            if n > bound:
                continue
            comp = compose_components(ci, cj)
            s = out.get(n)
            out[n] = comp if s is None else s + comp
    return out


def hochschild_differential(c: HochschildCochain, m: AInfStructure) -> HochschildCochain:
    """The commutator with the structure: c.m - (-1)^|c| m.c.

    Known through arity min(Nc, Nm), or min(Nc, Nm - 1) when c has an
    arity-0 component: m_(n+1) composed with c_0 lands in arity n.  (A
    structure has no arity-0 component, so c's bound never drops.)  A
    bound of -1 means no arity is known.
    """
    if c.ring != m.ring or c.basis != m.basis:
        raise IncompatibleRingError("cochain and structure over different bases")
    nm = lowered(m.arity_bound, 1) if 0 in c.components else m.arity_bound
    bound = min(c.arity_bound, nm)
    first = _big_compose(c.components, m.components, bound)
    second = _big_compose(m.components, c.components, bound)
    sign = -1 if c.degree % 2 else 1
    out = {}
    for n in set(first) | set(second):
        a = first.get(n)
        b = second.get(n)
        if b is not None:
            b = b.scaled(-sign)
        if a is None:
            comp = b
        elif b is None:
            comp = a
        else:
            comp = a + b
        out[n] = comp
    return HochschildCochain(c.ring, c.basis, c.degree - 1, out, bound)


def is_normalized(c: HochschildCochain, upto=None) -> bool:
    """No support on words with the unit among the first `upto` slots."""
    unit = c.basis.UNIT
    for comp in c.components.values():
        for word in comp.table:
            stop = len(word) if upto is None else min(upto, len(word))
            if unit in word[:stop]:
                return False
    return True


def s_op(i: int, c: HochschildCochain) -> HochschildCochain:
    """Degree +1 operator reading off the unit in slot i+1.

    The value on a word is the cochain's value on the word with the unit
    inserted after the first i letters, signed by those letters' suspended
    parities plus one.
    """
    basis = c.basis
    unit = basis.UNIT
    out = {}
    for k, comp in c.components.items():
        if k < i + 1:
            continue
        table = {}
        for word, vec in comp.table.items():
            if word[i] != unit:
                continue
            w = word[:i] + word[i + 1:]
            ppar = basis.word_sparity(w[:i])
            sign = -1 if (ppar + 1) % 2 else 1
            tgt = table.setdefault(w, {})
            for name, x in vec.items():
                add = x.scaled(sign)
                s = tgt.get(name)
                tgt[name] = add if s is None else s + add
        if table:
            comp_out = MultiComponent(c.ring, basis, k - 1, c.degree + 1, table)
            key = k - 1
            prev = out.get(key)
            out[key] = comp_out if prev is None else prev + comp_out
    # arity k - 1 is read from arity k: a bound of -1 means nothing is known
    return HochschildCochain(c.ring, basis, c.degree + 1, out, lowered(c.arity_bound, 1))


def normalize_cochain(c: HochschildCochain, m: AInfStructure):
    """Iterate the normalization steps across every slot.

    Returns (normalized, witness); for a cochain killed by the
    differential the witness satisfies normalized = c - d(witness).
    """
    cur = c
    witness = None
    i = 0
    while i < cur.max_arity():
        step = s_op(i, cur)
        witness = step if witness is None else witness + step
        cur = cur - hochschild_differential(step, m) - s_op(
            i, hochschild_differential(cur, m)
        )
        i += 1
    if witness is None:
        witness = HochschildCochain(c.ring, c.basis, c.degree + 1, {}, c.arity_bound)
    return cur, witness


# -- two-cell dualization -------------------------------------------------


def _two_cell_letters(basis: GradedBasis):
    """Map letters of the word algebra to the two generators, and back."""
    if len(basis.generators) != 2:
        raise BasisError("dualization needs the two-cell basis")
    names = basis.names
    cell = names[0] if names[1] == basis.UNIT else names[1]
    return {"T": basis.UNIT, "t": cell}


def dualize_back(m: AInfStructure) -> Derivation:
    """Two-cell bar structure to the letter derivation (degree -1 side)."""
    basis = m.basis
    letters = _two_cell_letters(basis)
    d = basis.degree(letters["t"]) - 1
    grading = GradingContext(d)
    gen_letter = {g: l for l, g in letters.items()}
    images = {"T": {}, "t": {}}
    for k, comp in m.components.items():
        for word, vec in comp.table.items():
            sign = -1 if basis.word_sparity(word) else 1
            letters_word = "".join(gen_letter[a] for a in reversed(word))
            for name, c in vec.items():
                tgt = images[gen_letter[name]]
                add = c.scaled(sign) if sign < 0 else c
                s = tgt.get(letters_word)
                tgt[letters_word] = add if s is None else s + add
    on_tau = NCSeries(m.ring, grading, images["T"], m.arity_bound)
    on_t = NCSeries(m.ring, grading, images["t"], m.arity_bound)
    return Derivation(on_tau, on_t, 1)


def dualize(xi: Derivation, basis: GradedBasis) -> AInfStructure:
    """Letter derivation to the two-cell bar structure (same sign rule)."""
    if xi.parity != 1:
        raise ParityError("only odd derivations dualize to structures")
    letters = _two_cell_letters(basis)
    if basis.degree(letters["t"]) - 1 != xi.grading.d:
        raise BasisError("basis cell degree does not match the derivation")
    bound = min(xi.onTau.maxlen, xi.onT.maxlen)
    tables = {}
    for letter, img in (("T", xi.onTau), ("t", xi.onT)):
        target = letters[letter]
        for word, c in img.terms.items():
            if not word:
                raise StructureError("derivation image has a scalar part")
            gens = tuple(letters[ch] for ch in reversed(word))
            sign = -1 if basis.word_sparity(gens) else 1
            k = len(gens)
            tbl = tables.setdefault(k, {})
            vec = tbl.setdefault(gens, {})
            add = c.scaled(sign) if sign < 0 else c
            s = vec.get(target)
            vec[target] = add if s is None else s + add
    comps = {
        k: MultiComponent(xi.ring, basis, k, -1, tbl) for k, tbl in tables.items()
    }
    return AInfStructure(xi.ring, basis, comps, bound)
