"""Bar-side multilinear structures on a finite free graded module.

A cochain is one sparse table {input word: {output generator:
coefficient}} over tuples of basis generator names; an entry's arity is
the length of its word.  Every map is on the SUSPENDED module: the
structure maps all have degree -1, and the suspended parity of a
generator of degree n is (n + 1) mod 2.  The tensor-word conventions:

    extended coderivation   sum over insertions, sign (-1)^(s(a1)+..+s(ai))
    slot composition        sign (-1)^(|inner| * (s(a1)+..+s(ak)))
    differential            [c, m] = c.m - (-1)^|c| m.c

A structure is itself a Hochschild cochain: AInfStructure is the degree
-1 cochain with no word of length 0, its Stasheff identity is m.m = 0,
and like every container here it compares by value.

Arity truncation follows the one precision model of the series module:
a structure or cochain with arity_bound N knows every word of length
<= N exactly and says nothing about longer ones, arity_bound = EXACT
marks an object whose longer words genuinely vanish, and -1 marks one
of which nothing is known.  Bounds saturate at both ends:

    sum                -> min(Na, Nb)
    differential       -> min(Nc, Nm), or min(Nc, Nm - 1) if the cochain
                          has a value on the empty word
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


def _add_into(table, word, name, x):
    vec = table.setdefault(word, {})
    s = vec.get(name)
    vec[name] = x if s is None else s + x


class HochschildCochain:
    """Homogeneous cochain: one sparse table over words of every arity."""

    __slots__ = ("ring", "basis", "degree", "table", "arity_bound")

    def __init__(self, ring, basis, degree, table, arity_bound=EXACT):
        arity_bound = capped(arity_bound)
        clean = {}
        for word, vec in table.items():
            word = tuple(word)
            for a in word:
                basis.degree(a)
            out = {}
            for name, c in vec.items():
                basis.degree(name)
                if isinstance(c, int):
                    c = ring.from_int(c)
                elif c.ring != ring:
                    raise IncompatibleRingError("table entry from a different ring")
                if c.terms:
                    out[name] = c
            if out and len(word) <= arity_bound:
                clean[word] = out
        self.ring = ring
        self.basis = basis
        self.degree = degree
        self.table = clean
        self.arity_bound = arity_bound

    def max_arity(self) -> int:
        """Largest arity worth iterating: the bound, or the longest word."""
        if self.arity_bound < EXACT:
            return self.arity_bound
        return max(map(len, self.table), default=0)

    def is_zero(self) -> bool:
        return not self.table

    def __add__(self, other):
        if self.ring != other.ring or self.basis != other.basis:
            raise IncompatibleRingError("cochains over different bases")
        if self.degree != other.degree:
            raise StructureError("degree mismatch in cochain sum")
        bound = min(self.arity_bound, other.arity_bound)
        out = {w: dict(v) for w, v in self.table.items() if len(w) <= bound}
        for w, v in other.table.items():
            if len(w) <= bound:
                for name, x in v.items():
                    _add_into(out, w, name, x)
        return HochschildCochain(self.ring, self.basis, self.degree, out, bound)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        table = {w: {n: -x for n, x in v.items()} for w, v in self.table.items()}
        return HochschildCochain(self.ring, self.basis, self.degree, table, self.arity_bound)

    def scaled(self, c) -> "HochschildCochain":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        table = {w: {n: c * x for n, x in v.items()} for w, v in self.table.items()}
        return HochschildCochain(self.ring, self.basis, self.degree, table, self.arity_bound)

    def __eq__(self, other):
        return (
            isinstance(other, HochschildCochain)
            and self.ring == other.ring
            and self.basis == other.basis
            and self.degree == other.degree
            and self.arity_bound == other.arity_bound
            and self.table == other.table
        )

    __hash__ = None

    def __repr__(self):
        arities = sorted(set(map(len, self.table)))
        return f"HochschildCochain(degree={self.degree}, arities {arities})"


class AInfStructure(HochschildCochain):
    """The degree -1 cochain m1 + m2 + ... with no value on the empty word."""

    __slots__ = ()

    def __init__(self, ring, basis, table, arity_bound=EXACT):
        if () in table:
            raise StructureError("structures have no arity-0 component")
        super().__init__(ring, basis, -1, table, arity_bound)

    def __repr__(self):
        bound = "" if self.arity_bound == EXACT else f", bound {self.arity_bound}"
        return f"AInfStructure(arities {sorted(set(map(len, self.table)))}{bound})"


def structure_square(m: AInfStructure) -> HochschildCochain:
    """The structure composed with itself, m.m, to its arity bound."""
    out = {}
    _compose(out, m, m, m.arity_bound)
    return HochschildCochain(m.ring, m.basis, -2, out, m.arity_bound)


def stasheff_defect(m: AInfStructure):
    """First failing structure identity as (arity, word), or None."""
    word = min(structure_square(m).table, key=lambda w: (len(w), w), default=None)
    return None if word is None else (len(word), word)


def is_unital(m: AInfStructure) -> bool:
    """Strict unit conditions over the whole basis, to the arity bound.

    The unit multiplies as identity up to the suspension sign, and every
    other component vanishes as soon as the unit appears in a slot.
    """
    basis = m.basis
    unit = basis.UNIT
    one = m.ring.one()
    if m.arity_bound >= 2:
        for a in basis.names:
            if m.table.get((unit, a)) != {a: one}:
                return False
            want = -one if basis.degree(a) % 2 else one
            if m.table.get((a, unit)) != {a: want}:
                return False
    return not any(unit in word for word in m.table if len(word) != 2)


# -- Hochschild complex ---------------------------------------------------


def _compose(out, outer, inner, bound, negate=False):
    """Add the slot composition outer.inner, through arity bound, into out.

    A sum over the slots of each outer word, with the slot-prefix sign.
    """
    sparity = outer.basis.sparity
    odd_inner = inner.degree % 2
    feeds = {}  # output generator -> inner words with that output
    for win, vin in inner.table.items():
        for name, c in vin.items():
            feeds.setdefault(name, []).append((win, -c if negate else c))
    for wout, vout in outer.table.items():
        room = bound - len(wout) + 1  # the longest inner word that fits
        ppar = 0
        for slot, a in enumerate(wout):
            for win, c in feeds.get(a, ()):
                if len(win) > room:
                    continue
                if odd_inner and ppar:
                    c = -c
                combined = wout[:slot] + win + wout[slot + 1:]
                for name, x in vout.items():
                    _add_into(out, combined, name, c * x)
            ppar ^= sparity(a)


def hochschild_differential(c: HochschildCochain, m: AInfStructure) -> HochschildCochain:
    """The commutator with the structure: c.m - (-1)^|c| m.c.

    Known through arity min(Nc, Nm), or min(Nc, Nm - 1) when c has a
    value on the empty word: m_(n+1) composed with it lands in arity n.
    (A structure has no such value, so c's bound never drops.)  A bound
    of -1 means no arity is known.
    """
    if c.ring != m.ring or c.basis != m.basis:
        raise IncompatibleRingError("cochain and structure over different bases")
    nm = lowered(m.arity_bound, 1) if () in c.table else m.arity_bound
    bound = min(c.arity_bound, nm)
    out = {}
    _compose(out, c, m, bound)
    _compose(out, m, c, bound, negate=not c.degree % 2)
    return HochschildCochain(c.ring, c.basis, c.degree - 1, out, bound)


def is_normalized(c: HochschildCochain, upto=None) -> bool:
    """No support on words with the unit among the first `upto` slots."""
    unit = c.basis.UNIT
    return not any(unit in word[:upto] for word in c.table)


def s_op(i: int, c: HochschildCochain) -> HochschildCochain:
    """Degree +1 operator reading off the unit in slot i+1.

    The value on a word is the cochain's value on the word with the unit
    inserted after the first i letters, signed by those letters' suspended
    parities plus one.
    """
    basis = c.basis
    out = {}
    for word, vec in c.table.items():
        if len(word) > i and word[i] == basis.UNIT:
            w = word[:i] + word[i + 1:]
            neg = not basis.word_sparity(w[:i])
            out[w] = {name: -x if neg else x for name, x in vec.items()}
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
    for word, vec in m.table.items():
        neg = basis.word_sparity(word)
        letters_word = "".join(gen_letter[a] for a in reversed(word))
        for name, c in vec.items():
            images[gen_letter[name]][letters_word] = -c if neg else c
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
    table = {}
    for letter, img in (("T", xi.onTau), ("t", xi.onT)):
        target = letters[letter]
        for word, c in img.terms.items():
            if not word:
                raise StructureError("derivation image has a scalar part")
            gens = tuple(letters[ch] for ch in reversed(word))
            table.setdefault(gens, {})[target] = -c if basis.word_sparity(gens) else c
    return AInfStructure(xi.ring, basis, table, bound)
