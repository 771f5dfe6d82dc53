"""Exact coefficient arithmetic.

Supported modes:

* ``Q``        rationals,
* ``F<p>``     the prime field with p elements,
* ``Zp:<p>:<K>``  the truncated valuation ring Z/p^K, uniformizer p
  (a finite stand-in for the p-adic integers; every answer is exact
  modulo p^K and the valuation of 0 is reported as K),
* any of the above with suffix ``[v]``: coefficients become Laurent
  polynomials in an invertible variable v of degree 2,
* an internal polynomial mode over Q with named formal coefficients
  (used by the universal structure checks; not reachable from the
  ring-spec grammar).

Elements are sparse maps monomial-key -> base scalar.  Base scalars are
Fraction for Q and the polynomial mode, canonical residues for F_p and
Z/p^K.  The arithmetic never touches floating point.

There is one CoeffRing object per ring: the constructor returns the
instance already made for equal arguments, so two rings are equal
exactly when they are the same object and every ring check is an
identity test.  Copies and unpickled rings go back through the
constructor and come out as that same object.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._ntheory import is_prime
from .errors import (
    IncompatibleRingError,
    NoUniformizerError,
    NotAUnitError,
    ParseError,
)

_RING_RE = re.compile(r"^(Q|F(\d+)|Zp:(\d+):(\d+))(\[v\])?$")


class CoeffRing:
    """A coefficient ring in one of the supported modes.

    mode is one of 'Q', 'Fp', 'Zp', 'Poly'.  For 'Fp' and 'Zp' the prime
    p (and precision K) are set; `laurent` adds the invertible degree-2
    variable v.  'Poly' carries a tuple of formal symbol names and is
    always over Q without v.
    """

    __slots__ = ("mode", "p", "K", "laurent", "symbols", "modulus")

    _interned = {}  # normalized arguments -> the one ring they name

    def __new__(cls, mode, p=None, K=None, laurent=False, symbols=()):
        key = (
            mode,
            p,
            K if mode == "Zp" else None,
            bool(laurent),
            tuple(symbols) if mode == "Poly" else (),
        )
        ring = cls._interned.get(key)
        if ring is not None:
            return ring
        if mode not in ("Q", "Fp", "Zp", "Poly"):
            raise ValueError(f"unknown ring mode {mode!r}")
        if mode in ("Fp", "Zp"):
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        if mode == "Zp" and (K is None or K < 1):
            raise ValueError("Zp mode needs a precision K >= 1")
        if mode == "Poly":
            if laurent:
                raise ValueError("polynomial mode has no Laurent variable")
            if not key[4] or len(set(key[4])) != len(key[4]):
                raise ValueError("polynomial mode needs distinct symbols")
        ring = object.__new__(cls)
        ring.mode, ring.p, ring.K, ring.laurent, ring.symbols = key
        ring.modulus = p if mode == "Fp" else p**K if mode == "Zp" else None
        return cls._interned.setdefault(key, ring)

    def __reduce__(self):
        return (CoeffRing, (self.mode, self.p, self.K, self.laurent, self.symbols))

    # -- identity ---------------------------------------------------------

    # one object per ring, so equality is identity; spelled out although
    # object's default is the same, since the benchmark's tracer counts
    # ring checks by wrapping this method
    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def __repr__(self):
        return f"CoeffRing({self.spec()})"

    def spec(self) -> str:
        if self.mode == "Q":
            base = "Q"
        elif self.mode == "Fp":
            base = f"F{self.p}"
        elif self.mode == "Zp":
            base = f"Zp:{self.p}:{self.K}"
        else:
            base = "Poly(" + ",".join(self.symbols) + ")"
        return base + ("[v]" if self.laurent else "")

    @property
    def is_field(self) -> bool:
        # graded-field modes included: every nonzero homogeneous element
        # of Q[v,1/v] or F_p[v,1/v] is a unit
        return self.mode in ("Q", "Fp")

    # -- base scalar helpers ---------------------------------------------

    def _bnorm(self, c):
        m = self.modulus
        if m is None:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            return c
        return c % m

    def _scalar(self, c):
        """_bnorm for the element constructors, which take outside scalars.

        In the modular modes only an integer has a residue: a Fraction
        counts as its numerator when its denominator is 1, and anything
        else raises.  The arithmetic calls _bnorm on its own residues.
        """
        if self.modulus is not None and not isinstance(c, int):
            if not (isinstance(c, Fraction) and c.denominator == 1):
                raise IncompatibleRingError(
                    f"{c!r} is not an integer scalar of {self.spec()}"
                )
            c = c.numerator
        return self._bnorm(c)

    def _zero_key(self):
        if self.mode == "Poly":
            return (0,) * len(self.symbols)
        return 0

    # -- element constructors --------------------------------------------

    def el(self, terms) -> "RingElem":
        """Build an element from a raw {key: scalar} map (normalizing)."""
        out = {}
        for k, c in terms.items():
            c = self._scalar(c)
            if c:
                out[k] = c
        return RingElem(self, out)

    def zero(self) -> "RingElem":
        return RingElem(self, {})

    def one(self) -> "RingElem":
        return self.from_int(1)

    def from_int(self, n) -> "RingElem":
        c = self._scalar(n)
        if not c:
            return RingElem(self, {})
        return RingElem(self, {self._zero_key(): c})

    def vpow(self, j: int, c=1) -> "RingElem":
        if not self.laurent:
            raise NoUniformizerError("this ring has no Laurent variable v")
        c = self._scalar(c)
        if not c:
            return RingElem(self, {})
        return RingElem(self, {j: c})

    def sym(self, name: str) -> "RingElem":
        if self.mode != "Poly":
            raise ValueError("formal symbols exist only in polynomial mode")
        i = self.symbols.index(name)
        key = tuple(1 if j == i else 0 for j in range(len(self.symbols)))
        return RingElem(self, {key: Fraction(1)})

    def uniformizer(self) -> "RingElem":
        if self.mode != "Zp":
            raise NoUniformizerError(f"{self.spec()} has no uniformizer")
        return self.from_int(self.p)

    def residue_ring(self) -> "CoeffRing":
        if self.mode != "Zp":
            raise NoUniformizerError("residue ring exists only in Zp mode")
        return CoeffRing("Fp", p=self.p, laurent=self.laurent)

    def residue(self, x: "RingElem") -> "RingElem":
        rr = self.residue_ring()
        if x.ring != self:
            raise IncompatibleRingError("element is not over this ring")
        return rr.el({k: c % self.p for k, c in x.terms.items()})


class RingElem:
    """One coefficient: a sparse monomial map over a CoeffRing.

    Keys are 0 (plain modes), an integer v-exponent (Laurent modes), or
    an exponent tuple (polynomial mode).  Values are normalized nonzero
    base scalars.  Instances are treated as immutable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, RingElem):
            raise TypeError(f"cannot combine RingElem with {type(other).__name__}")
        if other.ring != self.ring:
            raise IncompatibleRingError(
                f"ring mismatch: {self.ring.spec()} vs {other.ring.spec()}"
            )

    def __add__(self, other):
        self._check(other)
        r = self.ring
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = r._bnorm(out.get(k, 0) + c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return RingElem(r, out)

    def __radd__(self, other):
        # 0 + x is x, so a sum may start at the integer 0
        if type(other) is int and other == 0:
            return self
        return NotImplemented

    def __neg__(self):
        r = self.ring
        return RingElem(r, {k: r._bnorm(-c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        r = self.ring
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _kadd(k1, k2)
                s = r._bnorm(out.get(k, 0) + c1 * c2)
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return RingElem(r, out)

    def scaled(self, n: int) -> "RingElem":
        """Multiply by the image of the integer n: each term times n, normalized."""
        r = self.ring
        out = {}
        for k, c in self.terms.items():
            c = r._bnorm(c * n)
            if c:
                out[k] = c
        return RingElem(r, out)

    # -- units and valuation ---------------------------------------------

    def is_unit(self) -> bool:
        r = self.ring
        if not self.terms:
            return False
        if r.mode == "Poly":
            return list(self.terms) == [r._zero_key()]
        if r.mode in ("Q", "Fp"):
            # in the Laurent graded field the units are the monomials c*v^j
            return len(self.terms) == 1
        # Zp: unit iff the mod-p reduction is a single nonzero monomial
        hot = [k for k, c in self.terms.items() if c % r.p != 0]
        return len(hot) == 1

    def inverse(self) -> "RingElem":
        r = self.ring
        if not self.is_unit():
            raise NotAUnitError(f"{format_elem(self)} is not a unit in {r.spec()}")
        if r.mode in ("Q", "Poly"):
            # a unit is a single monomial here (a nonzero constant in Poly)
            ((k, c),) = self.terms.items()
            return RingElem(r, {_kneg(k): Fraction(1) / c})
        if r.mode == "Fp":
            ((k, c),) = self.terms.items()
            return RingElem(r, {-k: pow(c, -1, r.p)})
        # Zp: split off the unit monomial m, then invert 1+n geometrically;
        # a single monomial is its own m, already inverted exactly.
        m = r.modulus
        hot = [k for k, c in self.terms.items() if c % r.p != 0]
        k0 = hot[0]
        minv = RingElem(r, {_kneg(k0): pow(self.terms[k0], -1, m)})
        if len(self.terms) == 1:
            return minv
        n = minv * self - r.one()
        # n is divisible by p, so n^K = 0 and the geometric series is finite
        acc = r.one()
        term = r.one()
        for _ in range(1, r.K):
            term = term * (-n)
            acc = acc + term
        return acc * minv

    def valuation(self) -> int:
        r = self.ring
        if r.mode != "Zp":
            raise NoUniformizerError(f"valuation undefined over {r.spec()}")
        if not self.terms:
            return r.K
        best = r.K
        for c in self.terms.values():
            v = 0
            while c % r.p == 0:
                c //= r.p
                v += 1
            best = min(best, v)
        return best

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return f"<{format_elem(self)} : {self.ring.spec()}>"


def _kadd(k1, k2):
    if isinstance(k1, tuple):
        return tuple(a + b for a, b in zip(k1, k2))
    return k1 + k2


def _kneg(k):
    if isinstance(k, tuple):
        return tuple(-a for a in k)
    return -k


# -- ring-spec strings -----------------------------------------------------


def parse_ring(text: str) -> CoeffRing:
    m = _RING_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad ring spec {text!r}", 0)
    lau = bool(m.group(5))
    if m.group(1) == "Q":
        return CoeffRing("Q", laurent=lau)
    if m.group(2):
        p = int(m.group(2))
        if not is_prime(p):
            raise ParseError(f"modulus {p} is not prime", 1)
        return CoeffRing("Fp", p=p, laurent=lau)
    p, K = int(m.group(3)), int(m.group(4))
    if not is_prime(p):
        raise ParseError(f"modulus {p} is not prime", 3)
    if K < 1:
        raise ParseError("precision must be at least 1", 0)
    if K == 1:
        # Z/p is the field F_p, and the verbs that classify over Z/p^K need
        # the uniformizer p to be nonzero
        field = f"F{p}" + ("[v]" if lau else "")
        raise ParseError(f"{text.strip()} is the field {field}; write {field}", 0)
    return CoeffRing("Zp", p=p, K=K, laurent=lau)


# -- formatting ------------------------------------------------------------


def _fmt_monomial(ring: CoeffRing, k, c) -> str:
    if ring.mode == "Poly":
        parts = []
        for name, e in zip(ring.symbols, k):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        if not parts:
            return str(c)
        body = "*".join(parts)
        if c == 1:
            return body
        return f"{c}*{body}"
    if k == 0:
        return str(c)
    vp = "v" if k == 1 else f"v^{k}"
    if c == 1:
        return vp
    return f"{c}*{vp}"


def format_elem(x: RingElem) -> str:
    """Render an element; ascending monomial order, '-' folded into joins."""
    if not x.terms:
        return "0"
    items = sorted(x.terms.items())
    chunks = []
    for k, c in items:
        neg = c < 0
        body = _fmt_monomial(x.ring, k, -c if neg else c)
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
