"""Truncated one-variable power series over a coefficient ring.

A PowerSeries carries its own truncation: coefficients of t^i are known
for i <= trunc and unknown beyond.  Every operation computes the
tightest truncation its inputs justify, so results never claim more
precision than they have:

* add:      min(Na, Nb)
* mul:      min(Na + ord(b), Nb + ord(a))
* compose:  min((Na+1)*ord(b) - 1, (max(ord(a),1)-1)*ord(b) + Nb)
* derivative: N - 1;  shifted(k): N + k

where ord is the first exponent with a nonzero known coefficient (one
past the truncation for a series that is zero as far as it is known).

This module owns the one precision model of the package; the word
series (truncated by length) and the bar-side cochains (by arity) use
it too.  Bounds run from -1 to EXACT.  A bound equal to EXACT means
"known completely": a polynomial here, a finite sum of words, or a
cochain with no higher components.  A bound of -1 means "nothing
known": no coefficient, not even the constant term.  capped() saturates
a computed bound at both ends and lowered() keeps EXACT fixed, so EXACT
plus anything or minus anything is EXACT, and every constructor clamps
its bound, so no object holds a bound outside [-1, EXACT].  Past its
bound a coefficient is unknown, not zero: coeff() raises PrecisionError
there, and every coefficient that decides a branch is read through it.

Text grammar (round-trips with format_series):

    series  := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := number | number '/' number | 'v' ['^' int]
             | 't' ['^' nat] | '(' element ')'
    element := ['-'] eterm (('+'|'-') eterm)*   -- no t allowed inside

so "5*t + v*t^2 + 3*t^4", "t - 1/2*t^2", "(5 + v)*t^2" all parse.
"""

from __future__ import annotations

import re

from .errors import (
    CompositionError,
    HeightUndefinedError,
    IncompatibleRingError,
    InternalError,
    NotInvertibleError,
    ParseError,
    PrecisionError,
)
from .rings import CoeffRing, RingElem, format_elem

EXACT = 10 ** 9  # the bound of an object known completely; see capped/lowered


def capped(n: int) -> int:
    """A computed bound, saturated at -1 ("nothing known") and EXACT."""
    return -1 if n < -1 else n if n < EXACT else EXACT


def lowered(n: int, k: int) -> int:
    """The bound n lowered by k; EXACT stays EXACT.

    A negative k raises n: lowered(order, -N) is order + N, in which an
    order of EXACT (an exact zero) absorbs even a bound N = -1.
    """
    return n if n >= EXACT else n - k


class PowerSeries:
    __slots__ = ("ring", "trunc", "coeffs")

    def __init__(self, ring: CoeffRing, coeffs: dict, trunc: int):
        trunc = capped(trunc)
        self.ring = ring
        self.trunc = trunc
        self.coeffs = {}
        for i, c in coeffs.items():
            if i < 0:
                raise ValueError("negative exponent in power series")
            if i > trunc:
                continue
            if isinstance(c, RingElem):
                if c.ring != ring:
                    raise IncompatibleRingError("coefficient over a different ring")
                if c:
                    self.coeffs[i] = c
            else:
                e = ring.from_int(c) if not isinstance(c, dict) else ring.el(c)
                if e:
                    self.coeffs[i] = e

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        t = "EXACT" if self.trunc == EXACT else self.trunc
        return f"<{format_series(self)} + O(t^{t}) : {self.ring.spec()}>"

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> RingElem:
        if i > self.trunc:
            raise PrecisionError(f"coefficient {i} is beyond truncation {self.trunc}")
        return self.coeffs.get(i, self.ring.zero())

    def order(self) -> int:
        """First exponent with a nonzero known coefficient.

        For a series that is zero to its truncation this returns
        trunc + 1: the tightest lower bound the data justifies.
        """
        if not self.coeffs:
            return capped(self.trunc + 1)
        return min(self.coeffs)

    def degree(self):
        """Largest exponent with a nonzero known coefficient (None if 0)."""
        if not self.coeffs:
            return None
        return max(self.coeffs)

    def truncated(self, n: int) -> "PowerSeries":
        return PowerSeries(self.ring, self.coeffs, min(self.trunc, n))

    def _check(self, other):
        if not isinstance(other, PowerSeries):
            raise TypeError("expected a PowerSeries")
        if other.ring != self.ring:
            raise IncompatibleRingError(
                f"ring mismatch: {self.ring.spec()} vs {other.ring.spec()}"
            )

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        n = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i)
            out[i] = c if s is None else s + c
        return PowerSeries(self.ring, out, n)

    def __neg__(self):
        return PowerSeries(self.ring, {i: -c for i, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        n = min(lowered(other.order(), -self.trunc), lowered(self.order(), -other.trunc))
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if i + j > n:
                    continue
                s = out.get(i + j)
                p = a * b
                out[i + j] = p if s is None else s + p
        return PowerSeries(self.ring, out, n)

    def scaled(self, e: RingElem) -> "PowerSeries":
        if e.ring != self.ring:
            raise IncompatibleRingError("scalar over a different ring")
        return PowerSeries(self.ring, {i: c * e for i, c in self.coeffs.items()}, self.trunc)

    def shifted(self, k: int) -> "PowerSeries":
        """Multiply by t^k (exactly)."""
        n = capped(self.trunc + k)
        return PowerSeries(self.ring, {i + k: c for i, c in self.coeffs.items()}, n)


def ps_t(ring: CoeffRing, trunc: int) -> PowerSeries:
    return PowerSeries(ring, {1: ring.one()}, trunc)


def compose(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Substitute g into f.  Needs g(0) = 0.

    The running power g^k is kept as a plain {exponent: coefficient}
    dict over g's coefficients up to the result bound, and each row of a
    product stops at that bound; no intermediate series is built.  A
    coefficient equal to one is used as is, never multiplied by, so an
    elementary substitution t + c*t^s costs one multiplication per
    binomial term of each power: O(N^2) for the whole composition.
    """
    f._check(g)
    if 0 in g.coeffs:
        raise CompositionError("inner series must have zero constant term")
    og = g.order()  # >= 1
    ofu = max(f.order(), 1)
    # where an unknown coefficient of f, or of g, first reaches the result
    from_f = lowered(capped((f.trunc + 1) * og), 1)
    from_g = lowered(ofu, 1) * og + g.trunc
    n = capped(min(from_f, from_g))
    out = {}
    if 0 in f.coeffs:
        out[0] = f.coeffs[0]
    top = f.degree() or 0  # None for f = 0
    one = f.ring.one().terms
    # g's coefficients up to the bound, each flagged if it is one
    row = [(j, b, b.terms == one) for j, b in sorted(g.coeffs.items()) if j <= n]
    power = {j: b for j, b, _ in row}  # g^k up to the bound
    k = 1
    while power and k <= top:
        c = f.coeffs.get(k)
        if c is not None:
            c_one = c.terms == one
            for i, a in power.items():
                p = a if c_one else a * c
                s = out.get(i)
                out[i] = p if s is None else s + p
        k += 1
        if k > top:
            break
        nxt = {}
        for i, a in power.items():
            for j, b, b_one in row:
                e = i + j
                if e > n:
                    break
                p = a if b_one else a * b
                s = nxt.get(e)
                nxt[e] = p if s is None else s + p
        power = {e: a for e, a in nxt.items() if a}
    return PowerSeries(f.ring, out, n)


def reciprocal(f: PowerSeries) -> PowerSeries:
    """Multiplicative inverse 1/f, to f's truncation; needs a unit constant term.

    Solved coefficient by coefficient from f * (1/f) = 1, so it divides
    only by the constant term.  The reciprocal of an exact series is
    infinite unless the series is a constant, so an exact input of
    positive degree raises PrecisionError; an exact constant gives an
    exact constant.
    """
    a0 = f.coeff(0)
    if not a0.is_unit():
        raise NotInvertibleError("reciprocal needs a unit constant term")
    if f.trunc == EXACT and f.coeffs.keys() != {0}:
        raise PrecisionError("reciprocal of an exact series is infinite; truncate")
    b0 = a0.inverse()
    out = {0: b0}
    top = 0 if f.trunc == EXACT else f.trunc
    for i in range(1, top + 1):
        s = None
        for j in range(1, i + 1):
            aj = f.coeffs.get(j)
            bij = out.get(i - j)
            if aj is None or bij is None:
                continue
            s = aj * bij if s is None else s + aj * bij
        if s is not None:
            c = -(b0 * s)
            if c:
                out[i] = c
    return PowerSeries(f.ring, out, f.trunc)


def reversion(f: PowerSeries) -> PowerSeries:
    """Compositional inverse g of a unit-linear series: f(g) = t through t^n.

    Newton iteration (Brent & Kung, J. ACM 25, 1978).  g = t/f_1 is
    right through t^1.  If g is right through t^m, the error
    e = f(g) - t has order >= m + 1, and

        g - e / f'(g)

    is right through t^(2m+1), since the neglected term is of order
    e^2.  Each step takes m to M = min(2m, n); doubling rather than
    2m + 1 keeps the bounds at powers of two, so n = 16 composes at 2, 4,
    8, 16 rather than at 3, 7, 15, 16.  The step needs f(g) - t to
    bound M, so it composes f truncated to M with g at bound M; and,
    because e / f'(g) only matters from t^(m+1) on, it needs f'(g) and
    its reciprocal only to bound M - m - 1.  The step writes the
    coefficients m+1..M of g and leaves the known ones as they are.
    Nothing is divided by an integer, only by the unit f_1 (the
    constant term of f'(g)), so this works over every ring in which f_1
    is a unit.

    Cost: about log2(n) steps at doubling bounds, the last at n, each
    composing at M and at about M/2; then one composition at n that
    checks f(g) = t.
    """
    if 0 in f.coeffs:
        raise NotInvertibleError("series has a constant term")
    f1 = f.coeff(1)
    if not f1.is_unit():
        raise NotInvertibleError("linear coefficient is not a unit")
    n = f.trunc
    if n == EXACT:
        raise PrecisionError("reversion needs a finite truncation")
    ring = f.ring
    df = derivative(f)
    coeffs = {1: f1.inverse()}
    m = 1
    while m < n:
        M = min(2 * m, n)
        g = PowerSeries(ring, coeffs, M)
        err = compose(f.truncated(M), g) - ps_t(ring, M)
        b = M - m - 1
        step = err * reciprocal(compose(df.truncated(b), g.truncated(b)))
        for i in range(m + 1, M + 1):
            c = step.coeffs.get(i)
            if c is not None:
                coeffs[i] = -c
        m = M
    g = PowerSeries(ring, coeffs, n)
    if any(i <= n for i in (compose(f, g) - ps_t(ring, n)).coeffs):
        raise InternalError(
            f"reversion failed to verify: f = {format_series(f)}, "
            f"candidate g = {format_series(g)}, truncation {n}"
        )
    return g


def derivative(f: PowerSeries) -> PowerSeries:
    n = lowered(f.trunc, 1)
    out = {}
    for i, c in f.coeffs.items():
        if i >= 1:
            d = c.scaled(i)
            if d:
                out[i - 1] = d
    return PowerSeries(f.ring, out, n)


def super_derivative(f: PowerSeries) -> PowerSeries:
    """Odd-variable derivative: t^i -> (i mod 2) * t^(i-1).

    This is the coefficient the commutator [g(t) d/dt, -] actually
    produces when t is an odd letter; the alternating Leibniz signs
    cancel in pairs, leaving one term for odd i and none for even i.
    """
    n = lowered(f.trunc, 1)
    out = {}
    for i, c in f.coeffs.items():
        if i % 2 == 1:
            out[i - 1] = c
    return PowerSeries(f.ring, out, n)


def height(f: PowerSeries) -> int:
    """Index of the first nonzero coefficient."""
    if not f.coeffs:
        raise HeightUndefinedError(
            f"no nonzero coefficient up to truncation {f.trunc}"
        )
    return min(f.coeffs)


def is_trivial(f: PowerSeries) -> bool:
    """True iff f is exactly pi * t (valuation-ring modes only)."""
    pi = f.ring.uniformizer()
    return f.coeffs == {1: pi}


def is_canonical(f: PowerSeries):
    """Canonical-shape predicate for valuation-ring series.

    Returns (True, n) when f = pi*t + u_2 t^2 + ... + u_n t^n with every
    middle coefficient divisible by pi, u_n a unit, and nothing beyond
    t^n; (False, None) otherwise.  Disjoint from is_trivial.
    """
    ring = f.ring
    pi = ring.uniformizer()
    if f.coeffs.get(1) != pi:
        return (False, None)
    unit_ix = [i for i in sorted(f.coeffs) if i >= 2 and f.coeffs[i].is_unit()]
    if not unit_ix:
        return (False, None)
    n = unit_ix[0]
    for i in sorted(f.coeffs):
        if i > n:
            return (False, None)
    # coefficients strictly between 1 and n are non-units by choice of n,
    # i.e. divisible by pi; nothing more to check
    return (True, n)


def weierstrass_rank(f: PowerSeries) -> int:
    """Index of the first unit coefficient."""
    for i in sorted(f.coeffs):
        if f.coeffs[i].is_unit():
            return i
    raise PrecisionError(
        f"no unit coefficient up to truncation {f.trunc}"
    )


# -- text form -------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[vt()+\-*/^]|$)")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.cur = None
        self.cur_pos = 0
        self._advance()

    def _advance(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("unrecognized character", self.pos)
        self.cur = m.group(1)
        self.cur_pos = m.start(1)
        self.pos = m.end()

    def take(self):
        tok, at = self.cur, self.cur_pos
        self._advance()
        return tok, at

    def expect(self, tok):
        if self.cur != tok:
            raise ParseError(f"expected {tok!r}, found {self.cur!r}", self.cur_pos)
        return self.take()


def _parse_int(tk: _Tokens) -> int:
    sign = 1
    if tk.cur == "-":
        tk.take()
        sign = -1
    if not tk.cur.isdigit():
        raise ParseError(f"expected an integer, found {tk.cur!r}", tk.cur_pos)
    tok, _ = tk.take()
    return sign * int(tok)


def _parse_factor(tk: _Tokens, ring: CoeffRing, allow_t: bool):
    """Returns (coefficient RingElem or None, t-exponent or None)."""
    if tk.cur.isdigit():
        tok, at = tk.take()
        num = int(tok)
        if tk.cur == "/":
            tk.take()
            if not tk.cur.isdigit():
                raise ParseError("expected a denominator", tk.cur_pos)
            den, _ = tk.take()
            d = ring.from_int(int(den))
            if not d.is_unit():
                raise ParseError(f"denominator {den} is not a unit", at)
            return ring.from_int(num) * d.inverse(), None
        return ring.from_int(num), None
    if tk.cur == "v":
        _, at = tk.take()
        if not ring.laurent:
            raise ParseError("variable v is not available in this ring", at)
        e = 1
        if tk.cur == "^":
            tk.take()
            e = _parse_int(tk)
        return ring.vpow(e), None
    if tk.cur == "t":
        _, at = tk.take()
        if not allow_t:
            raise ParseError("t cannot appear inside a coefficient", at)
        e = 1
        if tk.cur == "^":
            tk.take()
            e = _parse_int(tk)
            if e < 0:
                raise ParseError("negative power of t", at)
        return None, e
    if tk.cur == "(":
        _, at = tk.take()
        e = _parse_elem_sum(tk, ring)
        tk.expect(")")
        return e, None
    raise ParseError(f"unexpected token {tk.cur!r}", tk.cur_pos)


def _parse_term(tk: _Tokens, ring: CoeffRing, allow_t: bool):
    """One product of factors: returns (coefficient, t-exponent)."""
    coeff = ring.one()
    texp = None
    while True:
        c, e = _parse_factor(tk, ring, allow_t)
        if e is not None:
            if texp is not None:
                raise ParseError("two powers of t in one term", tk.cur_pos)
            texp = e
        else:
            coeff = coeff * c
        if tk.cur == "*":
            tk.take()
            continue
        break
    return coeff, (texp if texp is not None else 0)


def _parse_sum(tk: _Tokens, ring: CoeffRing, allow_t: bool):
    terms = []
    neg = False
    if tk.cur == "-":
        tk.take()
        neg = True
    while True:
        coeff, texp = _parse_term(tk, ring, allow_t)
        if neg:
            coeff = -coeff
        terms.append((texp, coeff))
        if tk.cur == "+":
            tk.take()
            neg = False
        elif tk.cur == "-":
            tk.take()
            neg = True
        else:
            break
    return terms


def _parse_elem_sum(tk: _Tokens, ring: CoeffRing) -> RingElem:
    acc = ring.zero()
    for texp, coeff in _parse_sum(tk, ring, allow_t=False):
        if texp:
            raise InternalError("t leaked into a coefficient sum")
        acc = acc + coeff
    return acc


def parse_elem(ring: CoeffRing, text: str) -> RingElem:
    tk = _Tokens(text)
    e = _parse_elem_sum(tk, ring)
    if tk.cur != "":
        raise ParseError(f"trailing input {tk.cur!r}", tk.cur_pos)
    return e


def parse_series(ring: CoeffRing, text: str, trunc: int) -> PowerSeries:
    tk = _Tokens(text)
    out = {}
    for texp, coeff in _parse_sum(tk, ring, allow_t=True):
        if texp in out:
            out[texp] = out[texp] + coeff
        else:
            out[texp] = coeff
    if tk.cur != "":
        raise ParseError(f"trailing input {tk.cur!r}", tk.cur_pos)
    return PowerSeries(ring, out, trunc)


def _coeff_text(c: RingElem) -> tuple[bool, str, bool]:
    """(is_negated, positive body, needs_parens) for use in front of t^i."""
    if len(c.terms) > 1:
        return False, format_elem(c), True
    ((_, v),) = c.terms.items()
    neg = v < 0
    body = format_elem(-c if neg else c)
    return neg, body, False


def format_series(f: PowerSeries) -> str:
    if not f.coeffs:
        return "0"
    chunks = []
    for i in sorted(f.coeffs):
        neg, body, parens = _coeff_text(f.coeffs[i])
        if i == 0:
            text = f"({body})" if parens else body
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            if parens:
                text = f"({body})*{tpow}"
            elif body == "1":
                text = tpow
            else:
                text = f"{body}*{tpow}"
        if not chunks:
            chunks.append(("-" if neg else "") + text)
        else:
            chunks.append(("- " if neg else "+ ") + text)
    return " ".join(chunks)
