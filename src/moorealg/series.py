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

compose, mul, reciprocal and reversion each run one loop for every ring
mode, on lists of values: over Q, F_p and Z/p^K without v (the plain
rings) a value is a coefficient's base scalar, or over Q an integer over
one common denominator (reversion rescales to integers instead), and
RingElems are built only for the result; over [v] and the polynomial
mode a value is the RingElem itself.  One loop serves both kinds, since
s + p and s * p mean the right thing for each.  On the plain rings
compose runs an elementary substitution t + a*t^r as one binomial pass
over a dense list (_substitute_plain), so the field canonical forms,
which compose with t - c*t^r, run on it, and the Z/p^K reduction in
moduli calls it on its residue lists directly, moving form and witness
in the same pass: each factor C(i, j)*a^j is computed once and added
into both lists.  A one-term g = c*t is one scaling pass on the plain
rings, f_i*c^i at t^i (_rescaled), in place of the power loop.

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
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    CompositionError,
    HeightUndefinedError,
    IncompatibleRingError,
    InternalError,
    NotAUnitError,
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
        plain, m = _kind(self.ring)
        (xs, da), (ys, db) = _integers(self, n, plain, m), _integers(other, n, plain, m)
        if not xs or not ys:
            return PowerSeries(self.ring, {}, n)
        top = min(n, xs[-1][0] + ys[-1][0])
        acc = [0] * (top + 1)
        for i, x in xs:
            for j, y in ys:
                e = i + j
                if e > top:
                    break
                acc[e] += x * y
        return _lifted(self.ring, acc, da * db, n)

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


# -- the series kernel -------------------------------------------------------
#
# The values of the module docstring: compose and mul take integers on the
# plain rings, residues or over Q numerators over one common denominator,
# since a Fraction operation pays a gcd every time; reciprocal takes the
# base scalars, since each of its coefficients feeds the next.  Every list
# entry starts at the integer 0, and 0 + x is x for a RingElem too.


def _kind(ring: CoeffRing):
    """(plain, m): whether ring's values are base scalars, and their modulus.

    m is None over Q and for RingElem values, which reduce themselves.
    """
    plain = not ring.laurent and ring.mode != "Poly"
    return plain, ring.modulus if plain else None


def _scalars(f: PowerSeries, upto: int, plain: bool) -> list:
    """[(i, value of f_i)] for the coefficients i <= upto, ascending."""
    items = sorted(f.coeffs.items())
    if plain:
        return [(i, c.terms[0]) for i, c in items if i <= upto]
    return [p for p in items if p[0] <= upto]


def _integers(f: PowerSeries, upto: int, plain: bool, m):
    """(pairs, den): the coefficients i <= upto as [(i, value)], f_i = value/den.

    den is 1 outside Q, and over Q the least common denominator, so a
    plain value is an integer.  plain and m are _kind(f.ring).
    """
    pairs = _scalars(f, upto, plain)
    if not plain or m is not None:
        return pairs, 1
    den = 1
    for _, c in pairs:
        den = lcm(den, c.denominator)
    return [(i, c.numerator * (den // c.denominator)) for i, c in pairs], den


def _lifted(ring: CoeffRing, acc: list, den: int, n: int) -> PowerSeries:
    """The series with acc[i]/den at t^i, acc unreduced, known through n."""
    plain, m = _kind(ring)
    n = capped(n)
    coeffs = {}
    for i, c in enumerate(acc[: n + 1]):
        if c:
            if plain:
                c = Fraction(c, den) if m is None else c % m
                if not c:
                    continue
                c = RingElem(ring, {0: c})
            coeffs[i] = c
    # built without the constructor's per-coefficient checks: every key
    # lies in [0, n] and every value is a nonzero element over ring
    out = object.__new__(PowerSeries)
    out.ring, out.trunc, out.coeffs = ring, n, coeffs
    return out


def _residues(f: PowerSeries) -> list:
    """f's coefficients as residues, f[i] at t^i through deg f; F_p and Z/p^K only."""
    out = [0] * ((f.degree() or 0) + 1)
    for i, c in f.coeffs.items():
        out[i] = c.terms[0]
    return out


def _substitute_plain(f: list, a: int, r: int, n: int, m, d: int = 1, w=None):
    """f(t + (a/d)*t^r) through t^n, for r >= 2 and f a list of integers.

    f[i] is the coefficient of t^i: a residue in [0, m) over F_p and
    Z/p^K, where d is 1, or over Q (m None) a numerator over a
    denominator the caller keeps.  By the binomial theorem f_i*t^i sends
    f_i*C(i, j)*(a/d)^j to t^(i + j*(r-1)), so one pass over (j, i)
    replaces the powers of t + a*t^r that compose builds.  Returns the
    entries through min(n, (len(f) - 1)*r), where compose's loop also
    stops; with J = (length - 1) // r the last j that reaches them, row j
    is scaled by a^j*d^(J-j), so the result is over d^J times f's
    denominator.  The rows stop once a^j is zero, as it is for j*v(a) >=
    K over Z/p^K, and on residues only the entries from t^r up, which the
    rows reach, are reduced.

    Given a second list w like f, the one pass moves both, each factor
    C(i, j)*a^j added into both, and returns (f moved, w moved); the
    shorter list is read with zeros past its end, so both results run
    through the longer list's bound, the same values with trailing zeros.
    """
    pair = w is not None
    size = max(len(f), len(w)) if pair else len(f)
    cap = min(n, (size - 1) * r)
    rows = max(cap, 0) // r  # J: i >= j puts a^j at t^(j*r) or later
    if pair:
        if len(f) < size:
            f = f + [0] * (size - len(f))
        if len(w) < size:
            w = w + [0] * (size - len(w))
    out = f[: cap + 1]
    wout = w[: cap + 1] if pair else None
    if d != 1:
        scale = d**rows
        out = [c * scale for c in out]
        if pair:
            wout = [c * scale for c in wout]
    if len(out) <= cap:  # both lists have one length
        out += [0] * (cap + 1 - len(out))
        if pair:
            wout += [0] * (cap + 1 - len(wout))
    step = r - 1
    aj = 1
    for j in range(1, rows + 1):
        aj = aj * a if m is None else aj * a % m
        if not aj:
            break
        shift = j * step
        b = aj if d == 1 else aj * d ** (rows - j)  # C(i, j) * row j's scale
        for i in range(j, min(size, cap - shift + 1)):
            if i > j:
                b = b * i // (i - j)
            c = f[i]
            if c:
                out[i + shift] += c * b
            if pair:
                c = w[i]
                if c:
                    wout[i + shift] += c * b
    if m is not None:
        out[r:] = [x % m for x in out[r:]]
        if pair:
            wout[r:] = [x % m for x in wout[r:]]
    return (out, wout) if pair else out


def _substituted(f: PowerSeries, a, r: int, n: int) -> PowerSeries:
    """f(t + a*t^r) through n on _substitute_plain, for r >= 2.

    a is the base scalar: a residue, or a Fraction over Q, where f
    becomes numerators over its least common denominator.
    """
    m = f.ring.modulus
    if m is not None:
        return _lifted(f.ring, _substitute_plain(_residues(f), a, r, n, m), 1, n)
    pairs, den = _integers(f, n, True, None)
    fs = [0] * (pairs[-1][0] + 1 if pairs else 1)
    for i, c in pairs:
        fs[i] = c
    out = _substitute_plain(fs, a.numerator, r, n, None, a.denominator)
    return _lifted(f.ring, out, den * a.denominator ** (max(len(out) - 1, 0) // r), n)


def _rescaled(f: PowerSeries, c, n: int) -> PowerSeries:
    """f(c*t) through n, one scaling pass: f_i*c^i at t^i.

    c is the base scalar: a residue, or a Fraction C/D over Q, where f
    becomes numerators F_i over its least common denominator e and
    f_i*c^i = F_i*C^i*D^(top-i) / (e*D^top), top the last exponent kept.
    """
    m = f.ring.modulus
    pairs, den = _integers(f, n, True, m)
    top = pairs[-1][0] if pairs else 0
    acc = [0] * (top + 1)
    if m is not None:
        for i, x in pairs:
            acc[i] = x * pow(c, i, m)
        return _lifted(f.ring, acc, 1, n)
    num, dc = c.numerator, c.denominator
    for i, x in pairs:
        acc[i] = x * num**i * dc ** (top - i)
    return _lifted(f.ring, acc, den * dc**top, n)


def compose(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Substitute g into f.  Needs g(0) = 0.

    The bound is computed here, and f(g) = sum_k f_k g^k then runs on
    value lists (see the kernel notes above), one loop for every ring
    mode: g^k is kept through the bound, reduced modulo m once per entry
    of each power on F_p and Z/p^K, and over Q as numerators over
    e * d^kmax, with f_k = F_k/e, g = G/d and kmax the last k for which
    g^k reaches the result, since f_k g^k = F_k d^(kmax-k) G^k /
    (e d^kmax).  On RingElem values a coefficient equal to one is never
    multiplied by, so an elementary substitution t + c*t^s costs one
    multiplication per binomial term of each power.  On the plain rings
    an elementary substitution g = t + a*t^r (two terms, the one at t
    equal to one) is instead one binomial pass, _substituted, and a
    one-term g = c*t one scaling pass, _rescaled, that multiplies f_i by
    c^i.  Each row stops at the bound, and no intermediate series is
    built.
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
    plain, m = _kind(f.ring)
    gs = g.coeffs
    if plain and len(gs) == 2 and 1 in gs and gs[1].terms[0] == 1:
        r = max(gs)
        return _substituted(f, gs[r].terms[0], r, n)
    if plain and len(gs) == 1 and 1 in gs:
        return _rescaled(f, gs[1].terms[0], n)
    top = f.degree() or 0  # None for f = 0
    # no exponent past deg f * deg g arises, even when n is EXACT
    cap = max(min(n, top * (g.degree() or 0)), 0)
    row, d = _integers(g, cap, plain, m)
    og = row[0][0] if row else cap + 1
    kmax = min(top, cap // og)
    fs, ef = _integers(f, kmax, plain, m)
    fs = dict(fs)
    acc = [0] * (cap + 1)
    acc[0] = fs.get(0, 0)
    if d != 1:
        acc[0] *= d**kmax
    power = [0] * (cap + 1)  # G^k through cap
    for j, b in row:
        power[j] = b
    # a RingElem factor equal to one is never multiplied by: the first
    # such t^j copies G^k shifted, and the others add it in; on the plain
    # rings a product costs less than the test
    one = None if plain else {f.ring._zero_key(): 1}  # the terms of one
    units = [j for j, b in row if not plain and b.terms == one]
    if units:
        row = [(j, b) for j, b in row if j not in units]
    lo = og  # G^k vanishes below k * og
    for k in range(1, kmax + 1):
        c = fs.get(k)
        if c is not None:
            if d != 1:
                c *= d ** (kmax - k)
            unit = not plain and c.terms == one
            for i in range(lo, cap + 1):
                a = power[i]
                if a:
                    acc[i] += a if unit else a * c
        if k == kmax:
            break
        nxt = [0] * (cap + 1)
        if units:
            j = units[0]
            nxt[j:] = power[: cap + 1 - j]
            for j in units[1:]:
                for i in range(lo, cap - j + 1):
                    a = power[i]
                    if a:
                        nxt[i + j] += a
        for i in range(lo, cap + 1):
            a = power[i]
            if a:
                for j, b in row:
                    e = i + j
                    if e > cap:
                        break
                    nxt[e] += a * b
        power = nxt if m is None else [x % m for x in nxt]
        lo += og
    return _lifted(f.ring, acc, ef * d**kmax, n)


def reciprocal(f: PowerSeries) -> PowerSeries:
    """Multiplicative inverse 1/f, to f's truncation; needs a unit constant term.

    Solved coefficient by coefficient from f * (1/f) = 1, so it divides
    only by the constant term, on the values of the series kernel: base
    scalars on the plain rings, RingElems otherwise.  The reciprocal of
    an exact series is infinite unless the series is a constant, so an
    exact input of positive degree raises PrecisionError; an exact
    constant gives an exact constant.
    """
    a0 = f.coeff(0)
    if not a0.is_unit():
        raise NotInvertibleError("reciprocal needs a unit constant term")
    if f.trunc == EXACT and f.coeffs.keys() != {0}:
        raise PrecisionError("reciprocal of an exact series is infinite; truncate")
    top = 0 if f.trunc == EXACT else f.trunc
    plain, m = _kind(f.ring)
    b0 = a0.inverse()
    if plain:
        b0 = b0.terms[0]
    fs = _scalars(f, top, plain)[1:]  # f_0 is a unit, so it comes first
    out = [b0] + [0] * top
    for i in range(1, top + 1):
        s = 0
        for j, a in fs:
            if j > i:
                break
            b = out[i - j]
            if b:
                s += a * b
        if s:
            s = -(b0 * s)
            out[i] = s if m is None else s % m
    return _lifted(f.ring, out, 1, f.trunc)


def reversion(f: PowerSeries) -> PowerSeries:
    """Compositional inverse g of a unit-linear series: f(g) = t through t^n.

    One triangular solve, coefficient by coefficient, on a rescaled
    series fhat with fhat_1 = 1, whose inverse ghat has ghat_1 = 1.  The
    coefficient of t^i in fhat(ghat) is ghat_i + sum_{k=2..i}
    fhat_k*[t^i]ghat^k, and [t^i]ghat^k for k >= 2 reads only ghat_1 ..
    ghat_(i-1).  So for i = 2..n the solve fills column i of ghat^k for
    k = 2..min(i, deg f), each entry from the lower columns of
    ghat^(k-1) (ghat^k has order k), and sets

        ghat_i = -sum_k fhat_k*[t^i]ghat^k.

    It runs on the values of the series kernel, one loop for every ring
    mode: residues on F_p and Z/p^K, reduced once per column entry, and
    RingElems over [v] and the polynomial mode, with

        fhat(s) = f(s/f_1),  fhat_k = f_k/f_1^k,  g_i = ghat_i/f_1,

    so the only division is the inverse of the unit f_1, and this works
    over every ring in which f_1 is a unit.  Over Q, with D the least
    common denominator of f and F = D*f,

        fhat(s) = (D/F_1^2)*f(F_1*s),  fhat_k = F_1^(k-2)*F_k,
        g_i = ghat_i*D^i / F_1^(2i-1),

    so ghat is solved in integers, with no division and no Fraction
    until the result.

    The result is then checked, independently of the solve: f(g) - t,
    through the module's compose, must vanish through t^n.

    Cost: about n^3/6 products of values for a dense f, and n^2*deg f/2
    for a polynomial f of low degree; then the one composition at n of
    the check.
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
    plain, m = _kind(ring)
    rational = plain and m is None
    kmax = f.degree()  # >= 1, and <= n
    zero, one = (0, 1) if plain else (ring.zero(), ring.one())
    fv = [zero] * (kmax + 1)  # fhat_k for k >= 2
    if rational:
        pairs, den = _integers(f, kmax, True, None)
        lead = pairs[0][1]  # F_1
        for k, c in pairs[1:]:
            fv[k] = c * lead ** (k - 2)
    else:
        # fhat(s) = f(s/f_1): fhat_k = f_k/f_1^k, and g = ghat/f_1
        a = f1.inverse()
        if plain:
            a = a.terms[0]
        ak = [one, a]
        for _ in range(2, kmax + 1):
            x = ak[-1] * a
            ak.append(x if m is None else x % m)
        for k, c in _scalars(f, kmax, plain)[1:]:
            x = c * ak[k]
            fv[k] = x if m is None else x % m
    g = [zero] * (n + 1)  # ghat, with ghat_1 = 1
    g[1] = one
    known = []  # ghat_2..ghat_(i-1)
    powers = [None, g] + [[zero] * (n + 1) for _ in range(2, kmax + 1)]  # [t^i]ghat^k
    for i in range(2, n + 1):
        acc = 0
        prev = g
        for k in range(2, min(i, kmax) + 1):
            # [t^i]g^k = [t^(i-1)]g^(k-1) + sum_{j=2..i-k+1} g_j*[t^(i-j)]g^(k-1);
            # map stops at the shorter list, the i-k entries of g^(k-1)
            s = sum(map(mul, known, prev[i - 2 : k - 2 : -1]), prev[i - 1])
            if m is not None:
                s %= m
            cur = powers[k]
            cur[i] = s
            c = fv[k]
            if c:
                acc += c * s
            prev = cur
        if acc:
            g[i] = -acc if m is None else -acc % m
        known.append(g[i])
    if rational:
        # g_i = ghat_i * D^i / F_1^(2i-1)
        coeffs, num, d = {}, den, lead
        for i in range(1, n + 1):
            if g[i]:
                coeffs[i] = RingElem(ring, {0: Fraction(g[i] * num, d)})
            num *= den
            d *= lead * lead
        g = PowerSeries(ring, coeffs, n)
    else:
        g = _lifted(ring, [x * a if x else x for x in g], 1, n)
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


def is_canonical(f: PowerSeries):
    """Canonical-shape predicate for valuation-ring series.

    Returns (True, n) when f = pi*t + u_2 t^2 + ... + u_n t^n with every
    middle coefficient divisible by pi, u_n a unit, and nothing beyond
    t^n; (False, None) otherwise.  The trivial form pi*t is not canonical.
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
    """Index of the first unit coefficient.

    Raises PrecisionError when no coefficient through a finite truncation
    is a unit, and NotAUnitError when f is exact and none is: then no
    coefficient ever is.
    """
    for i in sorted(f.coeffs):
        if f.coeffs[i].is_unit():
            return i
    if f.trunc == EXACT:
        raise NotAUnitError(f"no coefficient of the exact series {format_series(f)} is a unit")
    raise PrecisionError(f"no unit coefficient up to truncation {f.trunc}")


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
