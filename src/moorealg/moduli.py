"""Classification of two-cell algebra data under normalized substitutions.

The acting group is {f = f1*t + f2*t^2 + ... : f1 a unit} under
composition, and it acts on even classifying series on the right by
u |-> u(f(t)).  Over the (graded) field modes an orbit is pinned by the
height n together with the class of the leading coefficient modulo n-th
powers; over Z/p^K every admissible series reduces to a trivial or
canonical representative, returned here together with a witness
substitution that composes the input to the representative exactly.

The canonical representative adds two normalizations on top of the
shape checked by is_canonical.  First, rescaling t by 1 + c*p^(K-1)
moves the top base-p digit of the leading unit coefficient through all
residues while fixing everything else; that digit is gauged to zero.
Second, at a finite truncation N the substitution coefficients of t^m
for m > N - n + 1 push their unit-size effects beyond t^N, so they can
perturb a canonical shape into nearby ones differing in a block of high
base-p digits slot by slot; a digit sweep clears every such reachable
digit (see _digit_sweep).  After both, equal orbits produce equal forms
coefficient by coefficient, not merely matching shapes.

The sweep does not search for its moves.  Re-reduced, a window move
t + d*p^jm*t^m changes the digits up to the level it acts on by d times
what its unit move (d = 1) changes, mod p, so one form-only probe per
window slot and level predicts the single clearing move, which is then
applied to form and witness and verified like a search result.  Most
probes are not even made: a valuation bound proves that the move cannot
reach the digit at all (see _digit_sweep).  At N = 10 it rules out
every window move for anchor 2 when K < 10 and for anchor 3 when K < 5.

canonicalize_dvr keeps form and witness as lists of residues mod p^K
from the anchor check to the final is_canonical check: one conversion
in, one lift out.  The tail reduction (_dvr_reduce) and the digit sweep
run on the lists, each elementary substitution t -> t + a*t^r is one
binomial pass (series._substitute_plain) that moves form and witness
together, and digit j of t^i is read as cs[i] // p^j % p, with no
RingElem arithmetic in between.  The rescale of the linear slot before
the anchor check composes with a one-term r^-1 * t, which compose runs
as one scaling pass.
Over F_p canonicalize_char0 runs the same residue loop (_tail_passes)
at K = 1, where every valuation is zero and there is no top digit to
gauge, again with one conversion in and one lift out.  Over Q and the
graded fields it composes series (_reduce_tail): compose runs each
t - c*t^r as one binomial pass over Q, on numerators over one common
denominator, and as its one loop on RingElem values over [v].

Over Z/p^K[v] (|v| = 2) the orbits are graded: a degree-homogeneous
datum is u(t) = v^-1 * ubar(v^e * t) with ubar over Z/p^K, a degree-0
substitution is f(t) = v^-e * fbar(v^e * t), and u o f is
v^-1 * (ubar o fbar)(v^e * t).  So the graded orbits are exactly the
orbits over Z/p^K, and canonicalize_dvr strips the v's, runs the one
Z/p^K path and puts the v's back.

The odd-variant action is implemented in full (act_full) but no odd
classification is attempted; its outputs are validated against letter
level conjugation in the word-algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

from ._ntheory import factor, primitive_root
from .errors import (
    FieldRequiredError,
    IncompatibleRingError,
    InternalError,
    NoUniformizerError,
    NotAUnitError,
    NotInvertibleError,
    ParityError,
    PrecisionError,
    StructureError,
    WildCaseError,
)
from .rings import CoeffRing, RingElem
from .series import (
    EXACT,
    PowerSeries,
    compose,
    format_series,
    height,
    is_canonical,
    ps_t,
    reversion,
    super_derivative,
    _lifted,
    _residues,
    _substitute_plain,
)

__all__ = [
    "CanonicalForm",
    "MooreAlgebra",
    "act",
    "act_full",
    "canonicalize_char0",
    "canonicalize_dvr",
    "degree_audit",
    "equivalent",
    "orbit_invariant_char0",
]


class MooreAlgebra:
    """A two-cell algebra datum: one even or one odd classifying package.

    The even kind stores a single series u with zero constant term and an
    even cell degree d; the odd kind stores the pair (v, w), both
    supported on even exponents >= 2, with d odd.  Field names line up
    with what moore_mstar expects, so instances feed the word-level
    layer directly.
    """

    __slots__ = ("kind", "d", "u", "v", "w")

    def __init__(self, kind, d, u=None, v=None, w=None):
        if kind not in ("even", "odd"):
            raise StructureError(f"unknown algebra kind {kind!r}")
        if d % 2 != (0 if kind == "even" else 1):
            raise ParityError(f"{kind}-kind datum needs d of matching parity, got {d}")
        if kind == "even":
            if u is None or v is not None or w is not None:
                raise StructureError("even kind takes exactly the series u")
            if 0 in u.coeffs:
                raise StructureError("classifying series has a nonzero constant term")
        else:
            if v is None or w is None or u is not None:
                raise StructureError("odd kind takes exactly the pair (v, w)")
            if v.ring != w.ring:
                raise IncompatibleRingError("v and w over different rings")
            for name, s in (("v", v), ("w", w)):
                bad = [i for i in s.coeffs if i % 2 or i < 2]
                if bad:
                    raise ParityError(
                        f"{name} must use even exponents >= 2, found t^{min(bad)}"
                    )
        self.kind = kind
        self.d = int(d)
        self.u = u
        self.v = v
        self.w = w

    @classmethod
    def even(cls, u: PowerSeries, d: int = 0) -> "MooreAlgebra":
        return cls("even", d, u=u)

    @classmethod
    def odd(cls, v: PowerSeries, w: PowerSeries, d: int = 1) -> "MooreAlgebra":
        return cls("odd", d, v=v, w=w)

    @property
    def ring(self) -> CoeffRing:
        return self.u.ring if self.kind == "even" else self.v.ring

    def __repr__(self):
        if self.kind == "even":
            return f"MooreAlgebra.even(d={self.d}, u={self.u!r})"
        return f"MooreAlgebra.odd(d={self.d}, v={self.v!r}, w={self.w!r})"


@dataclass
class CanonicalForm:
    """Result of a canonicalization run.

    kind is "trivial", "canonical" (valuation-ring modes) or
    "graded_field"; n is the structural degree (None for trivial);
    form is the reduced series and witness the substitution with
    compose(input, witness) == form to the working truncation.
    """

    kind: str
    n: "int | None"
    form: PowerSeries
    witness: PowerSeries


def _require_substitution(f: PowerSeries) -> RingElem:
    """Check f(0) = 0 with a unit linear slot; return that coefficient."""
    if 0 in f.coeffs:
        raise NotInvertibleError("substitution has a nonzero constant term")
    f1 = f.coeff(1)
    if not f1.is_unit():
        raise NotInvertibleError("substitution needs a unit linear coefficient")
    return f1


def _comp_inverse(f: PowerSeries) -> PowerSeries:
    # linear substitutions invert exactly (EXACT truncation included);
    # anything longer goes through reversion and needs a finite ceiling
    f1 = _require_substitution(f)
    if set(f.coeffs) <= {1}:
        return PowerSeries(f.ring, {1: f1.inverse()}, f.trunc)
    return reversion(f)


def _check_support(s: PowerSeries, par: int, min_exp: int, name: str):
    for i in s.coeffs:
        if i % 2 != par or i < min_exp:
            raise ParityError(f"{name} has a forbidden exponent t^{i}")


# -- the action ------------------------------------------------------------


def act(M: MooreAlgebra, f: PowerSeries) -> MooreAlgebra:
    """Right action on an even datum: substitute f into u."""
    if M.kind != "even":
        raise StructureError("the substitution action is defined on even data")
    if f.ring != M.u.ring:
        raise IncompatibleRingError("substitution over a different ring")
    _require_substitution(f)
    return MooreAlgebra.even(compose(M.u, f), M.d)


def act_full(A: PowerSeries, B: PowerSeries, G: PowerSeries, F: PowerSeries):
    """Full odd-variant action of the pair (G, F) on the pair (A, B).

    A and B are the values-on-letters data (even exponents >= 2); the
    group element sends the suspension letter to itself plus G(t) and
    the cell letter t to F(t), so G and F use odd exponents only and F
    needs a unit linear coefficient.  Returns the transformed (A', B').
    """
    ring = A.ring
    for name, s in (("B", B), ("G", G), ("F", F)):
        if s.ring != ring:
            raise IncompatibleRingError(f"{name} over a different ring")
    _check_support(A, 0, 2, "A")
    _check_support(B, 0, 2, "B")
    _check_support(G, 1, 1, "G")
    _check_support(F, 1, 1, "F")
    Fi = _comp_inverse(F)
    BF = compose(B, F)
    # the derivative that survives conjugating g(t)*d/dt past an odd t
    Ap = compose(A, F) - G * G - BF * compose(super_derivative(compose(G, Fi)), F)
    Bp = G.shifted(1).scaled(ring.from_int(2)) + BF * compose(super_derivative(Fi), F)
    return Ap, Bp


# -- orbit invariants over the field modes ---------------------------------


def _class_rep_q(c: Fraction, n: int) -> Fraction:
    """Smallest positive-exponent representative of c modulo n-th powers."""
    exps = factor(abs(c.numerator))
    for q, k in factor(c.denominator).items():
        exps[q] = exps.get(q, 0) - k
    rep = Fraction(1)
    for q, k in exps.items():
        if k % n:
            rep *= Fraction(q) ** (k % n)
    if n % 2 == 0 and c < 0:
        rep = -rep
    return rep


def _class_rep_fp(c: int, p: int, n: int) -> int:
    """Representative of c modulo n-th powers in the prime field.

    With g the smallest primitive root and c = g^a, the class of c is
    g^(a mod d), d = gcd(n, p - 1).  Only a mod d is needed, so the log
    is taken in the order-d subgroup, of y = c^((p-1)/d) to the base
    h = g^((p-1)/d), by baby-step giant-step: O(sqrt(d)) with d <= n.
    """
    d = gcd(n, p - 1)
    if d == 1 or c == 1:
        return 1
    g = primitive_root(p)
    e = (p - 1) // d
    y, h = pow(c, e, p), pow(g, e, p)
    m = isqrt(d - 1) + 1
    baby = {pow(h, j, p): j for j in range(m)}
    step = pow(h, -m, p)
    for i in range(m):
        j = baby.get(y)
        if j is not None:
            return pow(g, i * m + j, p)
        y = y * step % p
    raise InternalError(f"{c} has no logarithm to the base {g} modulo {p}")


def _field_anchor(u: PowerSeries) -> int:
    """The height n of u over a (graded) field, with u_n a unit."""
    ring = u.ring
    if not ring.is_field:
        raise FieldRequiredError(f"{ring.spec()} is not a (graded) field")
    if 0 in u.coeffs:
        raise StructureError("classifying series has a nonzero constant term")
    n = height(u)
    if ring.mode == "Fp" and n % ring.p == 0:
        raise WildCaseError(
            f"characteristic {ring.p} divides the height {n}; not classified"
        )
    if not u.coeffs[n].is_unit():
        raise NotAUnitError("leading coefficient is not a unit monomial")
    return n


def orbit_invariant_char0(M: MooreAlgebra):
    """The pair (height, leading coefficient modulo n-th powers).

    Over the Laurent modes the v-power of the leading coefficient is
    kept as part of the class, since degree-zero rescalings cannot
    change it.  Two even data over the same field are equivalent exactly
    when these pairs match.
    """
    if M.kind != "even":
        raise StructureError("orbit invariants are defined for even data")
    ring = M.u.ring
    n = _field_anchor(M.u)
    ((key, c),) = M.u.coeffs[n].terms.items()
    if ring.mode == "Q":
        rep = _class_rep_q(c, n)
    else:
        rep = _class_rep_fp(c, ring.p, n)
    return n, ring.el({key: rep})


# -- canonical forms -------------------------------------------------------


def canonicalize_char0(u: PowerSeries) -> CanonicalForm:
    """Reduce u to its leading term over a (graded) field.

    Repeatedly kills the lowest coefficient above the height n with the
    substitution t - t^(k-(n-1)) * u_k/(n*u_n); each pass strictly
    raises that index, so the loop clears everything up to the
    truncation.  Returns u_n * t^n with the accumulated witness.
    Over F_p the passes run on residue lists (_tail_passes at K = 1,
    without _dvr_reduce's top-digit gauge); over Q and the graded
    fields they compose series (_reduce_tail).
    """
    n = _field_anchor(u)
    ring, N = u.ring, u.trunc
    if ring.mode == "Fp" and not ring.laurent:
        cs, ws = _tail_passes(_residues(u), [0, 1], n, ring.p, ring.modulus, 1, N)
        return CanonicalForm("graded_field", n, _lifted(ring, cs, 1, N), _lifted(ring, ws, 1, N))
    cur, wit = _reduce_tail(u, ps_t(ring, N), n)
    return CanonicalForm("graded_field", n, cur, wit)


def _pi_quotient(ring: CoeffRing, e: RingElem) -> RingElem:
    # every residue is divisible by p, so integer division is exact
    return ring.el({k: c // ring.p for k, c in e.terms.items()})


def canonicalize_dvr(u: PowerSeries) -> CanonicalForm:
    """Trivial or canonical representative over Z/p^K, with witness.

    Requires the linear coefficient to be a unit multiple of p.  After
    rescaling that slot to p exactly, either every higher coefficient is
    divisible by p (trivial kind: divide out p and substitute the
    compositional inverse), or the first unit slot k (p must not divide
    k) anchors the double iteration: always remove the surviving tail
    term of least valuation, then lowest exponent.  A final linear
    rescale zeroes the top base-p digit of the leading unit coefficient,
    and a digit sweep clears the truncation slack; see the module
    docstring.

    Over Z/p^K[v] u must pass degree_audit at the cell degree d = 2e - 2
    that its linear coefficient c*v^(e-1) fixes (StructureError
    otherwise), and the result represents the graded orbit.
    """
    ring = u.ring
    if ring.mode != "Zp":
        raise NoUniformizerError(f"{ring.spec()} has no uniformizer")
    if ring.laurent:
        return _canonicalize_graded(u)
    if 0 in u.coeffs:
        raise StructureError("classifying series has a nonzero constant term")
    p = ring.p
    pi = ring.uniformizer()
    u1 = u.coeff(1)
    # zero has valuation K, which is 1 over Z/p
    if not u1 or u1.valuation() != 1:
        raise StructureError(
            "linear coefficient must be a unit multiple of the uniformizer"
        )
    r = _pi_quotient(ring, u1)
    cur = u
    wit = ps_t(ring, u.trunc)
    if r != ring.one():
        f0 = PowerSeries(ring, {1: r.inverse()}, EXACT)
        cur = compose(cur, f0)
        wit = compose(wit, f0)
    units = [i for i in sorted(cur.coeffs) if i >= 2 and cur.coeffs[i].valuation() == 0]
    if not units:
        # cur = p * g(t) with g a substitution; g undoes itself exactly
        g = PowerSeries(
            ring,
            {i: _pi_quotient(ring, e) for i, e in cur.coeffs.items()},
            cur.trunc,
        )
        gi = _comp_inverse(g)
        cur = compose(cur, gi)
        wit = compose(wit, gi)
        if cur.coeffs != {1: pi}:
            raise InternalError(
                f"trivial reduction failed to verify: {format_series(u)} "
                f"reduced to {format_series(cur)}"
            )
        return CanonicalForm("trivial", None, cur, wit)
    k = units[0]
    if k % p == 0:
        raise WildCaseError(f"residue characteristic {p} divides the degree {k}")
    # from here to the lift, form and witness are residue lists through N,
    # the witness's bound too (t, rescaled exactly, keeps u's bound)
    N = cur.trunc
    cs, ws = _dvr_reduce(_residues(cur), _residues(wit), k, ring, N)
    cs, ws = _digit_sweep(cs, ws, k, ring, N, u)
    cur, wit = _lifted(ring, cs, 1, N), _lifted(ring, ws, 1, N)
    ok, n = is_canonical(cur)
    if not ok or n != k:
        raise InternalError(
            f"canonical reduction failed to verify: {format_series(u)} "
            f"reduced to {format_series(cur)}, anchor t^{k}"
        )
    return CanonicalForm("canonical", k, cur, wit)


def _canonicalize_graded(u):
    # strip u = v^-1 * ubar(v^e * t) to ubar, canonicalize that, lift back
    ring = u.ring
    lead = u.coeff(1).terms
    if len(lead) != 1:
        raise StructureError("linear coefficient is not a single v-monomial")
    (j,) = lead
    e = j + 1
    if degree_audit(MooreAlgebra.even(u, 2 * e - 2)):
        raise StructureError(
            f"series is not degree-homogeneous for cell degree {2 * e - 2}"
        )
    base = CoeffRing("Zp", ring.p, ring.K)
    # homogeneous: every coefficient is a single v-monomial
    bar = PowerSeries(
        base, {i: c for i, x in u.coeffs.items() for c in x.terms.values()}, u.trunc
    )
    cf = canonicalize_dvr(bar)

    def lift(s, shift):
        return PowerSeries(
            ring, {i: {e * i + shift: x.terms[0]} for i, x in s.coeffs.items()}, s.trunc
        )

    return CanonicalForm(cf.kind, cf.n, lift(cf.form, -1), lift(cf.witness, -e))


def _reduce_tail(cur, wit, k):
    # compose with t - c*t^(s-k+1) until nothing is left above the anchor
    # k, removing the lowest tail exponent s first; below k every
    # coefficient is zero, so no such substitution changes u_k.  Only Q
    # and the graded fields come here (F_p takes _tail_passes).  Q moves
    # to lists once the benchmark's span test has a vehicle other than
    # canonicalize_char0 that keeps calling compose.
    ring = cur.ring
    inv = cur.coeffs[k].scaled(k).inverse()
    while True:
        tail = [i for i in cur.coeffs if i > k]
        if not tail:
            return cur, wit
        if cur.trunc == EXACT:
            raise PrecisionError(
                "reduction of an exact series does not terminate; truncate the input"
            )
        s = min(tail)
        c = cur.coeffs[s] * inv
        h = PowerSeries(ring, {1: ring.one(), s - (k - 1): -c}, EXACT)
        cur = compose(cur, h)
        wit = compose(wit, h)


def _dvr_reduce(cs, ws, k, ring, n):
    """The Z/p^K tail reduction and top-digit gauge, on residue lists.

    cs and ws hold form and witness (cs[i] at t^i, residues mod p^K),
    both known through t^n.  Runs _tail_passes, then zeroes the top
    base-p digit of the leading unit coefficient by the rescale
    t -> (1 + gamma*p^(K-1))*t.  Returns the new lists, still known
    through n; either may carry trailing zeros.  ws=None reduces the
    form alone; otherwise every pass moves form and witness in one
    binomial pass.  Over F_p
    canonicalize_char0 runs the passes alone; Q and the graded fields
    compose series instead.
    """
    p, K, mod = ring.p, ring.K, ring.modulus
    cs, ws = _tail_passes(cs, ws, k, p, mod, K, n)
    top = cs[k] // p ** (K - 1)
    if top:
        gamma = (-top * pow(k * (cs[k] % p), -1, p)) % p
        g = 1 + gamma * p ** (K - 1)
        cs = [c * pow(g, i, mod) % mod for i, c in enumerate(cs)]
        if ws is not None:
            ws = [c * pow(g, i, mod) % mod for i, c in enumerate(ws)]
    return cs, ws


def _tail_passes(cs, ws, k, p, mod, K, n):
    """The residue loop of the tail reduction over Z/p^K and F_p.

    cs and ws are lists of residues mod mod = p^K (K = 1 for F_p), known
    through t^n, as in _dvr_reduce.  Removes the tail term of least
    valuation, then lowest exponent s, by t -> t - c*t^(s-k+1) until
    nothing is left above the anchor k.  Each pass finds s by a level
    scan: for q = p, p^2, ..., p^K the first q with a tail entry not
    divisible by q is p^(v+1) for the least valuation v, and the first
    such entry is s.  Over F_p (K = 1) that is the first nonzero tail
    entry, the lowest exponent, as in the field reduction.  Each pass is
    one call of the binomial kernel, with the witness passed alongside
    the form when ws is given, so each factor C(i, j)*a^j is computed
    once for both; the two lists come back the same length, the shorter
    one padded with zeros.
    _dvr_reduce (Z/p^K) follows this with its top-digit gauge;
    canonicalize_char0 (F_p) takes the result as it is.  Q and the
    graded fields compose series instead (_reduce_tail).
    """
    # with non-units below the anchor, each pass strictly raises the least
    # (valuation, exponent) of the tail, which takes at most K*(n - k) values
    passes = K * max(n - k, 0)
    levels = [p**j for j in range(1, K + 1)]
    for _ in range(passes + 1):
        s = next((i for q in levels for i in range(k + 1, len(cs)) if cs[i] % q), None)
        if s is None:
            return cs, ws
        if n == EXACT:
            raise PrecisionError(
                "reduction of an exact series does not terminate; truncate the input"
            )
        a = -cs[s] * pow(k * cs[k], -1, mod) % mod
        if ws is None:
            cs = _substitute_plain(cs, a, s - (k - 1), n, mod)
        else:
            cs, ws = _substitute_plain(cs, a, s - (k - 1), n, mod, w=ws)
    raise InternalError(f"tail reduction above t^{k} did not end in {passes} passes")


def _unit_response(cs, k, ring, n, m, jm, positions):
    """Digit changes, mod p, that the unit move t + p^jm * t^m makes.

    Moves and re-reduces the form's list cs alone; returns one entry per
    digit position (j, i) in positions.
    """
    p = ring.p
    moved, _ = _dvr_reduce(_substitute_plain(cs, p**jm, m, n, ring.modulus), None, k, ring, n)
    return [(moved[i] // p**j - cs[i] // p**j) % p for j, i in positions]


def _digit_sweep(cs, ws, k, ring, n, source):
    """Zero every base-p digit of the form that substitutions can reach.

    Takes and returns form and witness as _dvr_reduce does.  At
    truncation n the substitution coefficients of t^m for m > n - k + 1
    act invisibly on the tail (their unit-size effects all land beyond
    t^n), so distinct runs of the tail reduction can land on distinct
    canonical shapes.  The reachable shapes differ slot by slot in a
    block of high base-p digits.  Scanning digit positions from the
    least significant level and taking, for each nonzero digit, the
    first window move t + d*p^jm*t^m (m, then jm, then d ascending) that
    clears it without touching any earlier digit lands every orbit on
    the same distinguished shape: the one whose movable digits all
    vanish.  Every digit position has i <= k, and the anchor keeps cs
    longer than k.

    The move is predicted, not searched for.  After re-reduction a move
    changes the digits up to level j by d times the change of its unit
    move (d = 1), mod p, so for one (m, jm) either no d keeps the
    earlier digits or all do, and exactly d = -digit / v clears the
    digit when the unit move changes it by v != 0.  The unit responses
    are computed once per (m, jm, level) on the form alone, and only for
    the moves that can reach the digit: the move (m, jm) is skipped for
    digit (j, i) when jm + 1 + ceil((m - i)/(k - 1)) > j.  Invariant:
    valuation + index/(k - 1) of what the move and the re-reduction
    passes change never falls below jm + 1 + m/(k - 1), since below the
    anchor every valuation is >= 1 and above it nothing is left.  So the
    change at t^i is divisible by p^(j+1), the top-digit gauge (which
    only touches digit (K-1, k)) stays off, the unit response at (j, i)
    is 0 and the probe could not have chosen the move.  The chosen
    move is then applied to form and witness and must pass the test a
    search would apply (digit cleared, earlier digits kept); a failure
    raises InternalError naming source, the series being canonicalized.
    A digit that no window move clears is left as it is: it is part of
    the orbit invariant.
    """
    if n == EXACT:
        # no truncation, no invisible window, nothing to sweep
        return cs, ws
    p, K, mod = ring.p, ring.K, ring.modulus
    free = range(max(n - k + 2, 2), n + 1)
    positions = [(j, i) for j in range(1, K) for i in range(2, k + 1)]
    responses = {}
    for idx, (j, i) in enumerate(positions):
        dig = cs[i] // p**j % p
        if dig == 0:
            continue
        for m, jm in product(free, range(j)):
            if jm + 1 - (i - m) // (k - 1) > j:
                # the bound: this move cannot reach digit (j, i), so v[idx] = 0
                continue
            v = responses.get((m, jm, j))
            if v is None:
                # one entry per position up to level j; v[idx] is this digit
                v = _unit_response(cs, k, ring, n, m, jm, positions[: j * (k - 1)])
                responses[m, jm, j] = v
            if v[idx] and not any(v[:idx]):
                break
        else:
            continue
        d = (-dig * pow(v[idx], -1, p)) % p
        prefix = [cs[ii] // p**jj % p for jj, ii in positions[:idx]]
        a = d * p**jm
        c2, w2 = _dvr_reduce(*_substitute_plain(cs, a, m, n, mod, w=ws), k, ring, n)
        if c2[i] // p**j % p or [c2[ii] // p**jj % p for jj, ii in positions[:idx]] != prefix:
            raise InternalError(
                f"digit sweep move failed to verify: {format_series(source)}, "
                f"digit (i={i}, j={j}), move (m={m}, jm={jm}, d={d})"
            )
        cs, ws = c2, w2
    return cs, ws


# -- equivalence and degree bookkeeping ------------------------------------


def equivalent(M1: MooreAlgebra, M2: MooreAlgebra) -> bool:
    """Whether two even data lie in the same substitution orbit.

    Over Z/p^K[v] this is the graded orbit, and both series must be
    degree-homogeneous for the data's cell degree (see canonicalize_dvr).
    """
    for M in (M1, M2):
        if M.kind != "even":
            raise StructureError("the equivalence test covers even data only")
    if M1.ring != M2.ring:
        raise IncompatibleRingError("data over different rings")
    if M1.d != M2.d:
        return False
    ring = M1.ring
    if ring.is_field:
        z1, z2 = M1.u.is_zero(), M2.u.is_zero()
        if z1 or z2:
            return z1 and z2
        return orbit_invariant_char0(M1) == orbit_invariant_char0(M2)
    if ring.mode == "Zp":
        # canonicalize_dvr reads the cell degree off u_1, so hold it to M.d;
        # without v the audit is always empty
        if degree_audit(M1) or degree_audit(M2):
            raise StructureError("data are not degree-homogeneous for their cell degree")
        c1 = canonicalize_dvr(M1.u)
        c2 = canonicalize_dvr(M2.u)
        return (
            c1.kind == c2.kind
            and c1.n == c2.n
            and c1.form.coeffs == c2.form.coeffs
        )
    raise FieldRequiredError("equivalence needs field or valuation-ring coefficients")


def degree_audit(M: MooreAlgebra) -> list:
    """Check of internal v-degrees against the cell degree d.

    In the Laurent modes (|v| = 2) the coefficient of t^i must sit in a
    single degree: i(d+2)-2 for u and w, i(d+2)-d-3 for v.  Returns one
    entry per offending exponent; non-Laurent data audit vacuously.
    canonicalize_dvr over Z/p^K[v] requires an empty report.
    """
    ring = M.ring
    if not ring.laurent:
        return []
    report = []

    def check(name, s, want):
        for i in sorted(s.coeffs):
            found = sorted(2 * j for j in s.coeffs[i].terms)
            if any(dg != want(i) for dg in found):
                report.append(
                    {
                        "series": name,
                        "exponent": i,
                        "expected_degree": want(i),
                        "found_degrees": found,
                    }
                )

    d = M.d
    if M.kind == "even":
        check("u", M.u, lambda i: i * (d + 2) - 2)
    else:
        check("v", M.v, lambda i: i * (d + 2) - (d + 3))
        check("w", M.w, lambda i: i * (d + 2) - 2)
    return report
