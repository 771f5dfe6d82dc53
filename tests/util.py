"""Shared helpers for the test suite: seeded random data and comparisons."""

import json
import math

from moorealg.ainfty import (
    AInfStructure,
    HochschildCochain,
    hochschild_differential,
    s_op,
)
# the seeded generators live in the library, shared with the CLI
from moorealg._draws import rand_cochain, rand_elem, rand_series, rand_unit
from moorealg.errors import (
    CompositionError,
    InternalError,
    NotInvertibleError,
    PrecisionError,
)
from moorealg.moduli import _dvr_reduce
from moorealg.noncomm import (
    Derivation,
    GradingContext,
    NCEndo,
    NCSeries,
    agree_nc,
    apply_endo,
    nc_mul,
)
from moorealg.rings import CoeffRing, RingElem, format_elem, parse_ring
from moorealg.series import (
    EXACT,
    PowerSeries,
    capped,
    compose,
    lowered,
    parse_elem,
    ps_t,
)


def ext(bound):
    """A truncation bound as an extended integer: EXACT is infinity."""
    return math.inf if bound == EXACT else bound


def from_ext(x):
    """Inverse of ext: infinity is EXACT, and anything below -1 is -1."""
    return EXACT if x == math.inf else max(x, -1)


def times(a, b):
    """Product of extended integers: a factor 0 means the term never appears,
    even against infinity."""
    return 0 if 0 in (a, b) else a * b


def check_bound(got, expected, *input_bounds):
    """got must be EXACT for exact inputs and match the extended-integer
    formula, clamped at -1 ("nothing known")."""
    if all(b == EXACT for b in input_bounds):
        assert got == EXACT
    assert got == from_ext(expected)


def agree(a: PowerSeries, b: PowerSeries, upto=None) -> bool:
    """Coefficientwise equality on the range both sides actually know."""
    n = min(a.trunc, b.trunc)
    if upto is not None:
        n = min(n, upto)
    for i in range(0, n + 1):
        if a.coeffs.get(i, a.ring.zero()) != b.coeffs.get(i, b.ring.zero()):
            return False
    return True


def overlap(a: PowerSeries, b: PowerSeries) -> int:
    return min(a.trunc, b.trunc)


def agree_derivation(a: Derivation, b: Derivation, upto=None) -> bool:
    return (
        a.parity == b.parity
        and agree_nc(a.onTau, b.onTau, upto)
        and agree_nc(a.onT, b.onT, upto)
    )


def rand_nc(ring, grading: GradingContext, rng, maxlen, parity=None, nwords=4):
    """Random word-algebra element, optionally of homogeneous parity."""
    terms = {}
    for _ in range(nwords):
        n = rng.randint(1, max(1, min(maxlen, 4)))
        w = "".join(rng.choice("Tt") for _ in range(n))
        if parity is not None and grading.word_parity(w) != parity:
            continue
        terms[w] = rand_elem(ring, rng)
    return NCSeries(ring, grading, terms, maxlen)


def rand_derivation(ring, grading: GradingContext, rng, maxlen, parity):
    """Random derivation whose image parities match the declared parity."""
    on_tau = rand_nc(ring, grading, rng, maxlen, parity=(1 + parity) % 2)
    on_t = rand_nc(ring, grading, rng, maxlen, parity=(grading.tpar + parity) % 2)
    return Derivation(on_tau, on_t, parity)


def agree_cochain(a: HochschildCochain, b: HochschildCochain, upto=None) -> bool:
    """Componentwise equality on the arity range both sides know."""
    if a.degree != b.degree:
        return False
    n = min(a.arity_bound, b.arity_bound)
    if upto is not None:
        n = min(n, upto)
    arities = {k for k in set(a.components) | set(b.components) if k <= n}
    return all(a.component(k) == b.component(k) for k in arities)


def h_op(i, c, m):
    """One normalization step: c - d(s_i c) - s_i(d c)."""
    return c - hochschild_differential(s_op(i, c), m) - s_op(i, hochschild_differential(c, m))


def bar_homotopy_word(ring, basis, word) -> dict:
    """Prepend the unit: the contracting homotopy of the bar complex.

    With the sign conventions of moorealg.ainfty the plus sign makes
    d(s(w)) + s(d(w)) = w on nonempty words over a unital structure; the
    empty word spans the part the homotopy does not see.
    """
    return {(basis.UNIT,) + tuple(word): ring.one()}


def reversion_by_coefficients(f: PowerSeries) -> PowerSeries:
    """Compositional inverse, one full composition per coefficient.

    The reference for moorealg.series.reversion: the k-th coefficient of
    f(g) - t is f_1 times the error in g_k, so each pass corrects one
    coefficient.  O(n) compositions; same checks and exceptions.
    """
    if 0 in f.coeffs:
        raise NotInvertibleError("series has a constant term")
    f1 = f.coeff(1)
    if not f1.is_unit():
        raise NotInvertibleError("linear coefficient is not a unit")
    n = f.trunc
    if n == EXACT:
        raise PrecisionError("reversion needs a finite truncation")
    inv1 = f1.inverse()
    g = PowerSeries(f.ring, {1: inv1}, n)
    for k in range(2, n + 1):
        err = compose(f, g) - ps_t(f.ring, n)
        c = err.coeffs.get(k)
        if c:
            g = g - PowerSeries(f.ring, {k: c * inv1}, n)
    if any(i <= n for i in (compose(f, g) - ps_t(f.ring, n)).coeffs):
        raise InternalError(f"reversion failed to verify at truncation {n}")
    return g


def compose_by_powers(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Substitute g into f, one truncated series product per power of g.

    The reference for moorealg.series.compose: the same bound and
    checks, with g^k built as a PowerSeries and truncated after every
    product.  O(N^3) for dense inputs.
    """
    f._check(g)
    if 0 in g.coeffs:
        raise CompositionError("inner series must have zero constant term")
    og = g.order()
    ofu = max(f.order(), 1)
    from_f = lowered(capped((f.trunc + 1) * og), 1)
    from_g = lowered(ofu, 1) * og + g.trunc
    n = capped(min(from_f, from_g))
    out = {}
    if 0 in f.coeffs:
        out[0] = f.coeffs[0]
    gp = g.truncated(n) if n < g.trunc else g
    top = f.degree()
    if top is not None:
        k = 1
        power = gp
        while k <= top and power.order() <= n:
            c = f.coeffs.get(k)
            if c is not None:
                for i, a in power.coeffs.items():
                    if i > n:
                        continue
                    s = out.get(i)
                    p = a * c
                    out[i] = p if s is None else s + p
            k += 1
            if k <= top:
                power = (power * gp).truncated(n)
    return PowerSeries(f.ring, out, n)


def digit_sweep_by_probes(cur, wit, k):
    """Digit sweep that tries every window move t + d*p^jm*t^m in turn.

    The reference for moorealg.moduli._digit_sweep: for each nonzero
    digit (i, j), in the same position order, it composes form and
    witness with every candidate (m, then jm, then d ascending),
    re-reduces, and keeps the first result that clears the digit and
    leaves every earlier digit as it was.  O(window * levels * p)
    compositions per digit.
    """
    if cur.trunc == EXACT:
        return cur, wit
    ring = cur.ring
    p, K = ring.p, ring.K
    N = cur.trunc
    free = range(max(N - k + 2, 2), N + 1)
    if not free:
        return cur, wit

    def digit(series, i, j):
        e = series.coeffs.get(i)
        return 0 if e is None else (e.terms.get(0, 0) // p**j) % p

    positions = [(j, i) for j in range(1, K) for i in range(2, k + 1)]
    for idx, (j, i) in enumerate(positions):
        if digit(cur, i, j) == 0:
            continue
        prefix = [digit(cur, ii, jj) for jj, ii in positions[:idx]]
        found = None
        for m in free:
            for jm in range(j):
                for d in range(1, p):
                    move = PowerSeries(ring, {1: ring.one(), m: ring.from_int(d * p**jm)}, EXACT)
                    c2, w2 = _dvr_reduce(compose(cur, move), compose(wit, move), k)
                    if digit(c2, i, j) != 0:
                        continue
                    if [digit(c2, ii, jj) for jj, ii in positions[:idx]] != prefix:
                        continue
                    found = (c2, w2)
                    break
                if found:
                    break
            if found:
                break
        if found:
            cur, wit = found
    return cur, wit


def inverse_by_geometric_series(x):
    """Inverse of a unit over Z/p^K (optionally [v]) by a geometric series.

    The reference for RingElem.inverse in Zp mode: split off the inverse
    m of one unit monomial, then invert 1 + n, n = m*x - 1 divisible by
    p, as the finite sum of (-n)^i for i < K.
    """
    r = x.ring
    k0 = next(k for k, c in x.terms.items() if c % r.p)
    minv = RingElem(r, {-k0: pow(x.terms[k0], -1, r.modulus)})
    n = minv * x - r.one()
    acc = term = r.one()
    for _ in range(1, r.K):
        term = term * (-n)
        acc = acc + term
    return acc * minv


def series_to_json(f: PowerSeries) -> dict:
    return {
        "ring": f.ring.spec(),
        "trunc": f.trunc,
        "coeffs": {str(i): format_elem(c) for i, c in sorted(f.coeffs.items())},
    }


def series_from_json(data) -> PowerSeries:
    if isinstance(data, str):
        data = json.loads(data)
    ring = parse_ring(data["ring"])
    trunc = int(data["trunc"])
    coeffs = {}
    for k, text in data.get("coeffs", {}).items():
        coeffs[int(k)] = parse_elem(ring, text)
    return PowerSeries(ring, coeffs, trunc)


def endo_compose(phi: NCEndo, psi: NCEndo) -> NCEndo:
    """phi after psi: letter images of psi, pushed through phi."""
    return NCEndo(apply_endo(phi, psi.imageTau), apply_endo(phi, psi.imageT))


def ps_zero(ring: CoeffRing, trunc: int) -> PowerSeries:
    return PowerSeries(ring, {}, trunc)


def commutator(a: NCSeries, b: NCSeries) -> NCSeries:
    """Graded commutator ab - (-1)^(|a||b|) ba; operands must be homogeneous."""
    pa, pb = a.parity(), b.parity()
    sign = -1 if (pa or 0) * (pb or 0) % 2 else 1
    lhs = nc_mul(a, b)
    rhs = nc_mul(b, a)
    return lhs - rhs if sign > 0 else lhs + rhs


def structure_cochain(m: AInfStructure) -> HochschildCochain:
    """The structure viewed as a degree -1 cochain."""
    return HochschildCochain(m.ring, m.basis, -1, m.components, m.arity_bound)


def coderivation_extend(m: AInfStructure, word) -> dict:
    """Value of the extended coderivation on one tensor word.

    Returns a sparse bar vector {tensor word tuple: coefficient}: the sum
    over insertion positions and arities, each insertion signed by the
    suspended parity of the skipped prefix.
    """
    word = tuple(word)
    basis = m.basis
    n = len(word)
    out = {}
    ppar = 0
    for i in range(n):
        if i:
            ppar = (ppar + basis.sparity(word[i - 1])) % 2
        top = min(n - i, m.max_arity())
        for k in range(1, top + 1):
            inner = m.components.get(k)
            if inner is None:
                continue
            vec = inner.table.get(word[i:i + k])
            if not vec:
                continue
            for name, c in vec.items():
                if ppar:
                    c = -c
                w = word[:i] + (name,) + word[i + k:]
                s = out.get(w)
                tot = c if s is None else s + c
                if tot.terms:
                    out[w] = tot
                elif w in out:
                    del out[w]
    return out
