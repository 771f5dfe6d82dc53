"""Shared helpers for the test suite: seeded random data and comparisons."""

import itertools
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
    ParseError,
    PrecisionError,
)
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
    lowered,
    ps_t,
    _parse_elem_sum,
    _Tokens,
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
    """Equal tables on the words both sides know."""
    if a.degree != b.degree:
        return False
    n = min(a.arity_bound, b.arity_bound)
    if upto is not None:
        n = min(n, upto)

    def known(c):
        return {w: v for w, v in c.table.items() if len(w) <= n}

    return known(a) == known(b)


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
    coefficient.  O(n) compositions, each by compose_by_powers, so no
    series arithmetic of the library is used; same checks and exceptions.
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
        err = compose_by_powers(f, g) - ps_t(f.ring, n)
        c = err.coeffs.get(k)
        if c:
            g = g - PowerSeries(f.ring, {k: c * inv1}, n)
    if any(i <= n for i in (compose_by_powers(f, g) - ps_t(f.ring, n)).coeffs):
        raise InternalError(f"reversion failed to verify at truncation {n}")
    return g


def compose_by_powers(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Substitute g into f, one truncated product per power of g.

    The reference for moorealg.series.compose: the same bound and
    checks, with g^k built by a double loop of RingElem products of its
    own, cut at the bound after every product, so it shares no series
    arithmetic with the library.  O(N^3) for dense inputs.
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
    gs = {j: b for j, b in g.coeffs.items() if j <= n}
    power = dict(gs)  # g^k through n, k = 1, 2, ...
    top = f.degree() or 0
    for k in range(1, top + 1):
        c = f.coeffs.get(k)
        if c is not None:
            for i, a in power.items():
                s = out.get(i)
                p = a * c
                out[i] = p if s is None else s + p
        if k == top:
            break
        nxt = {}
        for i, a in power.items():
            for j, b in gs.items():
                if i + j <= n:
                    s = nxt.get(i + j)
                    p = a * b
                    nxt[i + j] = p if s is None else s + p
        power = {i: a for i, a in nxt.items() if a}
        if not power:
            break
    return PowerSeries(f.ring, out, n)


def mul_by_terms(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """The product a * b, one RingElem product per pair of terms.

    The reference for PowerSeries.__mul__: the same bound and checks,
    and every pair of terms whose exponents sum to at most the bound is
    multiplied and added into a dict, so it shares no series arithmetic
    with the library.
    """
    a._check(b)
    n = min(lowered(b.order(), -a.trunc), lowered(a.order(), -b.trunc))
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j <= n:
                s = out.get(i + j)
                p = x * y
                out[i + j] = p if s is None else s + p
    return PowerSeries(a.ring, out, n)


def reciprocal_by_solving(f: PowerSeries) -> PowerSeries:
    """1/f solved from f * (1/f) = 1, one RingElem equation per coefficient.

    The reference for moorealg.series.reciprocal: the same checks and
    exceptions, and b_i = -b_0 * (a_1 b_(i-1) + ... + a_i b_0) is summed
    over RingElems in a dict, so it shares no series arithmetic with the
    library.
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
        s = f.ring.zero()
        for j in range(1, i + 1):
            if j in f.coeffs and i - j in out:
                s = s + f.coeffs[j] * out[i - j]
        out[i] = -(b0 * s)
    return PowerSeries(f.ring, out, f.trunc)


def dvr_reduce_by_compose(cur, wit, k):
    """Tail reduction and top-digit gauge over Z/p^K, one composition per step.

    The reference for moorealg.moduli._dvr_reduce, which runs on residue
    lists: compose form and witness with t - c*t^(s-k+1), removing the
    tail term of least valuation, then lowest exponent s, until nothing
    is left above the anchor k; then rescale t by 1 + gamma*p^(K-1) so
    that the top base-p digit of the t^k coefficient is zero.  RingElem
    arithmetic and compose_by_powers throughout, never the binomial
    kernel that both _dvr_reduce and series.compose run; wit=None
    reduces the form alone.
    """
    ring = cur.ring
    p, K = ring.p, ring.K
    while True:
        tail = [i for i in cur.coeffs if i > k]
        if not tail:
            break
        if cur.trunc == EXACT:
            raise PrecisionError(
                "reduction of an exact series does not terminate; truncate the input"
            )
        s = min(tail, key=lambda i: (cur.coeffs[i].valuation(), i))
        c = cur.coeffs[s] * cur.coeffs[k].scaled(k).inverse()
        h = PowerSeries(ring, {1: ring.one(), s - (k - 1): -c}, EXACT)
        cur = compose_by_powers(cur, h)
        if wit is not None:
            wit = compose_by_powers(wit, h)
    ck = cur.coeffs[k].terms[0]
    top = ck // p ** (K - 1)
    if top:
        gamma = (-top * pow(k * (ck % p), -1, p)) % p
        g = PowerSeries(ring, {1: ring.from_int(1 + gamma * p ** (K - 1))}, EXACT)
        cur = compose_by_powers(cur, g)
        if wit is not None:
            wit = compose_by_powers(wit, g)
    return cur, wit


def digit_sweep_by_probes(cur, wit, k):
    """Digit sweep that tries every window move t + d*p^jm*t^m in turn.

    The reference for moorealg.moduli._digit_sweep: for each nonzero
    digit (i, j), in the same position order, it composes form and
    witness with every candidate (m, then jm, then d ascending) by
    compose_by_powers, re-reduces by dvr_reduce_by_compose, and keeps
    the first result that clears the digit and leaves every earlier
    digit as it was.
    O(window * levels * p) compositions per digit.
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
                    c2, w2 = dvr_reduce_by_compose(
                        compose_by_powers(cur, move), compose_by_powers(wit, move), k
                    )
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


def is_trivial(f: PowerSeries) -> bool:
    """True iff f is exactly pi * t (valuation-ring modes only)."""
    return f.coeffs == {1: f.ring.uniformizer()}


def parse_elem(ring: CoeffRing, text: str) -> RingElem:
    """One coefficient-ring element written as a sum, with no t."""
    tk = _Tokens(text)
    e = _parse_elem_sum(tk, ring)
    if tk.cur != "":
        raise ParseError(f"trailing input {tk.cur!r}", tk.cur_pos)
    return e


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


def rand_coeff(ring, rng):
    """rand_elem, and over the polynomial mode a combination of 1 and the symbols
    with integer coefficients in -3..3 and -2..2."""
    if ring.mode != "Poly":
        return rand_elem(ring, rng)
    x = ring.from_int(rng.randint(-3, 3))
    for name in ring.symbols:
        x = x + ring.sym(name) * ring.from_int(rng.randint(-2, 2))
    return x


def nc_order(x: NCSeries):
    """ord(x) as an extended integer: bound + 1 for a zero series, so infinity when exact."""
    if x.terms:
        return min(len(w) for w in x.terms)
    return ext(x.maxlen) + 1


def apply_endo_by_expansion(phi: NCEndo, x: NCSeries) -> NCSeries:
    """Substitute the letter images into x, expanding every word completely.

    The reference for moorealg.noncomm.apply_endo: a word l1..lk of x
    becomes the sum over all tuples of image words (itertools.product)
    of one RingElem product per tuple, so no word-algebra product of the
    library is used.  The bound is the module docstring's (Lx + 1)*o - 1,
    lowered for each word to the bound of the product of its letter
    images taken one letter at a time, each step by the nc_mul formula
    min(L + o_img, o + L_img), where o is the order of the expanded
    prefix product read through its own bound, after cancellation; on
    extended integers.
    """
    images = {ch: phi.image(ch) for ch in "Tt"}

    def expand(word, c, upto):
        out = {}
        for choice in itertools.product(*(sorted(images[ch].terms.items()) for ch in word)):
            w = "".join(iw for iw, _ in choice)
            if len(w) > upto:
                continue
            term = c
            for _, ic in choice:
                term = term * ic
            out[w] = out[w] + term if w in out else term
        return {w: v for w, v in out.items() if v}

    o = min(nc_order(img) for img in images.values())
    bound = times(ext(x.maxlen) + 1, o) - 1
    for word in x.terms:
        lw, ow = math.inf, 0  # the empty prefix: 1, exactly
        for j, ch in enumerate(word, 1):
            img = images[ch]
            lw = min(lw + nc_order(img), ow + ext(img.maxlen))
            prefix = expand(word[:j], x.ring.one(), lw)
            ow = min(len(w) for w in prefix) if prefix else lw + 1
        bound = min(bound, lw)
    n = from_ext(bound)
    out = {}
    for word, c in x.terms.items():
        for w, v in expand(word, c, n).items():
            out[w] = out[w] + v if w in out else v
    return NCSeries(x.ring, x.grading, out, n)


def derivation_apply_by_leibniz(xi: Derivation, x: NCSeries) -> NCSeries:
    """The signed Leibniz rule, one RingElem product per (word, letter, image word).

    The reference for moorealg.noncomm.derivation_apply: the term for
    letter j of a word carries (-1)^(|xi| * parity of the letters before
    it), that parity read by GradingContext.word_parity, and the bound is
    the module docstring's min(Lx + s, ord(x) + Limg - 1), s the least
    image order minus 1, on extended integers.
    """
    g = x.grading
    s = min(nc_order(xi.onTau), nc_order(xi.onT)) - 1
    limg = min(ext(xi.onTau.maxlen), ext(xi.onT.maxlen))
    n = from_ext(min(ext(x.maxlen) + s, nc_order(x) + limg - 1))
    out = {}
    for word, c in x.terms.items():
        for j, ch in enumerate(word):
            odd = xi.parity * g.word_parity(word[:j]) % 2
            for iw, ic in xi.image(ch).terms.items():
                w = word[:j] + iw + word[j + 1:]
                if len(w) > n:
                    continue
                term = -(c * ic) if odd else c * ic
                out[w] = out[w] + term if w in out else term
    return NCSeries(x.ring, g, out, n)


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
        for k in range(1, n - i + 1):
            vec = m.table.get(word[i:i + k])
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
