"""Noncommutative power series in two letters, with graded signs.

Elements live in the completed free algebra on two generators over a
coefficient ring.  Words are plain strings over the alphabet {"T", "t"}:
"T" is the suspension letter (always odd), "t" is the cell letter, whose
parity equals the parity of the attached cell degree d.  The empty word
is the scalar 1.

Truncation is by word length.  An NCSeries with maxlen L promises that
every word of length <= L has its exact stored coefficient; nothing is
claimed beyond L.  Bounds follow the one precision model of the series
module: maxlen = EXACT marks a finite sum of words known completely,
maxlen = -1 marks a series of which nothing is known, and every formula
below saturates at both ends.

    add       -> min(La, Lb)
    nc_mul    -> min(La + ord(b), Lb + ord(a))
    apply xi  -> min(Lx + s, ord(x) + Limg - 1)   s = min image order - 1
    apply phi -> (Lx + 1) * o - 1                  o = min image order

where ord() is the least word length carrying a nonzero coefficient
(maxlen + 1 for the zero series).

Derivations are stored by their values on the two letters together with
a declared parity, and extend to words by the signed Leibniz rule

    xi(l1 .. ln) = sum_j (-1)^(|xi| * |l1..l_{j-1}|) l1.. xi(l_j) ..ln.

Endomorphisms are stored by their letter images and act as substitution
homomorphisms (no signs).  Both are deliberately permissive about the
parity of the stored images: deliberately broken structures must be
representable so that square-zero failure can be witnessed.

nc_mul, derivation_apply and apply_endo run on value maps {word: value},
chosen by the ring mode alone (series._kind): over Q, F_p and Z/p^K
without v a value is the coefficient's base scalar, a Fraction or a
residue, and over [v] and the polynomial mode it stays the RingElem.
One loop serves both kinds, since s + p and s * p mean the right thing
for each, and the result is lifted into an NCSeries once.  apply_endo
builds the image of each distinct prefix of x's words once, from the
image of the prefix one letter shorter, reduced mod m so that its order
is read after cancellation.  A prefix image keeps only the words through
the result bound: an image has no scalar part, so a longer word never
comes back to it.
"""

from .errors import (
    IncompatibleRingError,
    NotInvertibleError,
    ParityError,
    PrecisionError,
    StructureError,
)
from .rings import CoeffRing, RingElem, format_elem
from .series import (
    EXACT,
    PowerSeries,
    capped,
    compose as ps_compose,
    lowered,
    reversion as ps_reversion,
    _kind,
)

_ALPHABET = ("T", "t")


class GradingContext:
    """Parities and integer degrees of the two letters for cell degree d.

    The suspension letter "T" has degree -1 (odd); the cell letter "t"
    has degree -d-2, so its parity is the parity of d.
    """

    __slots__ = ("d", "tpar")

    def __init__(self, d: int):
        self.d = int(d)
        self.tpar = self.d % 2

    def __eq__(self, other):
        return isinstance(other, GradingContext) and self.d == other.d

    def __hash__(self):
        return hash(("GradingContext", self.d))

    def __repr__(self):
        return f"GradingContext(d={self.d})"

    def letter_parity(self, ch: str) -> int:
        return 1 if ch == "T" else self.tpar

    def word_parity(self, word: str) -> int:
        if self.tpar:
            return len(word) % 2
        return word.count("T") % 2


def _check_compat(a: "NCSeries", b: "NCSeries"):
    if a.ring != b.ring:
        raise IncompatibleRingError(
            f"mixed coefficient rings {a.ring.spec()} and {b.ring.spec()}"
        )
    if a.grading != b.grading:
        raise IncompatibleRingError(
            f"mixed grading contexts d={a.grading.d} and d={b.grading.d}"
        )


class NCSeries:
    """A word-length-truncated element of the free algebra on {"T", "t"}."""

    __slots__ = ("ring", "grading", "maxlen", "terms")

    def __init__(self, ring: CoeffRing, grading: GradingContext, terms: dict, maxlen: int):
        maxlen = capped(maxlen)
        self.ring = ring
        self.grading = grading
        self.maxlen = maxlen
        clean = {}
        for word, c in terms.items():
            if any(ch not in _ALPHABET for ch in word):
                raise ValueError(f"bad letter in word {word!r}")
            if len(word) > maxlen:
                continue
            if isinstance(c, int):
                c = ring.from_int(c)
            elif not isinstance(c, RingElem):
                raise TypeError(f"coefficient of {word!r} is {type(c).__name__}")
            elif c.ring != ring:
                raise IncompatibleRingError("coefficient from a different ring")
            if c.terms:
                clean[word] = c
        self.terms = clean

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Least word length with nonzero coefficient; maxlen+1 if zero."""
        if not self.terms:
            return capped(self.maxlen + 1)
        return min(len(w) for w in self.terms)

    def coeff(self, word: str) -> RingElem:
        if len(word) > self.maxlen:
            raise PrecisionError(
                f"word {word!r} has length {len(word)}, beyond maxlen {self.maxlen}"
            )
        return self.terms.get(word, self.ring.zero())

    def parity(self):
        """Common parity of all words, or None for the zero series.

        Raises ParityError when words of both parities are present.
        """
        seen = {self.grading.word_parity(w) for w in self.terms}
        if not seen:
            return None
        if len(seen) > 1:
            raise ParityError("parity-inhomogeneous noncommutative series")
        return seen.pop()

    # -- shaping ----------------------------------------------------------

    def truncated(self, maxlen: int) -> "NCSeries":
        if maxlen >= self.maxlen:
            return self
        return NCSeries(self.ring, self.grading, self.terms, maxlen)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        _check_compat(self, other)
        n = min(self.maxlen, other.maxlen)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return NCSeries(self.ring, self.grading, out, n)

    def __neg__(self):
        return NCSeries(
            self.ring, self.grading, {w: -c for w, c in self.terms.items()}, self.maxlen
        )

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "NCSeries":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        return NCSeries(
            self.ring, self.grading, {w: c * x for w, x in self.terms.items()}, self.maxlen
        )

    def __eq__(self, other):
        return (
            isinstance(other, NCSeries)
            and self.ring == other.ring
            and self.grading == other.grading
            and self.maxlen == other.maxlen
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        tail = "" if self.maxlen == EXACT else f" + O(len {self.maxlen + 1})"
        return f"<{format_ncseries(self)}{tail} : {self.ring.spec()}>"


def agree_nc(a: NCSeries, b: NCSeries, upto=None) -> bool:
    """Wordwise equality on the word lengths both sides know, up to upto."""
    n = min(a.maxlen, b.maxlen)
    if upto is not None:
        n = min(n, upto)
    words = {w for w in a.terms if len(w) <= n} | {w for w in b.terms if len(w) <= n}
    zero = a.ring.zero()
    return all(a.terms.get(w, zero) == b.terms.get(w, zero) for w in words)


# -- constructors ---------------------------------------------------------


def nc_zero(ring, grading, maxlen=EXACT) -> NCSeries:
    return NCSeries(ring, grading, {}, maxlen)


def nc_scalar(ring, grading, c, maxlen=EXACT) -> NCSeries:
    return NCSeries(ring, grading, {"": c}, maxlen)


def nc_word(ring, grading, word, c=1, maxlen=EXACT) -> NCSeries:
    return NCSeries(ring, grading, {word: c}, maxlen)


def nc_from_powers(grading: GradingContext, f: PowerSeries) -> NCSeries:
    """Commutative series in the cell letter, as words t^i (maxlen = trunc)."""
    terms = {"t" * i: c for i, c in f.coeffs.items()}
    return NCSeries(f.ring, grading, terms, f.trunc)


def nc_to_powers(x: NCSeries) -> PowerSeries:
    """Inverse of nc_from_powers; rejects words containing the odd letter."""
    coeffs = {}
    for w, c in x.terms.items():
        if "T" in w:
            raise StructureError(f"word {w!r} is not a power of the cell letter")
        coeffs[len(w)] = c
    return PowerSeries(x.ring, coeffs, x.maxlen)


# -- value maps -----------------------------------------------------------
#
# The kernel of nc_mul, derivation_apply and apply_endo; see the module
# docstring.  m is the modulus a plain value is reduced by, None over Q
# and for RingElem values, which reduce themselves.


def _values(x: NCSeries, plain: bool) -> dict:
    """x's coefficients as values: base scalars when plain, else its RingElems."""
    if plain:
        return {w: c.terms[0] for w, c in x.terms.items()}
    return x.terms


def _items(x: NCSeries, plain: bool) -> list:
    """[(word, length, value)] of x, by ascending length."""
    return sorted(((w, len(w), c) for w, c in _values(x, plain).items()), key=lambda e: e[1])


def _reduced(out: dict, m) -> dict:
    """The nonzero values of out, reduced mod m when m is set."""
    if m is None:
        return {w: c for w, c in out.items() if c}
    return {w: c for w, c in ((w, c % m) for w, c in out.items()) if c}


def _times(a: dict, b: list, cut: int, m) -> dict:
    """The concatenation product of value map a and items b through length cut, reduced."""
    out = {}
    for wa, ca in a.items():
        room = cut - len(wa)
        for wb, lb, cb in b:
            if lb > room:
                break
            w = wa + wb
            p = ca * cb
            s = out.get(w)
            out[w] = p if s is None else s + p
    return _reduced(out, m)


def _lifted(ring: CoeffRing, grading: GradingContext, vals: dict, maxlen: int, plain: bool):
    """The NCSeries of reduced nonzero values, the words past maxlen dropped."""
    maxlen = capped(maxlen)
    if plain:
        terms = {w: RingElem(ring, {0: c}) for w, c in vals.items() if len(w) <= maxlen}
    else:
        terms = {w: c for w, c in vals.items() if len(w) <= maxlen}
    # built without the constructor's per-word checks: every word is over
    # the alphabet and every value a nonzero element over ring
    out = object.__new__(NCSeries)
    out.ring, out.grading, out.maxlen, out.terms = ring, grading, maxlen, terms
    return out


# -- ring structure -------------------------------------------------------


def nc_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Concatenation product, truncation min(La + ord b, Lb + ord a)."""
    _check_compat(a, b)
    n = capped(min(lowered(b.order(), -a.maxlen), lowered(a.order(), -b.maxlen)))
    plain, m = _kind(a.ring)
    out = _times(_values(a, plain), _items(b, plain), n, m)
    return _lifted(a.ring, a.grading, out, n, plain)


# -- derivations ----------------------------------------------------------


class Derivation:
    """A continuous derivation, stored by its values on the two letters.

    parity is declared (0 or 1), not inferred from the images: a broken
    structure may carry parity-inconsistent images on purpose.
    """

    __slots__ = ("onTau", "onT", "parity")

    def __init__(self, onTau: NCSeries, onT: NCSeries, parity: int):
        _check_compat(onTau, onT)
        if parity not in (0, 1):
            raise ParityError(f"parity must be 0 or 1, got {parity!r}")
        self.onTau = onTau
        self.onT = onT
        self.parity = parity

    @property
    def ring(self):
        return self.onTau.ring

    @property
    def grading(self):
        return self.onTau.grading

    def image(self, ch: str) -> NCSeries:
        return self.onTau if ch == "T" else self.onT

    def truncated(self, maxlen: int) -> "Derivation":
        return Derivation(
            self.onTau.truncated(maxlen), self.onT.truncated(maxlen), self.parity
        )

    def __repr__(self):
        return (
            f"Derivation(onTau={format_ncseries(self.onTau)}, "
            f"onT={format_ncseries(self.onT)}, parity={self.parity})"
        )


def derivation_apply(xi: Derivation, x: NCSeries) -> NCSeries:
    """Signed Leibniz extension of the letter values to every word of x."""
    _check_compat(xi.onTau, x)
    grading = x.grading
    omin = min(xi.onTau.order(), xi.onT.order())
    limg = min(xi.onTau.maxlen, xi.onT.maxlen)
    n = lowered(capped(min(lowered(omin, -x.maxlen), lowered(x.order(), -limg))), 1)
    plain, m = _kind(x.ring)
    images = {ch: _items(xi.image(ch), plain) for ch in _ALPHABET}
    odd = {ch: grading.letter_parity(ch) & xi.parity for ch in _ALPHABET}
    out = {}
    for word, c in _values(x, plain).items():
        room = n - len(word) + 1  # the longest image word that stays within n
        neg = 0  # parity of the prefix consumed so far, times |xi|
        for j, ch in enumerate(word):
            head, tail = word[:j], word[j + 1:]
            for iw, li, ic in images[ch]:
                if li > room:
                    break
                w = head + iw + tail
                p = -(c * ic) if neg else c * ic
                s = out.get(w)
                out[w] = p if s is None else s + p
            neg ^= odd[ch]
    return _lifted(x.ring, grading, _reduced(out, m), n, plain)


def derivation_commutator(xi: Derivation, eta: Derivation) -> Derivation:
    """[xi, eta] = xi.eta - (-1)^(|xi||eta|) eta.xi, read off on the letters."""
    _check_compat(xi.onTau, eta.onTau)
    sign = -1 if xi.parity * eta.parity else 1
    out = []
    for ch in _ALPHABET:
        a = derivation_apply(xi, eta.image(ch))
        b = derivation_apply(eta, xi.image(ch))
        out.append(a + b if sign < 0 else a - b)
    return Derivation(out[0], out[1], (xi.parity + eta.parity) % 2)


def moore_mstar(algebra) -> Derivation:
    """The structure derivation of a two-cell algebra datum.

    Accepts any object with fields kind ("even"|"odd"), d, and the
    one-variable coefficient series: u for the even kind, v and w for
    the odd kind.  Even kind, classifying series u:

        value on T:  u(t) + T^2        value on t:  Tt - tT

    Odd kind, classifying pair (v, w) (even exponents only):

        value on T:  w(t) + T^2        value on t:  v(t) + Tt + tT
    """
    grading = GradingContext(algebra.d)
    square = {"TT": 1}
    if algebra.kind == "even":
        if grading.tpar != 0:
            raise ParityError("even-kind datum needs an even cell degree")
        u = algebra.u
        on_tau = nc_from_powers(grading, u) + NCSeries(u.ring, grading, square, EXACT)
        on_t = NCSeries(u.ring, grading, {"Tt": 1, "tT": -1}, EXACT)
    elif algebra.kind == "odd":
        if grading.tpar != 1:
            raise ParityError("odd-kind datum needs an odd cell degree")
        v, w = algebra.v, algebra.w
        if v.ring != w.ring:
            raise IncompatibleRingError("v and w over different rings")
        on_tau = nc_from_powers(grading, w) + NCSeries(w.ring, grading, square, EXACT)
        on_t = nc_from_powers(grading, v) + NCSeries(
            v.ring, grading, {"Tt": 1, "tT": 1}, EXACT
        )
    else:
        raise StructureError(f"unknown algebra kind {algebra.kind!r}")
    return Derivation(on_tau, on_t, 1)


def check_square_zero(xi: Derivation, maxlen=None):
    """Whether the odd derivation squares to zero, to truncation.

    Returns (True, None) or (False, (letter, word)) where word is the
    first offending word, ordered by (length, word), in the square's
    value on "T" first and then on "t".
    """
    if xi.parity != 1:
        raise ParityError("square-zero check needs an odd derivation")
    if maxlen is not None:
        xi = xi.truncated(maxlen)
    for ch in _ALPHABET:
        sq = derivation_apply(xi, xi.image(ch))
        if sq.terms:
            word = min(sq.terms, key=lambda w: (len(w), w))
            return False, (ch, word)
    return True, None


# -- endomorphisms --------------------------------------------------------


class NCEndo:
    """A continuous algebra endomorphism, stored by its letter images.

    Images must have no scalar part (filtration preserving).
    """

    __slots__ = ("imageTau", "imageT")

    def __init__(self, imageTau: NCSeries, imageT: NCSeries):
        _check_compat(imageTau, imageT)
        for img in (imageTau, imageT):
            if "" in img.terms:
                raise StructureError("endomorphism image has a scalar part")
        self.imageTau = imageTau
        self.imageT = imageT

    @property
    def ring(self):
        return self.imageTau.ring

    @property
    def grading(self):
        return self.imageTau.grading

    def image(self, ch: str) -> NCSeries:
        return self.imageTau if ch == "T" else self.imageT

    def __repr__(self):
        return (
            f"NCEndo(imageTau={format_ncseries(self.imageTau)}, "
            f"imageT={format_ncseries(self.imageT)})"
        )


def normalized_endo(grading: GradingContext, shift: PowerSeries, sub: PowerSeries) -> NCEndo:
    """Endomorphism T -> T + shift(t), t -> sub(t) from one-variable data."""
    if shift.ring != sub.ring:
        raise IncompatibleRingError("shift and substitution over different rings")
    tau = nc_word(shift.ring, grading, "T", maxlen=EXACT)
    return NCEndo(tau + nc_from_powers(grading, shift), nc_from_powers(grading, sub))


def _prefix_image(state, letter, n: int, m):
    """The image of a prefix one letter longer, or None when no word of it reaches n.

    state is the shorter prefix's (values through min(bound, n), order,
    bound) and letter the letter image's (items, order, bound); the bound
    is nc_mul's.  Cutting at n can only raise an order past n, which
    changes no bound below n.  An image that is zero through a bound
    >= n stays so for every longer prefix.
    """
    vals, o, lp = state
    items, oi, li = letter
    lw = capped(min(lowered(oi, -lp), lowered(o, -li)))
    cut = min(lw, n)
    vals = _times(vals, items, cut, m)
    if vals:
        return vals, min(map(len, vals)), lw
    return None if lw >= n else (vals, capped(cut + 1), lw)


def apply_endo(phi: NCEndo, x: NCSeries) -> NCSeries:
    """Substitution homomorphism: replace every letter by its image."""
    _check_compat(phi.imageTau, x)
    omin = min(phi.imageTau.order(), phi.imageT.order())
    n = lowered(capped((x.maxlen + 1) * omin), 1)
    plain, m = _kind(x.ring)
    letters = {}
    for ch in _ALPHABET:
        img = phi.image(ch)
        letters[ch] = (_items(img, plain), img.order(), img.maxlen)
    prefixes = {"": ({"": 1 if plain else x.ring.one()}, 0, EXACT)}
    bound = n
    out = {}
    for word, c in _values(x, plain).items():
        state = prefixes[""]
        for j in range(1, len(word) + 1):
            key = word[:j]
            if key not in prefixes:
                prefixes[key] = _prefix_image(state, letters[word[j - 1]], n, m)
            state = prefixes[key]
            if state is None:
                break
        if state is None:
            continue
        vals, _, lw = state
        bound = min(bound, lw)
        for w, v in vals.items():
            p = c * v
            s = out.get(w)
            out[w] = p if s is None else s + p
    return _lifted(x.ring, x.grading, _reduced(out, m), bound, plain)


def _normalized_parts(phi: NCEndo):
    """Split a normalized endomorphism into its one-variable (shift, sub)."""
    shift = phi.imageTau - nc_word(phi.ring, phi.grading, "T")
    try:
        g = nc_to_powers(shift)
        f = nc_to_powers(phi.imageT)
    except StructureError:
        raise StructureError(
            "inversion is implemented for normalized endomorphisms only"
        ) from None
    return g, f


def endo_inverse(phi: NCEndo) -> NCEndo:
    """Inverse of a normalized endomorphism: (shift, sub) -> (-shift(sub^-1), sub^-1)."""
    g, f = _normalized_parts(phi)
    if not f.coeff(1).is_unit():
        raise NotInvertibleError("substitution part needs a unit linear coefficient")
    finv = ps_reversion(f)
    ginv = -ps_compose(g, finv)
    return normalized_endo(phi.grading, ginv, finv)


def conjugate(phi: NCEndo, xi: Derivation) -> Derivation:
    """The derivation phi . xi . phi^(-1), read off on the letters."""
    inv = endo_inverse(phi)
    images = [
        apply_endo(phi, derivation_apply(xi, inv.image(ch))) for ch in _ALPHABET
    ]
    return Derivation(images[0], images[1], xi.parity)


# -- debugging text form --------------------------------------------------


def format_ncseries(x: NCSeries) -> str:
    """Debug dump like `2*Tt + (5 + v)*ttT`; words ordered by (length, word)."""
    if not x.terms:
        return "0"
    parts = []
    for w in sorted(x.terms, key=lambda w: (len(w), w)):
        c = x.terms[w]
        body = format_elem(c)
        neg = False
        if body.startswith("-") and " " not in body:
            neg, body = True, body[1:]
        if not w:
            piece = body
        elif " " in body:
            piece = f"({format_elem(c)})*{w}"
            neg = False
        elif body == "1":
            piece = w
        else:
            piece = f"{body}*{w}"
        if not parts:
            parts.append(("-" if neg else "") + piece)
        else:
            parts.append(("- " if neg else "+ ") + piece)
    return " ".join(parts)
