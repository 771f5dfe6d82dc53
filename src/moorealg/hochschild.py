"""Hochschild cohomology of even two-cell algebras.

For an even structure with classifying series u the cohomology is the
quotient of the one-variable series ring by the ordinary derivative
u'(t).  Two routes are implemented: the closed form (hh_closed_form),
which over Z/p^K decides between a residue-field algebra and a finite
free quotient cut out by a distinguished polynomial, and a brute-force
kernel/image computation on normalized derivations over a field
(hh_bruteforce).  The brute-force route brackets the structure
derivation with basis derivations on words (noncomm) and never forms
u', so comparing its dimensions with quotient_dims (the quotient by
u' read degree by degree) is an independent check of that reading.

Over a (graded) field every nonzero homogeneous coefficient is a unit,
so u' is a unit times t^r, r the t-order of u', and the quotient is
F[t]/(t^r): 0 when the linear coefficient is nonzero, of dimension r
otherwise.  Over Z/p^K the quotient is either (R/p)[[t]] (when u'
vanishes mod p) or a free R-module presented by the monic factor of u'
with lower coefficients in (p).  The analysis reports both that
computed rank and the height of u mod p; the two disagree in general
and the report keeps both rather than reconciling them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._linalg import pivot_columns
from .errors import (
    FieldRequiredError,
    InternalError,
    NoUniformizerError,
    NotAUnitError,
    PrecisionError,
    StructureError,
    ZeroDivisorError,
)
from .noncomm import (
    Derivation,
    derivation_commutator,
    moore_mstar,
    nc_word,
    nc_zero,
)
from .rings import CoeffRing
from .series import (
    EXACT,
    PowerSeries,
    derivative,
    format_series,
    lowered,
    reciprocal,
    weierstrass_rank,
)

__all__ = [
    "HHReport",
    "hh_bruteforce",
    "hh_closed_form",
    "quotient_dims",
    "weierstrass_factor",
]


@dataclass
class HHReport:
    """Outcome of the cohomology analysis for one even structure.

    rank None means infinite (the residue-algebra branch); eisenstein,
    ramification_index, and mod_p_height stay None when they do not
    apply.  discrepancy compares the computed rank against the height
    of u modulo p and is the honest record of the off-by-one between
    the two: for u = p*t + (unit)*t^n with n prime to p the factor of
    u' has degree n-1, so the flag is set.
    """

    ring: CoeffRing
    uprime: PowerSeries
    quotient: str
    rank: int | None
    torsion: str
    ramification_index: int | None = None
    eisenstein: PowerSeries | None = None
    mod_p_height: int | None = None

    @property
    def discrepancy(self) -> bool:
        return (
            self.rank is not None
            and self.mod_p_height is not None
            and self.rank != self.mod_p_height
        )

    def to_json(self) -> dict:
        return {
            "presentation": {
                "ring": self.ring.spec(),
                "uprime": format_series(self.uprime),
                "quotient": self.quotient,
            },
            "rank": "infinity" if self.rank is None else self.rank,
            "torsion": self.torsion,
            "ramification_index": self.ramification_index,
            "eisenstein": None
            if self.eisenstein is None
            else format_series(self.eisenstein),
            "mod_p_height": self.mod_p_height,
            "discrepancy": self.discrepancy,
        }


def weierstrass_factor(f: PowerSeries):
    """Monic factor (t^r + lower, lower coefficients in (p)) of f.

    r is the index of the first unit coefficient.  Write f with its
    degree-< r part split off; dividing t^r by f through successive
    approximation (each pass gains one power of p from that low part)
    leaves a remainder rho of degree < r, and t^r - rho is the factor.
    Returns (factor, r).
    """
    ring = f.ring
    if ring.mode != "Zp":
        raise NoUniformizerError(f"{ring.spec()} has no uniformizer")
    r = weierstrass_rank(f)
    if r == 0:
        return PowerSeries(ring, {0: ring.one()}, EXACT), 0
    K = ring.K
    flow = PowerSeries(ring, {i: c for i, c in f.coeffs.items() if i < r}, EXACT)
    # each pass gains one power of p and spends r slots, so K + 2 passes'
    # worth of precision is all the division can use
    htr = min(lowered(f.trunc, r), (K + 2) * r)
    if htr < r - 1:
        raise PrecisionError("truncation too small for the factor degree")
    fhigh = PowerSeries(
        ring, {i - r: c for i, c in f.coeffs.items() if i >= r}, htr
    )
    fhinv = reciprocal(fhigh)
    cur = PowerSeries(ring, {r: ring.one()}, htr + r)
    rho: dict = {}
    passes = 0
    while cur.coeffs:
        # the shift by r below needs r visible slots to tell a finished
        # division from an invisible tail
        if cur.trunc < r:
            raise PrecisionError("truncation exhausted during division")
        passes += 1
        if passes > K + 2:
            raise InternalError(
                f"division failed to contract for f = {format_series(f)}: "
                f"{passes - 1} passes leave {format_series(cur)}"
            )
        for i, c in cur.coeffs.items():
            if i < r:
                rho[i] = rho[i] + c if i in rho else c
        ch = PowerSeries(
            ring,
            {i - r: c for i, c in cur.coeffs.items() if i >= r},
            lowered(cur.trunc, r),
        )
        if not ch.coeffs:
            break
        cur = -(ch * fhinv * flow)
    w = {r: ring.one()}
    for i, c in rho.items():
        if c:
            w[i] = -c
    factor = PowerSeries(ring, w, EXACT)
    for i, c in factor.coeffs.items():
        if i < r and c.valuation() == 0:
            raise InternalError(
                f"computed factor {format_series(factor)} of f = "
                f"{format_series(f)} is not distinguished"
            )
    return factor, r


def _mod_p_height(u: PowerSeries):
    slots = [i for i in sorted(u.coeffs) if u.coeffs[i].valuation() == 0]
    return slots[0] if slots else None


def hh_closed_form(M) -> HHReport:
    """Cohomology via the quotient by u'(t).

    Needs the linear coefficient known (trunc >= 1, else PrecisionError).
    Over a (graded) field the rank is r = weierstrass_rank(u'), the index
    of its first unit coefficient, and the quotient is F[t]/(t^r) (0 for
    r = 0).  An exactly zero u' leaves F[[t]], of infinite rank (None); a
    u' with no unit coefficient through a finite truncation raises
    PrecisionError, and one whose first nonzero coefficient is not a
    unit (not a single v-monomial) raises NotAUnitError.  Over Z/p^K the
    linear coefficient must be nonzero to working precision.  Then
    u' = 0 mod p gives the residue branch (R/p)[[t]] with infinite rank,
    cross-checked against the criterion that every unit slot of u sits
    at an exponent divisible by p; otherwise the quotient is free of
    rank r presented by the distinguished factor of u'.
    """
    if M.kind != "even":
        raise StructureError("cohomology analysis covers even data only")
    u = M.u
    ring = u.ring
    if not ring.is_field and ring.mode != "Zp":
        raise FieldRequiredError(
            f"{ring.spec()} is neither a (graded) field nor a valuation ring"
        )
    up = derivative(u)
    if ring.is_field:
        if not up.coeffs and up.trunc == EXACT:
            # u' = 0 is known completely: nothing is divided out
            return HHReport(
                ring=ring,
                uprime=up,
                quotient="F[[t]]",
                rank=None,
                torsion="not-applicable",
            )
        # every nonzero (homogeneous) coefficient is a unit: u' = unit * t^r
        r = weierstrass_rank(up)
        if min(up.coeffs) < r:
            raise NotAUnitError("the first nonzero coefficient of u' is not a unit")
        tr = PowerSeries(ring, {r: 1}, EXACT)
        return HHReport(
            ring=ring,
            uprime=up,
            quotient=f"F[t]/({format_series(tr)})" if r else "0",
            rank=r,
            torsion="not-applicable",
        )
    u1 = u.coeff(1)
    if u1.valuation() >= ring.K:
        raise ZeroDivisorError("linear coefficient is zero to working precision")
    up_kills_p = all(c.valuation() >= 1 for c in up.coeffs.values())
    frobenius_shape = all(
        i % ring.p == 0 for i, c in u.coeffs.items() if c.valuation() == 0
    )
    if up_kills_p != frobenius_shape:
        raise InternalError("residue criterion mismatch")
    if up_kills_p:
        return HHReport(
            ring=ring,
            uprime=up,
            quotient="(R/p)[[t]]",
            rank=None,
            torsion="residue-algebra",
            mod_p_height=_mod_p_height(u),
        )
    r = weierstrass_rank(up)
    try:
        W, _ = weierstrass_factor(up)
    except PrecisionError:
        # rank and torsion type survive; only the explicit factor needs the
        # deeper window, so degrade it rather than fail the whole report
        W = None
    mph = _mod_p_height(u) if u1.valuation() >= 1 else None
    if r == 0:
        quotient = "0"
    elif W is not None:
        quotient = f"R[t]/({format_series(W)})"
    else:
        quotient = f"R[t]/(distinguished factor of degree {r})"
    return HHReport(
        ring=ring,
        uprime=up,
        quotient=quotient,
        rank=r,
        torsion="torsion-free",
        ramification_index=r if r >= 1 else None,
        eisenstein=W,
        mod_p_height=mph,
    )


def quotient_dims(u: PowerSeries, maxdeg: int) -> list:
    """Per-degree dimensions of the quotient by u' through t^maxdeg.

    Degree j survives exactly when it lies below the t-order of u'.
    Every coefficient is read through coeff(), so a u' not known to
    degree maxdeg raises PrecisionError.
    """
    up = derivative(u)
    dims = []
    alive = 1
    for j in range(maxdeg + 1):
        if up.coeff(j):
            alive = 0
        dims.append(alive)
    return dims


def hh_bruteforce(M, maxdeg: int):
    """Per-degree cohomology dimensions from the derivation complex.

    Works on the normalized derivations xi = (A(t), B(t)) of t-degree
    <= maxdeg, xi(T) = A, xi(t) = B, with the differential
    xi -> [m, xi] for the structure derivation m = moore_mstar(M),
    computed on words by derivation_commutator; u' is never formed.
    Each basis derivation (t^j, 0) must be closed, and the image of
    (0, t^i) is read off its value on T as coefficients of t^j,
    j <= maxdeg.  Returns the surviving dimension in each t-degree j of
    the first coordinate: one closed generator less the rank the image
    gains at column j.
    """
    if M.kind != "even":
        raise StructureError("cohomology analysis covers even data only")
    u = M.u
    ring = u.ring
    if not ring.is_field:
        raise FieldRequiredError(f"{ring.spec()} is not a (graded) field")
    if maxdeg < 0:
        raise StructureError("maxdeg must be nonnegative")
    if u.trunc < maxdeg + 1:
        raise PrecisionError("truncation too small for the requested degrees")
    # longer words cannot reach the coordinates t^j, j <= maxdeg; basis
    # derivations bounded at maxdeg let the brackets skip words past them
    m = moore_mstar(M).truncated(maxdeg + 1)
    zero = nc_zero(ring, m.grading, maxdeg)
    rows = []
    closed = []
    for i in range(maxdeg + 1):
        ti = nc_word(ring, m.grading, "t" * i, maxlen=maxdeg)
        img = derivation_commutator(m, Derivation(zero, ti, 0))
        stray = [w for w in img.onTau.terms if "T" in w] + list(img.onT.terms)
        if stray:
            raise InternalError(
                f"the image of (0, t^{i}) leaves the coordinates (t^j, 0): {stray[0]!r}"
            )
        rows.append([img.onTau.coeff("t" * j) for j in range(maxdeg + 1)])
        bracket = derivation_commutator(m, Derivation(ti, zero, 1))
        closed.append(bracket.onTau.is_zero() and bracket.onT.is_zero())
    # the rank of the rows cut to columns 0..j grows by one exactly at a pivot column j
    pivots = set(pivot_columns(rows))
    return [int(closed[j]) - (j in pivots) for j in range(maxdeg + 1)]
