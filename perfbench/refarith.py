"""Reference arithmetic for the benchmark's output checks.

Independent of moorealg: a truncated series is a plain list
``[a_0, a_1, ..., a_N]`` of Python integers reduced modulo ``mod`` (for
F_p and Z/p^K) or of ``Fraction`` values (for Q, ``mod=None``).  Nothing
here imports the package under test, so a check built from these
functions cannot agree with a wrong answer by sharing its code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


def reduce(a, mod):
    """Canonical residues (mod given) or Fractions (mod None)."""
    if mod is None:
        return [Fraction(x) for x in a]
    return [x % mod for x in a]


def dense(coeffs: dict, N: int, mod=None) -> list:
    """A {exponent: scalar} map as a length-(N+1) list; exponents > N dropped."""
    out = [0] * (N + 1)
    for i, c in coeffs.items():
        if 0 <= i <= N:
            out[i] = c
    return reduce(out, mod)


def mul(a, b, N, mod=None) -> list:
    """Product truncated after t^N."""
    out = [0] * (N + 1)
    for i, x in enumerate(a[: N + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: N + 1 - i]):
            if y:
                out[i + j] += x * y
    return reduce(out, mod)


def compose(f, g, N, mod=None) -> list:
    """f(g(t)) truncated after t^N; g must have zero constant term."""
    if g and g[0]:
        raise ValueError("inner series has a constant term")
    out = [0] * (N + 1)
    out[0] = f[0] if f else 0
    power = [0] * (N + 1)
    power[0] = 1
    for k in range(1, min(len(f) - 1, N) + 1):
        power = mul(power, g, N, mod)
        c = f[k]
        if c:
            for i, x in enumerate(power):
                out[i] += c * x
    return reduce(out, mod)


def derivative(a, mod=None) -> list:
    return reduce([i * a[i] for i in range(1, len(a))], mod)


def first_unit_slot(a, p=None):
    """First index whose coefficient is a unit: prime to p, or nonzero if p is None."""
    for i, x in enumerate(a):
        if (x % p != 0) if p is not None else (x != 0):
            return i
    return None


def order(a):
    """First index with a nonzero coefficient (len(a) if there is none)."""
    i = first_unit_slot(a)
    return len(a) if i is None else i


def iroot(x: int, n: int):
    """The integer r >= 0 with r**n == x, or None when x is no n-th power."""
    if x < 0:
        raise ValueError("iroot needs x >= 0")
    lo, hi = 0, 1
    while hi**n <= x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == x else None


def is_nth_power_q(c: Fraction, n: int) -> bool:
    """Whether the nonzero rational c is r**n for some rational r."""
    c = Fraction(c)
    if c == 0:
        return False
    if c < 0 and n % 2 == 0:
        return False
    num, den = abs(c.numerator), c.denominator
    return iroot(num, n) is not None and iroot(den, n) is not None


def is_nth_power_fp(c: int, n: int, p: int) -> bool:
    """Whether the nonzero residue c is an n-th power in F_p (Euler's criterion)."""
    c %= p
    if c == 0:
        return False
    return pow(c, (p - 1) // gcd(n, p - 1), p) == 1


# -- text form -----------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)(?:/(\d+))?)?(?:\*?(t)(?:\^(\d+))?)?$")


def parse_plain_series(text: str, N: int, mod=None) -> list:
    """Read a series printed over Q, F_p or Z/p^K (no v): '3*t^2 - 1/2*t^5'."""
    out = [0] * (N + 1)
    text = text.strip()
    if text == "0":
        return reduce(out, mod)
    for sign, body in re.findall(r"(^-?|[+-])\s*([^\s+-]+)", text):
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and m.group(3) is None):
            raise ValueError(f"cannot read term {body!r}")
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        exp = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        if exp > N:
            raise ValueError(f"term t^{exp} beyond truncation {N}")
        val = Fraction(num, den) if mod is None else num * pow(den, -1, mod)
        out[exp] += -val if sign.strip() == "-" else val
    return reduce(out, mod)


def format_plain_series(a) -> str:
    """Text for a dense series, in the grammar the command line reads."""
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        neg = c < 0
        c = -c if neg else c
        tp = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        if not tp:
            body = str(c)
        elif c == 1:
            body = tp
        else:
            body = f"{c}*{tp}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts) if parts else "0"
