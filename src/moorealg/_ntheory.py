"""Primality, factorization and primitive roots on Python integers.

* ``is_prime``: deterministic Miller-Rabin with the first 13 prime bases
  below 3.3e24, where that set has no strong pseudoprime; the strong
  Baillie-PSW test (Baillie and Wagstaff, Math. Comp. 35, 1980) above.
* ``factor``: trial division by the table below, then an exact root of
  each perfect power and Pollard's rho in Brent's form (BIT 20, 1980)
  on each other composite cofactor.  Rho costs about the square root of
  the cofactor's least prime factor, so it stops after _RHO_STEPS steps
  with FactorizationError: two prime factors above about 10^12 are out
  of reach.
* ``primitive_root``: the smallest primitive root of a prime.

Nothing runs at import beyond building the prime table.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

from .errors import FactorizationError

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251,
)
_MR_BASES = _PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to _MR_BASES
# steps of the rho map per cofactor, about four times what the product of
# two 12-digit primes needs
_RHO_STEPS = 1 << 20


def _strong_prp(n: int, a: int) -> bool:
    """Miller-Rabin: n odd is a strong probable prime to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters; n odd, above the table."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # P = 1
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1

    def half(x):  # x / 2 modulo the odd n
        x %= n
        return (x + n if x & 1 else x) >> 1

    U, V, Qk = 1, 1, Q % n  # index 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _PRIMES:
        if n % q == 0:
            return n == q
    if n < _PRIMES[-1] ** 2:
        return True
    if n < _MR_LIMIT:
        return all(_strong_prp(n, a) for a in _MR_BASES)
    return _strong_prp(n, 2) and _strong_lucas_prp(n)


def _brent_rho(n: int) -> int:
    """A proper factor of n, odd, composite and not a perfect power.

    Raises FactorizationError rather than start a round that could take
    the steps past _RHO_STEPS.
    """
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_STEPS:
                raise FactorizationError(n, _RHO_STEPS)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps += r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: step back one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _perfect_power(m: int):
    """(r, k) with r^k = m and k a prime, or (m, 1); m has no table factor."""
    for k in _PRIMES:
        if _PRIMES[-1] ** k > m:
            break
        r = 1 << -(-m.bit_length() // k)  # Newton's method from above
        while True:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r**k == m:
            return r, k
    return m, 1


def factor(n: int) -> dict:
    """The prime factorization {prime: exponent} of n >= 1.

    Raises FactorizationError on a cofactor that rho cannot split.
    """
    out = {}
    for q in _PRIMES:
        if q * q > n:
            break
        k = 0
        while n % q == 0:
            n //= q
            k += 1
        if k:
            out[q] = k
    stack = [(n, 1)] if n > 1 else []  # (cofactor, multiplicity)
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        r, k = _perfect_power(m)
        if k > 1:
            stack.append((r, e * k))
        else:
            g = _brent_rho(m)
            stack += [(g, e), (m // g, e)]
    return out


def primitive_root(p: int) -> int:
    """The smallest primitive root modulo the prime p."""
    if p == 2:
        return 1
    cofactors = [(p - 1) // q for q in factor(p - 1)]
    g = 2
    while any(pow(g, e, p) == 1 for e in cofactors):
        g += 1
    return g
