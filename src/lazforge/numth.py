"""Small number-theory helpers: primality, orders, Legendre symbols, and
primitive polynomials over GF(2).

Everything here runs at desk scale (arguments of a few thousand at most), so
plain trial division is used throughout.
"""

from __future__ import annotations

from .errors import PreconditionError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise PreconditionError(f"no prime factor for n={n}")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    while n > 1:
        p = smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def is_primitive_root(a: int, p: int) -> bool:
    """True when a generates the multiplicative group of Z_p, p prime."""
    if a % p == 0:
        return False
    return all(pow(a, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic character of a modulo an odd prime p: one of -1, 0, +1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _gf2_mulmod(a: int, b: int, poly: int, m: int) -> int:
    # polynomials as bitmasks, reduced modulo poly (degree m, leading bit set)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= poly
    return r


def _gf2_powmod(a: int, e: int, poly: int, m: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, poly, m)
        a = _gf2_mulmod(a, a, poly, m)
        e >>= 1
    return r


def is_primitive_polynomial(mask: int, m: int) -> bool:
    """Check x^m + (terms encoded by mask bits 0..m-1) for primitivity.

    Primitive means x has order 2^m - 1 in GF(2)[x]/(p), which also implies
    irreducibility.
    """
    if not mask & 1:
        return False
    poly = (1 << m) | mask
    period = (1 << m) - 1
    if _gf2_powmod(2, period, poly, m) != 1:
        return False
    return all(_gf2_powmod(2, period // q, poly, m) != 1 for q in prime_factors(period))


def smallest_primitive_polynomial(m: int) -> int:
    """Low-coefficient mask of the lexicographically smallest primitive
    polynomial of degree m (coefficients read from x^{m-1} down to x^0)."""
    if m < 2:
        raise PreconditionError("degree must be at least 2")
    for mask in range(1, 1 << m, 2):
        if is_primitive_polynomial(mask, m):
            return mask
    raise PreconditionError(f"no primitive polynomial of degree {m}")  # unreachable


def lfsr_sequence(m: int, mask: int) -> tuple[int, ...]:
    """One period of the binary recurrence defined by x^m + mask, all-ones seed.

    The new bit XORs the delayed bits at delays equal to the polynomial's
    nonzero exponents, the constant term contributing delay m (Fibonacci tap
    convention).
    """
    n = (1 << m) - 1
    delays = [m] + [i for i in range(1, m) if mask >> i & 1]
    bits = [1] * m
    for t in range(m, n):
        bits.append(sum(bits[t - d] for d in delays) % 2)
    return tuple(bits)
