"""Small number-theory helpers: primality, Legendre symbols, and the binary
maximal-length recurrence with the smallest primitive polynomial that drives it.

Everything here runs at desk scale (arguments of a few thousand at most), so
plain trial division is used throughout.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .errors import PreconditionError


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


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


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic character of a modulo an odd prime p: one of -1, 0, +1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _lfsr_states(m: int, mask: int) -> Iterator[int]:
    """The states of the LFSR of lfsr_sequence(m, mask) after each step from
    the all-ones state: bit d - 1 holds the bit at delay d, and the new bit,
    the parity of the tapped bits, enters at bit 0."""
    n = (1 << m) - 1
    taps = 1 << m - 1 | mask >> 1  # bit d - 1 taps delay d
    state = n
    while True:
        state = (state << 1 | (state & taps).bit_count() & 1) & n
        yield state


def _has_full_period(m: int, mask: int) -> bool:
    """True when the LFSR of lfsr_sequence(m, mask) first returns to its
    all-ones state after 2^m - 1 steps, which only a primitive polynomial
    gives.  Delay m is always tapped, so the step is invertible and the
    all-ones state lies on a cycle of at most 2^m - 1 nonzero states.
    """
    n = (1 << m) - 1
    return next(t for t, state in enumerate(_lfsr_states(m, mask), 1) if state == n) == n


def smallest_primitive_polynomial(m: int) -> int:
    """Low-coefficient mask of the lexicographically smallest primitive
    polynomial of degree m (coefficients read from x^{m-1} down to x^0): the
    first odd mask whose LFSR has the full period 2^m - 1."""
    if m < 2:
        raise PreconditionError("degree must be at least 2")
    return next(mask for mask in range(1, 1 << m, 2) if _has_full_period(m, mask))


def lfsr_sequence(m: int, mask: int) -> tuple[int, ...]:
    """One period of the binary recurrence defined by x^m + mask, all-ones seed.

    The new bit XORs the delayed bits at delays equal to the polynomial's
    nonzero exponents, the constant term contributing delay m (Fibonacci tap
    convention).
    """
    steps = islice(_lfsr_states(m, mask), (1 << m) - 1 - m)
    return (1,) * m + tuple(state & 1 for state in steps)
