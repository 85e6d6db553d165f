"""Locally perfect nonlinear functions on Z_N -> Z_K.

A function table f is locally perfect nonlinear over a zone C x D when every
difference equation f(x+a) - f(x) = b with a in C\\{0}, b in D has at most one
solution x.  The zone is a seqcore.Zone, C = (-z_x, z_x) and D = (-z_y, z_y):
the delay-Doppler zone that the construction guarantees.  The measure below is computed by brute force; the quadratic and
power families ship with the zones on which they provably achieve measure 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import PreconditionError
from .numth import is_prime, smallest_prime_factor
from .seqcore import Zone


@dataclass(frozen=True)
class ZFunc:
    """A function Z_N -> Z_K stored as its value table."""

    domain_size: int
    codomain_size: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if self.domain_size < 1 or self.codomain_size < 1:
            raise PreconditionError("domain and codomain sizes must be positive")
        if len(self.table) != self.domain_size:
            raise PreconditionError("table length must equal domain size")
        if any(not 0 <= v < self.codomain_size for v in self.table):
            raise PreconditionError("table entries must be codomain residues")


def diff_table(f: ZFunc, a: int) -> tuple[int, ...]:
    """Entry x is (f(x+a) - f(x)) mod K."""
    n, k = f.domain_size, f.codomain_size
    if a % n == 0:
        raise PreconditionError("difference step must be nonzero modulo N")
    return tuple((f.table[(x + a) % n] - f.table[x]) % k for x in range(n))


def _check_zone(f: ZFunc, zone: Zone) -> None:
    if zone.z_x > f.domain_size or zone.z_y > f.codomain_size:
        raise PreconditionError("zone exceeds function domain/codomain")


def nonlinearity_witness(f: ZFunc, zone: Zone) -> tuple[int, int, int]:
    """(count, a, b) achieving the max solution count, lexicographically first.

    b ranges over the integers of D and is matched against the mod-K
    difference, so a D wider than K covers every residue.
    """
    _check_zone(f, zone)
    k = f.codomain_size
    best = (0, 0, 0)
    for a in range(-zone.z_x + 1, zone.z_x):
        if a == 0:
            continue
        counts = Counter(diff_table(f, a))
        for b in range(-zone.z_y + 1, zone.z_y):
            c = counts.get(b % k, 0)
            if c > best[0]:
                best = (c, a, b)
    return best


def nonlinearity_measure(f: ZFunc, zone: Zone) -> int:
    """Max over a in C\\{0}, b in D of #{x : f(x+a) - f(x) = b mod K}."""
    return nonlinearity_witness(f, zone)[0]


def is_lpnf(f: ZFunc, zone: Zone) -> bool:
    return nonlinearity_measure(f, zone) == 1


def is_pnf(f: ZFunc) -> bool:
    """Perfect nonlinearity over the full domain/codomain zone.

    The minimum achievable max solution count is ceil(N/K); a function
    attaining it is perfect nonlinear.
    """
    n, k = f.domain_size, f.codomain_size
    full = Zone(n, k)
    return nonlinearity_measure(f, full) == math.ceil(n / k)


def quad_lpnf(n: int, a2: int, a1: int, k: int) -> ZFunc:
    """x -> (a2*x^2 + a1*x mod N) viewed as a K-residue.

    Requires N odd and > 2, K >= N, gcd(a2, N) = 1, and a1 in [0, N).
    """
    if n <= 2:
        raise PreconditionError("domain size must exceed 2")
    if n % 2 == 0:
        raise PreconditionError("domain size must be odd")
    if k < n:
        raise PreconditionError("codomain size must be at least the domain size")
    if math.gcd(a2, n) != 1:
        raise PreconditionError("quadratic coefficient must be coprime to the domain size")
    if not 0 <= a1 < n:
        raise PreconditionError("linear coefficient must be a domain residue")
    table = tuple((a2 * x * x + a1 * x) % n for x in range(n))
    return ZFunc(n, k, table)


def lpnf_zone_for(n: int, k: int) -> Zone:
    """The zone on which the quadratic family has measure 1.

    With p the smallest prime factor of N, the Doppler half-width is N when
    K = N, K - N + 1 when N < K < 2N - 1, and K when K >= 2N - 1.
    """
    if n <= 2 or n % 2 == 0:
        raise PreconditionError("domain size must be odd and exceed 2")
    if k < n:
        raise PreconditionError("codomain size must be at least the domain size")
    p = smallest_prime_factor(n)
    if k == n:
        return Zone(p, n)
    if k < 2 * n - 1:
        return Zone(p, k - n + 1)
    return Zone(p, k)


def power_lpnf(p: int, alpha: int) -> ZFunc:
    """x -> alpha^x mod p on Z_{p-1} -> Z_p, alpha a primitive root mod p.

    alpha is refused unless the table's powers alpha^0..alpha^{p-2} are
    distinct and alpha^{p-1} = 1, that is, unless the powers first return
    to 1 at x = p - 1.  Both are needed: alpha = 1 returns to 1 at every x,
    and alpha = 0 gives the distinct tables [1] and [1, 0] at p = 2 and 3.
    """
    if not is_prime(p):
        raise PreconditionError("modulus must be prime")
    table = []
    v = 1
    for _ in range(p - 1):
        table.append(v)
        v = (v * alpha) % p
    if v != 1 or len(set(table)) < p - 1:
        raise PreconditionError(f"{alpha} is not a primitive root modulo {p}")
    return ZFunc(p - 1, p, tuple(table))
