"""Welch-type lower bounds on zone ambiguity sidelobes, optimality factors,
and the closed-form factors of the constructed families.

For a set of M unimodular length-N sequences over the open zone
(-Z_x, Z_x) x (-Z_y, Z_y):

    periodic   theta >= (N/sqrt(Z_y)) * sqrt((M Z_x Z_y / N - 1) / (M Z_x - 1))
    aperiodic  theta >= (N/sqrt(Z_y)) * sqrt((M Z_x Z_y - N - Z_x + 1)
                                             / ((N + Z_x - 1)(M Z_x - 1)))

The optimality factor rho is the achieved theta divided by the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .numth import smallest_prime_factor
from .seqcore import check_kind

REGIME_EQUAL = "K=N"
REGIME_MIDDLE = "N<K<2N-1"
REGIME_WIDE = "K>=2N-1"


def classify_regime(n: int, k: int) -> str:
    if k < n:
        raise PreconditionError("codomain size below domain size")
    if k == n:
        return REGIME_EQUAL
    if k < 2 * n - 1:
        return REGIME_MIDDLE
    return REGIME_WIDE


def _check_sizes(m: int, n_len: int, z_x: int, z_y: int) -> None:
    if min(m, n_len, z_x, z_y) < 1:
        raise PreconditionError("set size, length and zone half-widths must be positive")


def periodic_lower_bound(m: int, n_len: int, z_x: int, z_y: int) -> float:
    _check_sizes(m, n_len, z_x, z_y)
    if m * z_x <= 1:
        raise PreconditionError("need M * Z_x > 1")
    radicand = (m * z_x * z_y / n_len - 1.0) / (m * z_x - 1.0)
    if radicand < 0:
        raise PreconditionError("vacuous bound: M * Z_x * Z_y < length")
    return n_len / math.sqrt(z_y) * math.sqrt(radicand)


def aperiodic_lower_bound(m: int, n_len: int, z_x: int, z_y: int) -> float:
    _check_sizes(m, n_len, z_x, z_y)
    if m * z_x <= 1:
        raise PreconditionError("need M * Z_x > 1")
    num = m * z_x * z_y - n_len - z_x + 1.0
    if num < 0:
        raise PreconditionError("vacuous bound: negative radicand")
    radicand = num / ((n_len + z_x - 1.0) * (m * z_x - 1.0))
    return n_len / math.sqrt(z_y) * math.sqrt(radicand)


@dataclass(frozen=True)
class BoundReport:
    bound_value: float
    theta: float
    rho: float
    regime: str | None
    gamma_limit: float | None


def optimality_factor(
    theta: float, m: int, n_len: int, z_x: int, z_y: int, kind: str
) -> BoundReport:
    """theta over the applicable lower bound, with the regime of the
    constructed family inferred from (M, length) when length = M*K."""
    if not (math.isfinite(theta) and theta > 0):
        raise PreconditionError(f"theta must be finite and positive, got {theta}")
    check_kind(kind)
    lower_bound = periodic_lower_bound if kind == "periodic" else aperiodic_lower_bound
    bound = lower_bound(m, n_len, z_x, z_y)
    if bound == 0:
        raise PreconditionError("bound is zero; optimality factor undefined")
    regime = None
    gamma = None
    if n_len % m == 0 and n_len // m >= m:
        k = n_len // m
        regime = classify_regime(m, k)
        gamma = 1.0 if regime == REGIME_EQUAL else math.sqrt(k / m)
    return BoundReport(
        bound_value=bound, theta=theta, rho=theta / bound, regime=regime, gamma_limit=gamma
    )


def asymptotic_rho(n: int, k: int, kind: str) -> float:
    """Closed-form optimality factor of the quadratic-family construction.

    Equal to predicted theta over the corresponding lower bound; the K = N
    periodic case is sqrt((Np - 1)/(Np - N)), which decreases to 1 as the
    smallest prime factor p grows.
    """
    check_kind(kind)
    regime = classify_regime(n, k)
    p = smallest_prime_factor(n)
    if kind == "periodic":
        if regime == REGIME_EQUAL:
            return math.sqrt((n * p - 1) / (n * p - n))
        if regime == REGIME_MIDDLE:
            zy = k - n + 1
            return math.sqrt(zy * k * (n * p - 1) / (n * n * (p * zy - k)))
        return math.sqrt(k / n) * math.sqrt((n * p - 1) / (n * p - n))
    if regime == REGIME_EQUAL:
        return (
            (n + p - 1)
            / (n * math.sqrt(n))
            * math.sqrt(
                (n * p - 1) / (p - 1) + p * (n * p - 1) / ((n * n - 1) * (p - 1))
            )
        )
    if regime == REGIME_MIDDLE:
        zy = k - n + 1
        return (
            (k + p - 1)
            * math.sqrt(zy)
            / (n * k)
            * math.sqrt(
                (n * k + p - 1) * (n * p - 1) / (n * zy * p - n * k - p + 1)
            )
        )
    return (
        (k + p - 1)
        / (n * math.sqrt(k))
        * math.sqrt(
            (n * p - 1) / (p - 1) + p * (n * p - 1) / ((n * k - 1) * (p - 1))
        )
    )
