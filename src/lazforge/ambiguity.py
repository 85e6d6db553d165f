"""Periodic and aperiodic ambiguity functions, zone maxima, and the
structural closed form for interleaved sets.

Conventions: for length-L sequences a, b and integers tau, v,

    periodic   AF(tau, v) = sum_{t=0}^{L-1}       a(t) b*(<t+tau>_L) w_L^{vt}
    aperiodic  AF(tau, v) = sum_{t=0}^{L-1-tau}   a(t) b*(t+tau)     w_L^{vt}   (0 <= tau < L)
                            sum_{t=-tau}^{L-1}    a(t) b*(t+tau)     w_L^{vt}   (-L < tau < 0)
                            0                                                   (|tau| >= L)

The Doppler exponent base is always the full sequence length; negative v is
handled by the exponent sign.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .hgen import HMatrix
from .lpnf import ZFunc
from .seqcore import SequenceSet, UnimodSequence, Zone, check_kind

# |AF| comparisons against integer thresholds, scaled by the sequence length
MAG_TOL_SCALE = 1e-6


def resolve_threads(threads: int | None = None) -> int:
    if threads is None:
        env = os.environ.get("LAZ_FORGE_THREADS")
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise PreconditionError(
                    f"LAZ_FORGE_THREADS must be an integer, got {env!r}"
                ) from None
        else:
            threads = os.cpu_count() or 1
    if threads < 1:
        raise PreconditionError("thread count must be positive")
    return threads


def delta_k(x: int, k: int) -> int:
    """K when x = 0 mod K, else 0."""
    if k < 1:
        raise PreconditionError("modulus must be positive")
    return k if x % k == 0 else 0


def _doppler_vector(length: int, v: int) -> np.ndarray:
    return np.exp(2j * np.pi * v * np.arange(length) / length)


def periodic_af(a: UnimodSequence, b: UnimodSequence, tau: int, v: int) -> complex:
    if a.length != b.length:
        raise PreconditionError("sequences must have equal length")
    n = a.length
    prod = a.values * np.conj(np.roll(b.values, -tau))
    return complex(np.sum(prod * _doppler_vector(n, v)))


def aperiodic_af(a: UnimodSequence, b: UnimodSequence, tau: int, v: int) -> complex:
    if a.length != b.length:
        raise PreconditionError("sequences must have equal length")
    n = a.length
    if abs(tau) >= n:
        return 0j
    w = _doppler_vector(n, v)
    if tau >= 0:
        ts = np.arange(0, n - tau)
        prod = a.values[ts] * np.conj(b.values[ts + tau])
    else:
        ts = np.arange(-tau, n)
        prod = a.values[ts] * np.conj(b.values[ts + tau])
    return complex(np.sum(prod * w[ts]))


def _masked_product(a: np.ndarray, b: np.ndarray, tau: int, kind: str) -> np.ndarray:
    """c(t) = a(t) b*(t+tau) with the shift cyclic or zero-padded by kind."""
    n = len(a)
    if kind == "periodic":
        return a * np.conj(np.roll(b, -tau))
    c = np.zeros(n, dtype=complex)
    if abs(tau) >= n:
        return c
    if tau >= 0:
        c[: n - tau] = a[: n - tau] * np.conj(b[tau:])
    else:
        c[-tau:] = a[-tau:] * np.conj(b[: n + tau])
    return c


def af_row(a: UnimodSequence, b: UnimodSequence, tau: int, kind: str) -> np.ndarray:
    """AF(tau, v) for all v in [0, L) by a single length-L transform."""
    check_kind(kind)
    if a.length != b.length:
        raise PreconditionError("sequences must have equal length")
    c = _masked_product(a.values, b.values, tau, kind)
    return a.length * np.fft.ifft(c)


@dataclass(frozen=True)
class AFGrid:
    """AF values over an open delay-Doppler rectangle."""

    delays: range
    dopplers: range
    values: np.ndarray  # shape (len(delays), len(dopplers))
    source: tuple

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def af_grid(
    a: UnimodSequence,
    b: UnimodSequence,
    zone: Zone,
    kind: str,
    source: tuple = (),
) -> AFGrid:
    check_kind(kind)
    zone.check_fits(a.length)
    n = a.length
    delays = zone.delays()
    dopplers = zone.dopplers()
    vidx = np.asarray(dopplers) % n
    rows = [af_row(a, b, tau, kind)[vidx] for tau in delays]
    return AFGrid(
        delays=delays, dopplers=dopplers, values=np.vstack(rows), source=source
    )


@dataclass(frozen=True)
class AFWitness:
    i: int
    j: int
    tau: int
    v: int
    magnitude: float


@dataclass(frozen=True)
class ThetaReport:
    theta_a: float
    theta_c: float
    theta_max: float
    witness: AFWitness | None


def _pair_max(args) -> tuple[float, int, int]:
    mat, i, j, zone, kind = args
    n = mat.shape[1]
    vs = np.asarray(zone.dopplers())
    vidx = vs % n
    best = (-1.0, 0, 0)
    for tau in zone.delays():
        c = _masked_product(mat[i], mat[j], tau, kind)
        mags = np.abs(n * np.fft.ifft(c))[vidx]
        if i == j and tau == 0:
            mags = mags.copy()
            mags[zone.z_y - 1] = -1.0  # exclude the origin of the auto surface
        k = int(np.argmax(mags))
        if mags[k] > best[0]:
            best = (float(mags[k]), tau, int(vs[k]))
    return best


def theta_max(
    s: SequenceSet, zone: Zone, kind: str, threads: int | None = None
) -> ThetaReport:
    """Exhaustive max |AF| over the open zone.

    The auto maximum excludes (0, 0); the cross maximum scans all ordered
    pairs over the full zone.  Witness ties break lexicographically on
    (pair, tau, v), so reports are stable across runs and thread counts.
    """
    check_kind(kind)
    zone.check_fits(s.length)
    workers = resolve_threads(threads)
    mat = s.matrix
    pairs = [(i, j) for i in range(s.size) for j in range(s.size)]
    tasks = [(mat, i, j, zone, kind) for i, j in pairs]
    if workers == 1:
        results = [_pair_max(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_pair_max, tasks))

    theta_a = theta_c = 0.0
    witness = None
    best = -1.0
    for (i, j), (mag, tau, v) in zip(pairs, results):
        if i == j:
            theta_a = max(theta_a, mag)
        else:
            theta_c = max(theta_c, mag)
        if mag > best:
            best = mag
            witness = AFWitness(i=i, j=j, tau=tau, v=v, magnitude=mag)
    return ThetaReport(
        theta_a=theta_a, theta_c=theta_c, theta_max=max(theta_a, theta_c), witness=witness
    )


# ---------------------------------------------------------------------------
# structural closed form for interleaved sets
# ---------------------------------------------------------------------------


def _unit(turns: float) -> complex:
    return cmath.exp(2j * math.pi * turns)


def _inner_aperiodic(e: int, d: int, fm: int, k: int) -> complex:
    """Aperiodic base-row AF at delay d: w_K^{-d fm} * sum_{t<K-d} w_K^{et}."""
    if d >= k:
        return 0j
    lead = _unit(-d * fm / k)
    if e % k == 0:
        return (k - d) * lead
    return lead * (1 - _unit(e * (k - d) / k)) / (1 - _unit(e / k))


def structural_af(
    f: ZFunc, h: HMatrix, i: int, j: int, tau: int, v: int, kind: str
) -> complex:
    """AF of the interleaved pair (s_i, s_j) evaluated without materializing
    the sequences.

    Splitting tau = N*tau1 + tau2 (0 <= tau2 < N) reduces each AF value to a
    length-N sum whose terms carry a base-row AF factor: a scaled delta for
    the periodic kind, a truncated geometric sum for the aperiodic kind.
    Exists as an independent oracle against direct evaluation.
    """
    check_kind(kind)
    n, k = f.domain_size, f.codomain_size
    if h.order != n:
        raise PreconditionError("companion matrix order must match the domain size")
    total_len = n * k

    if kind == "aperiodic":
        if abs(tau) >= total_len:
            return 0j
        if tau < 0:
            # AF_{a,b}(-tau, v) = w^{v*tau} * conj(AF_{b,a}(tau, -v))
            ref = structural_af(f, h, j, i, -tau, -v, kind)
            return _unit(v * (-tau) / total_len) * ref.conjugate()
    else:
        tau %= total_len

    tau1, tau2 = divmod(tau, n)
    hm = h.matrix
    acc = 0j
    for x in range(n):
        m = (x + tau2) % n
        wrapped = x + tau2 >= n
        d = tau1 + 1 if wrapped else tau1
        e = f.table[x] + v - f.table[m]
        if kind == "periodic":
            if e % k != 0:
                continue
            inner = k * _unit(-(d % k) * f.table[m] / k)
        else:
            inner = _inner_aperiodic(e, d, f.table[m], k)
            if inner == 0j:
                continue
        acc += hm[i, x] * np.conj(hm[j, m]) * _unit(x * v / total_len) * inner
    return complex(acc)
