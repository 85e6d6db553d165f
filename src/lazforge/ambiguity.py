"""Periodic and aperiodic ambiguity functions, zone maxima, and the
structural closed form for interleaved sets.

Conventions: for length-L sequences a, b (complex rows, such as the rows of
a set's `matrix`) and integers tau, v,

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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .lpnf import ZFunc
from .seqcore import SequenceSet, Zone, check_kind

# complex entries (16 bytes each) per _af_blocks block; caps its scratch memory
SCAN_BLOCK_ENTRIES = 2**16


def eps(length: int) -> float:
    """Bound on the round-off of any one computed |AF| value of a length-L
    set, c * L * log2(L) * 2**-53 with c = 48; a zone maximum or threshold
    comparison is decided to within it.

    With u = 2**-53 and the terms c_t = a(t) b*(t + tau) of unit modulus:
    - entries: a rational angle 2*pi*k/D is rounded three times (k/D, the
      constant 2*pi, the product), so it is off by at most 2.4u * 2*pi <
      15.1u, and np.exp rounds cos and sin to within 1 ulp each (at most u),
      so an entry is off by less than 16.6u (float angles are exact inputs:
      1.5u);
    - products: a complex product adds at most sqrt(5) u, so a term c_t is
      off by less than 2 * 16.6u + 2.3u < 36u, and a Doppler bin sums the L
      terms' errors with unit weights: at most 36uL;
    - the FFT: Higham's bound (Accuracy and Stability of Numerical
      Algorithms, 2nd ed., Thm 24.2) on a length-L transform y of c is
      ||error||_2 <= log2(L) eta / (1 - log2(L) eta) ||y||_2, with eta =
      mu + gamma_4 (sqrt(2) + mu) < 7u for twiddles within mu = u, and
      ||y||_2 = sqrt(L) ||c||_2 = L for unit-modulus terms: at most
      7uL log2(L) on any one bin.  The 1/L and L scalings of the inverse
      transform and the modulus add at most 4uL.
    The sum, 40uL + 7uL log2(L), is at most 47uL log2(L) for L >= 2.  The
    bound is stated for radix 2; numpy's mixed-radix passes are held to a
    quarter of it by TestRoundOffBound in tests/test_ambiguity.py.  A length-1 transform is the
    identity, and its one product is bounded as if L were 2.
    """
    return 48 * length * math.log2(max(length, 2)) * 2.0**-53


def _doppler_vector(length: int, v: int) -> np.ndarray:
    return np.exp(2j * np.pi * v * np.arange(length) / length)


def _check_pair(a: np.ndarray, b: np.ndarray) -> int:
    if len(a) != len(b):
        raise PreconditionError("sequences must have equal length")
    return len(a)


def periodic_af(a: np.ndarray, b: np.ndarray, tau: int, v: int) -> complex:
    n = _check_pair(a, b)
    prod = a * np.conj(np.roll(b, -tau))
    return complex(np.sum(prod * _doppler_vector(n, v)))


def aperiodic_af(a: np.ndarray, b: np.ndarray, tau: int, v: int) -> complex:
    n = _check_pair(a, b)
    if abs(tau) >= n:
        return 0j
    ts = np.arange(0, n - tau) if tau >= 0 else np.arange(-tau, n)
    prod = a[ts] * np.conj(b[ts + tau])
    return complex(np.sum(prod * _doppler_vector(n, v)[ts]))


def _af_blocks(
    mat: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    taus: Sequence[int],
    kind: str,
    vidx: np.ndarray | slice = slice(None),
) -> Iterator[tuple[int, int, np.ndarray]]:
    """AF of the row pairs (mat[ii[p]], mat[jj[p]]) at every delay in taus,
    each |tau| < L: the one pair scan, behind zone maxima, empirical zones,
    the companion verifier and the distinctness check.

    Yields (lo, r, block) with block[q, c] = AF_p(taus[r], vidx[c]) for the
    pair p = lo + q; each pair sees the delays in order.  A block holds at
    most SCAN_BLOCK_ENTRIES products a(t) b*(<t+tau>_L), the cyclic ones;
    the aperiodic kind zeroes the products whose shift wraps.  Per block the
    b rows are gathered and conjugated once; per delay the a rows are
    gathered, multiplied and inverse transformed along the rows in place.
    """
    n = mat.shape[1]
    step = max(1, SCAN_BLOCK_ENTRIES // n)
    for lo in range(0, len(ii), step):
        rows = ii[lo : lo + step]
        bc = mat[jj[lo : lo + step]]
        np.conjugate(bc, out=bc)
        for r, tau in enumerate(taus):
            t = tau % n
            c = mat[rows]
            c[:, : n - t] *= bc[:, t:]
            c[:, n - t :] *= bc[:, :t]
            if kind == "aperiodic":  # zero the wrapped terms
                c[:, slice(n - t, n) if tau >= 0 else slice(n - t)] = 0
            block = np.fft.ifft(c, axis=1, out=c)[:, vidx]
            block *= n
            yield lo, r, block


def af_grid(a: np.ndarray, b: np.ndarray, zone: Zone, kind: str) -> np.ndarray:
    """AF_ab over the open zone as a (len(zone.delays()), len(zone.dopplers()))
    array, rows in delay order and columns in Doppler order."""
    check_kind(kind)
    n = _check_pair(a, b)
    zone.check_fits(n)
    vidx = np.asarray(zone.dopplers()) % n
    blocks = _af_blocks(np.vstack((a, b)), np.array([0]), np.array([1]), zone.delays(), kind, vidx)
    return np.vstack([block for _, _, block in blocks])


def _first_at_least(values: np.ndarray, thr: float) -> int:
    """Flat index of the first value >= min(thr, values.max()), the witness
    rule: the first maximum if round-off put every value below thr."""
    return int(np.argmax(values >= min(thr, values.max())))


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


def theta_max(s: SequenceSet, zone: Zone, kind: str) -> ThetaReport:
    """Exhaustive max |AF| over the open zone, the auto maximum without (0, 0).

    As |AF_ji(tau, v)| = |AF_ij(-tau, -v)| on the symmetric zone, only the
    pairs i <= j are scanned.  The witness is the first (i, j, tau, v),
    i <= j, in lexicographic order with |AF| >= maximum - 2 * eps(L): every
    exact tie of the maximum qualifies, so round-off, the FFT backend and the
    block size cannot move it.  One more pass over the first qualifying pair
    finds it.
    """
    check_kind(kind)
    zone.check_fits(s.length)
    ii, jj = np.triu_indices(s.size)  # pairs i <= j, lexicographic
    delays = zone.delays()
    origin = (zone.z_x - 1, zone.z_y - 1)  # row of tau = 0, column of v = 0
    vidx = np.asarray(zone.dopplers()) % s.length
    best = np.full(len(ii), -1.0)
    for lo, r, block in _af_blocks(s.matrix, ii, jj, delays, kind, vidx):
        mags = np.abs(block)
        p = slice(lo, lo + len(mags))
        if r == origin[0]:
            mags[ii[p] == jj[p], origin[1]] = -1.0  # exclude the auto origin
        np.maximum(best[p], mags.max(axis=1), out=best[p])

    auto = ii == jj
    theta_a = float(best[auto].max(initial=0.0))
    theta_c = float(best[~auto].max(initial=0.0))
    measured = max(theta_a, theta_c)
    witness = None
    if best.max() > -1.0:  # the zone holds a point besides the auto origin
        thr = measured - 2 * eps(s.length)
        w = _first_at_least(best, thr)
        i, j = int(ii[w]), int(jj[w])
        mags = np.abs(af_grid(s.matrix[i], s.matrix[j], zone, kind))
        if i == j:
            mags[origin] = -1.0
        # mags.max() == best[w] >= thr, unless batched transforms round differently
        r, c = divmod(_first_at_least(mags, thr), mags.shape[1])
        witness = AFWitness(i, j, delays[r], zone.dopplers()[c], float(mags[r, c]))
    return ThetaReport(theta_a=theta_a, theta_c=theta_c, theta_max=measured, witness=witness)


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
    f: ZFunc, h: SequenceSet, i: int, j: int, tau: int, v: int, kind: str
) -> complex:
    """AF of the interleaved pair (s_i, s_j) evaluated without materializing
    the sequences.

    Splitting tau = N*tau1 + tau2 (0 <= tau2 < N) reduces each AF value to a
    length-N sum whose terms carry a base-row AF factor: a scaled delta for
    the periodic kind, a truncated geometric sum for the aperiodic kind; h is
    the N x N companion matrix.  Exists as an independent oracle against
    direct evaluation.
    """
    check_kind(kind)
    n, k = f.domain_size, f.codomain_size
    if h.size != n or h.length != n:
        raise PreconditionError("companion matrix must be N x N for the domain size N")
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
