"""Periodic and aperiodic ambiguity functions, zone maxima, and the
structural closed form for interleaved sets.

Conventions: for length-L sequences a, b (complex rows, such as the rows of
a set's `matrix`) and integers tau, v,

    periodic   AF(tau, v) = sum_{t=0}^{L-1} a(t) b*(<t+tau>_L) w_L^{vt}
    aperiodic  AF(tau, v) = the same sum over the t with 0 <= t + tau < L

The Doppler exponent base is always the full sequence length; negative v is
handled by the exponent sign.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .lpnf import ZFunc, difference_counts
from .seqcore import SequenceSet, Zone, check_kind

# complex entries (16 bytes each) per block of a pair kernel; caps their scratch memory
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


def _check_pair(a: np.ndarray, b: np.ndarray) -> int:
    if len(a) != len(b):
        raise PreconditionError("sequences must have equal length")
    return len(a)


def direct_af(a: np.ndarray, b: np.ndarray, tau: int, v: int, kind: str) -> complex:
    """AF_ab(tau, v) summed term by term: a(t) b*(<t+tau>_L) w_L^{vt} over
    every t, or for the aperiodic kind only the t with 0 <= t + tau < L."""
    check_kind(kind)
    n = _check_pair(a, b)
    t = np.arange(n)
    if kind == "aperiodic":
        t = t[(0 <= t + tau) & (t + tau < n)]
    doppler = np.exp(2j * np.pi * ((v * t) % n) / n)  # v t reduced mod L in integers
    return complex(np.sum(a[t] * np.conj(b[(t + tau) % n]) * doppler))


def _af_blocks(mat: np.ndarray, ii: np.ndarray, jj: np.ndarray, taus: Sequence[int], kind: str,
               vidx: np.ndarray | slice = slice(None)) -> Iterator[tuple[int, int, np.ndarray]]:
    """AF of the row pairs (mat[ii[p]], mat[jj[p]]) at every delay in taus,
    each |tau| < L: the one pair scan, behind zone maxima, empirical zones,
    the companion verifier and the distinctness check of a set that is not
    interleaved.

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


def scan_theta(s: SequenceSet, zone: Zone, kind: str) -> ThetaReport:
    """Max |AF| over the open zone, the auto maximum without (0, 0), from the
    FFT scan of every zone point: the general path of `verify.theta_max`,
    for any set, and the reference for its closed form.

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
    origin = (zone.z_x - 1, zone.z_y - 1)  # row of tau = 0, column of v = 0
    vidx = np.asarray(zone.dopplers()) % s.length
    best = np.full(len(ii), -1.0)
    for lo, r, block in _af_blocks(s.matrix, ii, jj, zone.delays(), kind, vidx):
        mags = np.abs(block)
        p = slice(lo, lo + len(mags))
        if r == origin[0]:
            mags[ii[p] == jj[p], origin[1]] = -1.0  # exclude the auto origin
        np.maximum(best[p], mags.max(axis=1), out=best[p])
    return _theta_report(s, zone, kind, ii, jj, best)


def _theta_report(s: SequenceSet, zone: Zone, kind: str, ii: np.ndarray, jj: np.ndarray,
                  best: np.ndarray) -> ThetaReport:
    """The report from each pair's zone maximum best[p] of the pair (ii[p],
    jj[p]), -1 for a pair with no point; the witness pair's AF is computed
    once more by `af_grid`, from its two rows only."""
    auto = ii == jj
    theta_a = float(best[auto].max(initial=0.0))
    theta_c = float(best[~auto].max(initial=0.0))
    measured = max(theta_a, theta_c)
    witness = None
    if best.max() > -1.0:  # the zone holds a point besides the auto origin
        thr = measured - 2 * eps(s.length)
        w = _first_at_least(best, thr)
        i, j = int(ii[w]), int(jj[w])
        mags = np.abs(af_grid(*s.rows([i, j]), zone, kind))
        if i == j:
            mags[zone.z_x - 1, zone.z_y - 1] = -1.0
        # mags.max() == best[w] >= thr, unless the two paths round differently
        r, c = divmod(_first_at_least(mags, thr), mags.shape[1])
        witness = AFWitness(i, j, zone.delays()[r], zone.dopplers()[c], float(mags[r, c]))
    return ThetaReport(theta_a=theta_a, theta_c=theta_c, theta_max=measured, witness=witness)


def structural_eps(size: int, length: int) -> float:
    """Bound on the round-off of any one |AF| value that `structural_theta`
    or `structural_af` computes for an interleaved set of N = size members
    of length L = N K, (N + 125) * L * 2**-53.  `verify.theta_max` takes the
    closed form only where this is at most eps(L), so one pass rule, theta
    <= claim + eps(L), holds for either path.  The analysis below is for a
    value summed from its weights: every aperiodic value, and a periodic one
    only in a column of two or more terms.  A periodic column of one term
    is K and of none 0, exact for a rational set; a float set's exact |AF|
    there is within the last item's 60uL of it.

    With u = 2**-53, a value is the modulus of the sum over x < N of P_x W_x,
    P_x = h_i(x) h_j*(m) and W_x = w_{2L}^r inner, |inner| <= K:
    - P_x: two entries of h, each off by less than 16.6u (see eps), and a
      product: less than 36u;
    - the root w_{2L}^r, r reduced mod 2L in integers, has its angle pi r / L
      rounded three times (the constant pi, the product, the quotient), as
      an entry's is: less than 16.6u.  Periodic, inner = K [e = 0] is exact.  Aperiodic,
      inner = c or G(e, c) = sin(pi e c / K) / sin(pi e' / K), e != 0, with
      e c reduced mod 2K in integers, so the numerator is off by less than
      16.1u, and e' = min(e, K - e), so the denominator's angle is at most
      pi/2, its relative error below 4.4u, and its value at least sin(pi/K)
      >= 2/K.  The quotient, at most K/2 in modulus, is off by less than
      16.1u K/2 + 5.4u K/2 < 10.8uK, and a weight by less than 16.6u K/2 +
      10.8uK + uK/2 < 20uK (17.6uK for inner = c or K);
    - terms: each off by less than 36uK + 20uK from these inputs, N of them:
      at most 56uL;
    - the sum: a complex inner product of N terms, summed in any order, is
      within gamma_{N+2} sum |P_x| |W_x| of the exact sum of its computed
      inputs (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
      ed., Sec. 3.6), at most (N + 3)uL, and the modulus adds at most 2uL;
    - a float set is its stored angles, each of which build_laz_set rounded
      from h's angle and f's root (the constant 2*pi, a quotient, a product,
      a sum and the fold into [0, 2*pi)) to within 30u, so its exact AF is
      within 60uL of the closed form's exact value.
    The sum, (N + 121)uL, is below (N + 125)uL.
    """
    return (size + 125) * length * 2.0**-53


def _delay_weights(fx: np.ndarray, k: int, taus, v, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(m, W) of the closed form for f's table fx: Z_N -> Z_K, the same for
    every pair (see structural_af): one column of W per point (taus[c], v[c]),
    the delays of one residue tau2 = tau mod N, so one m serves every column."""
    n = len(fx)
    x = np.arange(n)[:, None]
    tau1, tau2 = np.divmod(taus, n)
    m = (x[:, 0] + tau2[0]) % n
    d, fm = tau1 + (x + tau2 >= n), fx[m][:, None]
    e = np.add.outer((fx - fx[m]) % k, v % k)  # below 2K; then <f(x) + v - f(m)>_K
    e[e >= k] -= k
    turns = 2 * (x * v - n * d * fm)  # w_L^{xv} w_K^{-d f(m)}, in 1/(2L) turns
    if kind == "periodic":
        inner = k * (e == 0)
    else:
        c = k - abs(d)  # |d| <= K in a zone that fits; G(e, 0) = 0
        turns += n * e * (2 * np.maximum(0, -d) + c - 1)  # w_K^{e max(0, -d)} w_{2K}^{e (c - 1)}
        num, den = np.sin(np.pi * (e * c % (2 * k)) / k), np.sin(np.pi * np.minimum(e, k - e) / k)
        inner = np.divide(num, den, out=c + 0.0 * e, where=e != 0)
    # the angle in real arithmetic: three roundings (see structural_eps)
    return m, np.exp(1j * (np.pi * (turns % (2 * n * k)) / (n * k))) * inner


def _closed_form_blocks(f: ZFunc, h: SequenceSet, ii: np.ndarray, jj: np.ndarray, taus, v,
                        kind: str) -> Generator[tuple[int, slice, np.ndarray], int | None, None]:
    """The closed form's AF (see structural_af) of the interleaved row pairs
    (s_ii[p], s_jj[p]) at the paired points (taus[c], v[c]): its one
    evaluation.  A run of consecutive points of one residue tau mod N (a
    delay's, in zone order) takes one W per SCAN_BLOCK_ENTRIES // N points,
    and a W one matrix product per block of pairs within SCAN_BLOCK_ENTRIES
    entries.  Yields (lo, cols, block), block[q, c] = AF_{lo+q} at the point
    cols.start + c, each W's blocks in pair order.  send(end), answered by
    None, ends them and limits every later W to blocks starting before end."""
    n, k = f.domain_size, f.codomain_size
    fx, hm = np.asarray(f.table), h.matrix
    cap, end = max(1, SCAN_BLOCK_ENTRIES // n), len(ii)
    runs = [*np.flatnonzero(np.diff(taus % n, prepend=-1)), len(taus)]  # one residue each
    for first, stop in zip(runs, runs[1:]):
        for a in range(first, stop, cap):
            cols = slice(a, min(a + cap, stop))
            m, w = _delay_weights(fx, k, taus[cols], v[cols], kind)
            hcm = np.conj(hm[:, m])
            step = max(1, SCAN_BLOCK_ENTRIES // max(n, w.shape[1]))
            for lo in range(0, end, step):
                p = slice(lo, lo + step)
                sent = yield lo, cols, (hm[ii[p]] * hcm[jj[p]]) @ w
                if sent is not None:
                    end = min(end, sent)
                    yield  # the answer to send()
                    break


def structural_theta(s: SequenceSet, f: ZFunc, h: SequenceSet, zone: Zone,
                     kind: str) -> ThetaReport:
    """`scan_theta`'s report for the interleaved set s = build_laz_set(f, h),
    the pairs i <= j evaluated from the closed form by `_closed_form_blocks`
    with no FFT.  The witness rule is scan_theta's, and only the witness
    pair's two rows of s are formed.  Each value is within structural_eps(N,
    L) of the exact |AF|.

    Periodic: a zone column (tau, v) sums K h_i(x) h_j*(m) w_L^{xv}
    w_K^{-d_x f(m)} over the x with f(x + tau) - f(x) = v mod K, whose
    number is f's `difference_counts`.  A column with no term is 0, and one
    with a single term is K for every pair, exactly: its factors have unit
    modulus, |h_i(x) h_j*(m)| = 1, and a float set's stored angles keep its
    exact |AF| within structural_eps of K.  Only the columns of two or more
    terms take the closed form; a row x that misses such a column weighs
    exactly 0 there.  The auto origin is excluded before a column's value is
    taken, so at N = 1 its single term is not read as K.
    """
    check_kind(kind)
    zone.check_fits(s.length)
    n, k = f.domain_size, f.codomain_size
    if h.phases.shape != (n, n) or s.phases.shape != (n, n * k):
        raise PreconditionError("s must be the N x NK interleaved set of f and the N x N h")
    ii, jj = np.triu_indices(n)  # pairs i <= j, lexicographic
    auto = ii == jj
    taus, v = (a.ravel() for a in np.meshgrid(zone.delays(), zone.dopplers(), indexing="ij"))
    origin, best = (taus == 0) & (v == 0), np.full(len(ii), -1.0)
    if kind == "periodic":
        counts = difference_counts(f, zone.delays(), zone.dopplers()).ravel()
        # the values every pair shares; a multi-term column's are summed below
        shared = np.select([counts == 1, counts == 0], [float(k), 0.0], -1.0)
        best = np.where(auto, np.where(origin, -1.0, shared).max(), shared.max())
        taus, v, origin = taus[counts > 1], v[counts > 1], origin[counts > 1]
    for lo, cols, block in _closed_form_blocks(f, h, ii, jj, taus, v, kind):
        mags = np.abs(block)
        p = slice(lo, lo + len(mags))
        if origin[cols].any():  # exclude the auto origin
            mags[auto[p, None] & origin[cols]] = -1.0
        np.maximum(best[p], mags.max(axis=1), out=best[p])
    return _theta_report(s, zone, kind, ii, jj, best)


def structural_af(f: ZFunc, h: SequenceSet, i: int, j: int, zone: Zone, kind: str) -> np.ndarray:
    """af_grid's array for the interleaved pair (s_i, s_j), s_n(tN + m) =
    h_n(m) w_K^{t f(m)}, from f and the N x N companion matrix h: an
    independent oracle that calls neither _af_blocks nor an FFT.

    With tau = N tau1 + tau2 (0 <= tau2 < N), m = <x + tau2>_N and d_x =
    tau1 + [x + tau2 >= N], the row of one delay is (h_i(x) h_j*(m))_x @ W,
    one (N, V) weight matrix for every pair: W[x, v] = w_L^{xv} w_K^{-d_x
    f(m)} inner(e, d_x), e = <f(x) + v - f(m)>_K.  Periodic: inner = K [e =
    0].  Aperiodic, t running over max(0, -d) <= t < min(K, K - d): inner =
    w_K^{e max(0, -d)} G(e, K - |d|), 0 at |d| = K, with G(e, c) =
    sum_{t<c} w_K^{et} = w_{2K}^{e(c-1)} sin(pi e c / K) / sin(pi e / K)
    for e != 0.  Its round-off is bounded by structural_eps.
    """
    check_kind(kind)
    n, k = f.domain_size, f.codomain_size
    if h.size != n or h.length != n:
        raise PreconditionError("companion matrix must be N x N for the domain size N")
    zone.check_fits(n * k)
    taus, v = (a.ravel() for a in np.meshgrid(zone.delays(), zone.dopplers(), indexing="ij"))
    blocks = _closed_form_blocks(f, h, np.array([i]), np.array([j]), taus, v, kind)
    return np.hstack([block[0] for _, _, block in blocks]).reshape(len(zone.delays()), -1)
