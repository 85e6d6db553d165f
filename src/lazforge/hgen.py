"""Generators and the verifier for the N x N companion matrix used to
modulate interleaved columns: a square SequenceSet whose members are its rows.

A companion matrix must satisfy, for all row pairs i != j and 0 <= v < N:

    |sum_n h_i(n) h_j*(n)|            <= 1
    |sum_n h_i(n) h_j*(n) w_N^{nv}|   <  N

Both read the zero-delay Doppler cut |AF_ij(0, v)| of the row pair's
periodic AF, the inner product at v = 0, and are symmetric in (i, j): the
verifier scans the pairs i < j through ambiguity's batched kernel.  When
each row is the one before it rotated by one fixed step plus one fixed
phase row, as in every family below, that cut depends on j - i alone and
the pairs (0, d) stand for all of them.

Four families are provided: columns of a DFT matrix one size up, and cyclic
shifts of Legendre, m-, and Björck sequences.  The verifier is authoritative;
generators do not promise the constraints for orders outside supported_orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import _af_blocks, _first_at_least, af_grid, eps
from .errors import PreconditionError
from .numth import (
    is_prime,
    legendre_symbol,
    lfsr_sequence,
    smallest_primitive_polynomial,
)
from .seqcore import SequenceSet, Zone


@dataclass(frozen=True)
class HReport:
    max_offdiag_inner: float
    max_modulated: float
    passed: bool
    inner_witness: tuple[int, int] | None
    modulated_witness: tuple[int, int, int] | None


def verify_h_constraints(h: SequenceSet) -> HReport:
    """Exhaustive scan of both constraints over i != j and 0 <= v < N.

    A set that is not square is a PreconditionError.  As |AF_ji(0, v)| =
    |AF_ij(0, -v)|, `_af_blocks` scans the pairs i < j at delay 0, keeping
    each pair's maximum over v and its v = 0 bin.  With eps(N) the round-off
    bound of one computed sum, it passes iff the maxima are <= 1 + eps(N) and
    < N - eps(N).  Each witness is the first pair i < j within 2 * eps(N) of
    the maximum, and the modulated witness's v the first within that band on
    its pair (one more transform), so round-off cannot move a witness.  A
    1 x 1 set has no pair: both maxima are 0, with no witness.

    Step-structured sets scan N - 1 pairs, not N(N-1)/2.  If row i + 1 of
    the phase array is row i rotated left by s in {0, 1} plus one row Delta
    fixed for every i (exact integers mod D for a rational set; Delta = 0 by
    exact equality for float angles, as no tolerance enters), then
    h_{i+1}(t) h_{j+1}*(t) = h_i(t+s) h_j*(t+s): the product row of (i+1,
    j+1) is that of (i, j) rotated by s, which multiplies AF(0, v) by
    w_N^{-vs}.  So every pair (i, j) has the exact magnitudes of (0, j - i),
    and only the pairs (0, d), d = 1..N-1, are scanned.  The bound holds as
    each of them is computed by the same kernel call, and the witnesses are
    unchanged: the pairs (0, d) come first in lexicographic order, so the
    first pair within the band is one of them.  Only the round-off of a
    maximum can change, within the band: the Björck families print the
    round-off of an inner product that is exactly 0 (1.33e-15 became
    8.88e-16 at order 11).
    """
    n = h.size
    if h.length != n:
        raise PreconditionError(f"companion matrix must be square, got {n} x {h.length}")
    ii, jj = _pairs_to_scan(h)
    inner, mod_max = np.empty((2, len(ii)))
    for lo, _, block in _af_blocks(h.matrix, ii, jj, [0], "periodic"):
        modulated = np.abs(block)  # v runs along axis 1
        inner[lo : lo + len(block)] = modulated[:, 0]
        mod_max[lo : lo + len(block)] = modulated.max(axis=1)

    max_inner, max_mod = float(inner.max(initial=0.0)), float(mod_max.max(initial=0.0))
    passed = max_inner <= 1.0 + eps(n) and max_mod < n - eps(n)
    inner_witness = modulated_witness = None
    if len(ii):
        band = 2 * eps(n)
        p = _first_at_least(inner, max_inner - band)
        q = _first_at_least(mod_max, max_mod - band)
        i, j = int(ii[q]), int(jj[q])
        row = np.abs(af_grid(h.matrix[i], h.matrix[j], Zone(1, n), "periodic")[0, n - 1 :])
        inner_witness = (int(ii[p]), int(jj[p]))
        modulated_witness = (i, j, _first_at_least(row, max_mod - band))
    return HReport(max_inner, max_mod, passed, inner_witness, modulated_witness)


def _pairs_to_scan(h: SequenceSet) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (0, d) when h's rows are one step apart (see
    verify_h_constraints), else every pair i < j, both lexicographic."""
    p, d, n = h.phases, h.denominator, h.size
    for s in (0, 1):
        step = p[1:] - np.roll(p[:-1], -s, axis=1)
        if d is not None:
            step %= d
        elif step.any():  # float angles qualify with Delta = 0 only
            continue
        if np.all(step == step[:1]):  # also for N < 3: one step row, or none
            return np.zeros(n - 1, dtype=np.intp), np.arange(1, n)
    return np.triu_indices(n, 1)


def _shift_rows(row0, denominator: int | None = None) -> SequenceSet:
    """The square set whose row i is row0 cyclically shifted left by i."""
    r = np.arange(len(row0))
    return SequenceSet(np.asarray(row0)[np.add.outer(r, r) % len(r)], denominator)


def dft_submatrix(n: int) -> SequenceSet:
    """Drop the last row and column of the (N+1)-point DFT matrix.

    Off-diagonal row inner products then have magnitude exactly 1: the full
    column sums of an (N+1)-point DFT vanish, so the truncated sums are single
    roots of unity.
    """
    if n < 2:
        raise PreconditionError("order must be at least 2")
    return SequenceSet(np.outer(range(n), range(n)), n + 1)


def legendre_shifts(n: int) -> SequenceSet:
    """Cyclic shifts of the +-1 quadratic-residue sequence of prime length.

    Only p = 3 (mod 4) passes the verifier: for p = 1 (mod 4) the off-peak
    autocorrelation reaches -1 + 2*chi(tau), magnitude 3.
    """
    if not is_prime(n) or n == 2:
        raise PreconditionError("length must be an odd prime")
    minus = [int(t != 0 and legendre_symbol(t, n) != 1) for t in range(n)]
    return _shift_rows(minus, 2)


def msequence_shifts(m: int) -> SequenceSet:
    """Cyclic shifts of the +-1 maximal-length sequence of period 2^m - 1.

    The polynomial is the lexicographically smallest primitive one of degree
    m, found as the first whose LFSR has the full period 2^m - 1.
    """
    return _shift_rows(lfsr_sequence(m, smallest_primitive_polynomial(m)), 2)


def bjorck_shifts(p: int) -> SequenceSet:
    """Cyclic shifts of the Björck sequence of odd prime length.

    p = 1 (mod 4): entries exp(i*theta*chi(t)) with theta = arccos(1/(1+sqrt p)).
    p = 3 (mod 4): phase theta = arccos((1-p)/(1+p)) on the non-residues only.
    For p in {3, 5} these angles degenerate to roots of unity and the shifted
    rows align with a Doppler line, so those orders fail the verifier.
    """
    if not is_prime(p) or p == 2:
        raise PreconditionError("length must be an odd prime")
    if p % 4 == 1:
        theta = math.acos(1.0 / (1.0 + math.sqrt(p)))
        angles = [theta * legendre_symbol(t, p) for t in range(p)]
    else:
        theta = math.acos((1.0 - p) / (1.0 + p))
        angles = [theta if legendre_symbol(t, p) == -1 else 0.0 for t in range(p)]
    return _shift_rows(angles)


def supported_orders(kind: str, limit: int = 127) -> list[int]:
    """Orders up to limit for which each generator's output passes the
    verifier."""
    if kind == "dft":
        return list(range(2, limit + 1))
    if kind == "legendre":
        return [p for p in range(3, limit + 1) if is_prime(p) and p % 4 == 3]
    if kind == "mseq":
        return [2**m - 1 for m in range(2, limit.bit_length() + 1) if 2**m - 1 <= limit]
    if kind == "bjorck":
        return [p for p in range(7, limit + 1) if is_prime(p)]
    raise PreconditionError(f"unknown generator kind {kind!r}")


GENERATORS = {
    "dft": dft_submatrix,
    "legendre": legendre_shifts,
    "mseq": msequence_shifts,
    "bjorck": bjorck_shifts,
}


def make_hmatrix(kind: str, order: int) -> SequenceSet:
    """Build a companion matrix of the given order by family name.

    For mseq the order must be 2^m - 1 with m >= 2; the degree is inferred.
    """
    if kind == "mseq":
        m = order.bit_length()
        if m < 2 or 2**m - 1 != order:
            raise PreconditionError("mseq order must be 2^m - 1 with m >= 2")
        return msequence_shifts(m)
    if kind not in GENERATORS:
        raise PreconditionError(f"unknown generator kind {kind!r}")
    return GENERATORS[kind](order)
