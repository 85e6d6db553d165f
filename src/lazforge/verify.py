"""End-to-end certification: zone compliance, cyclic distinctness, empirical
maximal zones, and reference-table reproduction."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .ambiguity import (
    AFWitness,
    ThetaReport,
    _af_blocks,
    _closed_form_blocks,
    eps,
    scan_theta,
    structural_eps,
    structural_theta,
)
from .bounds import BoundReport, optimality_factor
from .construct import LazParams, factor_interleaved
from .errors import PreconditionError
from .lpnf import ZFunc, difference_counts
from .seqcore import TWO_PI, SequenceSet, Zone, check_kind
from .tables import TABLES, ReferenceTable, TableRow

TABLE_RHO_TOL = 1e-5

# per-entry comparison tolerance for float-angle phases: far above the round-off
# of a difference of two folded angles (a few 2*pi * 2**-53, about 1e-15), far
# below the phase steps that tell members of a constructed set apart
FLOAT_PHASE_TOL = 1e-9


# the default of theta_max's and certify_laz's `factors`: not yet computed
_UNFACTORED = object()


def interleaved_factors(s: SequenceSet) -> tuple[ZFunc, SequenceSet] | None:
    """The (f, h) that `factor_interleaved` rebuilds s from, if it does and
    the closed form's round-off bound structural_eps(N, L) is at most eps(L);
    None for any other set."""
    if structural_eps(s.size, s.length) <= eps(s.length):
        try:
            return factor_interleaved(s)
        except PreconditionError:  # not interleaved
            pass
    return None


def theta_max(s: SequenceSet, zone: Zone, kind: str, factors=_UNFACTORED) -> ThetaReport:
    """Max |AF| over the open zone, the auto maximum without (0, 0), with
    every zone point of every pair i <= j evaluated, and the canonical
    witness: the first (i, j, tau, v), i <= j, in lexicographic order with
    |AF| >= maximum - 2 * eps(L).

    A set with `interleaved_factors` (f, h) is evaluated from the closed form
    by `structural_theta`, for the periodic kind only over the columns of two
    or more terms; any other set takes the FFT scan `scan_theta`.  Either
    way each value is within eps(L) of the exact |AF|, and the witness's
    magnitude is recomputed by `af_grid` on its pair's two rows, so on the
    closed-form path it may differ from the measured theta by round-off,
    within 2 * eps(L).  `factors` is the set's `interleaved_factors` when
    the caller already has it; otherwise it is computed here.
    """
    check_kind(kind)
    zone.check_fits(s.length)
    if factors is _UNFACTORED:
        factors = interleaved_factors(s)
    if factors is None:
        return scan_theta(s, zone, kind)
    return structural_theta(s, *factors, zone, kind)


@dataclass(frozen=True)
class DistinctReport:
    distinct: bool
    witness: tuple[int, int, int] | None  # (i, j, tau)


def cyclic_distinct(s: SequenceSet, factors=_UNFACTORED) -> DistinctReport:
    """No member is a cyclic shift of another times a unit-modulus constant
    (1 included).  Otherwise the witness is the first (i, j, tau), i < j, with
    s_j == c * (s_i shifted left by tau), that is s_j(x) == c * s_i(x + tau)
    for every x mod L; the constant is c = s_j(0) / s_i(tau).

    Such a tau is one where |sum_x s_j(x) s_i*(x + tau)| = L, the periodic
    AF of (s_j, s_i) at (tau, 0), or within L (1 - cos FLOAT_PHASE_TOL) of
    it for a float set.  Every computed value >= L - 1/2 is a candidate, and
    `_first_shift` confirms the candidates on the phase array in (i, j, tau)
    order, so round-off and block sizes cannot move the witness.

    A set with `interleaved_factors` (f, h), N members of length L = N K, is
    read from the closed form (see structural_af) with no FFT.  With tau = N
    tau1 + tau2, m = <x + tau2>_N and d_x = tau1 + [x + tau2 >= N], the sum
    is sum_{x < N} h_j(x) h_i*(m) K w_K^{-d_x f(m)} [f(x) = f(m)].  A
    residue tau2 outside T2 = {tau2 : f(x + tau2) = f(x) for every x}, the
    residues whose v = 0 `difference_counts` is N (exact integers, O(N^2)),
    zeroes at least one of the N terms, so the exact value is at most L - K,
    and a float set's stored angles, within 60uL of the closed form (see
    structural_eps), keep it below L - 1/2.  So only T2 is scanned, {0} for
    the quadratic and power-map families: `_closed_form_blocks` gives the K
    delays of a residue from one weight matrix.  A computed value is within
    structural_eps(N, L) <= eps(L) of the exact one, and eps(L) < 1/2 for L
    < 10^12, so the candidates hold every shift.

    Any other set is read from its members' spectra by `_spectral_candidates`.

    `factors` is the set's `interleaved_factors` when the caller already has
    it; otherwise it is computed here.
    """
    if factors is _UNFACTORED:
        factors = interleaved_factors(s)
    if factors is None:
        witness = _first_shift(s, _spectral_candidates(s))
    else:
        witness = _closed_form_witness(s, *factors)
    return DistinctReport(distinct=witness is None, witness=witness)


def _first_shift(s: SequenceSet,
                 candidates: Iterable[tuple[int, int, int]]) -> tuple[int, int, int] | None:
    """The first candidate (i, j, tau) with s_j == c * (s_i shifted left by
    tau) on the phase array, exactly if rational and within FLOAT_PHASE_TOL
    per entry if float; None if there is none."""
    for i, j, tau in candidates:
        diff = s.phases[j] - np.roll(s.phases[i], -tau)
        diff -= diff[0]
        if s.denominator is None:  # fold each angle into [-pi, pi)
            same = np.all(np.abs((diff + math.pi) % TWO_PI - math.pi) <= FLOAT_PHASE_TOL)
        else:
            same = not np.any(diff % s.denominator)
        if same:
            return int(i), int(j), int(tau)
    return None


def _spectral_candidates(s: SequenceSet) -> Iterator[tuple[int, int, int]]:
    """cyclic_distinct's candidates (i, j, tau) of any set, in order, from
    the members' spectra S = fft(s): by the correlation theorem,
    AF_{S_i S_j}(0, tau) = L * sum_x s_i(x + tau) s_j*(x), the zero-delay
    Doppler cut of the spectra's periodic AF, which `_af_blocks` scans over
    the pairs in lexicographic order, has magnitude L^2 at a shift.
    """
    n = s.length
    spectra = np.fft.fft(s.matrix, axis=1)
    ii, jj = np.triu_indices(s.size, 1)
    for lo, _, block in _af_blocks(spectra, ii, jj, [0], "periodic"):
        # a true shift has |block| = L^2 exactly; three transforms put the
        # computed value within L * sqrt(L) * eps(L) of it (0.015 at L = 32385),
        # far inside L / 2, and a false candidate only costs the check on the
        # phase array
        for p, tau in zip(*np.nonzero(np.abs(block) >= n * (n - 0.5))):
            yield int(ii[lo + p]), int(jj[lo + p]), int(tau)


def _closed_form_witness(s: SequenceSet, f: ZFunc, h: SequenceSet) -> tuple[int, int, int] | None:
    """cyclic_distinct's witness for the interleaved set s = build_laz_set(f,
    h): the least of the first confirmed candidates of each weight matrix."""
    n, k = f.domain_size, f.codomain_size
    ii, jj = np.triu_indices(n, 1)  # pairs i < j, lexicographic
    t2 = np.flatnonzero(difference_counts(f, range(n), [0])[:, 0] == n)  # T2
    taus = (t2[:, None] + n * np.arange(k)).ravel()
    witness = None
    blocks = _closed_form_blocks(f, h, jj, ii, taus, np.zeros_like(taus), "periodic")
    for lo, cols, block in blocks:
        q, c = np.nonzero(np.abs(block) >= n * k - 0.5)
        found = _first_shift(s, zip(ii[lo + q], jj[lo + q], taus[cols][c]))
        if found is not None:
            witness = min(found, witness or found)
            blocks.send(lo + len(block))  # no later block past this one
    return witness


@dataclass(frozen=True)
class LazCertificate:
    claimed: LazParams
    measured_theta: float
    passed: bool
    witness: AFWitness | None
    bound_report: BoundReport | None  # None when the zone makes the bound vacuous
    cyclically_distinct: bool

    def to_dict(self) -> dict:
        w, b = self.witness, self.bound_report
        return {
            "claimed": self.claimed.to_dict(),
            "measured_theta": self.measured_theta,
            "pass": self.passed,
            "witness": None if w is None else asdict(w),
            "bound": None if b is None else asdict(b),
            "cyclically_distinct": self.cyclically_distinct,
        }


def certify_laz(
    s: SequenceSet, params: LazParams, distinct: DistinctReport | None = None,
    factors=_UNFACTORED,
) -> LazCertificate:
    """Measure theta at every point of the claimed zone with `theta_max`
    (the pairs i <= j, and its canonical witness): from the closed form for
    an interleaved set, by the FFT scan otherwise.  Pass iff the measured
    theta is at most the claimed theta plus eps(L), the stated round-off
    bound of one computed |AF| value on either path.

    `distinct` is the set's `cyclic_distinct` report and `factors` its
    `interleaved_factors` when the caller already has them; otherwise they
    are computed here.
    """
    if s.size != params.set_size or s.length != params.length:
        raise PreconditionError("set shape does not match the claimed parameters")
    if factors is _UNFACTORED:
        factors = interleaved_factors(s)
    report = theta_max(s, params.zone, params.kind, factors)
    passed = report.theta_max <= params.theta + eps(s.length)
    try:
        bound = optimality_factor(
            params.theta, params.set_size, params.length,
            params.zone.z_x, params.zone.z_y, params.kind,
        )
    except PreconditionError:
        bound = None  # zone too small for the bound to be informative
    if distinct is None:
        distinct = cyclic_distinct(s, factors)
    return LazCertificate(
        claimed=params,
        measured_theta=report.theta_max,
        passed=passed,
        witness=report.witness,
        bound_report=bound,
        cyclically_distinct=distinct.distinct,
    )


def empirical_zone(
    s: SequenceSet, theta_budget: float, kind: str
) -> list[tuple[int, int]]:
    """Pareto-maximal open rectangles (-Z_x, Z_x) x (-Z_y, Z_y) whose interior
    (minus the origin for auto surfaces) stays within the budget plus
    eps(L), in ascending Z_x and descending Z_y.

    Scans |tau| = 0, 1, 2, ... outward, one `_af_blocks` call per delay
    pair {tau, -tau}, keeping the widest clean |v| of the rows so far.  Row
    |tau| is the max |AF| over unordered pairs i <= j at delays tau and -tau,
    folded over v and -v (|AF_ab(-tau, -v)| = |AF_ba(tau, v)|).  Every
    rectangle needs its rows |tau| < Z_x clean at v = 0, so the scan returns
    at the first row whose v = 0 entry is over the budget; periodic rows
    |tau| and L - |tau| are equal, so that scan ends at L // 2.
    """
    check_kind(kind)
    if not (math.isfinite(theta_budget) and theta_budget >= 0):
        raise PreconditionError(f"budget must be finite and nonnegative, got {theta_budget}")
    n = s.length
    thr = theta_budget + eps(n)
    ii, jj = np.triu_indices(s.size)
    stop = n // 2 + 1 if kind == "periodic" else n
    rects: list[tuple[int, int]] = []
    z_y = n  # widest clean |v| over the rows scanned so far
    for x in range(stop):
        row = np.zeros(n)
        for lo, _, block in _af_blocks(s.matrix, ii, jj, sorted({x, -x}), kind):
            mags = np.abs(block)
            if not x:
                p = slice(lo, lo + len(mags))
                mags[ii[p] == jj[p], 0] = 0.0  # exclude the auto origin
            np.maximum(row, mags.max(axis=0), out=row)
        clean = np.maximum(row, np.roll(row[::-1], 1)) <= thr  # fold v and -v
        width = n if clean.all() else int(np.argmin(clean))
        if width < z_y:
            if x:
                rects.append((x, z_y))
            z_y = width
        if not z_y:
            return rects
    rects.append((n, z_y))
    return rects


@dataclass(frozen=True)
class TableCheck:
    row: TableRow
    computed_rho: float
    reference_rho: float
    passed: bool


def reproduce_table(table_id: int) -> list[TableCheck]:
    """Recompute every row's optimality factor from its parameters and
    compare against the published value at 1e-5."""
    if table_id not in TABLES:
        raise PreconditionError(f"unknown table id {table_id}; have {sorted(TABLES)}")
    table: ReferenceTable = TABLES[table_id]
    checks = []
    for row in table.rows:
        rep = optimality_factor(
            row.theta, row.set_size, row.length, row.z_x, row.z_y, table.kind
        )
        checks.append(
            TableCheck(
                row=row,
                computed_rho=rep.rho,
                reference_rho=row.rho,
                passed=abs(rep.rho - row.rho) <= TABLE_RHO_TOL,
            )
        )
    return checks
