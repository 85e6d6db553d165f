"""End-to-end certification: zone compliance, cyclic distinctness, empirical
maximal zones, and reference-table reproduction."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ambiguity import AFWitness, _af_blocks, eps, theta_max
from .bounds import BoundReport, optimality_factor
from .construct import LazParams
from .errors import PreconditionError
from .seqcore import TWO_PI, SequenceSet, check_kind
from .tables import TABLES, ReferenceTable, TableRow

TABLE_RHO_TOL = 1e-5

# per-entry comparison tolerance for float-angle phases: far above the round-off
# of a difference of two folded angles (a few 2*pi * 2**-53, about 1e-15), far
# below the phase steps that tell members of a constructed set apart
FLOAT_PHASE_TOL = 1e-9


@dataclass(frozen=True)
class DistinctReport:
    distinct: bool
    witness: tuple[int, int, int] | None  # (i, j, tau)


def cyclic_distinct(s: SequenceSet) -> DistinctReport:
    """No member is a cyclic shift of another times a unit-modulus constant
    (1 included).  Otherwise the witness is the first (i, j, tau), i < j, with
    s_j == c * (s_i shifted left by tau), that is s_j(x) == c * s_i(x + tau)
    for every x mod L; the constant is c = s_j(0) / s_i(tau).

    The members' spectra S = fft(s) give, by the correlation theorem,
    AF_{S_i S_j}(0, tau) = L * sum_x s_i(x + tau) s_j*(x): the zero-delay
    Doppler cut of the spectra's periodic AF, which `_af_blocks` scans over
    the pairs in lexicographic order, has magnitude L^2 at such a tau.  That
    filter is permissive: each candidate, in ascending tau, is confirmed on
    the phase array, exactly if rational and within FLOAT_PHASE_TOL per entry
    if float.
    """
    n, d = s.length, s.denominator
    spectra = np.fft.fft(s.matrix, axis=1)
    ii, jj = np.triu_indices(s.size, 1)
    for lo, _, block in _af_blocks(spectra, ii, jj, [0], "periodic"):
        # a true shift has |block| = L^2 exactly; three transforms put the
        # computed value within L * sqrt(L) * eps(L) of it (0.015 at L = 32385),
        # far inside L / 2, and a false candidate only costs the check on the
        # phase array
        for p, tau in zip(*np.nonzero(np.abs(block) >= n * (n - 0.5))):
            i, j = int(ii[lo + p]), int(jj[lo + p])
            diff = s.phases[j] - np.roll(s.phases[i], -tau)
            diff -= diff[0]
            if d is None:  # fold each angle into [-pi, pi)
                same = np.all(np.abs((diff + math.pi) % TWO_PI - math.pi) <= FLOAT_PHASE_TOL)
            else:
                same = not np.any(diff % d)
            if same:
                return DistinctReport(distinct=False, witness=(i, j, int(tau)))
    return DistinctReport(distinct=True, witness=None)


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
    s: SequenceSet, params: LazParams, distinct: DistinctReport | None = None
) -> LazCertificate:
    """Exhaustively measure theta over the claimed zone with `theta_max`
    (the pairs i <= j, and its canonical witness) and pass iff the measured
    theta is at most the claimed theta plus eps(L), the stated round-off
    bound of one computed |AF| value.

    `distinct` is the set's `cyclic_distinct` report when the caller already
    has it; otherwise it is computed here.
    """
    if s.size != params.set_size or s.length != params.length:
        raise PreconditionError("set shape does not match the claimed parameters")
    report = theta_max(s, params.zone, params.kind)
    passed = report.theta_max <= params.theta + eps(s.length)
    try:
        bound = optimality_factor(
            params.theta, params.set_size, params.length,
            params.zone.z_x, params.zone.z_y, params.kind,
        )
    except PreconditionError:
        bound = None  # zone too small for the bound to be informative
    if distinct is None:
        distinct = cyclic_distinct(s)
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
