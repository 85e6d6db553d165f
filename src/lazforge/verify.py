"""End-to-end certification: zone compliance, cyclic distinctness, empirical
maximal zones, and reference-table reproduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import (
    AFWitness,
    MAG_TOL_SCALE,
    ThetaReport,
    _af_blocks,
    theta_max,
)
from .bounds import BoundReport, optimality_factor
from .construct import LazParams
from .errors import PreconditionError
from .seqcore import Phase, SequenceSet, equal_up_to_shift
from .tables import TABLES, ReferenceTable, TableRow

TABLE_RHO_TOL = 1e-5


@dataclass(frozen=True)
class DistinctReport:
    distinct: bool
    witness: tuple[int, int, int, Phase] | None  # (i, j, tau, phase)


def cyclic_distinct(s: SequenceSet, mode: str = "exact") -> DistinctReport:
    """No member is a cyclic shift of another (times a unimodular scalar in
    phase mode).  Returns the first offending (i, j, tau, phase) otherwise."""
    if mode not in ("exact", "phase"):
        raise PreconditionError(f"mode must be 'exact' or 'phase', got {mode!r}")
    allow_phase = mode == "phase"
    for i in range(s.size):
        for j in range(i + 1, s.size):
            hit = equal_up_to_shift(s[i], s[j], allow_phase=allow_phase)
            if hit is not None:
                tau, c = hit
                return DistinctReport(distinct=False, witness=(i, j, tau, c))
    return DistinctReport(distinct=True, witness=None)


@dataclass(frozen=True)
class LazCertificate:
    claimed: LazParams
    measured_theta: float
    passed: bool
    witness: AFWitness | None
    bound_report: BoundReport | None  # None when the zone makes the bound vacuous
    cyclically_distinct: bool
    theta_report: ThetaReport

    def to_dict(self) -> dict:
        w = self.witness
        b = self.bound_report
        return {
            "claimed": self.claimed.to_dict(),
            "measured_theta": self.measured_theta,
            "pass": self.passed,
            "witness": None
            if w is None
            else {"i": w.i, "j": w.j, "tau": w.tau, "v": w.v, "magnitude": w.magnitude},
            "bound": None
            if b is None
            else {
                "bound_value": b.bound_value,
                "theta": b.theta,
                "rho": b.rho,
                "regime": b.regime,
                "gamma_limit": b.gamma_limit,
            },
            "cyclically_distinct": self.cyclically_distinct,
        }


def certify_laz(
    s: SequenceSet, params: LazParams, distinct: DistinctReport | None = None
) -> LazCertificate:
    """Exhaustively measure theta over the claimed zone and compare against
    the claim (tolerance 1e-6 times the length).

    `distinct` is the set's phase-mode `cyclic_distinct` report when the
    caller already has it; otherwise it is computed here.
    """
    if s.size != params.set_size or s.length != params.length:
        raise PreconditionError("set shape does not match the claimed parameters")
    params.zone.check_fits(s.length)
    report = theta_max(s, params.zone, params.kind)
    tol = MAG_TOL_SCALE * s.length
    passed = report.theta_max <= params.theta + tol
    try:
        bound = optimality_factor(
            params.theta, params.set_size, params.length,
            params.zone.z_x, params.zone.z_y, params.kind,
        )
    except PreconditionError:
        bound = None  # zone too small for the bound to be informative
    if distinct is None:
        distinct = cyclic_distinct(s, mode="phase")
    return LazCertificate(
        claimed=params,
        measured_theta=report.theta_max,
        passed=passed,
        witness=report.witness,
        bound_report=bound,
        cyclically_distinct=distinct.distinct,
        theta_report=report,
    )


def _magnitude_grid(s: SequenceSet, kind: str) -> np.ndarray:
    """Max |AF| over all pairs, the origin of auto surfaces excluded,
    indexed [|tau|][|v|].

    Entry (x, y) is the max over tau in {x, -x} and v in {y, -y}; for the
    periodic kind negative delays wrap modulo the length.  Only pairs i <= j
    are scanned: |AF_ab(-tau, -v)| = |AF_ba(tau, v)|, and the fold covers
    both signs.  The running max is over [tau, v] and is folded once at the
    end, since the max over pairs commutes with the fold.
    """
    n = s.length
    ii, jj = np.triu_indices(s.size)
    taus = range(n) if kind == "periodic" else range(-n + 1, n)
    rows = np.zeros((len(taus), n))
    for lo, r, block in _af_blocks(s.matrix, ii, jj, taus, kind):
        mags = np.abs(block)
        if taus[r] == 0:
            p = slice(lo, lo + len(mags))
            mags[ii[p] == jj[p], 0] = 0.0  # exclude the auto origin
        np.maximum(rows[r], mags.max(axis=0), out=rows[r])
    # fold tau and -tau onto |tau|, v and -v onto |v|
    if kind == "periodic":
        by_abs_tau = np.maximum(rows, np.roll(rows[::-1], 1, axis=0))
    else:
        by_abs_tau = np.maximum(rows[n - 1 :], rows[n - 1 :: -1])
    return np.maximum(by_abs_tau, np.roll(by_abs_tau[:, ::-1], 1, axis=1))


def empirical_zone(
    s: SequenceSet, theta_budget: float, kind: str
) -> list[tuple[int, int]]:
    """Pareto-maximal open rectangles (-Z_x, Z_x) x (-Z_y, Z_y) whose interior
    (minus the origin for auto surfaces) stays within the budget.

    Scans the full delay-Doppler grid of every unordered pair, so runtime is
    O(M^2 L^2 log L).
    """
    if not (math.isfinite(theta_budget) and theta_budget >= 0):
        raise PreconditionError(f"budget must be finite and nonnegative, got {theta_budget}")
    grid = _magnitude_grid(s, kind)
    prefix = np.maximum.accumulate(np.maximum.accumulate(grid, axis=0), axis=1)
    tol = MAG_TOL_SCALE * s.length
    ok = prefix <= theta_budget + tol

    n = s.length
    rects: list[tuple[int, int]] = []
    best_zy = 0
    for z_x in range(n, 0, -1):
        row = ok[z_x - 1]
        if not row[0]:
            continue
        z_y = int(np.argmin(row)) if not row.all() else n
        if z_y > best_zy:
            rects.append((z_x, z_y))
            best_zy = z_y
    rects.reverse()  # ascending z_x, descending z_y
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
