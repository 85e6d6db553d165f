"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavyweight constructed sets are shared through a module fixture.
"""

import math
import time

import numpy as np
import pytest

from lazforge import (
    SequenceSet,
    Zone,
    asymptotic_rho,
    build_laz_set,
    certify_laz,
    af_grid,
    cyclic_distinct,
    diff_table,
    direct_af,
    lpnf_zone_for,
    make_hmatrix,
    nonlinearity_measure,
    optimality_factor,
    power_lpnf,
    predicted_params,
    quad_lpnf,
    reproduce_table,
    structural_af,
    supported_orders,
    verify_h_constraints,
)
from lazforge.ambiguity import eps
from lazforge.numth import is_prime, smallest_prime_factor
from lazforge.seqcore import KINDS
from lazforge.tables import REPORTED_SHOWCASE_FACTORS

from helpers import ACCEPTANCE_CONFIGS, doppler_row


@pytest.fixture(scope="module")
def constructed():
    out = {}
    for n, k, h_kind in ACCEPTANCE_CONFIGS:
        f = quad_lpnf(n, 1, 0, k)
        h = make_hmatrix(h_kind, n)
        out[(n, k)] = (f, h, build_laz_set(f, h))
    return out


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    total = 0
    for tid in (1, 2, 4, 5):
        checks = reproduce_table(tid)
        total += len(checks)
        for c in checks:
            assert c.passed, (tid, c.row.n, c.computed_rho, c.reference_rho)
    elapsed = time.perf_counter() - start
    spot = {
        1: reproduce_table(1)[0].computed_rho,
        2: {c.row.n: c.computed_rho for c in reproduce_table(2)}[7],
        4: {c.row.n: c.computed_rho for c in reproduce_table(4)}[9],
        5: {c.row.n: c.computed_rho for c in reproduce_table(5)}[25],
    }
    assert spot[1] == pytest.approx(1.154701, abs=1e-5)
    assert spot[2] == pytest.approx(1.498298, abs=1e-5)
    assert spot[4] == pytest.approx(1.496217, abs=1e-5)
    assert spot[5] == pytest.approx(2.016593, abs=1e-5)
    report(
        1,
        elapsed < 1.0,
        f"{total} table rows reproduced at 1e-5 in {elapsed:.3f}s",
    )


def test_criterion_2_periodic_certification(constructed):
    start = time.perf_counter()
    for (n, k), (f, h, s) in constructed.items():
        params = predicted_params(n, k, "periodic")
        cert = certify_laz(s, params)
        tol = eps(s.length)
        assert cert.passed, (n, k, cert.measured_theta)
        assert cert.measured_theta <= k + tol, (n, k)
        assert cert.measured_theta >= k - tol, (n, k)  # hit exactly at a witness
    elapsed = time.perf_counter() - start
    report(
        2,
        elapsed < 120.0,
        f"periodic theta equals K on all {len(constructed)} sets in {elapsed:.1f}s",
    )


def test_criterion_3_aperiodic_certification(constructed):
    start = time.perf_counter()
    for (n, k), (f, h, s) in constructed.items():
        params = predicted_params(n, k, "aperiodic")
        cert = certify_laz(s, params)
        p = smallest_prime_factor(n)
        assert cert.passed, (n, k, cert.measured_theta)
        assert cert.measured_theta <= k + p - 1 + eps(s.length)
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 120.0,
        f"aperiodic theta within K+p-1 on all {len(constructed)} sets in {elapsed:.1f}s",
    )


def test_criterion_4_lpnf_property_suite():
    checked = 0
    for n in (9, 15, 21, 25, 35):
        for k in (n, n + 2, 2 * n - 1):  # one K per regime
            zone = lpnf_zone_for(n, k)
            for a2 in (x for x in range(1, n) if math.gcd(x, n) == 1):
                for a1 in (0, 1):
                    f = quad_lpnf(n, a2, a1, k)
                    assert nonlinearity_measure(f, zone) == 1, (n, k, a2, a1)
                    checked += 1
    example = quad_lpnf(5, 1, 0, 8)
    assert diff_table(example, 1) == (1, 3, 0, 5, 7)
    assert diff_table(example, 2) == (4, 3, 5, 4, 0)
    assert diff_table(example, 3) == (4, 0, 4, 5, 3)
    assert diff_table(example, 4) == (1, 7, 5, 0, 3)
    primitive = {5: 2, 7: 3, 11: 2, 13: 2}
    for p, alpha in primitive.items():
        f = power_lpnf(p, alpha)
        assert nonlinearity_measure(f, Zone(p - 1, p)) == 1, p
    report(
        4,
        True,
        f"{checked} quadratic instances have measure 1; difference tables and "
        "power maps verified",
    )


def test_criterion_5_oracle_equivalence(constructed):
    worst = 0.0  # structural against the kernel, in units of eps(L)
    for n, k in ((7, 7), (7, 11)):
        f, h, s = constructed[(n, k)]
        zone = predicted_params(n, k, "periodic").zone
        mat = s.matrix
        for i in range(s.size):
            for j in range(s.size):
                for kind in KINDS:
                    got = structural_af(f, h, i, j, zone, kind)
                    err = np.abs(got - af_grid(mat[i], mat[j], zone, kind)).max() / eps(s.length)
                    worst = max(worst, err)
                    assert err <= 0.25, (n, k, i, j, kind)
    rng = np.random.default_rng(2024)
    worst_fft = 0.0
    for length in (7, 21, 49, 77):
        a, b = np.exp(2j * np.pi * rng.random((2, length)))
        taus = (-2, 0, 1, length // 2)
        for kind in KINDS:
            rows = np.array([doppler_row(a, b, tau, kind) for tau in taus])
            direct = np.array([[direct_af(a, b, tau, v, kind) for v in range(length)] for tau in taus])
            err = np.abs(rows - direct).max() / length
            worst_fft = max(worst_fft, err)
            assert err <= 1e-9, (length, kind)
    report(
        5,
        True,
        f"structural closed form agrees with the FFT kernel on every pair (worst "
        f"{worst:.3f} eps(L)), the kernel with direct sums (worst {worst_fft:.2e} relative)",
    )


def test_criterion_6_cyclic_distinctness(constructed):
    for (n, k), (f, h, s) in constructed.items():
        assert cyclic_distinct(s).distinct, (n, k)
    base = constructed[(7, 7)][2]
    rows = base.phases
    corrupted = SequenceSet([rows[0], np.roll(rows[0], -5), rows[2]], base.denominator)
    rep = cyclic_distinct(corrupted)
    assert not rep.distinct
    assert rep.witness == (0, 1, 5)
    report(
        6,
        True,
        f"all {len(constructed)} constructed sets cyclically distinct; corrupted "
        "set refused with witness shift 5",
    )


def test_criterion_7_companion_constraints():
    start = time.perf_counter()
    count = 0
    for kind in ("dft", "legendre", "mseq", "bjorck"):
        for order in supported_orders(kind, 127):
            rep = verify_h_constraints(make_hmatrix(kind, order))
            assert rep.passed, (kind, order)
            assert rep.max_offdiag_inner <= 1 + 1e-9, (kind, order)
            count += 1
    elapsed = time.perf_counter() - start
    report(7, True, f"{count} companion matrices verified in {elapsed:.1f}s")


def test_criterion_8_bound_sanity(constructed):
    bounded = 0
    for (n, k), (f, h, s) in constructed.items():
        for kind in ("periodic", "aperiodic"):
            params = predicted_params(n, k, kind)
            cert = certify_laz(s, params)
            if cert.bound_report is None:
                continue  # zone too small for an informative bound
            assert cert.measured_theta >= cert.bound_report.bound_value - 1e-9, (
                n, k, kind,
            )
            bounded += 1
    primes = [p for p in range(3, 998) if is_prime(p)]
    rhos = [asymptotic_rho(p, p, "periodic") for p in primes]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))
    assert all(r > 1 for r in rhos)
    report(
        8,
        True,
        f"{bounded} certificates respect the lower bound; closed-form factor "
        f"decreases monotonically to {rhos[-1]:.6f} over primes up to 997",
    )


def test_criterion_9_showcase_discrepancies():
    lines = []
    for (n, k), reported in REPORTED_SHOWCASE_FACTORS.items():
        for kind in ("periodic", "aperiodic"):
            params = predicted_params(n, k, kind)
            rep = optimality_factor(
                params.theta, params.set_size, params.length,
                params.zone.z_x, params.zone.z_y, kind,
            )
            closed = asymptotic_rho(n, k, kind)
            # our computed value must match the closed-form expression;
            # the reported value is displayed but never asserted
            assert rep.rho == pytest.approx(closed, rel=1e-9), (n, k, kind)
            lines.append(
                f"(N={n},K={k},{kind}) computed {rep.rho:.6f} "
                f"vs reported {reported[kind]:.6f}"
            )
    report(9, True, "; ".join(lines))


def test_criterion_10_asymptotics_are_property_based():
    # full-scale limits are out of reach at desk scale; the monotone-trend
    # property of criterion 8 stands in for them
    tail = [asymptotic_rho(p, p, "periodic") for p in (983, 991, 997)]
    assert tail == sorted(tail, reverse=True)
    assert tail[-1] - 1 < 1.1e-3
    report(
        10,
        True,
        f"limit behaviour checked as a trend property only "
        f"(rho at p=997 is {tail[-1]:.6f})",
    )
