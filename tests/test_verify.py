import cmath
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lazforge.ambiguity
from lazforge import (
    LazParams,
    PreconditionError,
    SequenceSet,
    Zone,
    build_laz_set,
    certify_laz,
    cyclic_distinct,
    dft_submatrix,
    empirical_zone,
    make_hmatrix,
    direct_af,
    power_lpnf,
    power_map_params,
    predicted_params,
    quad_lpnf,
    reproduce_table,
)
from lazforge.ambiguity import _af_blocks, eps
from lazforge.verify import FLOAT_PHASE_TOL


class TestCertify:
    def test_reference_set_passes(self, set_7_7):
        cert = certify_laz(set_7_7, predicted_params(7, 7, "periodic"))
        assert cert.passed
        assert cert.measured_theta == pytest.approx(7, abs=1e-6)
        assert cert.cyclically_distinct
        assert cert.bound_report.rho == pytest.approx(1.069045, abs=1e-5)

    def test_understated_claim_fails_with_witness(self, set_7_7):
        claim = LazParams(7, 49, Zone(7, 7), 6.0, "periodic")
        cert = certify_laz(set_7_7, claim)
        assert not cert.passed
        assert cert.witness.magnitude == pytest.approx(7, abs=1e-6)

    def test_claim_within_eps_only(self, set_7_7):
        # theta = K passes; a claim below K by more than eps(L) fails, well
        # inside the 1e-6 * L slack that the comparison used to allow
        assert certify_laz(set_7_7, LazParams(7, 49, Zone(7, 7), 7.0, "periodic")).passed
        claim = LazParams(7, 49, Zone(7, 7), 7.0 - 2 * eps(49), "periodic")
        assert not certify_laz(set_7_7, claim).passed

    def test_shape_mismatch_rejected(self, set_7_7):
        with pytest.raises(PreconditionError):
            certify_laz(set_7_7, LazParams(6, 49, Zone(7, 7), 7.0, "periodic"))

    def test_aperiodic_claim(self, set_7_11):
        cert = certify_laz(set_7_11, predicted_params(7, 11, "aperiodic"))
        assert cert.passed
        assert cert.measured_theta <= 17 + 1e-4

    def test_vacuous_bound_recorded_as_none(self, set_7_11):
        # the (7, 11) zone (7, 5) gives an informative bound; shrink the
        # claimed zone until the bound radicand goes negative
        claim = LazParams(7, 77, Zone(2, 2), 11.0, "periodic")
        cert = certify_laz(set_7_11, claim)
        assert cert.bound_report is None
        assert cert.passed


class TestPredictedParameters:
    @pytest.mark.parametrize("n", [5, 7, 9, 15, 35])
    def test_certifies_across_regimes(self, n):
        # one K per regime plus the 2N-1 boundary and one step past it
        h = dft_submatrix(n)
        for k in (n, n + 2, 2 * n - 1, 2 * n + 1):
            s = build_laz_set(quad_lpnf(n, 1, 0, k), h)
            tol = eps(s.length)
            for kind in ("periodic", "aperiodic"):
                cert = certify_laz(s, predicted_params(n, k, kind))
                assert cert.passed, (n, k, kind, cert.measured_theta)
                assert cert.cyclically_distinct, (n, k)
                if kind == "periodic":
                    # the max is attained exactly at some zone point
                    assert cert.measured_theta == pytest.approx(k, abs=tol)

    @pytest.mark.parametrize("p,alpha", [(5, 2), (7, 3), (11, 2), (13, 2)])
    def test_recovered_power_map_construction(self, p, alpha):
        s = build_laz_set(power_lpnf(p, alpha), dft_submatrix(p - 1))
        assert (s.size, s.length) == (p - 1, p * (p - 1))
        for kind in ("periodic", "aperiodic"):
            cert = certify_laz(s, power_map_params(p, kind))
            assert cert.passed, (p, kind, cert.measured_theta)
            assert cert.cyclically_distinct


@st.composite
def shift_sets(draw):
    """Sets of 1 to 6 members, rational or float, in random order.  Each
    member is fresh or a copy of an earlier one, cyclically shifted, times a
    constant or not, and perhaps perturbed at one entry (float perturbations
    stay well inside or well outside FLOAT_PHASE_TOL).  Members repeat a
    block of period p, so that several shifts can match."""
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0]))
    d = draw(st.none() | st.integers(1, 12))
    entry = st.floats(0, 2 * math.pi, exclude_max=True) if d is None else st.integers(0, d - 1)
    nudge = st.sampled_from([1e-12, 1e-6, 0.5]) if d is None else st.integers(1, max(1, d - 1))
    rows = [np.tile(draw(st.lists(entry, min_size=p, max_size=p)), n // p)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            rows.append(np.tile(draw(st.lists(entry, min_size=p, max_size=p)), n // p))
            continue
        row = np.roll(draw(st.sampled_from(rows)), -draw(st.integers(0, n - 1)))
        if draw(st.booleans()):
            row = row + draw(entry)
        if draw(st.booleans()):
            row = row.copy()
            row[draw(st.integers(0, n - 1))] += draw(nudge)
        rows.append(row)
    return SequenceSet(np.stack(draw(st.permutations(rows))), d)


def brute_force_witness(s):
    """The first (i, j, tau), i < j, with s_j == c * (s_i shifted left by tau),
    entry by entry: exact Fractions for a rational set, cmath within
    FLOAT_PHASE_TOL for a float set."""
    if s.denominator is not None:
        rows = [[Fraction(int(k), s.denominator) for k in row] for row in s.phases]

        def same(a, b):
            return len({(y - x) % 1 for x, y in zip(a, b)}) == 1
    else:
        rows = [[cmath.exp(1j * float(x)) for x in row] for row in s.phases]

        def same(a, b):
            return all(abs(x * (b[0] / a[0]) - y) <= FLOAT_PHASE_TOL for x, y in zip(a, b))

    for i, j in itertools.combinations(range(s.size), 2):
        for tau in range(s.length):
            if same(rows[i][tau:] + rows[i][:tau], rows[j]):
                return i, j, tau
    return None


class TestCyclicDistinct:
    def test_constructed_set_distinct_both_modes(self, set_7_7):
        # distinct up to a unit constant; a direct search over every pair and
        # shift confirms the exact (c = 1) case
        assert cyclic_distinct(set_7_7).distinct
        n, rows = set_7_7.length, set_7_7.phases
        assert not any(
            np.array_equal(np.roll(a, -tau), b)
            for i, a in enumerate(rows) for b in rows[i + 1:] for tau in range(n)
        )

    def test_corrupted_set_fails_with_witness(self, set_7_7):
        s0 = set_7_7.phases[0]
        bad = SequenceSet([s0, np.roll(s0, -5)], set_7_7.denominator)
        rep = cyclic_distinct(bad)
        assert not rep.distinct
        assert rep.witness == (0, 1, 5)

    def test_phase_mode_catches_scaled_shift(self, set_7_7):
        s0, d = set_7_7.phases[0], set_7_7.denominator
        bad = SequenceSet([7 * s0, 7 * np.roll(s0, -3) + 2 * d], 7 * d)  # w_7^2 times
        a, b = bad.phases
        assert not any(np.array_equal(np.roll(a, -tau), b) for tau in range(bad.length))
        rep = cyclic_distinct(bad)
        assert not rep.distinct and rep.witness == (0, 1, 3)
        a, b = bad.matrix
        c = b[0] / a[3]  # the constant, from the witness
        assert np.allclose(b, c * np.roll(a, -3), rtol=0, atol=1e-12)

    def test_singleton_vacuously_distinct(self):
        s = SequenceSet([[0, 0]], 1)
        assert cyclic_distinct(s).distinct

    def test_agrees_with_full_af_scan(self, set_7_7):
        # shift-with-phase equivalence of a pair is the same as some |AF|
        # reaching the full length over the whole delay-Doppler grid
        n, mat = set_7_7.length, set_7_7.matrix
        for i, j in ((0, 1), (2, 5)):
            peak = max(
                abs(direct_af(mat[i], mat[j], tau, v, "periodic"))
                for tau in range(n)
                for v in range(n)
            )
            assert peak < n - 1e-6
        assert cyclic_distinct(set_7_7).distinct

    @given(shift_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, s):
        want = brute_force_witness(s)
        assert cyclic_distinct(s).witness == want
        with mock.patch.object(lazforge.ambiguity, "SCAN_BLOCK_ENTRIES", 2 * s.length):  # 2 pairs a block
            assert cyclic_distinct(s).witness == want


def direct_rectangles(s, budgets, kind):
    """empirical_zone's answer for each budget, from a grid of |AF| summed
    directly over every ordered pair, delay and Doppler bin."""
    n = s.length
    t = np.arange(n)
    dft = np.exp(2j * np.pi * np.outer(t, t) / n)  # [t, v]
    taus = np.arange(-n + 1, n)[:, None]
    shifted = t[None, :] + taus  # [tau, t]
    inside = np.ones(shifted.shape, bool) if kind == "periodic" else (shifted >= 0) & (shifted < n)
    grid = np.zeros((2 * n - 1, n))  # [tau + n - 1, v mod n]
    for i in range(s.size):
        for j in range(s.size):
            prod = s.matrix[i][None, :] * np.conj(s.matrix[j][shifted % n]) * inside
            mags = np.abs(prod @ dft)
            if i == j:
                mags[n - 1, 0] = 0.0  # the auto origin is not scanned
            grid = np.maximum(grid, mags)
    # folded[x, y]: max over tau in {x, -x} and v in {y, -y}
    folded = np.maximum(grid[n - 1 :], grid[n - 1 :: -1])
    folded = np.maximum(folded, folded[:, (-t) % n])
    out = []
    for budget in budgets:
        thr = budget + eps(n)
        clean = np.zeros((n + 2, n + 2), bool)  # clean[z_x, z_y]
        for z_x in range(1, n + 1):
            for z_y in range(1, n + 1):
                clean[z_x, z_y] = folded[:z_x, :z_y].max() <= thr
        out.append([(x, y) for x in range(1, n + 1) for y in range(1, n + 1)
                    if clean[x, y] and not clean[x + 1, y] and not clean[x, y + 1]])
    return out


class TestEmpiricalZone:
    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    @pytest.mark.parametrize(
        "shape", ["5x25", "7x49", "7x49 in 3-pair blocks", "random 5x25", "random 4x24"]
    )
    def test_matches_direct_sum_grid(self, monkeypatch, shape, kind, set_7_7):
        if shape.startswith("7x49"):
            s, k = set_7_7, 7
            if shape.endswith("blocks"):  # each delay's 28 pairs span 10 blocks
                monkeypatch.setattr("lazforge.ambiguity.SCAN_BLOCK_ENTRIES", 3 * s.length)
        elif shape == "5x25":
            s, k = build_laz_set(quad_lpnf(5, 2, 1, 5), dft_submatrix(5)), 5
        else:  # no zone structure, so the fronts have many corners
            m, n = map(int, shape.split()[1].split("x"))
            rng = np.random.default_rng(5)
            s, k = SequenceSet(2 * np.pi * rng.random((m, n))), 10
        # budget L never stops early; the even length 24 has tau = L/2 = -L/2
        budgets = [0.0, k / 2, k, k + 1, k + 2, k + 3, 2 * k, float(s.length)]
        want = direct_rectangles(s, budgets, kind)
        assert [empirical_zone(s, b, kind) for b in budgets] == want

    def test_reference_set_contains_guaranteed_zone(self, set_7_7):
        rects = empirical_zone(set_7_7, 7.0, "periodic")
        assert any(zx >= 7 and zy >= 7 for zx, zy in rects)

    def test_all_ones_budget_zero(self):
        ones = SequenceSet([[0] * 6], 1)
        # every tau != 0 row carries the full sum at v = 0, so only the
        # delay-1 column survives
        assert empirical_zone(ones, 0.0, "periodic") == [(1, 6)]

    def test_full_budget_full_square(self, set_7_11):
        assert empirical_zone(set_7_11, 77.0, "periodic") == [(77, 77)]

    def test_rectangles_are_pareto(self, set_7_7):
        rects = empirical_zone(set_7_7, 11.0, "aperiodic")
        xs = [r[0] for r in rects]
        ys = [r[1] for r in rects]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("n,k,h", [(7, 7, "legendre"), (35, 35, "dft")])
    def test_scan_stops_at_first_over_budget_row(self, monkeypatch, n, k, h, kind):
        requested = []

        def recording(mat, ii, jj, taus, *rest):
            requested.extend(taus)
            return _af_blocks(mat, ii, jj, taus, *rest)

        monkeypatch.setattr("lazforge.verify._af_blocks", recording)
        s = build_laz_set(quad_lpnf(n, 1, 0, k), make_hmatrix(h, n))
        rects = empirical_zone(s, predicted_params(n, k, kind).theta, kind)
        # each delay up to the stopping row once, in order, and none past it
        x_stop = rects[-1][0]
        assert x_stop < s.length
        assert requested == [0] + [tau for x in range(1, x_stop + 1) for tau in (-x, x)]

    def test_negative_budget_rejected(self, set_7_7):
        with pytest.raises(PreconditionError):
            empirical_zone(set_7_7, -1.0, "periodic")

    def test_unknown_kind_rejected(self, set_7_7):
        with pytest.raises(PreconditionError):
            empirical_zone(set_7_7, 7.0, "Periodic")


class TestReproduceTable:
    def test_all_tables_pass(self):
        for tid in (1, 2, 4, 5):
            checks = reproduce_table(tid)
            assert checks and all(c.passed for c in checks)

    def test_spot_rows(self):
        t1 = reproduce_table(1)
        assert (t1[0].row.set_size, t1[0].row.length) == (3, 9)
        assert t1[0].computed_rho == pytest.approx(1.154701, abs=1e-5)

        t2 = {c.row.n: c for c in reproduce_table(2)}
        assert t2[41].row.length == 2132
        assert t2[41].computed_rho == pytest.approx(1.190520, abs=1e-5)

        t5 = {c.row.n: c for c in reproduce_table(5)}
        assert t5[169].row.length == 38870
        assert t5[169].computed_rho == pytest.approx(1.451976, abs=1e-5)

    def test_unknown_id(self):
        with pytest.raises(PreconditionError):
            reproduce_table(3)
