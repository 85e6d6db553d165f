import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lazforge import (
    PreconditionError,
    SequenceSet,
    Zone,
    af_grid,
    aperiodic_af,
    build_laz_set,
    legendre_shifts,
    make_hmatrix,
    msequence_shifts,
    periodic_af,
    predicted_params,
    quad_lpnf,
    structural_af,
    theta_max,
)
from lazforge.ambiguity import eps

from helpers import ACCEPTANCE_CONFIGS, DIRECT, doppler_row

# the acceptance sets, and Björck companions (float phases) up to 23x529
BOUND_SETS = ACCEPTANCE_CONFIGS + [(7, 7, "bjorck"), (23, 23, "bjorck")]


def random_unimodular(length, seed):
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.random(length))


def naive_periodic(a, b, tau, v):
    n = len(a)
    return sum(
        a[t] * np.conj(b[(t + tau) % n]) * cmath.exp(2j * cmath.pi * v * t / n)
        for t in range(n)
    )


def naive_aperiodic(a, b, tau, v):
    n = len(a)
    if abs(tau) >= n:
        return 0j
    ts = range(0, n - tau) if tau >= 0 else range(-tau, n)
    return sum(
        a[t] * np.conj(b[t + tau]) * cmath.exp(2j * cmath.pi * v * t / n)
        for t in ts
    )


class TestPointEvaluation:
    def test_main_lobe(self):
        a = random_unimodular(13, 0)
        assert periodic_af(a, a, 0, 0) == pytest.approx(13)
        assert aperiodic_af(a, a, 0, 0) == pytest.approx(13)

    def test_all_ones_geometric_sum(self):
        a = np.ones(8, complex)
        for v in range(1, 8):
            assert abs(periodic_af(a, a, 3, v)) == pytest.approx(0, abs=1e-12)
        assert periodic_af(a, a, 3, 8) == pytest.approx(8)

    def test_aperiodic_boundary_single_term(self):
        a, b = random_unimodular(9, 1), random_unimodular(9, 2)
        want = a[0] * np.conj(b[8])
        assert aperiodic_af(a, b, 8, 0) == pytest.approx(want)

    def test_aperiodic_zero_outside_support(self):
        a = random_unimodular(9, 3)
        assert aperiodic_af(a, a, 9, 0) == 0j
        assert aperiodic_af(a, a, -9, 4) == 0j

    def test_matches_naive_sums(self):
        a, b = random_unimodular(11, 4), random_unimodular(11, 5)
        for tau in (-10, -3, 0, 2, 7):
            for v in (-5, 0, 1, 9):
                assert periodic_af(a, b, tau, v) == pytest.approx(
                    naive_periodic(a, b, tau, v)
                )
                assert aperiodic_af(a, b, tau, v) == pytest.approx(
                    naive_aperiodic(a, b, tau, v)
                )

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            periodic_af(random_unimodular(4, 0), random_unimodular(5, 0), 0, 0)

    @given(st.integers(2, 16), st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_magnitude_bounded_by_length(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = np.exp(2j * np.pi * rng.random((2, n)))
        tau = int(rng.integers(-n, n + 1))
        v = int(rng.integers(-2 * n, 2 * n + 1))
        assert abs(periodic_af(a, b, tau, v)) <= n + 1e-9
        assert abs(aperiodic_af(a, b, tau, v)) <= n + 1e-9

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_conjugate_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = np.exp(2j * np.pi * rng.random((2, n)))
        tau = int(rng.integers(-n + 1, n))
        v = int(rng.integers(-n, n))
        lhs = abs(periodic_af(a, b, tau, v))
        rhs = abs(periodic_af(b, a, -tau, -v))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestAfRow:
    """Doppler rows and full surfaces of af_grid against the direct sums."""

    @pytest.mark.parametrize("length", [7, 21, 49, 77])
    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_matches_pointwise(self, length, kind):
        a = random_unimodular(length, length)
        b = random_unimodular(length, length + 1)
        direct = DIRECT[kind]
        for tau in (0, 1, length // 2, -1):
            row = doppler_row(a, b, tau, kind)
            for v in (0, 1, length - 1, length // 3):
                assert row[v] == pytest.approx(direct(a, b, tau, v), abs=1e-9 * length)

    def test_tau0_periodic_row_is_transform_of_product(self):
        a, b = random_unimodular(12, 7), random_unimodular(12, 8)
        row = doppler_row(a, b, 0, "periodic")
        want = 12 * np.fft.ifft(a * np.conj(b))
        assert np.allclose(row, want, atol=1e-12)

    def test_all_ones_row(self):
        a = np.ones(6, complex)
        row = doppler_row(a, a, 0, "periodic")
        assert np.allclose(row, [6, 0, 0, 0, 0, 0], atol=1e-12)

    def test_grid_matches_definition(self, set_7_7):
        zone = Zone(3, 4)
        a, b = set_7_7.matrix[0], set_7_7.matrix[2]
        g = af_grid(a, b, zone, "aperiodic")
        assert g.shape == (len(zone.delays()), len(zone.dopplers()))
        for r, tau in enumerate(zone.delays()):
            for c, v in enumerate(zone.dopplers()):
                want = aperiodic_af(a, b, tau, v)
                assert g[r, c] == pytest.approx(want, abs=1e-9 * 49)

    @pytest.mark.parametrize("length", [7, 12])
    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_full_grid_matches_direct(self, length, kind):
        # every (tau, v) with |tau|, |v| < L, the wrapped-term zeroing at
        # tau = +-(L - 1) included
        a = random_unimodular(length, 3 * length)
        b = random_unimodular(length, 3 * length + 1)
        zone = Zone(length, length)
        g = af_grid(a, b, zone, kind)
        want = [[DIRECT[kind](a, b, tau, v) for v in zone.dopplers()] for tau in zone.delays()]
        assert np.allclose(g, want, rtol=0, atol=1e-12 * length)


class TestThetaMax:
    def test_all_ones_singleton(self):
        s = SequenceSet([[0] * 5], 1)
        rep = theta_max(s, Zone(1, 2), "periodic")
        assert rep.theta_a == pytest.approx(0, abs=1e-12)
        assert rep.theta_c == 0.0
        assert rep.theta_max == pytest.approx(0, abs=1e-12)

    def test_auto_doppler_cut_is_flat_zero(self, set_7_7):
        # on the tau = 0 cut every nonzero Doppler vanishes when 7 does not
        # divide v
        for a in set_7_7.matrix:
            for v in range(-48, 49):
                if v % 7:
                    assert abs(periodic_af(a, a, 0, v)) < 1e-9

    def test_zone_max_is_k(self, set_7_7):
        rep = theta_max(s=set_7_7, zone=Zone(7, 7), kind="periodic")
        assert rep.theta_max == pytest.approx(7, abs=1e-6)
        w = rep.witness
        got = periodic_af(set_7_7.matrix[w.i], set_7_7.matrix[w.j], w.tau, w.v)
        assert abs(got) == pytest.approx(w.magnitude, abs=1e-12)

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_block_size_does_not_change_result(self, set_7_11, kind, monkeypatch):
        # one pair per block, and blocks that split the 28 pairs unevenly
        whole = theta_max(set_7_11, Zone(7, 5), kind)
        assert whole.witness is not None
        for entries_per_block in (1, 77 * 5):
            monkeypatch.setattr("lazforge.ambiguity.SCAN_BLOCK_ENTRIES", entries_per_block)
            got = theta_max(set_7_11, Zone(7, 5), kind)
            assert got.witness == whole.witness
            assert got == whole

    @given(
        # every companion family at an order where it passes its constraints
        n_h=st.sampled_from([(5, "dft"), (7, "dft"), (7, "legendre"), (7, "mseq"),
                             (7, "bjorck")]),
        a2=st.integers(1, 6),
        a1=st.integers(0, 6),
        k_extra=st.integers(0, 6),
        z_x=st.integers(1, 4),
        z_y=st.integers(1, 4),
        kind=st.sampled_from(["periodic", "aperiodic"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_pointwise_scan(self, n_h, a2, a1, k_extra, z_x, z_y, kind):
        # the batched kernel over the pairs i <= j against |AF| summed directly
        # at every zone point of every ordered pair
        n, h = n_h
        assume(math.gcd(a2, n) == 1 and a1 < n)
        s = build_laz_set(quad_lpnf(n, a2, a1, n + k_extra), make_hmatrix(h, n))
        zone = Zone(z_x, z_y)
        rep = theta_max(s, zone, kind)
        direct, mat = DIRECT[kind], s.matrix
        theta = {True: 0.0, False: 0.0}  # auto, cross
        points = []  # (|AF|, (i, j, tau, v)), a pair i > j folded onto (j, i, -tau, -v)
        for i in range(n):
            for j in range(n):
                for tau in zone.delays():
                    for v in zone.dopplers():
                        if i == j and tau == 0 and v == 0:
                            continue
                        mag = abs(direct(mat[i], mat[j], tau, v))
                        theta[i == j] = max(theta[i == j], mag)
                        points.append((mag, (i, j, tau, v) if i <= j else (j, i, -tau, -v)))
        assert rep.theta_a == pytest.approx(theta[True], abs=1e-9)
        assert rep.theta_c == pytest.approx(theta[False], abs=1e-9)
        band = 2 * eps(s.length)  # theta_max's witness band
        top = max(theta.values())
        w = rep.witness
        assert (w.i, w.j, w.tau, w.v) == min(key for mag, key in points if mag >= top - band)
        assert rep.theta_max - band <= w.magnitude <= rep.theta_max
        assert abs(direct(mat[w.i], mat[w.j], w.tau, w.v)) == pytest.approx(w.magnitude, abs=1e-9)

    def test_zone_must_fit(self, set_7_7):
        with pytest.raises(PreconditionError):
            theta_max(set_7_7, Zone(50, 5), "periodic")


class TestStructuralOracle:
    def test_matches_direct_on_7_7_zone(self, set_7_7):
        f = quad_lpnf(7, 1, 0, 7)
        h = legendre_shifts(7)
        mat = set_7_7.matrix
        for i, j in ((0, 0), (0, 1), (3, 5)):
            for tau in range(-6, 7):
                for v in range(-6, 7):
                    for kind, direct in DIRECT.items():
                        want = direct(mat[i], mat[j], tau, v)
                        got = structural_af(f, h, i, j, tau, v, kind)
                        assert got == pytest.approx(want, abs=1e-9 * 49), (
                            i, j, tau, v, kind,
                        )

    def test_matches_direct_on_7_11_sample(self, set_7_11):
        f = quad_lpnf(7, 1, 0, 11)
        h = msequence_shifts(3)
        rng = np.random.default_rng(42)
        for _ in range(120):
            i, j = (int(x) for x in rng.integers(0, 7, 2))
            tau = int(rng.integers(-76, 77))
            v = int(rng.integers(-80, 81))
            kind = "periodic" if rng.random() < 0.5 else "aperiodic"
            want = DIRECT[kind](set_7_11.matrix[i], set_7_11.matrix[j], tau, v)
            got = structural_af(f, h, i, j, tau, v, kind)
            assert got == pytest.approx(want, abs=1e-9 * 77), (i, j, tau, v, kind)

    def test_main_lobe(self):
        f = quad_lpnf(7, 1, 0, 7)
        h = legendre_shifts(7)
        assert structural_af(f, h, 2, 2, 0, 0, "periodic") == pytest.approx(49)

    def test_aligned_doppler_reduces_to_modulated_row_sum(self, set_7_7):
        # tau2 = 0 and K | v: the AF collapses to K times the companion
        # matrix's modulated inner product
        f = quad_lpnf(7, 1, 0, 7)
        h = legendre_shifts(7)
        hm = h.matrix
        for v1 in range(7):
            want = 7 * np.sum(
                hm[1] * np.conj(hm[4]) * np.exp(2j * np.pi * np.arange(7) * v1 / 7)
            )
            got = structural_af(f, h, 1, 4, 0, 7 * v1, "periodic")
            assert got == pytest.approx(want, abs=1e-9 * 49)

    def test_aperiodic_triangle_bound(self, set_7_7):
        mat = set_7_7.matrix
        for i, j in ((0, 0), (2, 6)):
            for tau in range(-6, 7):
                for v in range(-6, 7):
                    ap = abs(aperiodic_af(mat[i], mat[j], tau, v))
                    per = abs(periodic_af(mat[i], mat[j], tau, v))
                    assert ap <= per + abs(tau) + 1e-9


class TestRoundOffBound:
    """Observed round-off sits within a quarter of eps(L), so a less accurate
    FFT, or a constant cut below what the round-off needs, shows here before
    it reaches a verdict."""

    @pytest.fixture(scope="class", params=BOUND_SETS, ids=lambda c: f"{c[2]} {c[0]}x{c[0] * c[1]}")
    def interleaved(self, request):
        n, k, h_kind = request.param
        f, h = quad_lpnf(n, 1, 0, k), make_hmatrix(h_kind, n)
        return f, h, build_laz_set(f, h)

    def test_periodic_maxima_are_k(self, interleaved):
        # every nonzero point of the periodic zone has magnitude exactly K
        f, _, s = interleaved
        k = f.codomain_size
        rep = theta_max(s, predicted_params(f.domain_size, k, "periodic").zone, "periodic")
        assert abs(rep.theta_a - k) <= eps(s.length) / 4
        assert abs(rep.theta_c - k) <= eps(s.length) / 4

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_structural_matches_fft_rows(self, interleaved, kind):
        f, h, s = interleaved
        n = f.domain_size
        zone = predicted_params(n, f.codomain_size, kind).zone
        for i, j in ((0, 0), (0, n - 1), (n - 1, 1)):
            grid = af_grid(s.matrix[i], s.matrix[j], zone, kind)
            closed = [[structural_af(f, h, i, j, tau, v, kind) for v in zone.dopplers()]
                      for tau in zone.delays()]
            assert np.abs(grid - np.array(closed)).max() <= eps(s.length) / 4, (i, j)
