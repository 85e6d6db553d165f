import cmath
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lazforge.ambiguity
import lazforge.verify
from lazforge import (
    DistinctReport,
    LazParams,
    PreconditionError,
    SequenceSet,
    Zone,
    ZFunc,
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
    supported_orders,
)
from lazforge.ambiguity import _af_blocks, eps
from lazforge.verify import FLOAT_PHASE_TOL, interleaved_factors

from helpers import CLOSED_FORM_SETS, closed_form_id


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
    entry by entry: exact on the integer numerators of a rational set, cmath
    within FLOAT_PHASE_TOL for a float set.  Each shift is dropped at its
    first mismatching entry."""
    n, d = s.length, s.denominator
    if d is not None:
        rows = s.phases.tolist()

        def same(a, b, tau):
            c = (b[0] - a[tau]) % d
            return all((b[x] - a[(x + tau) % n]) % d == c for x in range(n))
    else:
        rows = [[cmath.exp(1j * float(x)) for x in row] for row in s.phases]

        def same(a, b, tau):
            c = b[0] / a[tau]
            return all(abs(a[(x + tau) % n] * c - b[x]) <= FLOAT_PHASE_TOL for x in range(n))

    for i, j in itertools.combinations(range(s.size), 2):
        for tau in range(n):
            if same(rows[i], rows[j], tau):
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


@st.composite
def interleaved_sets(draw):
    """build_laz_set(f, h) for a companion h of order 3 <= N <= 23, the cyclic
    shifts of one row (Legendre, m-sequence, Björck) or the DFT rows
    w_{N+1}^{nm}, and f constant, repeating a block of period p dividing N,
    or linear, with K >= 4 so that the closed form's round-off bound admits
    the set.  f = 0 over shift rows, and linear f over DFT rows with K = N +
    1, make sets that are not cyclically distinct."""
    family = draw(st.sampled_from(["legendre", "mseq", "bjorck", "dft"]))
    n = draw(st.sampled_from([n for n in supported_orders(family, 23) if n >= 3]))
    k = draw(st.integers(4, 12) | st.just(n + 1))
    if draw(st.booleans()):
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        table = [(a * m + b) % k for m in range(n)]
    else:
        p = draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0]))
        table = draw(st.lists(st.integers(0, k - 1), min_size=p, max_size=p)) * (n // p)
    return build_laz_set(ZFunc(n, k, table), make_hmatrix(family, n))


class TestClosedFormDistinct:
    """cyclic_distinct reads an interleaved set from the closed form, checked
    against the FFT path and the brute-force search; any other set takes the
    FFT path itself."""

    @pytest.mark.parametrize("config", CLOSED_FORM_SETS, ids=closed_form_id)
    def test_matches_fft_path_on_certified_sets(self, config):
        n, k, family, a2, a1 = config
        s = build_laz_set(quad_lpnf(n, a2, a1, k), make_hmatrix(family, n))
        factors = interleaved_factors(s)
        assert factors is not None
        rep = cyclic_distinct(s, factors)
        assert rep == cyclic_distinct(s) == cyclic_distinct(s, None)
        assert rep.distinct
        if (a2, a1) == (1, 0) and s.length < 1000:
            assert brute_force_witness(s) is None

    @pytest.mark.parametrize("p, alpha", [(11, 2), (31, 3)])
    def test_matches_fft_path_on_power_maps(self, p, alpha):
        s = build_laz_set(power_lpnf(p, alpha), make_hmatrix("dft", p - 1))
        factors = interleaved_factors(s)
        assert factors is not None
        rep = cyclic_distinct(s, factors)
        assert rep == cyclic_distinct(s, None) == DistinctReport(True, None)
        assert brute_force_witness(s) is None

    @pytest.mark.parametrize("family, n, k, table, want", [
        ("legendre", 7, 7, [0] * 7, (0, 1, 1)),  # f = 0: s_1 = s_0 shifted by 1
        ("mseq", 15, 5, [0] * 15, (0, 1, 1)),
        ("bjorck", 7, 8, [0] * 7, (0, 1, 1)),  # float phases
        ("dft", 7, 8, list(range(7)), (0, 1, 7)),  # f(m) = m: tau = N
        ("dft", 15, 16, [(3 * m + 2) % 16 for m in range(15)], (0, 1, 165)),  # 3 * 11 = 1 mod 16
    ])
    def test_not_distinct(self, family, n, k, table, want):
        s = build_laz_set(ZFunc(n, k, table), make_hmatrix(family, n))
        rep = cyclic_distinct(s, interleaved_factors(s))
        assert rep == cyclic_distinct(s, None) == DistinctReport(False, want)
        assert brute_force_witness(s) == want

    @pytest.mark.parametrize("entries", [2**16, 4])  # all pairs in one block, one a block
    def test_least_witness_over_residues(self, entries):
        # f = 0 repeats h K times, so s_j is s_i shifted by tau2 where h_j is h_i
        # shifted by tau2: residue 1 finds (0, 2, 1) before residue 2 finds the
        # witness (0, 1, 2); h is no companion, so its factors are given
        row = np.array([0, 1, 5, 11])
        h = SequenceSet([row, np.roll(row, -2), np.roll(row, -1), [0, 0, 0, 1]], 16)
        s = SequenceSet(np.tile(h.phases, 4), 16)
        assert brute_force_witness(s) == cyclic_distinct(s, None).witness == (0, 1, 2)
        with mock.patch.object(lazforge.ambiguity, "SCAN_BLOCK_ENTRIES", entries):
            assert cyclic_distinct(s, (ZFunc(4, 4, [0] * 4), h)).witness == (0, 1, 2)

    @given(interleaved_sets())
    @settings(max_examples=80, deadline=None)
    def test_matches_fft_path_and_brute_force(self, s):
        factors = interleaved_factors(s)
        assert factors is not None
        want = brute_force_witness(s)
        assert cyclic_distinct(s, None).witness == want
        assert cyclic_distinct(s, factors).witness == want
        n, k = s.size, s.length // s.size
        for entries in (1, 2 * max(n, k)):  # one and two pairs a block
            with mock.patch.object(lazforge.ambiguity, "SCAN_BLOCK_ENTRIES", entries):
                assert cyclic_distinct(s, factors).witness == want

    def test_interleaved_set_takes_the_closed_form(self, set_7_11, monkeypatch):
        want = cyclic_distinct(set_7_11, None)
        monkeypatch.setattr("lazforge.verify._spectral_candidates", None)  # a call would fail
        assert cyclic_distinct(set_7_11) == want
        assert certify_laz(set_7_11, predicted_params(7, 11, "periodic")).cyclically_distinct

    def test_other_set_takes_the_fft_path(self, set_7_11, monkeypatch):
        s0 = set_7_11.phases[0]
        shifted = SequenceSet(np.vstack([set_7_11.phases[:1], np.roll(s0, -5), set_7_11.phases[2:]]),
                              set_7_11.denominator)
        assert interleaved_factors(shifted) is None
        monkeypatch.setattr("lazforge.verify._closed_form_witness", None)  # a call would fail
        assert cyclic_distinct(shifted) == DistinctReport(False, (0, 1, 5))

    @pytest.mark.parametrize("table, residues", [
        ([(m * m) % 11 for m in range(7)], [0]),  # the quadratic family: T2 = {0}
        ([1, 4, 9] * 5, [0, 3, 6, 9, 12]),  # period 3 on Z_15
        ([5] * 7, list(range(7))),
    ])
    def test_scans_only_the_residues_of_f_periods(self, table, residues, monkeypatch):
        n = len(table)
        s = build_laz_set(ZFunc(n, 11, table), make_hmatrix("dft", n))
        scanned = []
        blocks = lazforge.verify._closed_form_blocks

        def record(f, h, ii, jj, taus, v, kind):  # the residues, in the order they are scanned
            scanned.extend(dict.fromkeys((np.asarray(taus) % n).tolist()))
            return blocks(f, h, ii, jj, taus, v, kind)

        monkeypatch.setattr("lazforge.verify._closed_form_blocks", record)
        assert cyclic_distinct(s).distinct
        assert scanned == residues

    def test_stops_early_after_a_witness(self, monkeypatch):
        # f = 0 over Legendre shifts, one weight matrix per residue: residue 0
        # scans all 6 blocks of 4 pairs and finds nothing, residue 1 finds
        # (0, 1, 1) in the first block, and the 5 residues after it multiply
        # that block only
        s = build_laz_set(ZFunc(7, 4, [0] * 7), make_hmatrix("legendre", 7))
        starts = []
        blocks = lazforge.verify._closed_form_blocks

        def record(*args):  # the kernel's blocks, with send() passed on
            inner = blocks(*args)
            for item in inner:
                starts.append(item[0])
                if (end := (yield item)) is not None:
                    yield inner.send(end)

        monkeypatch.setattr("lazforge.verify._closed_form_blocks", record)
        monkeypatch.setattr("lazforge.ambiguity.SCAN_BLOCK_ENTRIES", 28)
        assert cyclic_distinct(s).witness == (0, 1, 1)
        assert starts == list(range(0, 21, 4)) + [0] * 6

    def test_given_factors_select_the_path(self, set_7_11, monkeypatch):
        # the caller's interleaved_factors are used as given, never recomputed,
        # and certify_laz factors the set once for both of its checks
        factors = interleaved_factors(set_7_11)
        calls = []
        factor = lazforge.verify.factor_interleaved
        monkeypatch.setattr("lazforge.verify.factor_interleaved",
                            lambda s: calls.append(s) or factor(s))
        assert cyclic_distinct(set_7_11, factors).distinct and not calls
        certify_laz(set_7_11, predicted_params(7, 11, "periodic"))
        assert len(calls) == 1


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
