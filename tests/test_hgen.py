import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazforge import (
    HReport,
    PreconditionError,
    SequenceSet,
    bjorck_shifts,
    dft_submatrix,
    legendre_shifts,
    make_hmatrix,
    msequence_shifts,
    supported_orders,
    verify_h_constraints,
)
from lazforge.ambiguity import _af_blocks, _first_at_least, eps
from lazforge.hgen import _pairs_to_scan

from helpers import entries, family_orders


def plusminus(h):
    return [1 if x == 0 else -1 for x in entries(h, 0)]


def is_row_shifts(h):
    """Row i is row 0 shifted left by i."""
    return all(np.array_equal(h.phases[i], np.roll(h.phases[0], -i)) for i in range(h.size))


@st.composite
def square_sets(draw):
    """N x N sets, N in 2..12: rational rows over denominators up to 12, or
    float angles.  Or rows one step apart, which the verifier scans as the
    pairs (0, d): row 0 drawn, and row i + 1 row i rotated left by s in
    {0, 1} plus a drawn step row (0 for float angles); and those with one
    entry of a row k >= 2 redrawn, where the reduction must not apply."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        dens = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        d = math.lcm(*dens)
        entry = st.integers(0, d - 1)
        rows = [np.multiply(draw(st.lists(st.integers(0, den - 1), min_size=n, max_size=n)),
                            d // den) for den in dens]
    else:
        d, entry = None, st.floats(0, 2 * math.pi, exclude_max=True)
        rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        s = draw(st.integers(0, 1))
        step = draw(st.lists(entry, min_size=n, max_size=n)) if d else np.zeros(n)
        rows = [np.asarray(rows[0])]
        for _ in range(n - 1):
            rows.append(np.roll(rows[-1], -s) + step)
        if n >= 3 and draw(st.booleans()):
            k, t = draw(st.integers(2, n - 1)), draw(st.integers(0, n - 1))
            rows[k] = rows[k].copy()
            rows[k][t] = draw(entry)
    return SequenceSet(rows, d)


def all_pairs_report(h):
    """The verifier's report from every pair i < j, with no step reduction."""
    n = h.size
    ii, jj = np.triu_indices(n, 1)
    mags = np.vstack([np.abs(b) for _, _, b in _af_blocks(h.matrix, ii, jj, [0], "periodic")])
    inner, modulated = mags[:, 0], mags.max(axis=1)
    max_inner, max_mod, band = inner.max(), modulated.max(), 2 * eps(n)
    p = _first_at_least(inner, max_inner - band)
    q = _first_at_least(modulated, max_mod - band)
    v = _first_at_least(mags[q], max_mod - band)
    passed = max_inner <= 1 + eps(n) and max_mod < n - eps(n)
    return HReport(max_inner, max_mod, passed, (ii[p], jj[p]), (ii[q], jj[q], v))


class TestDftSubmatrix:
    def test_order_2_rows(self):
        h = dft_submatrix(2)
        assert entries(h, 0) == (Fraction(0, 3), Fraction(0, 3))
        assert entries(h, 1) == (Fraction(0, 3), Fraction(1, 3))
        # cross inner product has magnitude exactly 1: |1 + w_3^{-1}|
        inner = np.vdot(h.matrix[1], h.matrix[0])
        assert abs(abs(inner) - 1) < 1e-12

    def test_exact_phase_denominators(self):
        h = dft_submatrix(9)
        assert all(10 % x.denominator == 0 for i in range(h.size) for x in entries(h, i))

    @pytest.mark.parametrize("n", [2, 5, 9, 35])
    def test_constraints_pass(self, n):
        rep = verify_h_constraints(dft_submatrix(n))
        assert rep.passed
        assert abs(rep.max_offdiag_inner - 1) < 1e-9


class TestLegendreShifts:
    def test_row0_for_7(self):
        assert plusminus(legendre_shifts(7)) == [1, 1, 1, -1, 1, -1, -1]

    def test_rows_are_declared_shifts(self):
        h = legendre_shifts(7)
        assert h.size == 7 and is_row_shifts(h)

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            legendre_shifts(9)

    def test_constraints_pass_for_3_mod_4(self):
        for p in (3, 7, 11, 19):
            rep = verify_h_constraints(legendre_shifts(p))
            assert rep.passed
            assert rep.max_offdiag_inner <= 1 + 1e-9

    def test_1_mod_4_fails_constraints(self):
        # off-peak autocorrelation reaches -1 + 2*chi(tau) = -3 for p = 5
        rep = verify_h_constraints(legendre_shifts(5))
        assert not rep.passed
        assert abs(rep.max_offdiag_inner - 3) < 1e-9


class TestMSequenceShifts:
    def test_reference_row(self):
        assert plusminus(msequence_shifts(3)) == [-1, -1, -1, 1, -1, 1, 1]

    def test_degenerate_degree(self):
        with pytest.raises(PreconditionError):
            msequence_shifts(1)

    def test_constraints_pass(self):
        rep = verify_h_constraints(msequence_shifts(3))
        assert rep.passed
        # off-peak periodic autocorrelation of an m-sequence is -1
        assert abs(rep.max_offdiag_inner - 1) < 1e-12

    def test_rows_are_declared_shifts(self):
        h = msequence_shifts(4)
        assert h.size == 15 and is_row_shifts(h)

    def test_poly_override(self):
        h = msequence_shifts(3, poly_mask=0b110)  # x^3 + x^2 + x: even, invalid
        # an even mask cannot be primitive, so the LFSR degenerates; the
        # verifier is what catches bad overrides
        assert not verify_h_constraints(h).passed


class TestBjorckShifts:
    def test_1_mod_4_entries(self):
        h = bjorck_shifts(5)
        theta = math.acos(1.0 / (1.0 + math.sqrt(5)))
        chi = {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}
        want = np.exp(1j * theta * np.array([chi[t] for t in range(5)]))
        assert np.allclose(h.matrix[0], want, atol=1e-12)

    def test_3_mod_4_entries(self):
        h = bjorck_shifts(7)
        theta = math.acos((1.0 - 7.0) / (1.0 + 7.0))
        nonresidues = {3, 5, 6}
        want = np.exp(
            1j * theta * np.array([1.0 if t in nonresidues else 0.0 for t in range(7)])
        )
        assert np.allclose(h.matrix[0], want, atol=1e-12)

    def test_zero_autocorrelation_rows(self):
        for p in (7, 11, 13):
            rep = verify_h_constraints(bjorck_shifts(p))
            assert rep.passed
            assert rep.max_offdiag_inner < 1e-9

    def test_degenerate_small_primes_fail(self):
        # for p in {3, 5} the phase is a root of unity and the sequence is a
        # quadratic chirp: some (i, j, v) aligns exactly and the modulated
        # sum hits the order
        for p in (3, 5):
            rep = verify_h_constraints(bjorck_shifts(p))
            assert not rep.passed
            assert abs(rep.max_modulated - p) < 1e-9

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            bjorck_shifts(15)


class TestVerifier:
    def test_duplicate_rows_fail_with_witness(self):
        h = SequenceSet(np.tile(np.arange(4), (4, 1)), 4)
        rep = verify_h_constraints(h)
        assert not rep.passed
        assert abs(rep.max_modulated - 4) < 1e-12
        i, j, v = rep.modulated_witness
        assert i < j and v == 0
        assert rep.inner_witness[0] < rep.inner_witness[1]
        assert abs(rep.max_offdiag_inner - 4) < 1e-12

    @pytest.mark.parametrize("kind,order", [("dft", 31), ("legendre", 23), ("bjorck", 29),
                                            ("mseq", 15), ("bjorck", 5)])
    def test_row_blocks_do_not_change_report(self, kind, order, monkeypatch):
        # one row per block, and blocks that split the rows unevenly, against
        # the whole matrix in one block
        h = make_hmatrix(kind, order)
        whole = verify_h_constraints(h)
        for entries_per_block in (1, 3 * order + 1, 4 * order * order):
            monkeypatch.setattr("lazforge.ambiguity.SCAN_BLOCK_ENTRIES", entries_per_block)
            assert verify_h_constraints(h) == whole

    @given(square_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_ordered_pair_sums(self, h):
        # every ordered pair i != j, inner products by np.vdot and modulated
        # sums against an explicit DFT matrix, with no FFT and no symmetry
        n, r = h.size, h.matrix
        dft = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n)  # [t, v] = w_N^{tv}
        inner = {(i, j): abs(np.vdot(r[j], r[i])) for i in range(n) for j in range(n) if i != j}
        modulated = {(i, j): np.abs((r[i] * np.conj(r[j])) @ dft) for i, j in inner}
        max_inner = max(inner.values())
        max_mod = max(row.max() for row in modulated.values())
        rep = verify_h_constraints(h)
        assert abs(rep.max_offdiag_inner - max_inner) <= 1e-9
        assert abs(rep.max_modulated - max_mod) <= 1e-9
        assert rep.passed == (max_inner <= 1 + eps(n) and max_mod < n - eps(n))
        i, j = rep.inner_witness
        assert i < j and abs(inner[i, j] - rep.max_offdiag_inner) <= 1e-9
        i, j, v = rep.modulated_witness
        assert i < j and abs(modulated[i, j][v] - rep.max_modulated) <= 1e-9

    @pytest.mark.parametrize("kind,order", [("dft", 35), ("legendre", 7), ("mseq", 127),
                                            ("bjorck", 7)])
    def test_witnesses_are_first_within_band(self, kind, order):
        # each has exact ties that round-off orders differently: the pair
        # argmax of the inner products, or the v argmax on the modulated
        # witness pair, is not the first tie
        h = make_hmatrix(kind, order)
        n, r = h.size, h.matrix
        band = 2 * eps(n)
        dft = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        inner = {p: abs(np.vdot(r[p[1]], r[p[0]])) for p in pairs}
        modulated = {(i, j): np.abs((r[i] * np.conj(r[j])) @ dft) for i, j in pairs}
        max_inner = max(inner.values())
        max_mod = max(row.max() for row in modulated.values())
        rep = verify_h_constraints(h)
        assert rep.inner_witness == next(p for p in pairs if inner[p] >= max_inner - band)
        i, j = next(p for p in pairs if modulated[p].max() >= max_mod - band)
        v = int(np.argmax(modulated[i, j] >= max_mod - band))
        assert rep.modulated_witness == (i, j, v)

    @pytest.mark.parametrize("kind", ["dft", "legendre", "mseq", "bjorck"])
    def test_matches_all_pairs_scan(self, kind):
        # every family's rows are one step apart, so the verifier scans the
        # N - 1 pairs (0, d); 192 matrices in all, 16 of them failing
        for n in family_orders(kind):
            h = make_hmatrix(kind, n)
            assert len(_pairs_to_scan(h)[0]) == n - 1
            rep, ref = verify_h_constraints(h), all_pairs_report(h)
            assert rep.passed == ref.passed
            assert (rep.inner_witness, rep.modulated_witness) == (
                ref.inner_witness, ref.modulated_witness)
            assert abs(rep.max_offdiag_inner - ref.max_offdiag_inner) <= 2 * eps(n)
            assert abs(rep.max_modulated - ref.max_modulated) <= 2 * eps(n)

    def test_last_row_out_of_step_is_scanned(self):
        # rows 0..5 are one step apart and row 6 breaks the step: a check
        # that stops short of the last row would scan (0, d) alone and pass
        phases = np.array(legendre_shifts(7).phases)
        phases[6] = phases[5]
        h = SequenceSet(phases, 2)
        assert len(_pairs_to_scan(h)[0]) == 21
        rep = verify_h_constraints(h)
        assert not rep.passed and rep.inner_witness == (5, 6)
        assert abs(rep.max_offdiag_inner - 7) < 1e-12

    def test_one_by_one_has_no_pair(self):
        # no pair i < j: both maxima are 0 and there is no witness
        for h in (SequenceSet([[0]], 1), SequenceSet([[1.5]])):
            assert verify_h_constraints(h) == HReport(0.0, 0.0, True, None, None)

    def test_from_set_requires_square(self, set_7_7):
        with pytest.raises(PreconditionError):
            verify_h_constraints(set_7_7)


class TestSupportedOrders:
    def test_listings(self):
        assert supported_orders("legendre", 30) == [3, 7, 11, 19, 23]
        assert supported_orders("mseq", 127) == [3, 7, 15, 31, 63, 127]
        assert supported_orders("bjorck", 20) == [7, 11, 13, 17, 19]
        assert supported_orders("dft", 5) == [2, 3, 4, 5]
        with pytest.raises(PreconditionError):
            supported_orders("nope")

    def test_make_hmatrix_mseq_infers_degree(self):
        h = make_hmatrix("mseq", 7)
        assert (h.size, h.length) == (7, 7) and h == msequence_shifts(3)
        with pytest.raises(PreconditionError):
            make_hmatrix("mseq", 6)
