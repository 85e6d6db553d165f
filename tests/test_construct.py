import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazforge import (
    LazParams,
    PreconditionError,
    SequenceSet,
    ZFunc,
    Zone,
    bjorck_shifts,
    build_laz_set,
    dft_submatrix,
    factor_interleaved,
    legendre_shifts,
    load_sequence_set,
    make_hmatrix,
    power_lpnf,
    power_map_params,
    predicted_params,
    quad_lpnf,
    verify_h_constraints,
)
from lazforge.cli import main
from lazforge.construct import _fold
from lazforge.hgen import GENERATORS
from lazforge.seqcore import TWO_PI, format_sequence_set, sequence_set_from_dict

from helpers import entries


def _passes(kind, n):
    try:
        return verify_h_constraints(make_hmatrix(kind, n)).passed
    except PreconditionError:
        return False


# every (family, odd order) pair up to 15 whose companion matrix passes
FAMILY_ORDERS = [(kind, n) for kind in GENERATORS for n in range(3, 16, 2) if _passes(kind, n)]


@st.composite
def quadratic_sets(draw):
    kind, n = draw(st.sampled_from(FAMILY_ORDERS))
    a2 = draw(st.sampled_from([a for a in range(1, n) if math.gcd(a, n) == 1]))
    a1 = draw(st.integers(0, n - 1))
    k = draw(st.integers(n, 2 * n + 2))
    return quad_lpnf(n, a2, a1, k), make_hmatrix(kind, n)


# power maps x -> alpha^x mod p; only the DFT family has the even order p - 1
POWER_SETS = st.sampled_from([(3, 2), (5, 2), (7, 3), (11, 2), (13, 2)]).map(
    lambda pa: (power_lpnf(*pa), dft_submatrix(pa[0] - 1))
)

INTERLEAVED = st.one_of(quadratic_sets(), POWER_SETS)


def swap_rows(s, i, j):
    rows = np.arange(s.size)
    rows[[i, j]] = j, i
    return SequenceSet(s.phases[rows], s.denominator)


def replace_row(s, i, t):
    """s with row i taken from the set t of the same kind."""
    if s.denominator is None:
        phases = s.phases.copy()
        phases[i] = t.phases[i]
        return SequenceSet(phases)
    d = math.lcm(s.denominator, t.denominator)
    phases = s.phases * (d // s.denominator)
    phases[i] = t.phases[i] * (d // t.denominator)
    return SequenceSet(phases, d)


def move_entry(s, i, index):
    """s with entry index of row i rotated: by half a step of its phase grid
    if rational, by 0.5 rad if float."""
    if s.denominator is None:
        phases = s.phases.copy()
        phases[i, index] += 0.5
        return SequenceSet(phases)
    phases = 2 * s.phases
    phases[i, index] += 1
    return SequenceSet(phases, 2 * s.denominator)


class TestBuildLazSet:
    def test_entry_formula(self, set_7_7):
        f = quad_lpnf(7, 1, 0, 7)
        h = legendre_shifts(7)
        for n, t, m in ((2, 3, 4), (5, 6, 0), (1, 0, 6)):
            want = (entries(h, n)[m] + Fraction(t * f.table[m], 7)) % 1
            assert entries(set_7_7, n)[t * 7 + m] == want

    def test_denominators_divide_lcm(self, set_7_7):
        # legendre entries have denominator 1 or 2; base phases denominator 7
        target = math.lcm(7, 2)
        rows = range(set_7_7.size)
        assert all(target % x.denominator == 0 for i in rows for x in entries(set_7_7, i))

    def test_order_mismatch_rejected(self):
        with pytest.raises(PreconditionError, match="order"):
            build_laz_set(quad_lpnf(5, 1, 0, 5), dft_submatrix(7))

    def test_unverified_companion_rejected(self):
        with pytest.raises(PreconditionError, match="constraints"):
            build_laz_set(quad_lpnf(5, 1, 0, 5), legendre_shifts(5))

    def test_shape(self, set_7_11):
        assert set_7_11.size == 7 and set_7_11.length == 77


class TestFactorInterleaved:
    @given(INTERLEAVED)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, fh):
        f, h = fh
        s = build_laz_set(f, h)
        assert factor_interleaved(s) == (f, h)
        assert build_laz_set(*factor_interleaved(s)) == s
        reloaded = sequence_set_from_dict(json.loads(format_sequence_set(s)))
        assert factor_interleaved(reloaded) == (f, h)

    @given(INTERLEAVED, st.data())
    @settings(max_examples=30, deadline=None)
    def test_member_swap_factors_to_swapped_companion(self, fh, data):
        # a swapped set is the interleaved set of the row-swapped companion
        f, h = fh
        i, j = data.draw(st.lists(st.integers(0, h.size - 1), min_size=2, max_size=2, unique=True))
        s = build_laz_set(f, h)
        swapped = swap_rows(s, i, j)
        g, h2 = factor_interleaved(swapped)
        assert (g, h2) == (f, swap_rows(h, i, j))
        assert build_laz_set(g, h2) == swapped

    @given(INTERLEAVED, st.data())
    @settings(max_examples=30, deadline=None)
    def test_perturbed_entry_refused(self, fh, data):
        f, h = fh
        n, k = f.domain_size, f.codomain_size
        s = build_laz_set(f, h)
        i = data.draw(st.integers(0, n - 1))
        index = data.draw(st.integers(n, n * k - 1))  # t >= 1
        with pytest.raises(PreconditionError, match="not an interleaved set"):
            factor_interleaved(move_entry(s, i, index))

    @given(INTERLEAVED, st.data())
    @settings(max_examples=30, deadline=None)
    def test_member_from_another_function_refused(self, fh, data):
        f, h = fh
        g = ZFunc(f.domain_size, f.codomain_size, [(v + 1) % f.codomain_size for v in f.table])
        i = data.draw(st.integers(0, f.domain_size - 1))
        s = replace_row(build_laz_set(f, h), i, build_laz_set(g, h))
        with pytest.raises(PreconditionError, match="not an interleaved set"):
            factor_interleaved(s)

    @pytest.mark.parametrize("family, k, table", [
        ("legendre", 7, [0] * 7),  # D = 2 against lcm(2, 7) = 14
        ("dft", 9, [0, 3, 6, 3, 0, 6, 3]),  # D = 24 against lcm(8, 9) = 72
    ])
    def test_set_below_the_rebuild_denominator(self, family, k, table):
        # the rebuilt numerators and the set's are scaled to one denominator
        # before they are compared
        f, h = ZFunc(7, k, table), make_hmatrix(family, 7)
        s = build_laz_set(f, h)
        assert s.denominator < math.lcm(h.denominator, k)
        assert factor_interleaved(s) == (f, h)
        with pytest.raises(PreconditionError, match="not an interleaved set"):
            factor_interleaved(move_entry(s, 3, 20))

    @given(st.lists(st.floats(0.0, 4 * math.pi, exclude_max=True), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_sequence_set(self, angles):
        # the float rebuild's angles lie in [0, 4*pi), where one subtraction
        # of 2*pi is SequenceSet's fold bit for bit
        edges = [0.0, TWO_PI, np.nextafter(TWO_PI, 0), 2 * np.nextafter(TWO_PI, 0)]
        rows = np.array([angles + edges])
        assert np.array_equal(_fold(rows).view(np.int64), SequenceSet(rows).phases.view(np.int64))

    @pytest.mark.parametrize("index", [(3, 40), (0, 9), (6, 48)])
    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_float_entry_moved_one_ulp_refused(self, index, direction):
        s = build_laz_set(quad_lpnf(7, 1, 0, 7), bjorck_shifts(7))
        phases = s.phases.copy()
        phases[index] = np.nextafter(phases[index], direction)
        moved = SequenceSet(phases)
        assert moved != s
        with pytest.raises(PreconditionError, match="not an interleaved set"):
            factor_interleaved(moved)

    def test_failing_companion_refused(self):
        # the closed form for f = 0 over Legendre shifts of order 5, which fail
        # their constraints: each member is its h row repeated K times
        h = legendre_shifts(5)
        s = SequenceSet(np.tile(h.phases, 5), h.denominator)
        with pytest.raises(PreconditionError, match="constraints"):
            factor_interleaved(s)

    def test_length_not_a_multiple_of_size_refused(self, set_7_7):
        s = SequenceSet(set_7_7.phases[:, :-1], set_7_7.denominator)
        with pytest.raises(PreconditionError, match="multiple"):
            factor_interleaved(s)

    @pytest.mark.parametrize("argv,f,h", [
        (["--n", "7", "--k", "7", "--h", "bjorck"], quad_lpnf(7, 1, 0, 7), bjorck_shifts(7)),
        (["--power-map", "11", "2"], power_lpnf(11, 2), dft_submatrix(10)),
    ])
    def test_gen_files_factor_exactly(self, tmp_path, argv, f, h):
        path = tmp_path / "s.json"
        assert main(["gen", *argv, "-o", str(path)]) == 0
        s = load_sequence_set(path)
        assert factor_interleaved(s) == (f, h)
        assert build_laz_set(f, h) == s


class TestPredictedParams:
    def test_equal_regime_periodic(self):
        p = predicted_params(35, 35, "periodic")
        assert p == LazParams(35, 1225, Zone(5, 35), 35.0, "periodic")

    def test_equal_regime_aperiodic(self):
        p = predicted_params(35, 35, "aperiodic")
        assert (p.theta, p.zone) == (39.0, Zone(5, 35))

    def test_middle_regime(self):
        p = predicted_params(7, 11, "periodic")
        assert p == LazParams(7, 77, Zone(7, 5), 11.0, "periodic")

    def test_codomain_too_small(self):
        with pytest.raises(PreconditionError):
            predicted_params(9, 7, "periodic")

    def test_bad_kind(self):
        with pytest.raises(PreconditionError):
            predicted_params(7, 7, "weird")

    def test_power_map_params(self):
        p = power_map_params(5, "periodic")
        assert p == LazParams(4, 20, Zone(4, 5), 5.0, "periodic")
        assert power_map_params(5, "aperiodic").theta == 8.0

    def test_json_roundtrip(self):
        p = predicted_params(7, 11, "aperiodic")
        assert LazParams.from_dict(p.to_dict()) == p
