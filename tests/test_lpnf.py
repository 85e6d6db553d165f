import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazforge import (
    PreconditionError,
    ZFunc,
    Zone,
    diff_table,
    is_lpnf,
    is_pnf,
    lpnf_zone_for,
    nonlinearity_measure,
    nonlinearity_witness,
    power_lpnf,
    quad_lpnf,
)
from lazforge.lpnf import difference_counts

from helpers import euler_phi


def counter_witness(f, zone):
    """nonlinearity_witness by brute force, one Counter of diff_table per
    delay: the reference."""
    k = f.codomain_size
    best = (0, 0, 0)
    for a in range(-zone.z_x + 1, zone.z_x):
        if a == 0:
            continue
        counts = Counter(diff_table(f, a))
        for b in range(-zone.z_y + 1, zone.z_y):
            c = counts.get(b % k, 0)
            if c > best[0]:
                best = (c, a, b)
    return best


@st.composite
def functions(draw):
    n, k = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    return ZFunc(n, k, draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))


def accepts_power_map(p, alpha):
    try:
        power_lpnf(p, alpha)
    except PreconditionError:
        return False
    return True


@pytest.fixture
def example_f():
    # x^2 mod 5 embedded in Z_8
    return quad_lpnf(5, 1, 0, 8)


class TestQuadTables:
    def test_squares_mod_5_in_z8(self, example_f):
        assert example_f.table == (0, 1, 4, 4, 1)

    def test_squares_mod_7(self):
        assert quad_lpnf(7, 1, 0, 7).table == (0, 1, 4, 2, 2, 4, 1)

    def test_coprimality_precondition(self):
        quad_lpnf(9, 2, 0, 9)  # gcd(2, 9) = 1 accepted
        with pytest.raises(PreconditionError, match="coprime"):
            quad_lpnf(9, 3, 0, 9)

    def test_other_preconditions(self):
        with pytest.raises(PreconditionError, match="odd"):
            quad_lpnf(8, 1, 0, 9)
        with pytest.raises(PreconditionError, match="codomain"):
            quad_lpnf(9, 1, 0, 7)
        with pytest.raises(PreconditionError, match="exceed 2"):
            quad_lpnf(1, 1, 0, 1)
        with pytest.raises(PreconditionError, match="linear"):
            quad_lpnf(9, 1, 9, 9)


class TestDiffTables:
    def test_reference_rows(self, example_f):
        assert diff_table(example_f, 1) == (1, 3, 0, 5, 7)
        assert diff_table(example_f, 2) == (4, 3, 5, 4, 0)
        assert diff_table(example_f, 3) == (4, 0, 4, 5, 3)
        assert diff_table(example_f, 4) == (1, 7, 5, 0, 3)

    def test_zero_step_rejected(self, example_f):
        with pytest.raises(PreconditionError):
            diff_table(example_f, 0)
        with pytest.raises(PreconditionError):
            diff_table(example_f, 5)


class TestZFunc:
    @pytest.mark.parametrize("args", [
        (3, 5, (1.5, 0, True)),
        (3.0, 5, (1, 0, 2)),
        (3, 5, (1, 0, True)),
        (3, True, (0, 0, 0)),
        (3, 5, (1, 0, np.float64(2))),
    ], ids=["float-and-bool-entries", "float-size", "bool-entry", "bool-size", "numpy-float-entry"])
    def test_non_integers_refused(self, args):
        with pytest.raises(PreconditionError, match="integers"):
            ZFunc(*args)

    def test_numpy_integers_stored_as_ints(self):
        f = ZFunc(np.int64(3), np.int32(5), np.array([1, 0, 2]))
        assert f == ZFunc(3, 5, (1, 0, 2))
        assert all(type(v) is int for v in (f.domain_size, f.codomain_size, *f.table))


class TestDifferenceCounts:
    @given(functions(), st.data())
    @settings(max_examples=60)
    def test_matches_brute_force_counts(self, f, data):
        # any delays, |tau| >= N among them, and Doppler shifts from below -K
        n, k = f.domain_size, f.codomain_size
        taus = data.draw(st.lists(st.integers(-3 * n, 3 * n), max_size=6))
        dopplers = data.draw(st.lists(st.integers(-3 * k, 3 * k), min_size=1, max_size=8))
        want = [[sum((f.table[(x + tau) % n] - f.table[x] - v) % k == 0 for x in range(n))
                 for v in dopplers] for tau in taus]
        got = difference_counts(f, taus, dopplers)
        assert got.shape == (len(taus), len(dopplers)) and got.tolist() == want

    def test_zone_of_an_interleaved_set(self):
        # the LPNF zone (7, 5) of the 7x77 set: one term per column off tau = 0
        f, zone = quad_lpnf(7, 1, 0, 11), Zone(7, 5)
        got = difference_counts(f, zone.delays(), zone.dopplers())
        assert got[6].tolist() == [0, 0, 0, 0, 7, 0, 0, 0, 0]  # tau = 0: every x at v = 0
        assert np.delete(got, 6, axis=0).max() == 1
        # delays equal mod N and Doppler shifts equal mod K read the same bins
        long = difference_counts(f, [-8, -1, 6, 13], range(-22, 23))
        assert np.array_equal(long[0], long[1]) and np.array_equal(long[2], long[3])
        assert np.array_equal(long[:, :11], long[:, 11:22])


class TestNonlinearityMeasure:
    def test_example_zone_narrow(self, example_f):
        assert nonlinearity_measure(example_f, Zone(5, 4)) == 1

    def test_example_zone_wide(self, example_f):
        # 4 is attained twice for a = 2 and a = 3 once b may reach +-4
        assert nonlinearity_measure(example_f, Zone(5, 8)) == 2

    def test_constant_function(self):
        f = ZFunc(7, 7, (0,) * 7)
        assert nonlinearity_measure(f, Zone(7, 1)) == 7

    def test_witness_is_consistent(self, example_f):
        count, a, b = nonlinearity_witness(example_f, Zone(5, 8))
        assert count == 2
        assert diff_table(example_f, a).count(b % 8) == 2

    @given(functions(), st.data())
    @settings(max_examples=100)
    def test_witness_matches_counter_loop(self, f, data):
        n, k = f.domain_size, f.codomain_size
        zone = Zone(data.draw(st.integers(1, n)), data.draw(st.integers(1, k) | st.just(k)))
        assert nonlinearity_witness(f, zone) == counter_witness(f, zone)

    @pytest.mark.parametrize("f, zone", [
        (quad_lpnf(5, 1, 0, 5), Zone(1, 3)),  # z_x = 1: no nonzero delay
        (power_lpnf(7, 3), Zone(6, 1)),  # injective f: no solution at b = 0
        (ZFunc(1, 4, (2,)), Zone(1, 4)),
    ], ids=["zx-1", "injective-b-0", "one-point"])
    def test_no_solution_no_witness(self, f, zone):
        assert nonlinearity_witness(f, zone) == counter_witness(f, zone) == (0, 0, 0)

    def test_zone_bounds_checked(self, example_f):
        with pytest.raises(PreconditionError):
            nonlinearity_measure(example_f, Zone(6, 4))

    @given(
        st.integers(3, 9),
        st.integers(3, 12),
        st.data(),
    )
    @settings(max_examples=40)
    def test_monotone_in_zone_widths(self, n, k, data):
        table = data.draw(
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)
        )
        f = ZFunc(n, k, table)
        zx1 = data.draw(st.integers(1, n))
        zy1 = data.draw(st.integers(1, k))
        zx2 = data.draw(st.integers(zx1, n))
        zy2 = data.draw(st.integers(zy1, k))
        m1 = nonlinearity_measure(f, Zone(zx1, zy1))
        m2 = nonlinearity_measure(f, Zone(zx2, zy2))
        assert m1 <= m2


class TestIsLpnf:
    def test_example_verdicts(self, example_f):
        assert is_lpnf(example_f, Zone(5, 4))
        assert not is_lpnf(example_f, Zone(5, 8))

    def test_quad_35_over_its_zone(self):
        assert is_lpnf(quad_lpnf(35, 1, 0, 35), Zone(5, 35))

    def test_quadratic_family_zone_sample(self):
        # spot check of the three regimes; the exhaustive sweep lives in
        # the acceptance suite
        for n in (9, 15):
            for k in (n, n + 2, 2 * n - 1):
                for a2 in (x for x in range(1, n) if math.gcd(x, n) == 1):
                    for a1 in (0, 1):
                        f = quad_lpnf(n, a2, a1, k)
                        assert is_lpnf(f, lpnf_zone_for(n, k)), (n, k, a2, a1)

    def test_diff_values_distinct_where_lpnf(self):
        # measure 1 with D covering all residues forces injective differences
        f = quad_lpnf(7, 1, 0, 7)
        assert is_lpnf(f, Zone(7, 7))
        for a in range(1, 7):
            row = diff_table(f, a)
            assert len(set(row)) == len(row)


class TestZoneFor:
    def test_equal_regime(self):
        assert lpnf_zone_for(35, 35) == Zone(5, 35)

    def test_middle_regime(self):
        assert lpnf_zone_for(7, 11) == Zone(7, 5)

    def test_wide_regime(self):
        assert lpnf_zone_for(25, 49) == Zone(5, 49)

    def test_codomain_too_small(self):
        with pytest.raises(PreconditionError):
            lpnf_zone_for(9, 7)


class TestPowerMap:
    def test_powers_of_2_mod_5(self):
        assert power_lpnf(5, 2).table == (1, 2, 4, 3)

    def test_powers_of_3_mod_7(self):
        assert power_lpnf(7, 3).table == (1, 3, 2, 6, 4, 5)

    def test_non_primitive_rejected(self):
        with pytest.raises(PreconditionError, match="primitive"):
            power_lpnf(7, 2)  # order 3

    @pytest.mark.parametrize("p", [p for p in range(2, 200) if all(p % d for d in range(2, p))])
    def test_accepts_phi_p_minus_1_residues(self, p):
        # Z_p^* is cyclic of order p - 1, so it has phi(p - 1) generators
        assert sum(accepts_power_map(p, alpha) for alpha in range(1, p)) == euler_phi(p - 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_rejected(self, p):
        # at p = 2 and 3 alpha = 0 gives the distinct tables [1] and [1, 0]:
        # only alpha^(p-1) != 1 refuses it there
        assert not accepts_power_map(p, 0) and not accepts_power_map(p, p)

    def test_primitive_roots_mod_7(self):
        assert {a for a in range(1, 7) if accepts_power_map(7, a)} == {3, 5}

    def test_full_zone_measure_one(self):
        for p, alpha in ((5, 2), (7, 3)):
            f = power_lpnf(p, alpha)
            assert nonlinearity_measure(f, Zone(p - 1, p)) == 1


class TestIsPnf:
    def test_planar_square_map(self):
        assert is_pnf(quad_lpnf(5, 1, 0, 5))

    def test_example_is_not_pnf(self, example_f):
        assert not is_pnf(example_f)

    def test_identity_is_not_pnf(self):
        assert not is_pnf(ZFunc(4, 4, (0, 1, 2, 3)))
