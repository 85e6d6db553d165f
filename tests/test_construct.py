import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazforge import (
    LazParams,
    Phase,
    PreconditionError,
    UnimodSequence,
    ZFunc,
    Zone,
    build_a_matrix,
    build_laz_set,
    deinterleave,
    dft_submatrix,
    interleave,
    legendre_shifts,
    power_map_params,
    predicted_params,
    quad_lpnf,
)


def marker(k, n=64):
    return Phase.rational(k % n, n)


def seq(*phases):
    """The rational sequence whose entries are the given rational phases."""
    d = math.lcm(*(p.turns.denominator for p in phases))
    return UnimodSequence([p.turns.numerator * (d // p.turns.denominator) for p in phases], d)


def entries(s):
    return tuple(s[t] for t in range(s.length))


class TestBaseMatrix:
    def test_zero_function_gives_all_ones(self):
        s = build_a_matrix(ZFunc(3, 5, (0, 0, 0)))
        assert s.size == 3 and s.length == 5
        assert all(p == Phase.one() for m in s for p in entries(m))

    def test_example_row(self):
        f = quad_lpnf(5, 1, 0, 8)  # f(2) = 4
        s = build_a_matrix(f)
        assert entries(s[2]) == tuple(Phase.rational(4 * t, 8) for t in range(8))

    def test_row0_all_ones(self):
        f = quad_lpnf(5, 1, 0, 8)  # f(0) = 0
        assert all(p == Phase.one() for p in entries(build_a_matrix(f)[0]))


class TestInterleave:
    def test_two_columns(self):
        one, minus = Phase.rational(0, 2), Phase.rational(1, 2)
        u = interleave([seq(one, one), seq(one, minus)])
        assert entries(u) == (one, one, one, minus)

    def test_single_column_is_identity(self):
        col = seq(*(marker(k) for k in range(5)))
        assert interleave([col]) == col

    def test_row_major_three_columns(self):
        a, b, c, d, e, f = (marker(k) for k in range(6))
        u = interleave([seq(a, b), seq(c, d), seq(e, f)])
        assert entries(u) == (a, c, e, b, d, f)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            interleave([seq(marker(0)), seq(marker(1), marker(2))])

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_deinterleave_inverts(self, m, length, data):
        cols = [
            seq(
                *(
                    marker(data.draw(st.integers(0, 63), label=f"c{i}t{t}"))
                    for t in range(length)
                )
            )
            for i in range(m)
        ]
        assert deinterleave(interleave(cols), m) == cols


class TestBuildLazSet:
    def test_t0_slice_reproduces_companion_row(self, set_7_7):
        h = legendre_shifts(7)
        for n in range(7):
            assert entries(set_7_7[n])[:7] == entries(h[n])

    def test_entry_formula(self, set_7_7):
        f = quad_lpnf(7, 1, 0, 7)
        h = legendre_shifts(7)
        for n, t, m in ((2, 3, 4), (5, 6, 0), (1, 0, 6)):
            want = h[n][m] * Phase.rational(t * f.table[m], 7)
            assert set_7_7[n][t * 7 + m] == want

    def test_denominators_divide_lcm(self, set_7_7):
        # legendre entries have denominator 1 or 2; base phases denominator 7
        target = math.lcm(7, 2)
        assert all(target % p.turns.denominator == 0 for mem in set_7_7 for p in entries(mem))

    def test_order_mismatch_rejected(self):
        with pytest.raises(PreconditionError, match="order"):
            build_laz_set(quad_lpnf(5, 1, 0, 5), dft_submatrix(7))

    def test_unverified_companion_rejected(self):
        with pytest.raises(PreconditionError, match="constraints"):
            build_laz_set(quad_lpnf(5, 1, 0, 5), legendre_shifts(5))

    def test_shape(self, set_7_11):
        assert set_7_11.size == 7 and set_7_11.length == 77


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
