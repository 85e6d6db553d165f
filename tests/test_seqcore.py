import cmath
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazforge import (
    PreconditionError,
    SequenceSet,
    Zone,
    bjorck_shifts,
    build_laz_set,
    cyclic_distinct,
    load_sequence_set,
    make_hmatrix,
    quad_lpnf,
)
from lazforge.hgen import GENERATORS
from lazforge.seqcore import (
    MAX_DENOMINATOR,
    TWO_PI,
    format_sequence_set,
    save_sequence_set,
    sequence_set_from_dict,
)

from helpers import ACCEPTANCE_CONFIGS, entries, family_orders, set_file_text

# a rational phase: the turns x of exp(2*pi*i*x), in [0, 1)
rational_phases = st.builds(
    lambda num, den: Fraction(num % den, den),
    st.integers(0, 400),
    st.integers(1, 48),
)

angles = st.floats(0, TWO_PI, exclude_max=True)


def lcm_of(rows):
    """The least common denominator of rows of rational phases."""
    return math.lcm(*(p.denominator for row in rows for p in row))


def rational_set(rows):
    """The set whose rows are the given rational phases, over their least
    common denominator."""
    d = lcm_of(rows)
    return SequenceSet([[p.numerator * (d // p.denominator) for p in row] for row in rows], d)


def complex_entries(s, i):
    """Row i of a set as complex numbers, computed one by one."""
    if s.denominator is not None:
        return [cmath.exp(2j * math.pi * x) for x in entries(s, i)]
    return [cmath.exp(1j * float(a)) for a in s.phases[i]]


def rational_rows(min_size=1, max_size=24):
    """One row of rational phases whose denominator fits a set."""
    row = st.lists(rational_phases, min_size=min_size, max_size=max_size)
    return row.filter(lambda r: lcm_of([r]) <= MAX_DENOMINATOR)


def saved_bytes(s):
    """The bytes save_sequence_set writes for s."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        save_sequence_set(s, path)
        return path.read_bytes()


def json_bytes(s):
    """The reference bytes of a set file, built entry by entry."""
    return set_file_text(s).encode()


def set_dict(s):
    """The dict of s's set file, as json reads it back."""
    return json.loads(format_sequence_set(s))


class TestEqualUpToShift:
    """Two-member sets: cyclic_distinct's witness is (0, 1, tau) for the first
    tau with row 1 == c * (row 0 shifted left by tau), c a unit constant."""

    @staticmethod
    def shift(rows, d):
        witness = cyclic_distinct(SequenceSet(rows, d)).witness
        return None if witness is None else witness[2]

    def test_finds_constructed_shift(self):
        s = [k * k for k in range(8)]
        assert self.shift([s, np.roll(s, -3)], 11) == 3

    def test_finds_phase_scaling(self):
        s = [4 * k * k for k in range(8)]  # over 44, so s + 11 is i * s
        assert self.shift([s, np.add(s, 11)], 44) == 0

    def test_constructed_set_members_not_shift_equivalent(self, set_7_7):
        assert self.shift(set_7_7.phases[:2], set_7_7.denominator) is None

    @given(rational_rows(min_size=2, max_size=12))
    @settings(max_examples=30)
    def test_reflexive(self, row):
        s = rational_set([row])
        assert self.shift([s.phases[0]] * 2, s.denominator) == 0

    @given(rational_rows(min_size=2, max_size=10), st.integers(0, 9))
    @settings(max_examples=30)
    def test_symmetric(self, row, tau):
        s = rational_set([row])
        shifted = np.roll(s.phases[0], -tau)
        assert self.shift([s.phases[0], shifted], s.denominator) is not None
        assert self.shift([shifted, s.phases[0]], s.denominator) is not None


class TestZone:
    def test_open_interval_iteration(self):
        z = Zone(3, 2)
        assert list(z.delays()) == [-2, -1, 0, 1, 2]
        assert list(z.dopplers()) == [-1, 0, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            Zone(0, 3)


class TestSetFormat:
    def test_rational_roundtrip_bit_exact(self, set_7_7):
        d = set_dict(set_7_7)
        assert d["phase_mode"] == "rational"
        back = sequence_set_from_dict(d)
        assert back == set_7_7

    @given(st.lists(st.lists(rational_phases, min_size=3, max_size=3), min_size=1, max_size=4)
           | st.lists(st.lists(angles, min_size=3, max_size=3), min_size=1, max_size=4)
           .map(SequenceSet))
    @settings(max_examples=50)
    def test_rational_roundtrip_random(self, s):
        if isinstance(s, list):  # rows of rational phases
            if lcm_of(s) > MAX_DENOMINATOR:
                with pytest.raises(PreconditionError, match="denominator"):
                    rational_set(s)
                return
            s = rational_set(s)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "set.json"
            save_sequence_set(s, path)
            assert load_sequence_set(path) == s

    def test_float_mode_roundtrip(self):
        s = bjorck_shifts(7)
        d = set_dict(s)
        assert d["phase_mode"] == "float"
        back = sequence_set_from_dict(d)
        assert np.allclose(back.matrix, s.matrix, atol=1e-15)
        assert saved_bytes(s) == json_bytes(s)

    @pytest.mark.parametrize("n, k, h_kind", ACCEPTANCE_CONFIGS)
    def test_acceptance_set_bytes(self, n, k, h_kind):
        s = build_laz_set(quad_lpnf(n, 1, 0, k), make_hmatrix(h_kind, n))
        assert saved_bytes(s) == json_bytes(s)

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_companion_bytes(self, kind):
        # every order through 127; Björck matrices are the float sets
        for n in family_orders(kind):
            h = make_hmatrix(kind, n)
            assert saved_bytes(h) == json_bytes(h), n

    def test_one_entry_bytes(self):
        for s in (SequenceSet([[0]], 1), SequenceSet([[3]], 4), SequenceSet([[0.25]])):
            assert saved_bytes(s) == json_bytes(s)

    def test_declared_shape_checked(self):
        d = set_dict(SequenceSet([[0]], 1))
        d["size"] = 5
        with pytest.raises(PreconditionError):
            sequence_set_from_dict(d)

    def test_ragged_members_rejected(self):
        with pytest.raises(PreconditionError):
            SequenceSet([[0], [0, 0]], 1)


class TestSetArray:
    @pytest.mark.parametrize("phases", [[0, 1], [], [[]], np.zeros((0, 3)), np.zeros((2, 2, 2))],
                             ids=["1-D", "empty", "no columns", "no rows", "3-D"])
    @pytest.mark.parametrize("d", [None, 4])
    def test_not_a_nonempty_2d_array_refused(self, phases, d):
        with pytest.raises(PreconditionError, match="2-D"):
            SequenceSet(phases, d)

    def test_reduced_denominator_bounded(self):
        # the bound applies after reduction, and is inclusive
        assert SequenceSet([[2, 4]], 2 * MAX_DENOMINATOR).denominator == MAX_DENOMINATOR
        with pytest.raises(PreconditionError, match="denominator"):
            SequenceSet([[1, 0]], MAX_DENOMINATOR + 1)

    def test_reduced_over_the_whole_set(self):
        s = SequenceSet([[2, 4], [0, 6]], 8)
        assert s.denominator == 4 and s.phases.tolist() == [[1, 2], [0, 3]]
        assert s == SequenceSet([[1, 2], [0, 3]], 4)

    def test_non_integral_numerators_refused(self):
        # a cast to int64 would truncate them to [[0, 1]]
        with pytest.raises(PreconditionError, match="integers"):
            SequenceSet([[0.5, 1.7]], 2)
        with pytest.raises(PreconditionError, match="integers"):
            SequenceSet(np.array([[1.0, 2.0]]), 4)

    def test_bool_numerators_refused(self):
        # a cast to int64 would read them as [[1, 0]]
        with pytest.raises(PreconditionError, match="integers"):
            SequenceSet([[True, False]], 2)
        with pytest.raises(PreconditionError, match="integers"):
            SequenceSet(np.ones((2, 3), dtype=bool), 2)

    # a cast to float64 would read the bools as [[1.0, 0.0]], keep only the
    # real parts (with a ComplexWarning) and parse the strings as numbers
    @pytest.mark.parametrize("angles", [[[True, False]], np.array([[1 + 2j, 3]]), [["1.5", "2"]]],
                             ids=["bool", "complex", "string"])
    def test_non_real_angles_refused(self, angles):
        with pytest.raises(PreconditionError, match="real numbers"):
            SequenceSet(angles)

    def test_integer_angles_accepted(self):
        assert SequenceSet([[1, 2]]).phases.tolist() == [[1.0, 2.0]]

    def test_float_rows_folded_and_read_only(self):
        s = SequenceSet([[-1e-20, 7.0], [-TWO_PI, 1.0]])
        assert s.phases.tolist() == [[0.0, 7.0 % TWO_PI], [0.0, 1.0]]
        assert s.denominator is None and s != SequenceSet([[0, 1], [0, 1]], 1)
        with pytest.raises(ValueError):
            s.phases[0, 0] = 1.0

    def test_matrix_is_the_members_values(self, set_7_7):
        # a row reduced to its own denominator has bit-identical entries
        d = set_7_7.denominator
        for i, row in enumerate(set_7_7.phases):
            assert np.array_equal(set_7_7.matrix[i], SequenceSet([row], d).matrix[0])


class TestArrayPhases:
    """One-row sets: a sequence is a row of its set's phase array."""

    def test_smallest_denominator(self):
        s = SequenceSet([[2, 4, 10]], 8)
        assert s.denominator == 4 and s.phases.tolist() == [[1, 2, 1]]
        assert s == SequenceSet([[1, 2, 1]], 4)
        assert SequenceSet([[0, 5]], 5).denominator == 1

    def test_entries_are_phases(self):
        s = SequenceSet([[1, 3]], 6)
        assert entries(s, 0) == (Fraction(1, 6), Fraction(1, 2))
        assert SequenceSet([[1.5]]).phases.tolist() == [[1.5]]

    def test_rational_and_float_never_equal(self):
        assert SequenceSet([[0]], 1) != SequenceSet([[0.0]])

    def test_float_angles_in_unit_range(self):
        # -1e-20 mod 2*pi rounds to 2*pi itself; it must land on 0
        s = SequenceSet([[-1e-20, 7.0, -TWO_PI]])
        assert s.phases.tolist() == [[0.0, 7.0 % TWO_PI, 0.0]]

    def test_phases_read_only(self):
        with pytest.raises(ValueError):
            SequenceSet([[1, 2]], 3).phases[0, 0] = 0

    def test_values_match_per_entry_phases(self, set_7_7):
        for i in range(set_7_7.size):
            row = set_7_7.matrix[i]
            assert np.allclose(row, complex_entries(set_7_7, i), rtol=0, atol=1e-15)


def _valid_rational():
    return set_dict(SequenceSet([[0, 1, 2]] * 2, 6))


def _valid_float():
    return set_dict(SequenceSet([[0.5, 1.5, 2.5]] * 2))


def _set_entry(d, value, row=0, col=1):
    d["members"][row][col] = value
    return d


def _without(key):
    d = _valid_rational()
    del d[key]
    return d


MALFORMED = {
    "nan angle": _set_entry(_valid_float(), float("nan")),
    "all-nan set": dict(_valid_float(), members=[[float("nan")] * 3] * 2),
    "infinite angle": _set_entry(_valid_float(), float("-inf")),
    "bool angle": _set_entry(_valid_float(), True),
    "string angle": _set_entry(_valid_float(), "1.5"),
    "bool numerator": _set_entry(_valid_rational(), [True, 2]),
    "float numerator": _set_entry(_valid_rational(), [1.0, 2]),
    "string numerator": _set_entry(_valid_rational(), ["1", 2]),
    "bool denominator": _set_entry(_valid_rational(), [0, True]),
    "null denominator": _set_entry(_valid_rational(), [1, None]),
    "zero denominator": _set_entry(_valid_rational(), [1, 0]),
    "negative denominator": _set_entry(_valid_rational(), [1, -3]),
    "numerator beyond int64": _set_entry(_valid_rational(), [2**70, 3]),
    "denominator beyond the bound": _set_entry(_valid_rational(), [1, MAX_DENOMINATOR + 1]),
    "common denominator beyond the bound": _set_entry(
        _set_entry(_valid_rational(), [1, 65537]), [1, 65539], col=2
    ),
    "ragged members": _set_entry(_valid_rational(), [[0, 1]], row=1, col=slice(None)),
    "entry of three": _set_entry(_valid_rational(), [1, 2, 3]),
    "float entry in rational mode": _set_entry(_valid_rational(), 0.5),
    "members not a list": dict(_valid_rational(), members=7),
    "length mismatch": dict(_valid_rational(), length=4),
    "size mismatch": dict(_valid_rational(), size=1),
    "float size": dict(_valid_rational(), size=2.0),
    "bool size": dict(_valid_float(), members=[[0.5, 1.5, 2.5]], size=True),
    "empty members": dict(_valid_float(), members=[], size=0),
    "unknown mode": dict(_valid_rational(), phase_mode="complex"),
    "extra key": dict(_valid_rational(), denominator=7),
    "missing length": _without("length"),
    "missing size": _without("size"),
    "missing phase_mode": _without("phase_mode"),
    "missing members": _without("members"),
    "not an object": [1, 2],
}

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def set_dicts(draw):
    """Set dicts with up to two parts replaced by arbitrary JSON."""
    broken = draw(st.sets(st.sampled_from(["length", "size", "phase_mode", "members",
                                           "entries", "drop"]), max_size=2))
    size, length = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    mode = draw(st.sampled_from(["rational", "float"]))
    if mode == "rational":
        entry = st.tuples(st.integers(-50, 50), st.integers(1, 12)).map(list)
    else:
        entry = st.floats(-10, 10) | st.integers(-50, 50)
    if "entries" in broken:
        entry = entry | json_values
    rows = st.lists(entry, min_size=length, max_size=length)
    d = {
        "length": length,
        "size": size,
        "phase_mode": mode,
        "members": draw(st.lists(rows, min_size=size, max_size=size)),
    }
    for key in broken & d.keys():
        d[key] = draw(json_values)
    if "drop" in broken:
        del d[draw(st.sampled_from(sorted(d)))]
    return d


class TestSetFileValidation:
    def test_bound_is_inclusive(self):
        d = {"length": 2, "size": 1, "phase_mode": "rational",
             "members": [[[1, 2], [1, MAX_DENOMINATOR]]]}
        assert sequence_set_from_dict(d).denominator == MAX_DENOMINATOR

    def test_unreduced_fractions_load(self):
        d = _set_entry(_valid_rational(), [-2, 4])
        assert entries(sequence_set_from_dict(d), 0)[1] == Fraction(1, 2)

    @pytest.mark.parametrize("case", sorted(MALFORMED, key=str))
    def test_malformed_refused(self, case):
        with pytest.raises(PreconditionError):
            sequence_set_from_dict(MALFORMED[case])

    @given(set_dicts())
    @settings(max_examples=300, deadline=None)
    def test_loads_and_round_trips_or_refuses(self, d):
        try:
            s = sequence_set_from_dict(d)
        except PreconditionError:
            return
        back = sequence_set_from_dict(set_dict(s))
        assert back == s
        assert set_dict(back) == set_dict(s)
        assert saved_bytes(s) == json_bytes(s)
