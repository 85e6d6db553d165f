import cmath
import contextlib
import io
import json
import math
import re
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
from lazforge.cli import main
from lazforge.hgen import GENERATORS
from lazforge.seqcore import (
    _MAX_COMMAS,
    MAX_DENOMINATOR,
    MAX_FILE_BYTES,
    TWO_PI,
    _exact_layout_entries,
    format_sequence_set,
    read_json,
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


class TestJsonValueBound:
    """read_json refuses a file of more commas, so more values, than any
    file of the writer's within MAX_FILE_BYTES, before json parses it."""

    @pytest.mark.parametrize("s", [
        SequenceSet(np.zeros((1, 1000), dtype=np.int64), 1),
        SequenceSet(np.zeros((1, 1000))),
    ], ids=["rational", "float"])
    def test_densest_written_files_stay_within_the_bound(self, s):
        # every entry the shortest of its mode, scaled to the byte cap
        text = format_sequence_set(s)
        assert text.count(",") * MAX_FILE_BYTES <= _MAX_COMMAS * len(text)

    def test_compact_file_over_the_bound_is_refused_unparsed(self, tmp_path, monkeypatch):
        length = _MAX_COMMAS - 1  # 3 commas in the header, length - 1 between angles
        path = tmp_path / "compact.json"
        path.write_text(f'{{"length":{length},"size":1,"phase_mode":"float","members":[['
                        + "0," * (length - 1) + "0]]}")
        assert path.stat().st_size < MAX_FILE_BYTES
        monkeypatch.setattr("lazforge.seqcore.json.loads", lambda *a, **k: pytest.fail("parsed"))
        with pytest.raises(PreconditionError, match=f"{_MAX_COMMAS + 1} commas"):
            load_sequence_set(path)
        assert cli_exit(path) == 3


class TestTableWriter:
    """The writer formats each distinct entry once; its bytes are the
    entry-by-entry reference text's."""

    @pytest.mark.parametrize("s", [
        SequenceSet([[0.5, 1.5, 0.5, 0.5], [1.5, 0.5, 2.0, 0.5]]),
        SequenceSet(np.arange(12).reshape(3, 4), 13),
        SequenceSet([[1, 2**30, MAX_DENOMINATOR - 1]], MAX_DENOMINATOR),
    ], ids=["float with repeated angles", "all entries distinct", "MAX_DENOMINATOR"])
    def test_bytes_and_round_trip(self, s):
        assert format_sequence_set(s) == set_file_text(s)
        assert saved_bytes(s) == json_bytes(s)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "set.json"
            save_sequence_set(s, path)
            assert load_sequence_set(path) == s


def read_both(path):
    """What load_sequence_set and the JSON path, sequence_set_from_dict of
    read_json, give for a file: a set, or None where one refuses it."""
    results = []
    for read in (load_sequence_set, lambda p: sequence_set_from_dict(read_json(p))):
        try:
            results.append(read(path))
        except PreconditionError:
            results.append(None)
    return results


def cli_exit(path):
    """The exit code of `lazforge af` on a set file."""
    argv = ["af", "--set", str(path), "--kind", "periodic", "--zx", "1", "--zy", "1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def readers_agree(text):
    """The set both readers give for the text, or None when both refuse it,
    then also with exit 3 through the command line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        path.write_bytes(text.encode())
        fast, slow = read_both(path)
        assert fast == slow
        if fast is None:
            assert cli_exit(path) == 3
        return fast


def unreduced_text(s, factors):
    """json.dumps(d, indent=2) of s's dict, entry i's fraction scaled by
    factors[i % len(factors)]: the writer's layout, unreduced fractions."""
    d = set_dict(s)
    flat = [entry for row in d["members"] for entry in row]
    for i, entry in enumerate(flat):
        entry[0] *= factors[i % len(factors)]
        entry[1] *= factors[i % len(factors)]
    return json.dumps(d, indent=2) + "\n"


def number_spans(text):
    """The (start, end) of every number in a set file's members."""
    members = text.index('"members"')
    return [m.span() for m in re.finditer(r"[0-9]+", text) if m.start() > members]


def replace_number(text, index, new):
    start, end = number_spans(text)[index]
    return text[:start] + new + text[end:]


def move_digit(text, source, target):
    """The text with the digit at position source moved to position target
    of the text without it."""
    assert text[source].isdigit()
    rest = text[:source] + text[source + 1 :]
    return rest[:target] + text[source] + rest[target:]


def reorder_keys(text):
    d = json.loads(text)
    return json.dumps({key: d[key] for key in ("members", "phase_mode", "size", "length")},
                      indent=2) + "\n"


# entries 0/1, 1/6, 1/3, 1/2 and 2/3, 5/6, 0/1, 1/6: its numbers, in order,
# are 0 1 1 6 1 3 1 2 2 3 5 6 0 1 1 6
SMALL = SequenceSet([[0, 1, 2, 3], [4, 5, 0, 1]], 6)
SMALL_TEXT = format_sequence_set(SMALL)
SLOT = SMALL_TEXT.index("        5,")  # the numerator 5's line

# (mutation, whether the JSON path loads the result)
EDGES = {
    "leading zero": (replace_number(SMALL_TEXT, 2, "01"), False),
    "plus sign": (replace_number(SMALL_TEXT, 2, "+1"), False),
    "minus sign": (replace_number(SMALL_TEXT, 2, "-1"), True),
    "19 digits in int64": (replace_number(SMALL_TEXT, 2, str(10**18 + 1)), True),
    "19 digits beyond int64": (replace_number(SMALL_TEXT, 2, "9" * 19), False),
    "20 digits": (replace_number(SMALL_TEXT, 2, "1" + "0" * 19), False),
    "2**63 - 1": (replace_number(SMALL_TEXT, 2, str(2**63 - 1)), True),
    "2**63 - 1 denominator": (replace_number(SMALL_TEXT, 3, str(2**63 - 1)), False),
    "true": (replace_number(SMALL_TEXT, 2, "true"), False),
    "NaN": (replace_number(SMALL_TEXT, 2, "NaN"), False),
    "space between tokens": (SMALL_TEXT.replace("6\n", "6 \n", 1), True),
    "space in a number": (replace_number(SMALL_TEXT, 10, "4 2"), False),
    "reordered keys": (reorder_keys(SMALL_TEXT), True),
    "truncated": (SMALL_TEXT[: len(SMALL_TEXT) // 2], False),
    "empty file": ("", False),
    "10**15 entries declared": (SMALL_TEXT.replace('"size": 2', '"size": 10' + "0" * 14), False),
    # the 5 moved from its slot into the indent of its entry's bracket
    "digit out of its slot": (move_digit(SMALL_TEXT, SLOT + 8, SLOT - 4), False),
    "digit after its slot's comma": (move_digit(SMALL_TEXT, SLOT + 8, SLOT + 9), False),
    "extra digit after a bracket": (SMALL_TEXT.replace("      ],", "      ]7,", 1), False),
    "other footer of its length": (SMALL_TEXT[:-2] + "]\n", False),
}

FILE_MUTATIONS = ("none", "leading zero", "sign", "19 digits", "20 digits", "2**63 - 1",
                  "true", "NaN", "whitespace", "reordered keys", "truncated",
                  "10**15 entries", "moved digit")


@st.composite
def set_file_texts(draw):
    """A rational set's file, as the writer lays it out or with unreduced
    fractions, and changed by one drawn mutation (or none)."""
    rows = draw(st.lists(rational_rows(1, 4), min_size=1, max_size=3)
                .filter(lambda rows: len({len(r) for r in rows}) == 1)
                .filter(lambda rows: lcm_of(rows) <= MAX_DENOMINATOR))
    s = rational_set(rows)
    if draw(st.booleans()):
        text = format_sequence_set(s)
    else:
        text = unreduced_text(s, draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    mutation = draw(st.sampled_from(FILE_MUTATIONS))
    spans = number_spans(text)
    start, end = spans[draw(st.integers(0, len(spans) - 1))]
    number = {
        "leading zero": "0" + text[start:end],
        "sign": draw(st.sampled_from("+-")) + text[start:end],
        "19 digits": str(draw(st.integers(10**18, 10**19 - 1))),
        "20 digits": str(draw(st.integers(10**19, 10**20 - 1))),
        "2**63 - 1": str(2**63 - 1),
        "true": "true",
        "NaN": "NaN",
    }.get(mutation)
    if number is not None:
        return text[:start] + number + text[end:]
    at = draw(st.integers(0, len(text) - 1))
    if mutation == "whitespace":
        return text[:at] + draw(st.sampled_from([" ", "\n", "\t", "\r\n"])) + text[at:]
    if mutation == "reordered keys":
        return reorder_keys(text)
    if mutation == "truncated":
        return text[:at]
    if mutation == "10**15 entries":
        return re.sub('"size": [0-9]+', '"size": 10' + "0" * 14, text)
    if mutation == "moved digit":
        return move_digit(text, draw(st.integers(start, end - 1)), at)
    return text


class TestExactLayoutReader:
    """load_sequence_set parses a rational file in the writer's exact layout
    with numpy; any other file takes the JSON path.  Both must give == sets
    or both refuse."""

    def test_fast_path_taken_on_written_files(self, set_7_7):
        for s in (SMALL, SequenceSet([[0]], 1), set_7_7):
            for text in (format_sequence_set(s), unreduced_text(s, [1, 3, 2])):
                assert _exact_layout_entries(text.encode()) is not None
                assert readers_agree(text) == s

    def test_float_files_take_the_json_path(self):
        s = bjorck_shifts(7)
        assert _exact_layout_entries(format_sequence_set(s).encode()) is None
        assert readers_agree(format_sequence_set(s)) == s

    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_edge_cases(self, case):
        text, loads = EDGES[case]
        assert (readers_agree(text) is not None) == loads

    def test_18_digit_numerator_takes_the_fast_path(self):
        text = replace_number(SMALL_TEXT, 2, "9" * 18)
        assert _exact_layout_entries(text.encode())[0, 1, 0] == 10**18 - 1
        assert entries(readers_agree(text), 0)[1] == Fraction((10**18 - 1) % 6, 6)

    def test_19_digit_numerator_takes_the_json_path(self):
        text = replace_number(SMALL_TEXT, 2, str(10**18 + 1))
        assert _exact_layout_entries(text.encode()) is None
        assert entries(readers_agree(text), 0)[1] == Fraction((10**18 + 1) % 6, 6)

    def test_int64_max_numerator_loads(self):
        s = readers_agree(EDGES["2**63 - 1"][0])
        assert entries(s, 0)[1] == Fraction((2**63 - 1) % 6, 6)

    def test_huge_declared_size_is_refused_without_allocating(self, tmp_path):
        # a guard failure would build a 10**15-row array: a MemoryError
        path = tmp_path / "huge.json"
        path.write_text(EDGES["10**15 entries declared"][0])
        assert _exact_layout_entries(path.read_bytes()) is None
        with pytest.raises(PreconditionError):
            load_sequence_set(path)

    @given(set_file_texts())
    @settings(max_examples=300, deadline=None)
    def test_readers_agree(self, text):
        readers_agree(text)
