"""Core types: sequence sets and delay-Doppler zones.

A set holds all of its members' phases in one 2-D array, a sequence is a
row of that array, and there is no per-entry phase type.
Root-of-unity entries are kept as integer numerators over one shared
denominator, so that magnitude comparisons downstream are bit-stable.  Float
angles exist only for families whose phases are not roots of unity (Björck
rows).
"""

from __future__ import annotations

import json
import math
import mmap
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi

# largest common denominator of a set file; keeps numerator products in int64
MAX_DENOMINATOR = 2**31

# largest file read_json or load_sequence_set reads, in bytes.  Peak RSS of a
# load in a fresh process, interpreter and numpy included: a file in the
# writer's layout takes the fast path at 1.5 to 2.6 times its size (263.4 MB
# for the 177.8 MB 127x32385 file, 57.3 MB for the 21.7 MB 63x8001 one), so
# one at the cap costs about 0.4 GB.  Any other file takes json, whose memory
# follows the count of values that _MAX_COMMAS bounds: a compact file just
# under that bound (127x96075 entries [k,7], 73.2 MB) peaked at 1711 MB.
MAX_FILE_BYTES = 2**28

KINDS = ("periodic", "aperiodic")


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise PreconditionError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True, eq=False)
class SequenceSet:
    """Sequences of one length as one read-only (size, length) phase array;
    row i is member i, and `matrix[i]` its complex entries.

    Rational (`denominator` D set): integer numerators, refused when given
    as floats or bools and stored as int64 k in [0, D), entry
    exp(2*pi*i*k/D), with D the smallest denominator that fits every entry
    of the set and at most MAX_DENOMINATOR.  Float (`denominator` None):
    finite real radian angles (integers or floats, never bools, complex
    numbers or strings) folded into [0, 2*pi).
    """

    phases: np.ndarray
    denominator: int | None = None

    def __post_init__(self):
        d = self.denominator
        try:
            phases = np.asarray(self.phases)
        except (ValueError, TypeError, OverflowError):  # ragged or not numbers
            raise PreconditionError("phases must form an array of numbers") from None
        if phases.ndim != 2 or phases.size < 1:
            raise PreconditionError("sequence set must be a nonempty 2-D array")
        if d is None:
            if phases.dtype.kind not in "iuf":
                # a cast would read bools as 0 and 1, drop imaginary parts and parse strings
                raise PreconditionError("angles must be real numbers")
            phases = phases.astype(np.float64, copy=False)
            if not np.all(np.isfinite(phases)):
                raise PreconditionError("angles must be finite")
            # the outer mod folds an inner result that rounded up to 2*pi
            phases = np.mod(np.mod(phases, TWO_PI), TWO_PI)
        elif phases.dtype.kind not in "iu" or not np.can_cast(phases.dtype, np.int64):
            # a cast would truncate floats and read bools as 0 and 1
            raise PreconditionError("numerators must be integers")
        elif d <= 0:
            raise PreconditionError("denominator must be positive")
        else:
            phases = phases.astype(np.int64, copy=False) % d
            g = np.gcd.reduce(phases, axis=None, initial=d)
            phases, d = phases // g, int(d // g)
        if d is not None and d > MAX_DENOMINATOR:
            raise PreconditionError(f"common denominator exceeds {MAX_DENOMINATOR}")
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "denominator", d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceSet):
            return NotImplemented
        # denominators are canonical, so equal rational sets share one
        return self.denominator == other.denominator and np.array_equal(self.phases, other.phases)

    @property
    def size(self) -> int:
        return self.phases.shape[0]

    @property
    def length(self) -> int:
        return self.phases.shape[1]

    @property
    def order(self) -> int:
        """The size: a companion matrix's order, read by perfbench's counters."""
        return self.size

    @cached_property
    def matrix(self) -> np.ndarray:
        """The set as a (size, length) complex matrix (cached)."""
        return self.rows(slice(None))

    def rows(self, index) -> np.ndarray:
        """The complex entries of the members `phases[index]`, equal to
        `matrix[index]`, without forming the whole matrix."""
        d, p = self.denominator, self.phases[index]
        return np.exp(1j * (p if d is None else TWO_PI * (p / d)))


@dataclass(frozen=True)
class Zone:
    """Open delay-Doppler rectangle (-z_x, z_x) x (-z_y, z_y) of integers."""

    z_x: int
    z_y: int

    def __post_init__(self):
        if type(self.z_x) is not int or type(self.z_y) is not int:
            raise PreconditionError("zone half-widths must be integers")
        if self.z_x < 1 or self.z_y < 1:
            raise PreconditionError("zone half-widths must be positive")

    def delays(self) -> range:
        return range(-self.z_x + 1, self.z_x)

    def dopplers(self) -> range:
        return range(-self.z_y + 1, self.z_y)

    def check_fits(self, length: int) -> None:
        if self.z_x > length or self.z_y > length:
            raise PreconditionError(
                f"zone ({self.z_x},{self.z_y}) exceeds sequence length {length}"
            )


# ---------------------------------------------------------------------------
# sequence-set file format
#
# { "length": int, "size": int, "phase_mode": "rational"|"float",
#   "members": [[ [num,den] | angle, ... ], ...] }
#
# Rational mode round-trips bit-exactly; float mode stores radian angles.
# The writer lays a file out from the templates below, as json.dumps(d,
# indent=2) + "\n" does, each rational entry k/D as its reduced fraction and
# each angle as its repr.  The reader takes any JSON text of the schema, with
# any fraction of a positive denominator.  A rational file whose members fit
# those templates, each slot a JSON integer of at most 18 digits, is parsed
# by numpy from its bytes, and gives the set the JSON path would give.
# ---------------------------------------------------------------------------

_RATIONAL_ENTRY = "      [\n        {},\n        {}\n      ]"
_FLOAT_ENTRY = "      {!r}"
_ROW_START, _ROW_END, _SEPARATOR, _FOOTER = "    [\n", "\n    ]", ",\n", "\n  ]\n}\n"
# the most commas a file of the writer's within MAX_FILE_BYTES holds, all of
# its entries the shortest one of their mode, each with its separator
_MAX_COMMAS = max(MAX_FILE_BYTES // len(entry) * entry.count(",") for entry in (
    _RATIONAL_ENTRY.format(0, 1) + _SEPARATOR, _FLOAT_ENTRY.format(0.0) + _SEPARATOR))


def _header(length: int, size: int, mode: str) -> str:
    """A set file's text up to its first member."""
    return (f'{{\n  "length": {length},\n  "size": {size},\n  "phase_mode": "{mode}",\n'
            '  "members": [\n')


def _rational_set(num: np.ndarray, den: np.ndarray) -> SequenceSet:
    """The set whose entries are the fractions num / den; a nonpositive
    denominator, or a common one above MAX_DENOMINATOR, is a
    PreconditionError."""
    if np.any(den <= 0):
        raise PreconditionError("denominators must be positive")
    common = 1  # checked as it grows: common // den must not overflow int64
    for v in np.unique(den).tolist():
        common = math.lcm(common, v)
        if common > MAX_DENOMINATOR:
            raise PreconditionError(f"common denominator exceeds {MAX_DENOMINATOR}")
    return SequenceSet(num % den * (common // den), common)


def sequence_set_from_dict(d: dict) -> SequenceSet:
    """Parse the schema above; input that does not follow it exactly, or a
    common denominator above MAX_DENOMINATOR, is a PreconditionError."""
    keys = ("length", "size", "phase_mode", "members")
    if not isinstance(d, dict) or any(key not in d for key in keys):
        raise PreconditionError(f"a set needs the keys {keys}")
    if extra := [key for key in d if key not in keys]:
        raise PreconditionError(f"a set has only the keys {keys}, not {extra}")
    length, size, mode, rows = (d[key] for key in keys)
    if mode not in ("rational", "float"):
        raise PreconditionError(f"unknown phase_mode {mode!r}")
    rational = mode == "rational"
    shape = (size, length, 2) if rational else (size, length)
    try:
        arr = np.asarray(rows)
    except (ValueError, TypeError, OverflowError):  # ragged or unconvertible
        arr = None
    if arr is None or arr.shape != shape or {type(size), type(length)} != {int}:
        raise PreconditionError(f"members must form the declared {shape} array")
    # numpy turns bools into numbers, so look for them in the JSON itself
    leaves = chain.from_iterable(chain.from_iterable(rows) if rational else rows)
    if arr.dtype.kind not in ("i" if rational else "if") or bool in set(map(type, leaves)):
        raise PreconditionError("entries must be " + ("integers" if rational else "numbers"))
    return _rational_set(arr[..., 0], arr[..., 1]) if rational else SequenceSet(arr)


def _refuse_constant(name: str):
    raise PreconditionError(f"non-finite JSON constant {name}")


@contextmanager
def _opened(path: str | Path, mode: str):
    """The file opened in mode; a missing or unreadable file, or one of more
    than MAX_FILE_BYTES (refused before it is read), is a PreconditionError."""
    try:
        size = Path(path).stat().st_size
        if size > MAX_FILE_BYTES:
            raise PreconditionError(f"{path} has {size} bytes, over the cap of {MAX_FILE_BYTES}")
        with open(path, mode) as f:
            yield f
    except OSError as e:
        raise PreconditionError(f"cannot read {path}: {e.strerror or e}") from None


def read_json(path: str | Path):
    """The JSON value stored in a file; a file that `_opened` refuses, one of
    more than _MAX_COMMAS commas (refused before it is parsed: json's memory
    follows the count of values, and a comma separates each from the next),
    any other content, the non-standard constants NaN and +-Infinity that
    Python's json would otherwise accept, an integer longer than Python's
    int conversion limit, or nesting deeper than its decoder recurses, is a
    PreconditionError."""
    try:
        with _opened(path, "r") as f:
            text = f.read()
        if (commas := text.count(",")) > _MAX_COMMAS:
            raise PreconditionError(f"{path} has {commas} commas, more than any set file"
                                    f" of at most {MAX_FILE_BYTES} bytes ({_MAX_COMMAS})")
        return json.loads(text, parse_constant=_refuse_constant)
    except PreconditionError:
        raise
    # undecodable text, malformed JSON and an integer past int()'s digit
    # limit are all ValueErrors
    except (ValueError, RecursionError) as e:
        raise PreconditionError(f"{path} is not valid JSON: {e}") from None


def _set_file_parts(s: SequenceSet) -> Iterator[str]:
    """s's set file as consecutive strings: the header, one per member, and
    the footer.

    An entry's text depends only on its value, so each distinct value is
    formatted once and a member's text joins its entries' strings.  Python's
    json indents in pure Python, several times slower than this.
    """
    phases, d = s.phases, s.denominator
    values, inverse = np.unique(phases, return_inverse=True)
    if d is None:
        mode, table = "float", [_FLOAT_ENTRY.format(a) for a in values.tolist()]
    else:
        g = np.gcd(values, d)
        fractions = zip((values // g).tolist(), (d // g).tolist())
        mode, table = "rational", [_RATIONAL_ENTRY.format(*f) for f in fractions]
    table = np.array(table, dtype=object)
    yield _header(s.length, s.size, mode)
    for i, row in enumerate(inverse.reshape(phases.shape)):
        body = _SEPARATOR.join(table[row].tolist())
        yield f"{_SEPARATOR if i else ''}{_ROW_START}{body}{_ROW_END}"
    yield _FOOTER


def format_sequence_set(s: SequenceSet) -> str:
    """s in the format above, byte for byte the text of json.dumps(d,
    indent=2) + "\\n" for the set's dict d, each rational entry written as
    its reduced fraction."""
    return "".join(_set_file_parts(s))


def write_text(path: str | Path, parts: Iterable[str]) -> None:
    """Write the strings of parts one after another to the file at path."""
    try:  # a missing directory is a PreconditionError, as in read_json
        with open(path, "w") as f:
            f.writelines(parts)
    except OSError as e:
        raise PreconditionError(f"cannot write {path}: {e.strerror or e}") from None


def save_sequence_set(s: SequenceSet, path: str | Path) -> None:
    """Write s's set file one member at a time, never holding its whole text."""
    write_text(path, _set_file_parts(s))


_SIZES = re.compile(rb'\{\n  "length": ([1-9][0-9]{0,18}),\n  "size": ([1-9][0-9]{0,18}),\n')
_NON_DIGITS_TO_SPACE = bytes(c if c in b"0123456789" else ord(" ") for c in range(256))
# a JSON integer that int64 holds: no sign, no leading zero, at most 18 digits
_NUMBER = b"(?:0|[1-9][0-9]{0,17})"


def _member_pattern(length: int) -> re.Pattern:
    """A member's text in the writer's layout, each slot a _NUMBER; the
    repeat is possessive, so re keeps no backtracking state per entry."""
    start, separator, end = (re.escape(t.encode()) for t in (_ROW_START, _SEPARATOR, _ROW_END))
    entry = _NUMBER.join(re.escape(part.encode()) for part in _RATIONAL_ENTRY.split("{}"))
    return re.compile(b"%s%s(?:%s%s){%d}+%s" % (start, entry, separator, entry, length - 1, end))


def _exact_layout_entries(data: bytes | mmap.mmap) -> np.ndarray | None:
    """The (size, length, 2) array of the [num, den] entries of a rational
    file in exactly the layout that the writer gives it (reduced fractions
    or not), parsed by numpy; None for any other file, which the JSON path
    then loads or refuses.

    Each member's text must match `_member_pattern`: then its digit runs are
    its 2 * length numbers, each one that json reads and int64 holds, and
    np.fromstring reads them as json would.  A 19-digit number takes json.
    """
    sizes = _SIZES.match(data)
    if sizes is None:
        return None
    length, size = int(sizes[1]), int(sizes[2])
    header = _header(length, size, "rational").encode()
    # the smallest entry bounds the size a file can declare before anything
    # of that size is built
    smallest = len(_RATIONAL_ENTRY.format(0, 1))
    if size * length * smallest > len(data) or data[: len(header)] != header:
        return None
    member = _member_pattern(length)
    entries = np.empty((size, 2 * length), dtype=np.int64)
    start = len(header)
    for i in range(size):
        row = member.match(data, start)
        if row is None:
            return None
        entries[i] = np.fromstring(row[0].translate(_NON_DIGITS_TO_SPACE), dtype=np.int64, sep=" ")
        start = row.end()
        tail = (_SEPARATOR if i + 1 < size else _FOOTER).encode()
        if data[start : start + len(tail)] != tail:
            return None
        start += len(tail)
    return entries.reshape(size, length, 2) if start == len(data) else None


def load_sequence_set(path: str | Path) -> SequenceSet:
    """The set of a set file; a file that `read_json` or
    `sequence_set_from_dict` refuses is a PreconditionError."""
    with _opened(path, "rb") as f:
        try:
            # mapped, not read: a freed read buffer would raise glibc's mmap
            # threshold, and with it the peak of the JSON path below
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # empty, or not a regular file
            mapped = nullcontext(b"")
        with mapped as data:
            entries = _exact_layout_entries(data)
    if entries is None:
        return sequence_set_from_dict(read_json(path))
    return _rational_set(entries[..., 0], entries[..., 1])
