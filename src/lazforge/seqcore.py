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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi

# largest common denominator of a set file; keeps numerator products in int64
MAX_DENOMINATOR = 2**31

# largest file read_json parses, in bytes.  Loading a set file peaks at 4.6
# to 7.5 times its size in RSS (810 MB for the 177.8 MB 127x32385 file; 125.6
# to 163 MB for the 21.7 MB 63x8001 one), so a file at the cap costs at most
# about 2 GB, and the largest paper-size set (127x32385) still loads
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
        d = self.denominator
        return np.exp(1j * (self.phases if d is None else TWO_PI * (self.phases / d)))


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
# format_sequence_set writes each rational entry k/D as its reduced fraction
# and each angle as its repr, straight from the phase array; the reader takes
# any fraction with a positive denominator.
# ---------------------------------------------------------------------------


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
    if not rational:
        return SequenceSet(arr)
    num, den = arr[..., 0], arr[..., 1]
    if np.any(den <= 0):
        raise PreconditionError("denominators must be positive")
    common = 1  # checked as it grows: common // den must not overflow int64
    for v in np.unique(den).tolist():
        common = math.lcm(common, v)
        if common > MAX_DENOMINATOR:
            raise PreconditionError(f"common denominator exceeds {MAX_DENOMINATOR}")
    return SequenceSet(num % den * (common // den), common)


def _refuse_constant(name: str):
    raise PreconditionError(f"non-finite JSON constant {name}")


def read_json(path: str | Path):
    """The JSON value stored in a file; a missing or unreadable file, one of
    more than MAX_FILE_BYTES (refused before it is read), any other content,
    the non-standard constants NaN and +-Infinity that Python's json would
    otherwise accept, or nesting deeper than its decoder recurses, is a
    PreconditionError."""
    try:
        size = Path(path).stat().st_size
        if size > MAX_FILE_BYTES:
            raise PreconditionError(f"{path} has {size} bytes, over the cap of {MAX_FILE_BYTES}")
        return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)
    except OSError as e:
        raise PreconditionError(f"cannot read {path}: {e.strerror or e}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise PreconditionError(f"{path} is not valid JSON: {e}") from None


def format_sequence_set(s: SequenceSet) -> str:
    """s in the format above, byte for byte the text of json.dumps(d,
    indent=2) + "\\n" for the set's dict d, each rational entry written as
    its reduced fraction.

    Python's json encodes in C only when indent is None, and its pure-Python
    indenter takes several times longer than filling one format string with
    the phase array's values, flattened into one list, as here.  repr is
    json's float format.
    """
    phases, d = s.phases, s.denominator
    if d is None:
        mode, entry, values = "float", "      %r", phases.ravel().tolist()
    else:
        g = np.gcd(phases, d)
        mode, entry = "rational", "      [\n        %d,\n        %d\n      ]"
        values = np.stack((phases // g, d // g), -1).ravel().tolist()
    row = "    [\n" + ",\n".join([entry] * s.length) + "\n    ]"
    members = ",\n".join([row] * s.size) % tuple(values)
    header = json.dumps({"length": s.length, "size": s.size, "phase_mode": mode}, indent=2)
    return f'{header[:-2]},\n  "members": [\n{members}\n  ]\n}}\n'  # header without "\n}"


def write_text(path: str | Path, text: str) -> None:
    try:  # a missing directory is a PreconditionError, as in read_json
        Path(path).write_text(text)
    except OSError as e:
        raise PreconditionError(f"cannot write {path}: {e.strerror or e}") from None


def save_sequence_set(s: SequenceSet, path: str | Path) -> None:
    write_text(path, format_sequence_set(s))


def load_sequence_set(path: str | Path) -> SequenceSet:
    return sequence_set_from_dict(read_json(path))
