"""The interleaved construction of low-ambiguity-zone sequence sets and its
exact inverse.

A local nonlinear function f: Z_N -> Z_K and a verified N x N companion
matrix h give N sequences of length N*K in one closed form:

    s_n(t*N + m) = h_n(m) * w_K^{t f(m)}

`build_laz_set` evaluates it; `factor_interleaved` reads (f, h) back from a
set and accepts only when rebuilding gives the set again exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .hgen import verify_h_constraints
from .lpnf import ZFunc, lpnf_zone_for
from .numth import smallest_prime_factor
from .seqcore import TWO_PI, SequenceSet, Zone, check_kind


@dataclass(frozen=True)
class LazParams:
    """Claimed low-ambiguity-zone parameters (M, length, zone, theta)."""

    set_size: int
    length: int
    zone: Zone
    theta: float
    kind: str

    def __post_init__(self):
        check_kind(self.kind)
        if type(self.set_size) is not int or type(self.length) is not int:
            raise PreconditionError("set_size and length must be integers")
        if isinstance(self.theta, bool) or not (math.isfinite(self.theta) and self.theta > 0):
            raise PreconditionError(f"theta must be finite and positive, got {self.theta}")

    def to_dict(self) -> dict:
        return {
            "set_size": self.set_size,
            "length": self.length,
            "z_x": self.zone.z_x,
            "z_y": self.zone.z_y,
            "theta": self.theta,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LazParams":
        """Parameters from `to_dict` output; a missing field or a value of the
        wrong type is a PreconditionError."""
        try:
            return cls(
                set_size=d["set_size"],
                length=d["length"],
                zone=Zone(d["z_x"], d["z_y"]),
                theta=d["theta"],
                kind=d["kind"],
            )
        except (KeyError, TypeError) as e:
            raise PreconditionError(
                f"claimed parameters need set_size, length, z_x, z_y, theta and kind; "
                f"got {d!r} ({type(e).__name__}: {e})"
            ) from None


def _check_companion(f: ZFunc, h: SequenceSet) -> None:
    """Refuse an h that is not a verified N x N companion matrix for f."""
    n = f.domain_size
    if h.size != n:
        raise PreconditionError(
            f"companion matrix order {h.size} != function domain size {n}"
        )
    report = verify_h_constraints(h)
    if not report.passed:
        raise PreconditionError(
            "companion matrix fails its constraints "
            f"(max inner {report.max_offdiag_inner:.6g}, "
            f"max modulated {report.max_modulated:.6g})"
        )


def _interleaved_rows(f: ZFunc, h: SequenceSet) -> tuple[np.ndarray, int | None]:
    """The phase rows s_n(t*N + m) = h_n(m) * w_K^{t f(m)} and their
    denominator, before SequenceSet folds and reduces them: integer
    numerators below 2 D over D = lcm(D_h, K), or unfolded float angles."""
    n, k = f.domain_size, f.codomain_size
    base = (np.arange(k)[:, None] * np.asarray(f.table)) % k  # w_K^{t f(m)} in turns of 1/K
    h_den = h.denominator
    if h_den is None:
        d, rows = None, h.phases[:, None, :] + TWO_PI * (base / k)
    else:
        d = math.lcm(h_den, k)
        rows = h.phases[:, None, :] * (d // h_den) + base * (d // k)
    return rows.reshape(n, n * k), d


def build_laz_set(f: ZFunc, h: SequenceSet) -> SequenceSet:
    """The interleaved sequence set for f and a verified N x N companion
    matrix h: s_n(t*N + m) = h_n(m) * w_K^{t f(m)}."""
    _check_companion(f, h)
    return SequenceSet(*_interleaved_rows(f, h))


def _fold(angles: np.ndarray) -> np.ndarray:
    """SequenceSet's fold, bit for bit, of angles a in [0, 4*pi): np.mod is
    fmod there, exactly a or a - 2*pi, and a - 2*pi is exact by Sterbenz's lemma."""
    return np.where(angles < TWO_PI, angles, angles - TWO_PI)


def factor_interleaved(s: SequenceSet) -> tuple[ZFunc, SequenceSet]:
    """The (f, h) with build_laz_set(f, h) == s: h is the t = 0 slice and f(m)
    the K-th-root exponent of s_0(N + m) / s_0(m).  A set that this does not
    rebuild exactly, or whose h fails its constraints, is a PreconditionError.

    The rebuilt rows are compared with the phase array directly: rational
    numerators exactly, both scaled to the common denominator lcm(D, D_s);
    float angles after `_fold`, for equality."""
    n = s.size
    if s.length % n:
        raise PreconditionError(f"length {s.length} is not a multiple of the size {n}")
    k = s.length // n
    phases, d = s.phases, s.denominator
    step = np.roll(phases[0], -n)[:n] - phases[0, :n]  # all zero when K = 1
    table = np.rint(step * k / TWO_PI) % k if d is None else (step % d) * k // d
    f = ZFunc(n, k, table.astype(np.int64).tolist())
    h = SequenceSet(phases[:, :n], d)
    _check_companion(f, h)
    rows, den = _interleaved_rows(f, h)
    if d is None:
        same = np.array_equal(_fold(rows), phases)  # each angle h's plus 2*pi j/K, both below 2*pi
    else:
        common = math.lcm(den, d)
        rows *= common // den
        rows -= phases * (common // d)  # each in (-common, 2 common)
        same = np.all((rows == 0) | (rows == common))
    if not same:
        raise PreconditionError("not an interleaved set")
    return f, h


def predicted_params(n: int, k: int, kind: str) -> LazParams:
    """Guaranteed parameters for the quadratic-family construction.

    theta is K for the periodic kind and K + p - 1 for the aperiodic kind,
    with p the smallest prime factor of N; the zone is the one on which the
    quadratic family is locally perfect nonlinear.
    """
    check_kind(kind)
    zone = lpnf_zone_for(n, k)  # validates n odd > 2, k >= n
    p = smallest_prime_factor(n)
    theta = k if kind == "periodic" else k + p - 1
    return LazParams(
        set_size=n,
        length=n * k,
        zone=zone,
        theta=float(theta),
        kind=kind,
    )


def power_map_params(p: int, kind: str) -> LazParams:
    """Guaranteed parameters for the power-map construction on Z_{p-1} -> Z_p.

    The set has p-1 members of length p(p-1) with zone
    (-(p-1), p-1) x (-p, p) and theta = p (periodic) or 2p - 2 (aperiodic).
    """
    check_kind(kind)
    if p < 3:
        raise PreconditionError("prime must be at least 3")
    theta = p if kind == "periodic" else 2 * p - 2
    return LazParams(
        set_size=p - 1,
        length=p * (p - 1),
        zone=Zone(p - 1, p),
        theta=float(theta),
        kind=kind,
    )
