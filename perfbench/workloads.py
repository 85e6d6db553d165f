"""The benchmark's workloads and the oracles that check every output.

A workload's set-up writes or builds its inputs and returns a fixed list of
operations.  An operation's `run` is the timed call into lazforge (the CLI
in-process, or the public API); its `check` is an untimed oracle that does
not share the timed code path.  Expected values come from the paper's closed
forms (periodic theta = K, aperiodic theta <= K + p - 1, guaranteed zone
(p, Z_y)), from the companion families' known verdicts, and from the
construction formula s_n(tN + m) = h_n(m) w_K^{t f(m)} evaluated here in
integer arithmetic.

The seed picks the quadratic coefficients (a2, a1), gcd(a2, N) = 1, of every
configuration.  It changes the sets but not their sizes, so the cost and the
theorem's verdicts stay the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import lazforge
import lazforge.cli
import lazforge.seqcore

# |AF| tolerance per unit of sequence length, the certifier's documented
# comparison tolerance; measured maxima sit within 1e-9 of the exact values
THETA_TOL_SCALE = 1e-6


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    size: int = 0  # problem size: entries written, zone or grid points
    showcase: bool = False
    # a ROADMAP item-4 input (fail-closed loading) that the seed program
    # gets wrong; it stays in the mix and counts as failed, on purpose
    known_defect: bool = False


# ---------------------------------------------------------------------------
# closed forms, computed here independently of lazforge
# ---------------------------------------------------------------------------


def _spf(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _odd_primes(limit: int) -> list[int]:
    return [p for p in range(3, limit + 1) if _spf(p) == p]


def _chi(t: int, p: int) -> int:
    t %= p
    return 0 if t == 0 else (1 if pow(t, (p - 1) // 2, p) == 1 else -1)


def _guaranteed_zone(n: int, k: int) -> tuple[int, int]:
    """(p, Z_y) on which the quadratic family is locally perfect nonlinear."""
    if k == n:
        z_y = n
    elif k < 2 * n - 1:
        z_y = k - n + 1
    else:
        z_y = k
    return _spf(n), z_y


def _theta(n: int, k: int, kind: str) -> int:
    return k if kind == "periodic" else k + _spf(n) - 1


def _zone_points(n: int, k: int) -> int:
    """Points certified by one `verify --kind both`: M^2 (2Z_x-1)(2Z_y-1) per kind."""
    p, z_y = _guaranteed_zone(n, k)
    return 2 * n * n * (2 * p - 1) * (2 * z_y - 1)


def _expected_verdict(kind: str, order: int) -> bool:
    """Known companion-matrix verdicts: every DFT order and m-sequence passes;
    Legendre passes only for p = 3 (mod 4); Björck fails at p = 3 and 5."""
    if kind == "legendre":
        return order % 4 == 3
    if kind == "bjorck":
        return order >= 7
    return True


def _sweep_orders(kind: str, limit: int) -> list[int]:
    if kind == "dft":
        return list(range(2, limit + 1))
    if kind == "mseq":
        return [2**m - 1 for m in range(2, limit.bit_length() + 1) if 2**m - 1 <= limit]
    return _odd_primes(limit)


def _coefficients(rng: random.Random, n: int) -> tuple[int, int]:
    a2 = rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1])
    return a2, rng.randrange(n)


# ---------------------------------------------------------------------------
# calling lazforge
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    """`lazforge ARGV` in-process; returns the exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lazforge.cli.main(argv)
    return rc, out.getvalue()


def _gen_argv(n, k, a2, a1, h, path) -> list[str]:
    return ["gen", "--n", str(n), "--k", str(k), "--a2", str(a2), "--a1", str(a1),
            "--h", h, "-o", str(path)]


def _verify(path: Path, meta: Path | None = None):
    argv = ["verify", "--set", str(path), "--kind", "both"]
    if meta is not None:
        argv += ["--meta", str(meta)]
    return lambda: _cli(argv)


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def _guarded(check):
    """An oracle that reports malformed output as a failure, not a crash."""

    def guarded(result):
        try:
            return check(result)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as e:
            return f"unreadable output: {type(e).__name__}: {e}"

    return guarded


# ---------------------------------------------------------------------------
# build: gen over the acceptance sweep and showcases, companion sweeps
# ---------------------------------------------------------------------------

BUILD_GENS = [(5, 5, "dft"), (7, 7, "legendre"), (9, 9, "dft"), (7, 11, "mseq"),
              (15, 17, "mseq"), (25, 49, "dft"), (35, 35, "dft"), (35, 69, "dft")]
BUILD_SHOWCASE = (35, 35)
HGEN_LIMIT = 127

TINY_BUILD_GENS = [(5, 5, "dft"), (7, 7, "legendre"), (7, 11, "mseq")]
TINY_BUILD_SHOWCASE = (7, 7)
TINY_HGEN_LIMIT = 11


def _companion_turns(h: str, n: int, num0, den0):
    """Numerators and denominator of h_n(m) in turns.

    DFT and Legendre rows follow from their definitions; the m-sequence rows
    are read from the set's first block (t = 0, where s_n(m) = h_n(m)) and
    checked to be the cyclic shifts of one balanced +-1 row.
    """
    if h == "dft":
        i, m = np.indices((n, n))
        return (i * m) % (n + 1), n + 1
    if h == "legendre":
        row0 = np.array([0 if t == 0 or _chi(t, n) == 1 else 1 for t in range(n)])
        i, m = np.indices((n, n))
        return row0[(m + i) % n], 2
    minus = (num0 == 1) & (den0 == 2)
    if not np.all(minus | ((num0 == 0) & (den0 == 1))):
        raise ValueError("m-sequence rows are not +-1")
    rows = minus.astype(np.int64)
    shifts = np.array([np.roll(rows[0], -i) for i in range(n)])
    if not np.array_equal(rows, shifts) or rows[0].sum() != (n + 1) // 2:
        raise ValueError("m-sequence rows are not shifts of one balanced row")
    return rows, 2


def _gen_output_error(n, k, a2, a1, h, path: Path, raw: bytes, resave: Path) -> str | None:
    d = json.loads(raw)
    length = n * k
    if (d["size"], d["length"], d["phase_mode"]) != (n, length, "rational"):
        return "wrong header"
    ent = np.asarray(d["members"], dtype=np.int64)
    if ent.shape != (n, length, 2):
        return f"members have shape {ent.shape}"
    num, den = ent[..., 0], ent[..., 1]
    if np.any(den <= 0) or np.any(num < 0) or np.any(num >= den) or np.any(np.gcd(num, den) != 1):
        return "phases are not reduced fractions in [0, 1)"
    hnum, hden = _companion_turns(h, n, num[:, :n], den[:, :n])
    big = math.lcm(hden, k)
    idx = np.arange(length)
    t, m = idx // n, idx % n
    f = (a2 * m * m + a1 * m) % n
    want = (hnum[:, m] * (big // hden) + ((t * f) % k) * (big // k)) % big
    if np.any(big % den != 0) or not np.array_equal(num * (big // den), want):
        return "entries differ from h_n(m) w_K^{t f(m)}"
    meta = json.loads(_meta_path(path).read_text())
    p, z_y = _guaranteed_zone(n, k)
    for kind in ("periodic", "aperiodic"):
        c = meta[kind]
        got = (c["set_size"], c["length"], c["z_x"], c["z_y"], c["theta"])
        if got != (n, length, p, z_y, _theta(n, k, kind)):
            return f"{kind} claim {got} is not the guaranteed one"
    lazforge.seqcore.save_sequence_set(lazforge.seqcore.load_sequence_set(path), resave)
    if resave.read_bytes() != raw:
        return "re-saving the reloaded set changes its bytes"
    return None


def _check_gen(n, k, a2, a1, h, path: Path, resave: Path):
    """The first output gets the full check; identical inputs must then give
    byte-identical files, so later outputs are compared by digest."""
    verified = []

    def check(result):
        rc, _ = result
        if rc != 0:
            return f"exit {rc}, expected 0"
        raw = path.read_bytes()
        digest = hashlib.sha256(raw + _meta_path(path).read_bytes()).digest()
        if verified:
            return None if digest == verified[0] else "output bytes differ from the first run's"
        error = _gen_output_error(n, k, a2, a1, h, path, raw, resave)
        if error is None:
            verified.append(digest)
        return error

    return _guarded(check)


def _sweep(kind: str, orders: list[int]) -> dict[int, bool]:
    return {
        order: bool(lazforge.verify_h_constraints(lazforge.make_hmatrix(kind, order)).passed)
        for order in orders
    }


def _check_sweep(kind: str, orders: list[int]):
    def check(verdicts):
        wrong = [o for o in orders if verdicts.get(o) != _expected_verdict(kind, o)]
        return f"wrong verdicts at orders {wrong}" if wrong else None

    return check


def setup_build(rng: random.Random, workdir: Path, tiny: bool) -> list[Op]:
    gens = TINY_BUILD_GENS if tiny else BUILD_GENS
    showcase = TINY_BUILD_SHOWCASE if tiny else BUILD_SHOWCASE
    limit = TINY_HGEN_LIMIT if tiny else HGEN_LIMIT
    ops = []
    for n, k, h in gens:
        a2, a1 = _coefficients(rng, n)
        path = workdir / f"gen_{n}x{n * k}.json"
        argv = _gen_argv(n, k, a2, a1, h, path)
        ops.append(Op(
            name=f"gen {n}x{n * k} {h} a2={a2} a1={a1}",
            run=lambda argv=argv: _cli(argv),
            check=_check_gen(n, k, a2, a1, h, path, workdir / "resave.json"),
            size=n * n * k,
            showcase=(n, k) == showcase,
        ))
    for kind in ("dft", "legendre", "mseq", "bjorck"):
        orders = _sweep_orders(kind, limit)
        ops.append(Op(
            name=f"hgen sweep {kind} orders {orders[0]}..{orders[-1]}",
            run=lambda kind=kind, orders=orders: _sweep(kind, orders),
            check=_check_sweep(kind, orders),
        ))
    return ops


# ---------------------------------------------------------------------------
# certify: verify --kind both on written sets, plus negative operations
# ---------------------------------------------------------------------------

CERTIFY_SETS = [(7, 7, "legendre"), (7, 11, "mseq"), (15, 17, "mseq"), (25, 49, "dft"),
                (35, 35, "dft"), (35, 69, "dft"), (23, 23, "bjorck")]
CERTIFY_SHOWCASE = (35, 35)
TINY_CERTIFY_SETS = [(7, 7, "legendre"), (7, 11, "mseq")]
TINY_CERTIFY_SHOWCASE = (7, 7)


def _check_verify(n, k):
    length = n * k
    tol = THETA_TOL_SCALE * length

    def check(result):
        rc, out = result
        if rc != 0:
            return f"exit {rc}, expected 0"
        d = json.loads(out)
        certs = {c["claimed"]["kind"]: c for c in d["certificates"]}
        periodic = certs["periodic"]["measured_theta"]
        aperiodic = certs["aperiodic"]["measured_theta"]
        if abs(periodic - k) > tol:
            return f"periodic theta {periodic} != K = {k}"
        if aperiodic > _theta(n, k, "aperiodic") + tol:
            return f"aperiodic theta {aperiodic} > K + p - 1"
        if not (d["all_pass"] and d["cyclically_distinct"]):
            return "set not certified"
        return None

    return _guarded(check)


def _check_tightened(k, length):
    def check(result):
        rc, out = result
        if rc != 1:
            return f"exit {rc}, expected 1"
        certs = {c["claimed"]["kind"]: c for c in json.loads(out)["certificates"]}
        periodic = certs["periodic"]
        if periodic["pass"] or abs(periodic["measured_theta"] - k) > THETA_TOL_SCALE * length:
            return "tightened periodic claim not refused at theta = K"
        return None

    return _guarded(check)


@_guarded
def _check_shifted(result):
    rc, out = result
    if rc != 1:
        return f"exit {rc}, expected 1"
    if json.loads(out)["cyclically_distinct"] is not False:
        return "shifted member not detected"
    return None


def _check_refused(result):
    rc, _ = result
    return None if rc == 3 else f"exit {rc}, expected 3 (precondition error)"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def setup_certify(rng: random.Random, workdir: Path, tiny: bool) -> list[Op]:
    sets = TINY_CERTIFY_SETS if tiny else CERTIFY_SETS
    showcase = TINY_CERTIFY_SHOWCASE if tiny else CERTIFY_SHOWCASE
    ops = []
    paths = {}
    for n, k, h in sets:
        a2, a1 = _coefficients(rng, n)
        path = workdir / f"set_{n}x{n * k}.json"
        rc, _ = _cli(_gen_argv(n, k, a2, a1, h, path))
        if rc != 0:
            raise RuntimeError(f"set-up: gen {n}x{n * k} exited {rc}")
        paths[n, k] = path
        ops.append(Op(
            name=f"verify {n}x{n * k} {h} a2={a2} a1={a1}",
            run=_verify(path),
            check=_check_verify(n, k),
            size=_zone_points(n, k),
            showcase=(n, k) == showcase,
        ))

    base, base_meta = paths[7, 11], json.loads(_meta_path(paths[7, 11]).read_text())

    # a claim tightened below the measured theta: must fail (exit 1)
    tight = json.loads(_meta_path(base).read_text())
    tight["periodic"]["theta"] = 10.0
    _write_json(workdir / "tight.meta.json", tight)
    ops.append(Op(
        name="verify 7x77 claim theta 10 < K",
        run=_verify(base, workdir / "tight.meta.json"),
        check=_check_tightened(11, 77),
        size=_zone_points(7, 11),
    ))

    # member 1 replaced by a cyclic shift of member 0: must fail (exit 1)
    d = json.loads(base.read_text())
    shift = rng.randrange(1, d["length"])
    d["members"][1] = d["members"][0][shift:] + d["members"][0][:shift]
    _write_json(workdir / "shifted.json", d)
    _write_json(workdir / "shifted.meta.json", base_meta)
    ops.append(Op(
        name=f"verify 7x77 member 1 = member 0 shifted by {shift}",
        run=_verify(workdir / "shifted.json"),
        check=_check_shifted,
        size=_zone_points(7, 11),
    ))

    # ROADMAP item 4: an all-NaN float set and a malformed file must be
    # refused as precondition errors (exit 3)
    meta7 = json.loads(_meta_path(paths[7, 7]).read_text())
    nan_set = {"length": 49, "size": 7, "phase_mode": "float",
               "members": [[float("nan")] * 49 for _ in range(7)]}
    _write_json(workdir / "nan.json", nan_set)
    _write_json(workdir / "nan.meta.json", meta7)
    text = paths[7, 7].read_text()
    (workdir / "malformed.json").write_text(text[: len(text) // 2])
    _write_json(workdir / "malformed.meta.json", meta7)
    for label in ("nan", "malformed"):
        ops.append(Op(
            name=f"verify {label} 7x49 set",
            run=_verify(workdir / f"{label}.json"),
            check=_check_refused,
            known_defect=True,
        ))
    return ops


# ---------------------------------------------------------------------------
# survey: empirical_zone at three budgets per kind, as scripts/zone_survey.py
# ---------------------------------------------------------------------------

SURVEY_SETS = [(7, 7, "legendre"), (9, 9, "dft"), (15, 17, "mseq")]
SURVEY_SHOWCASE = (15, 17)
TINY_SURVEY_SETS = [(7, 7, "legendre")]
TINY_SURVEY_SHOWCASE = (7, 7)


def _check_rectangles(n, k):
    length = n * k
    p, z_y = _guaranteed_zone(n, k)

    def check(rects):
        rects = [tuple(r) for r in rects]
        if not rects or any(not (1 <= x <= length and 1 <= y <= length) for x, y in rects):
            return f"rectangles {rects} out of range"
        if any(a[0] >= b[0] or a[1] <= b[1] for a, b in zip(rects, rects[1:])):
            return f"rectangles {rects} are not a Pareto front"
        if not any(x >= p and y >= z_y for x, y in rects):
            return f"no rectangle of {rects} contains the guaranteed ({p}, {z_y})"
        return None

    return _guarded(check)


def setup_survey(rng: random.Random, workdir: Path, tiny: bool) -> list[Op]:
    sets = TINY_SURVEY_SETS if tiny else SURVEY_SETS
    showcase = TINY_SURVEY_SHOWCASE if tiny else SURVEY_SHOWCASE
    ops = []
    for n, k, h in sets:
        a2, a1 = _coefficients(rng, n)
        s = lazforge.build_laz_set(lazforge.quad_lpnf(n, a2, a1, k), lazforge.make_hmatrix(h, n))
        getattr(s, "matrix", None)  # materialise the input before timing
        length = n * k
        for kind in ("periodic", "aperiodic"):
            theta = _theta(n, k, kind)
            delays = length if kind == "periodic" else 2 * length - 1
            for budget in (theta, theta + 1, 2 * theta):
                ops.append(Op(
                    name=f"empirical_zone {n}x{length} {h} a2={a2} a1={a1} {kind} budget {budget}",
                    run=lambda s=s, budget=budget, kind=kind: lazforge.empirical_zone(
                        s, float(budget), kind),
                    check=_check_rectangles(n, k),
                    size=n * n * delays * length,
                    showcase=(n, k) == showcase and budget == theta,
                ))
    return ops


WORKLOADS = {
    "build": setup_build,
    "certify": setup_certify,
    "survey": setup_survey,
}

# the name the issue gives each workload's problem-size throughput
SIZE_LABELS = {
    "build": "entries_per_s",
    "certify": "zone_points_per_s",
    "survey": "grid_points_per_s",
}
