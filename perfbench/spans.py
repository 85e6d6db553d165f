"""Span tracer for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: `install()` wraps
each public lazforge function at the module where the caller looks it up
(`lazforge.verify.theta_max`, `lazforge.cli.certify_laz`, ...), wraps the
`SequenceSet.matrix` materialisation, and wraps `numpy.fft.fft`/`ifft` so
that every transform is charged to the innermost open span.  `uninstall()`
puts the originals back.  Spans stay in memory until the run writes them.

Each span has an id, a layer name, start and end (seconds from the tracer's
creation), its parent span, the operation execution it belongs to and the
pass number.  Spans of one operation share the operation id.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field
from statistics import median

import numpy


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    pass_no: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _shape(s) -> tuple[int, int]:
    return (getattr(s, "size", 0), getattr(s, "length", 0))


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


# Work counters, computed from a call's arguments and result after its span
# closes, so their cost is not charged to the layer.


def _count_save(counts, args, kwargs, result):
    m, length = _shape(_arg(args, kwargs, 0, "s"))
    _add(counts, "entries", m * length)
    _add(counts, "bytes", _file_size(_arg(args, kwargs, 1, "path")))


def _count_load(counts, args, kwargs, result):
    m, length = _shape(result)
    _add(counts, "entries", m * length)
    _add(counts, "bytes", _file_size(_arg(args, kwargs, 0, "path")))


def _count_hverify(counts, args, kwargs, result):
    order = getattr(_arg(args, kwargs, 0, "h"), "order", 0)
    _add(counts, "points", order**3)  # (i, j) pairs times N Doppler bins


def _count_theta(counts, args, kwargs, result):
    m, _ = _shape(_arg(args, kwargs, 0, "s"))
    zone = _arg(args, kwargs, 1, "zone")
    if zone is not None:
        _add(counts, "zone_points", m * m * (2 * zone.z_x - 1) * (2 * zone.z_y - 1))


def _count_empirical(counts, args, kwargs, result):
    m, length = _shape(_arg(args, kwargs, 0, "s"))
    delays = length if _arg(args, kwargs, 2, "kind") == "periodic" else 2 * length - 1
    _add(counts, "grid_points", m * m * delays * length)


# (module, attribute, layer, counter): every lookup site the benchmark's
# operations reach, so a call is traced whichever module makes it.
PATCHES = (
    ("lazforge.cli", "main", "cli", None),
    ("lazforge.cli", "save_sequence_set", "seqcore.save", _count_save),
    ("lazforge.cli", "load_sequence_set", "seqcore.load", _count_load),
    ("lazforge.cli", "quad_lpnf", "lpnf", None),
    ("lazforge.cli", "power_lpnf", "lpnf", None),
    ("lazforge.construct", "lpnf_zone_for", "lpnf", None),
    ("lazforge.cli", "make_hmatrix", "hgen.generate", None),
    ("lazforge", "make_hmatrix", "hgen.generate", None),
    ("lazforge", "verify_h_constraints", "hgen.verify", _count_hverify),
    ("lazforge.construct", "verify_h_constraints", "hgen.verify", _count_hverify),
    ("lazforge.cli", "verify_h_constraints", "hgen.verify", _count_hverify),
    ("lazforge.cli", "build_laz_set", "construct.build", None),
    ("lazforge.cli", "certify_laz", "verify.certify", None),
    ("lazforge.verify", "theta_max", "ambiguity.theta_max", _count_theta),
    ("lazforge.verify", "cyclic_distinct", "verify.distinct", None),
    ("lazforge.cli", "cyclic_distinct", "verify.distinct", None),
    ("lazforge", "empirical_zone", "verify.empirical", _count_empirical),
    ("lazforge.cli", "empirical_zone", "verify.empirical", _count_empirical),
    ("lazforge.verify", "optimality_factor", "bounds", None),
    ("lazforge.cli", "optimality_factor", "bounds", None),
)

FFT_FUNCS = ("fft", "ifft")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._t0 = time.perf_counter()
        self._stack: list[Span] = []  # open spans of the current operation
        self._lock = threading.Lock()  # fft calls arrive from pool threads
        self._saved: list[tuple[object, str, object]] = []

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _push(self, span: Span) -> Span:
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _open(self, name: str) -> Span:
        parent = self._stack[-1]
        return self._push(Span(id=len(self.spans), name=name, parent=parent.id,
                               op=parent.op, pass_no=parent.pass_no, start=self._now()))

    def _close(self, span: Span) -> None:
        span.end = self._now()
        self._stack.pop()

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: int, pass_no: int) -> None:
        self._push(Span(id=len(self.spans), name="op", parent=None,
                        op=op_id, pass_no=pass_no, start=self._now()))

    def end_op(self) -> None:
        self._stack[0].end = self._now()
        self._stack.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside an operation (set-up, oracles)
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(span.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            stack = self._stack
            if stack:
                span = stack[-1]
                with self._lock:
                    _add(span.counts, "fft.calls", 1)
                    _add(span.counts, "fft.bins", int(out.size))
            return out

        return counted

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name, attr, layer, counter in PATCHES:
            module = importlib.import_module(module_name)
            if attr in vars(module):
                self._patch(module, attr, self._wrap(layer, getattr(module, attr), counter))
        seqset = importlib.import_module("lazforge.seqcore").SequenceSet
        prop = seqset.__dict__.get("matrix")
        if isinstance(prop, functools.cached_property):
            wrapped = functools.cached_property(self._wrap("seqcore.matrix", prop.func, None))
            wrapped.__set_name__(seqset, "matrix")
            self._patch(seqset, "matrix", wrapped)
        elif isinstance(prop, property):
            self._patch(seqset, "matrix", property(self._wrap("seqcore.matrix", prop.fget, None)))
        for attr in FFT_FUNCS:
            self._patch(numpy.fft, attr, self._wrap_fft(getattr(numpy.fft, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer aggregation
# ---------------------------------------------------------------------------


def pass_totals(spans: list[Span]) -> dict:
    """Per-layer totals of one pass.

    busy: time inside the outermost span of each layer (nested spans of the
    same layer are not counted twice); self: span time minus the time of its
    direct children; calls: outermost spans; counts: summed counters, with
    fft counts also summed over all spans as "fft.calls"/"fft.bins".
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    def nested_in_same_layer(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return True
            p = by_id[p].parent
        return False

    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict] = {}
    fft = {"fft.calls": 0, "fft.bins": 0}
    for s in spans:
        dur = s.end - s.start
        _add(self_time, s.name, dur - child_time.get(s.id, 0.0))
        if not nested_in_same_layer(s):
            _add(busy, s.name, dur)
            _add(calls, s.name, 1)
        layer_counts = counts.setdefault(s.name, {})
        for key, value in s.counts.items():
            _add(layer_counts, key, value)
            if key in fft:
                fft[key] += value
    return {"busy": busy, "self": self_time, "calls": calls, "counts": counts, "fft": fft}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _busy(layer):
    return lambda t: t["busy"].get(layer, 0.0)


def _self(layer):
    return lambda t: t["self"].get(layer, 0.0)


def _calls(layer):
    return lambda t: t["calls"].get(layer, 0)


def _count(layer, key):
    return lambda t: t["counts"].get(layer, {}).get(key, 0)


def _entries(t):
    return _count("seqcore.save", "entries")(t) + _count("seqcore.load", "entries")(t)


def _theta_points_per_s(t):
    return _ratio(_count("ambiguity.theta_max", "zone_points")(t), _busy("ambiguity.theta_max")(t))


def _theta_useful(t):
    return _ratio(
        _count("ambiguity.theta_max", "zone_points")(t),
        _count("ambiguity.theta_max", "fft.bins")(t),
    )


# (name, unit, better, what it should move, value from one pass's totals).
# `ops`, `ops_failed` and `trace.overhead_frac` are filled in by the runner.
LAYER_METRICS = (
    ("seqcore.save.busy_s", "s", "lower", "wall_s on build", _busy("seqcore.save")),
    ("seqcore.save.bytes", "bytes", "lower", "wall_s, size_per_s on build", _count("seqcore.save", "bytes")),
    ("seqcore.entries", "count", "higher", "size_per_s, peak_rss_mb on build", _entries),
    ("seqcore.load.busy_s", "s", "lower", "wall_s on certify", _busy("seqcore.load")),
    ("seqcore.load.bytes", "bytes", "lower", "wall_s on certify", _count("seqcore.load", "bytes")),
    ("seqcore.matrix.busy_s", "s", "lower", "wall_s on certify", _busy("seqcore.matrix")),
    ("lpnf.busy_s", "s", "lower", "wall_s on build (near 0; watches for regressions)", _busy("lpnf")),
    ("hgen.generate.busy_s", "s", "lower", "wall_s on build", _busy("hgen.generate")),
    ("hgen.generate.calls", "count", "lower", "wall_s on build", _calls("hgen.generate")),
    ("hgen.verify.busy_s", "s", "lower", "wall_s on build", _busy("hgen.verify")),
    ("hgen.verify.calls", "count", "lower", "wall_s on build", _calls("hgen.verify")),
    ("hgen.verify.points", "count", "higher", "wall_s on build", _count("hgen.verify", "points")),
    ("construct.build.self_s", "s", "lower", "wall_s, showcase_s, peak_rss_mb on build", _self("construct.build")),
    ("construct.build.calls", "count", "lower", "wall_s on build", _calls("construct.build")),
    ("ambiguity.theta_max.busy_s", "s", "lower", "wall_s, showcase_s, size_per_s on certify", _busy("ambiguity.theta_max")),
    ("ambiguity.theta_max.calls", "count", "lower", "wall_s on certify", _calls("ambiguity.theta_max")),
    ("ambiguity.theta_max.zone_points", "count", "higher", "size_per_s on certify", _count("ambiguity.theta_max", "zone_points")),
    ("ambiguity.theta_max.points_per_s", "1/s", "higher", "size_per_s, showcase_s on certify", _theta_points_per_s),
    ("ambiguity.theta_max.useful_ratio", "ratio", "higher", "wall_s, size_per_s on certify", _theta_useful),
    ("ambiguity.fft.calls", "count", "lower", "wall_s on certify and survey", lambda t: t["fft"]["fft.calls"]),
    ("ambiguity.fft.bins", "count", "lower", "wall_s on certify and survey", lambda t: t["fft"]["fft.bins"]),
    ("verify.certify.self_s", "s", "lower", "wall_s on certify", _self("verify.certify")),
    ("verify.distinct.busy_s", "s", "lower", "wall_s on certify", _busy("verify.distinct")),
    ("verify.distinct.calls", "count", "lower", "wall_s on certify", _calls("verify.distinct")),
    ("verify.empirical.busy_s", "s", "lower", "wall_s, showcase_s on survey", _busy("verify.empirical")),
    ("verify.empirical.calls", "count", "lower", "wall_s on survey", _calls("verify.empirical")),
    ("verify.empirical.grid_points", "count", "higher", "size_per_s on survey", _count("verify.empirical", "grid_points")),
    ("bounds.busy_s", "s", "lower", "wall_s on certify and build", _busy("bounds")),
    ("bounds.calls", "count", "lower", "wall_s on certify and build", _calls("bounds")),
    ("cli.self_s", "s", "lower", "wall_s on certify and build", _self("cli")),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over passes of each per-layer metric.  Counts repeat exactly
    from pass to pass, so their median is the per-pass count."""
    passes: dict[int, list[Span]] = {}
    for s in spans:
        passes.setdefault(s.pass_no, []).append(s)
    totals = [pass_totals(p) for _, p in sorted(passes.items())]
    return {name: median(fn(t) for t in totals) for name, _, _, _, fn in LAYER_METRICS}
