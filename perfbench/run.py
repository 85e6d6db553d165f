#!/usr/bin/env python3
"""lazforge benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload {build,certify,survey} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from anywhere; the lazforge sources are taken from `src/` next to this
directory, never from an installed copy.  The seed picks the workload's
inputs (see workloads.py).  Set-up (import plus input generation) runs
several times and its median is `setup_s`.  Then the fixed list of
operations runs back to back, each starting when the previous one ends,
with lazforge at its default settings (default scan worker count), until S
seconds have passed and at least one whole pass is done.  Every output is
checked by an untimed oracle.  `attempted` and `failed` count each
operation of the list once per run, so they depend on the seed alone.

--trace 0 prints the end-to-end metrics; --trace 1 spends half of S on
untraced passes and half on traced ones and prints the per-layer metrics
(medians over the traced passes) and the tracing overhead, and writes the
spans to perfbench/_traces/.  The last line of standard output is the
result object; the lines before it record the environment, the seed, the
operations and the metrics under the names the workloads give them.

--tiny runs each workload on a few small inputs; selftest.py uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import lazforge, lazforge.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Import time of lazforge in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def setup(setup_fn, seed: int, workdir: Path, tiny: bool) -> tuple[list, float]:
    """Median over SETUP_REPS of import plus input generation; the last
    repetition's operations are the ones measured."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t_import = _import_seconds()
        t0 = time.perf_counter()
        ops = setup_fn(random.Random(seed), workdir, tiny)
        times.append(t_import + time.perf_counter() - t0)
    return ops, median(times)


@dataclass
class Samples:
    latencies: dict[str, list[float]]
    pass_walls: list[float] = field(default_factory=list)  # whole passes only
    executions: int = 0
    failures: list[dict] = field(default_factory=list)


def measure(ops, seconds: float, whole_passes: bool, tracer=None) -> Samples:
    """Closed loop over the operations until `seconds` have passed and one
    whole pass is done; with whole_passes the last pass is finished too."""
    samples = Samples(latencies={op.name: [] for op in ops})
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        pass_wall = 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op(samples.executions, pass_no)
            t0 = time.perf_counter()
            try:
                result, reason = op.run(), None
            except Exception as e:  # a crash is a failed operation
                result, reason = None, f"raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            reason = reason or op.check(result)
            samples.executions += 1
            samples.latencies[op.name].append(dt)
            pass_wall += dt
            if reason:
                samples.failures.append(
                    {"op": op.name, "pass": pass_no, "reason": reason,
                     "known_defect": op.known_defect}
                )
            if pass_no > 0 and not whole_passes and time.perf_counter() >= deadline:
                return samples
        samples.pass_walls.append(pass_wall)
        pass_no += 1
        if time.perf_counter() >= deadline:
            return samples


def failed_ops(failures: list[dict]) -> int:
    """Operations with at least one wrong execution, however many passes
    fitted in the time."""
    return len({f["op"] for f in failures})


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(lazforge, numpy) -> dict:
    resolve = getattr(getattr(lazforge, "ambiguity", None), "resolve_threads", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lazforge": getattr(lazforge, "__version__", None),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workers": resolve() if resolve else None,
        "LAZ_FORGE_THREADS": os.environ.get("LAZ_FORGE_THREADS"),
    }


def end_to_end(ops, samples: Samples, setup_s: float) -> dict[str, float]:
    med = {name: median(v) for name, v in samples.latencies.items()}
    wall = sum(med.values())
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "showcase_s": sum(med[op.name] for op in ops if op.showcase),
        "size_per_s": sum(op.size for op in ops) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "lazforge" / "__init__.py").is_file():
        print(f"perfbench: no lazforge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import lazforge
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[key]}

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops, setup_s = setup(workloads.WORKLOADS[args.workload], args.seed, workdir, args.tiny)
        # showcase operations lead each pass, so the pass that the deadline
        # cuts short still adds to their few samples
        ops.sort(key=lambda op: not op.showcase)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "tiny": args.tiny,
            "env": environment(lazforge, numpy),
            "ops": [op.name for op in ops],
        }
        if args.trace == 0:
            samples = measure(ops, args.seconds, whole_passes=False)
            metrics = end_to_end(ops, samples, setup_s)
            failures = samples.failures
            executions = samples.executions
            label = workloads.SIZE_LABELS[args.workload]
            named = dict(metrics, **{label: metrics["size_per_s"],
                                     "fail_frac": failed_ops(failures) / len(ops)})
            units.update({label: "1/s", "fail_frac": "ratio"})
        else:
            untraced = measure(ops, args.seconds / 2, whole_passes=True)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(ops, args.seconds / 2, whole_passes=True, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = spans.layer_metrics(tracer.spans)
            failures = untraced.failures + traced.failures
            executions = untraced.executions + traced.executions
            metrics["ops"] = len(ops)
            metrics["ops_failed"] = failed_ops(traced.failures)
            metrics["trace.overhead_frac"] = (
                median(traced.pass_walls) / median(untraced.pass_walls) - 1.0
            )
            named = metrics
            trace_path = HERE / "_traces" / f"{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(exist_ok=True)
            trace_path.write_text(json.dumps({
                **info,
                "layers": {name: {"unit": unit, "better": better, "moves": moves}
                           for name, unit, better, moves, _ in spans.LAYER_METRICS},
                "metrics": metrics,
                "failures": failures,
                "spans": [asdict(s) for s in tracer.spans],
            }) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    info["executions"] = executions
    info["failures"] = failures
    print(json.dumps(info))
    for name, value in named.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        # every wrong output counts in `failed`; only a failure of an
        # operation not declared a known defect makes the run incorrect
        "correct": all(f["known_defect"] for f in failures),
        "attempted": len(ops),
        "failed": failed_ops(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
