"""The benchmark in perfbench/ looks lazforge up by name; these checks keep
those names alive and run every workload's tiny operations through the
benchmark's own oracles."""

import functools
import importlib
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans, workloads  # noqa: E402


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in spans.PATCHES}))
def test_traced_lookup_site_exists(module, attr):
    # Tracer.install skips a missing site silently, so its layer would read 0
    assert attr in vars(importlib.import_module(module))


def test_matrix_is_a_cached_property():
    seqset = importlib.import_module("lazforge.seqcore").SequenceSet
    assert isinstance(seqset.__dict__.get("matrix"), functools.cached_property)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_operations_pass_their_oracles(workload, tmp_path):
    ops = workloads.WORKLOADS[workload](random.Random(0), tmp_path, True)
    failures = {op.name: op.check(op.run()) for op in ops}
    assert {name: error for name, error in failures.items() if error is not None} == {}
