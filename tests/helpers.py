"""Helpers shared by the test modules."""

import math

import numpy as np

from lazforge import SequenceSet


def stack(members) -> SequenceSet:
    """The set whose rows are the given sequences: numerators over their least
    common denominator when every member is rational, else angles."""
    members = list(members)
    if all(m.is_rational for m in members):
        d = math.lcm(*(m.denominator for m in members))
        return SequenceSet(np.stack([m.phases * (d // m.denominator) for m in members]), d)
    return SequenceSet(np.stack([m.angles for m in members]))
