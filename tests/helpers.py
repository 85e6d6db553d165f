"""Helpers shared by the test modules."""

from fractions import Fraction

from lazforge import aperiodic_af, periodic_af

# the direct-sum AF of each kind, the oracle for the batched kernel
DIRECT = {"periodic": periodic_af, "aperiodic": aperiodic_af}

# the (N, K, companion family) sets the acceptance suite certifies
ACCEPTANCE_CONFIGS = [
    (5, 5, "dft"),
    (7, 7, "legendre"),
    (9, 9, "dft"),
    (7, 11, "mseq"),
    (15, 17, "mseq"),
    (25, 49, "dft"),
    (35, 35, "dft"),
]


def entries(s, i):
    """Row i of a rational set, each entry as a reduced Fraction of a turn."""
    return tuple(Fraction(int(k), s.denominator) for k in s.phases[i])
