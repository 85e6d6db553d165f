"""Helpers shared by the test modules."""

from fractions import Fraction

from lazforge import Zone, af_grid, aperiodic_af, periodic_af

# the direct-sum AF of each kind, the oracle for the batched kernel
DIRECT = {"periodic": periodic_af, "aperiodic": aperiodic_af}


def doppler_row(a, b, tau, kind):
    """AF_ab(tau, v) for every v in [0, L), read from af_grid over the full
    zone (L, L), whose row tau + L - 1 holds delay tau and column v + L - 1
    Doppler v."""
    n = len(a)
    return af_grid(a, b, Zone(n, n), kind)[tau + n - 1, n - 1 :]


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
