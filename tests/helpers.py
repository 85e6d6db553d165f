"""Helpers shared by the test modules."""

import json
import math
from fractions import Fraction

from lazforge import Zone, af_grid, supported_orders
from lazforge.numth import is_prime


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

# the acceptance sets, the certify benchmark's sets beyond them (Björck 23x529
# and 35x2415) and a Björck 7x49 set, each with the coefficients (a2, a1) =
# (1, 0) and (2, 1): the sets the closed-form paths are checked on
CLOSED_FORM_SETS = [
    (n, k, family, a2, a1)
    for n, k, family in ACCEPTANCE_CONFIGS + [(7, 7, "bjorck"), (23, 23, "bjorck"), (35, 69, "dft")]
    for a2, a1 in ((1, 0), (2, 1))
]


def closed_form_id(config):
    """The test id of a CLOSED_FORM_SETS entry, such as '35x1225 dft a2=1 a1=0'."""
    n, k, family, a2, a1 = config
    return f"{n}x{n * k} {family} a2={a2} a1={a1}"


def family_orders(kind, limit=127):
    """Every order through limit that a family generates: all for DFT,
    2^m - 1 for m-sequences, odd primes for Legendre and Björck."""
    if kind == "dft":
        return range(2, limit + 1)
    if kind == "mseq":
        return supported_orders("mseq", limit)
    return [p for p in range(3, limit + 1) if is_prime(p)]


def entries(s, i):
    """Row i of a rational set, each entry as a reduced Fraction of a turn."""
    return tuple(Fraction(int(k), s.denominator) for k in s.phases[i])


def set_file_text(s):
    """The reference text of s's set file, independent of the writer: json's
    indented text of the set's dict, built entry by entry, each rational entry
    as the [numerator, denominator] of its Fraction from `entries`, each float
    entry as its angle."""
    if s.denominator is None:
        mode, members = "float", [[float(a) for a in s.phases[i]] for i in range(s.size)]
    else:
        mode = "rational"
        members = [[[x.numerator, x.denominator] for x in entries(s, i)] for i in range(s.size)]
    d = {"length": s.length, "size": s.size, "phase_mode": mode, "members": members}
    return json.dumps(d, indent=2) + "\n"


def euler_phi(n):
    """Euler's totient by counting the k in [1, n] coprime to n."""
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))
