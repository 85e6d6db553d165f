#!/usr/bin/env python3
"""Build and certify the two showcase sets: the 7x49 Legendre-modulated set
and the 35x1225 DFT-modulated set.

Prints full certificates for both kinds plus the computed optimality factors
next to the previously reported ones (the two periodic reported values follow
an undocumented convention and disagree with the bound formula; see the
computed column for the formula values).

Usage: python scripts/build_reference_sets.py [outdir]
"""

import sys
import time
from pathlib import Path

from lazforge import (
    asymptotic_rho,
    build_laz_set,
    certify_laz,
    cyclic_distinct,
    make_hmatrix,
    predicted_params,
    quad_lpnf,
    save_sequence_set,
)
from lazforge.tables import REPORTED_SHOWCASE_FACTORS
from lazforge.verify import interleaved_factors


def showcase(n, k, h_kind, outdir):
    f = quad_lpnf(n, 1, 0, k)
    s = build_laz_set(f, make_hmatrix(h_kind, n))
    path = outdir / f"set_{n}x{s.length}.json"
    save_sequence_set(s, path)
    print(f"\n== {s.size} sequences of length {s.length} ({h_kind}) -> {path}")
    factors = interleaved_factors(s)  # one factoring and one check serve both kinds
    distinct = cyclic_distinct(s, factors)
    for kind in ("periodic", "aperiodic"):
        t0 = time.perf_counter()
        params = predicted_params(n, k, kind)
        cert = certify_laz(s, params, distinct=distinct, factors=factors)
        dt = time.perf_counter() - t0
        w = cert.witness
        print(
            f"  {kind:9s} claim theta={params.theta:g} over "
            f"(-{params.zone.z_x},{params.zone.z_x})x(-{params.zone.z_y},{params.zone.z_y}): "
            f"measured {cert.measured_theta:.6f} "
            f"{'PASS' if cert.passed else 'FAIL'} "
            f"(witness pair ({w.i},{w.j}) tau={w.tau} v={w.v}; {dt:.2f}s)"
        )
        reported = REPORTED_SHOWCASE_FACTORS[(n, k)][kind]
        print(
            f"            optimality: computed {cert.bound_report.rho:.6f} "
            f"(closed form {asymptotic_rho(n, k, kind):.6f}), "
            f"reported {reported:.6f}"
        )
    print(f"  cyclically distinct: {distinct.distinct}")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    showcase(7, 7, "legendre", outdir)
    showcase(35, 35, "dft", outdir)


if __name__ == "__main__":
    main()
