#!/usr/bin/env python3
"""Survey the empirically maximal low-ambiguity rectangles of a constructed
set across a range of budgets.

The guaranteed zone for the quadratic family is (-p, p) x (-Z_y, Z_y); this
script measures how far the clean region actually extends, which settles in
particular whether the Doppler width of the 7x49 set reaches beyond the
guaranteed (-7, 7).

Usage: python scripts/zone_survey.py [N [K]]
"""

import sys

from lazforge import (
    build_laz_set,
    empirical_zone,
    make_hmatrix,
    predicted_params,
    quad_lpnf,
)
from lazforge.numth import is_prime


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    k = int(sys.argv[2]) if len(sys.argv) > 2 else n
    f = quad_lpnf(n, 1, 0, k)
    h_kind = "legendre" if (is_prime(n) and n % 4 == 3) else "dft"
    s = build_laz_set(f, make_hmatrix(h_kind, n))
    print(f"{s.size} sequences of length {s.length} ({h_kind})")
    for kind in ("periodic", "aperiodic"):
        params = predicted_params(n, k, kind)
        guaranteed = (params.zone.z_x, params.zone.z_y)
        print(f"\n{kind}: guaranteed rectangle {guaranteed} at budget {params.theta:g}")
        for budget in (params.theta, params.theta + 1, 2 * params.theta):
            rects = empirical_zone(s, budget, kind)
            print(f"  budget {budget:6g}: maximal rectangles {rects}")


if __name__ == "__main__":
    main()
