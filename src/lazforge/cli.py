"""Command-line interface.

Subcommands: gen, hgen, lpnf, af, bounds, tables, verify.  Exit codes:
0 success/pass, 1 verification fail, 2 usage error, 3 precondition error.
Bad input never exits 0 or 1: an argument that does not parse, or a flag
the command would ignore, is a usage error; a malformed or non-finite set,
meta file, size, theta or budget, an output path that cannot be written, or
a request too large for memory is a precondition error.  One pass rounds
every float in the JSON reports of verify, bounds and hgen verify to 9
significant digits, and af writes its CSV at 9 digits, so identical inputs
produce byte-identical output.  The set and meta files that gen and hgen
write are input data and keep full precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .ambiguity import af_grid
from .bounds import optimality_factor
from .construct import (
    LazParams,
    build_laz_set,
    power_map_params,
    predicted_params,
)
from .errors import PreconditionError
from .hgen import GENERATORS, make_hmatrix, verify_h_constraints
from .lpnf import (
    diff_table,
    lpnf_zone_for,
    nonlinearity_witness,
    power_lpnf,
    quad_lpnf,
)
from .seqcore import (
    KINDS,
    Zone,
    format_sequence_set,
    load_sequence_set,
    read_json,
    save_sequence_set,
    write_text,
)
from .verify import (
    certify_laz,
    cyclic_distinct,
    empirical_zone,
    interleaved_factors,
    reproduce_table,
)


def _round9(value):
    """The JSON value with every float in it rounded to 9 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _round9(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(item) for item in value]
    return value


def _write(text: str, path: str | None = None) -> None:
    if path:
        write_text(path, [text])
    else:
        sys.stdout.write(text)


def _json_out(obj, path: str | None = None) -> None:
    _write(json.dumps(obj, indent=2) + "\n", path)


def _meta_path(out: str) -> Path:
    p = Path(out)
    if p.suffix == ".json":
        return p.with_suffix(".meta.json")
    return Path(str(p) + ".meta.json")


def _build_function(args):
    if args.power_map is not None:
        if (args.n, args.k, args.a2, args.a1) != (None, None, None, None):
            args.usage_error("--n, --k, --a2 and --a1 do not apply with --power-map")
        p, alpha = args.power_map
        return power_lpnf(p, alpha), ("power", p, alpha)
    if args.n is None or args.k is None:
        raise PreconditionError("--n and --k are required without --power-map")
    a2 = 1 if args.a2 is None else args.a2
    a1 = 0 if args.a1 is None else args.a1
    return quad_lpnf(args.n, a2, a1, args.k), ("quad", args.n, args.k)


def _cmd_gen(args) -> int:
    f, family = _build_function(args)
    h = make_hmatrix(args.h, f.domain_size)
    s = build_laz_set(f, h)
    save_sequence_set(s, args.output)
    if family[0] == "power":
        params = {k: power_map_params(family[1], k) for k in KINDS}
    else:
        params = {k: predicted_params(family[1], family[2], k) for k in KINDS}
    meta = {"family": family[0], "h_kind": args.h}
    meta.update((k, params[k].to_dict()) for k in KINDS)
    _json_out(meta, str(_meta_path(args.output)))
    print(f"wrote {args.output} ({s.size} sequences of length {s.length})")
    return 0


def _cmd_hgen(args) -> int:
    if args.mode:
        if args.mode[0] != "verify" or len(args.mode) != 2:
            args.usage_error("the only mode is 'verify FILE'")
        if (args.kind, args.n, args.output) != (None, None, None):
            args.usage_error("verify takes no --kind, --n or -o")
        h = load_sequence_set(args.mode[1])
        report = verify_h_constraints(h)
        out = {
            "order": h.size,
            "max_offdiag_inner": report.max_offdiag_inner,
            "max_modulated": report.max_modulated,
            "pass": report.passed,
            "inner_witness": report.inner_witness,
            "modulated_witness": report.modulated_witness,
        }
        _json_out(_round9(out))
        return 0 if report.passed else 1
    if args.kind is None or args.n is None:
        args.usage_error("--kind and --n are required to generate")
    h = make_hmatrix(args.kind, args.n)
    if args.output:
        save_sequence_set(h, args.output)
    else:
        sys.stdout.write(format_sequence_set(h))
    return 0


def _cmd_lpnf(args) -> int:
    if (args.zx is None) != (args.zy is None):
        args.usage_error("--zx and --zy go together")
    f, family = _build_function(args)
    if args.zx is not None:
        zone = Zone(args.zx, args.zy)
    elif family[0] == "quad":
        zone = lpnf_zone_for(family[1], family[2])
    else:
        zone = Zone(f.domain_size, f.codomain_size)
    count, a, b = nonlinearity_witness(f, zone)
    print(f"P_f = {count} over zone ({zone.z_x},{zone.z_y}); witness a={a} b={b}")
    if args.diff_csv:
        lines = ["a,x,diff"]
        for a_step in range(1, f.domain_size):
            for x, d in enumerate(diff_table(f, a_step)):
                lines.append(f"{a_step},{x},{d}")
        _write("\n".join(lines) + "\n", args.diff_csv)
    return 0


def _cmd_af(args) -> int:
    s = load_sequence_set(args.set)
    i, j = args.pair
    if not (0 <= i < s.size and 0 <= j < s.size):
        raise PreconditionError(f"pair indices out of range for set of size {s.size}")
    zone = Zone(args.zx, args.zy)
    grid = af_grid(*s.rows([i, j]), zone, args.kind)
    lines = ["tau,v,re,im,mag"]
    for r, tau in enumerate(zone.delays()):
        for c, v in enumerate(zone.dopplers()):
            z = grid[r, c]
            lines.append(f"{tau},{v},{z.real:.9g},{z.imag:.9g},{abs(z):.9g}")
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_bounds(args) -> int:
    report = optimality_factor(args.theta, args.m, args.len, args.zx, args.zy, args.kind)
    _json_out(_round9(dataclasses.asdict(report)))
    return 0


def _table_ids(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _cmd_tables(args) -> int:
    all_pass = True
    for tid in args.id:
        checks = reproduce_table(tid)
        print(f"table {tid}:")
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            print(
                f"  M={c.row.set_size} len={c.row.length} "
                f"zone=({c.row.z_x},{c.row.z_y}) theta={c.row.theta} "
                f"computed={c.computed_rho:.6f} reference={c.reference_rho:.6f} "
                f"{status}"
            )
            all_pass &= c.passed
    return 0 if all_pass else 1


def _cmd_verify(args) -> int:
    s = load_sequence_set(args.set)
    meta = read_json(args.meta or _meta_path(args.set))
    kinds = KINDS if args.kind == "both" else (args.kind,)
    distinct, factors = cyclic_distinct(s), interleaved_factors(s)
    out = {"certificates": [], "all_pass": True}
    for kind in kinds:
        params = LazParams.from_dict(meta.get(kind) if isinstance(meta, dict) else None)
        if params.kind != kind:  # else a copied entry would certify the wrong claim
            raise PreconditionError(f"meta entry {kind!r} claims kind {params.kind!r}")
        cert = certify_laz(s, params, distinct=distinct, factors=factors)
        out["certificates"].append(cert.to_dict())
        out["all_pass"] &= cert.passed and cert.cyclically_distinct
    out["cyclically_distinct"] = distinct.distinct
    if args.empirical_budget is not None:
        out["empirical_rectangles"] = {
            kind: empirical_zone(s, args.empirical_budget, kind) for kind in kinds
        }
    _json_out(_round9(out))
    return 0 if out["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lazforge",
        description="Construct and certify low-ambiguity-zone sequence sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_function_flags(p):
        p.add_argument("--n", type=int, help="function domain size")
        p.add_argument("--k", type=int, help="function codomain size")
        p.add_argument("--a2", type=int, help="quadratic coefficient")
        p.add_argument("--a1", type=int, help="linear coefficient")
        p.add_argument(
            "--power-map",
            nargs=2,
            type=int,
            metavar=("P", "ALPHA"),
            help="use x -> ALPHA^x mod P instead of the quadratic family",
        )

    p = sub.add_parser("gen", help="build an interleaved sequence set")
    add_function_flags(p)
    p.add_argument("--h", choices=GENERATORS, default="dft", help="companion matrix family")
    p.add_argument("-o", "--output", required=True, help="output set JSON path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "hgen",
        help="generate or verify a companion matrix",
        usage="%(prog)s verify FILE | %(prog)s --kind KIND --n N [-o FILE]",
    )
    p.add_argument("mode", nargs="*", help="'verify FILE' to check an existing matrix")
    p.add_argument("--kind", choices=GENERATORS)
    p.add_argument("--n", type=int, help="matrix order")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_hgen)

    p = sub.add_parser("lpnf", help="measure local nonlinearity of a function")
    add_function_flags(p)
    p.add_argument("--zx", type=int, help="difference zone half-width")
    p.add_argument("--zy", type=int, help="value zone half-width")
    p.add_argument("--diff-csv", help="write all difference tables as CSV")
    p.set_defaults(func=_cmd_lpnf)

    p = sub.add_parser("af", help="evaluate an ambiguity surface as CSV")
    p.add_argument("--set", required=True)
    p.add_argument("--pair", nargs=2, type=int, default=[0, 0], metavar=("I", "J"))
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--zx", type=int, required=True)
    p.add_argument("--zy", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_af)

    p = sub.add_parser("bounds", help="lower bound and optimality factor")
    p.add_argument("--m", type=int, required=True, help="set size")
    p.add_argument("--len", type=int, required=True, help="sequence length")
    p.add_argument("--zx", type=int, required=True)
    p.add_argument("--zy", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tables", help="recompute reference tables")
    p.add_argument("--id", type=_table_ids, required=True,
                   help="comma-separated table ids (1,2,4,5)")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="certify a set against its claimed parameters")
    p.add_argument("--set", required=True)
    p.add_argument("--meta", help="claimed parameters (default: sidecar of --set)")
    p.add_argument("--kind", choices=(*KINDS, "both"), default="both")
    p.add_argument("--empirical-budget", type=float)
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():  # a flag the command would ignore is a usage error
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse's usage errors, also those a command raises
        return int(e.code) if e.code else 0
    except (PreconditionError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
