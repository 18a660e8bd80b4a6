"""Command-line frontend.

Subcommands: diagram, measure, bottleneck, stability, extended, validate,
plot.  Exit status is 0 on success, 1 when a computed property fails
(measure cross-check disagreement, failed validation suite, failed
stability bound, duality mismatch), and 2 for usage or input errors.

All output is deterministic for fixed input bytes.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from .bottleneck import bottleneck_distance, stability_report
from .checks import run_all
from .cohomology import DualityError, cohomology_diagrams
from .diagrams import BehaviorType, Rectangle
from .extended import ExtendedType, extended_profile
from .io import (InputError, diagram_entries, dump_diagram, entry_multiset,
                 load_diagram, load_space)
from .levelset import all_diagrams
from .measures import measure_profile
from .plot import render_svg

__all__ = ["main"]


def _parse_rect(text: str) -> Rectangle:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"--rect wants 'a,b,c,d', got {text!r}")
    corners = []
    for part in parts:
        s = part.strip()
        try:
            corners.append(float(s))  # reads "inf", "+inf" and "-inf" too
        except ValueError:
            raise InputError(f"bad rectangle corner {s!r}") from None
    try:
        return Rectangle(*corners)
    except ValueError as e:
        raise InputError(str(e)) from e


def _check_dim(dim: int) -> int:
    if dim < 0:
        raise InputError("--dim must be nonnegative")
    return dim


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_diagram(args) -> int:
    X, max_dim = load_space(args.input)
    # no piece has cells above its top dimension, so neither have diagrams
    top = min(max_dim, X.max_piece_dimension())
    dims = [_check_dim(args.dim)] if args.dim is not None else list(range(top + 1))
    compute = cohomology_diagrams if args.cohomology else all_diagrams
    by_dim = {k: compute(X, k) for k in dims}
    _write(dump_diagram(diagram_entries(by_dim)), args.out)
    return 0


def cmd_measure(args) -> int:
    X, _ = load_space(args.input)
    R = _parse_rect(args.rect)
    btype = BehaviorType(args.type)
    value = measure_profile(X, _check_dim(args.dim), R)[btype]
    count = all_diagrams(X, args.dim)[btype].count_in(R)
    print(value)
    agree = value == count
    print(f"cross-check: {count} ({'agree' if agree else 'DISAGREE'})")
    return 0 if agree else 1


def cmd_bottleneck(args) -> int:
    A = load_diagram(args.diagram_a)
    B = load_diagram(args.diagram_b)
    btype = BehaviorType(args.type)
    try:
        d = bottleneck_distance(entry_multiset(A, _check_dim(args.dim), btype),
                                entry_multiset(B, args.dim, btype))
    except ValueError as e:
        raise InputError(str(e)) from e
    print("inf" if math.isinf(d) else f"{d:.9f}")
    return 0


def cmd_stability(args) -> int:
    X, _ = load_space(args.input_a)
    Y, _ = load_space(args.input_b)
    try:
        report = stability_report(X, Y, tolerance=args.tolerance)
    except ValueError as e:
        raise InputError(str(e)) from e
    ok = True
    for k, btype in sorted(report, key=lambda kt: (kt[0], kt[1].value)):
        rec = report[(k, btype)]
        d = "inf" if math.isinf(rec.distance) else f"{rec.distance:.9f}"
        ok = ok and rec.passed
        print(f"k={k} type={btype.value} d_b={d} delta={rec.delta:.9f} "
              f"{'PASS' if rec.passed else 'FAIL'}")
    return 0 if ok else 1


def cmd_extended(args) -> int:
    X, _ = load_space(args.input)
    R = _parse_rect(args.rect)
    print(extended_profile(X, _check_dim(args.dim), R)[ExtendedType(args.type)])
    return 0


def cmd_validate(args) -> int:
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    X, _ = load_space(args.input)
    rng = random.Random(args.seed)
    try:
        results = run_all(X, rng, samples=args.samples)
    except ValueError as e:  # too few distinct rectangle corners
        raise InputError(str(e)) from e
    ok = True
    for r in results:
        ok = ok and r.passed
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if ok else 1


def cmd_plot(args) -> int:
    entries = load_diagram(args.diagram)
    _write(render_svg(entries), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramhom",
        description="Parametrized homology of constructible R-spaces.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    rect_help = ("rectangle corners 'a,b,c,d' with a < b < c < d; "
                 "when a is negative or -inf, join with '=' so it is not "
                 "read as a flag: --rect=-inf,0,1,inf")
    type_codes = [t.value for t in BehaviorType]

    p = sub.add_parser("diagram", help="compute decorated diagrams")
    p.add_argument("input", help="input space (JSON)")
    p.add_argument("--dim", type=int, help="single homology dimension (default: all)")
    p.add_argument("--cohomology", action="store_true",
                   help="compute via the dual zigzag and check duality")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("measure", help="one rectangle measure with cross-check")
    p.add_argument("input")
    p.add_argument("--type", required=True, choices=type_codes)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rect", required=True, help=rect_help)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bottleneck", help="bottleneck distance of two diagram files")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--type", required=True, choices=type_codes)
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser(
        "stability", help="compare two spaces against the stability bound",
        description="Compare two spaces that differ only in their critical values "
                    "against the stability bound. This checks reparametrization "
                    "only: both spaces have the same levelset zigzag.")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("extended", help="one extended persistence measure")
    p.add_argument("input")
    p.add_argument("--type", required=True,
                   choices=[t.value for t in ExtendedType])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rect", required=True, help=rect_help)
    p.set_defaults(func=cmd_extended)

    p = sub.add_parser("validate", help="run the property suites on an input space")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plot", help="render a diagram file to SVG")
    p.add_argument("diagram")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DualityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
