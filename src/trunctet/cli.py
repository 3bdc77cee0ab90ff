"""Command-line front end.

Subcommands: convert, volume, grad, verify, flow, conjecture, degenerate,
scan, sample. All numeric output is reproducible: identical argv (including
--seed) yields byte-identical output. A flag's value may start with a minus
sign (``--tol -1e-3``, ``--lengths -0.7,...``). Exit codes: 0 success, 1 usage
or validation failure (argparse's, or ``InvalidArgumentError``), 2 numerical
failure, 3 campaign finished with failing samples.
"""

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import extremal, schlafli
from .errors import InvalidArgumentError, TruncTetError
from .tetra import Tetrahedron, sample_O

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CAMPAIGN_FAILED = 3

DEFAULTS = {"tol": extremal.MARGIN_TOL, "dt": extremal.DEFAULT_DT, "samples": 10_000, "seed": 0}


def _parse_vector(text, degrees=False):
    parts = text.split(",")
    if len(parts) != 6:
        raise InvalidArgumentError(f"expected 6 comma-separated values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed vector {text!r}: {exc}") from exc
    if degrees:
        values = [math.radians(v) for v in values]
    return values


def _tetrahedron_from_args(args):
    if args.angles:
        return Tetrahedron.from_angles(_parse_vector(args.angles, args.degrees))
    if args.lengths:
        return Tetrahedron.from_lengths(_parse_vector(args.lengths))
    raise InvalidArgumentError("provide either --angles or --lengths")


def _dump(obj):
    # records in a payload become JSON only when it is printed, so a table
    # printed in its place never builds them
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda record: record.to_json_dict())


def _row(cells):
    # one CSV line; 17 significant digits give back every double
    return ",".join(c if isinstance(c, str) else f"{c:.17g}" for c in cells) + "\n"


def _write(out, args, payload, table=None):
    """Print the CSV ``table`` under the csv format, when the command has
    one, and the JSON ``payload`` otherwise."""
    out.write(table if args.format == "csv" and table is not None else _dump(payload) + "\n")


def _add_vector_flags(parser):
    parser.add_argument("--angles", help="six dihedral angles, comma separated")
    parser.add_argument("--lengths", help="six edge lengths, comma separated")
    parser.add_argument(
        "--degrees", action="store_true", help="interpret --angles in degrees"
    )


def _add_output_flags(parser, default):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--json", action="store_const", const="json", dest="format", help="JSON output"
    )
    group.add_argument("--csv", action="store_const", const="csv", dest="format", help="CSV output")
    parser.set_defaults(format=default)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a word starting with a minus sign and a
    digit or a point (``-1e-3``, ``-0.7,0.7,...``) as a value, not a flag;
    ``add_subparsers`` builds its subparsers with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse has no public setting for the rule, whose stock form takes
        # only plain numbers (-1, -.5); the private attribute is checked by
        # the CLI's negative-value tests
        self._negative_number_matcher = re.compile(r"-[\d.]")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = _Parser(
        prog="trunctet",
        description="Compact truncated hyperbolic tetrahedra: charts, volumes, "
        "gradients and extremal verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between angle and length charts")
    _add_vector_flags(p)
    _add_output_flags(p, "json")

    p = sub.add_parser("volume", help="volume of a tetrahedron")
    _add_vector_flags(p)
    _add_output_flags(p, "csv")

    p = sub.add_parser("grad", help="volume gradients in both charts")
    _add_vector_flags(p)
    _add_output_flags(p, "json")

    p = sub.add_parser("verify", help="sampling campaigns")
    p.add_argument("campaign", choices=["theorem", "anglesum"])
    p.add_argument("--ell", type=float, help="edge length floor (theorem)")
    p.add_argument("--sum", type=float, dest="theta_sum", help="angle sum (anglesum)")
    p.add_argument("--samples", type=int, default=DEFAULTS["samples"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    _add_output_flags(p, "json")

    p = sub.add_parser("flow", help="edge-shrinking deformation flow")
    _add_vector_flags(p)
    p.add_argument("--ell", type=float, required=True, help="edge length floor")
    p.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    _add_output_flags(p, "csv")

    p = sub.add_parser("conjecture", help="exploratory conjecture probes")
    p.add_argument("name", choices=["prima", "prima2"])
    _add_vector_flags(p)
    p.add_argument("--ell", type=float, required=True)
    _add_output_flags(p, "json")

    p = sub.add_parser("degenerate", help="flat degeneration path")
    p.add_argument("--steps", type=int, default=20)
    _add_output_flags(p, "csv")

    p = sub.add_parser("scan", help="volumes of the regular family")
    p.add_argument("--ells", help="comma-separated grid of edge lengths")
    p.add_argument("--grid", help="START:STOP:COUNT grid specification")
    _add_output_flags(p, "csv")

    p = sub.add_parser("sample", help="draw one admissible angle tuple")
    p.add_argument(
        "--constraint", choices=["interior", "acute", "volume_floor"], default="interior"
    )
    p.add_argument("--floor", type=float, help="volume floor value")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    _add_output_flags(p, "json")

    return parser


def _cmd_convert(args, out):
    tet = _tetrahedron_from_args(args)
    _write(out, args, tet, "l12,l13,l14,l34,l24,l23\n" + _row(tet.lengths))
    return EXIT_OK


def _cmd_volume(args, out):
    tet = _tetrahedron_from_args(args)
    _write(out, args, tet, _row([tet.volume]))
    return EXIT_OK


def _cmd_grad(args, out):
    tet = _tetrahedron_from_args(args)
    d_angles = schlafli.dvol_dangles(tet).values
    d_lengths = schlafli.dvol_dlengths(tet).values
    payload = {"tetrahedron": tet, "dvol_dangles": d_angles, "dvol_dlengths": d_lengths}
    table = _row(["chart", *(f"e{i}" for i in range(1, 7))])
    table += _row(["angles", *d_angles]) + _row(["lengths", *d_lengths])
    _write(out, args, payload, table)
    return EXIT_OK


def _cmd_verify(args, out):
    if args.samples < 0:
        raise InvalidArgumentError(f"--samples must be nonnegative, got {args.samples}")
    if args.campaign == "theorem":
        if args.ell is None:
            raise InvalidArgumentError("verify theorem requires --ell")
        report = extremal.verify_theorem(args.ell, args.samples, args.seed, tol=args.tol)
    else:
        if args.theta_sum is None:
            raise InvalidArgumentError("verify anglesum requires --sum")
        report = extremal.verify_fixed_angle_sum(
            args.theta_sum, args.samples, args.seed, tol=args.tol
        )
    header = dict(DEFAULTS)
    header.update({"samples": args.samples, "seed": args.seed, "tol": args.tol})
    _write(out, args, {"defaults": header, "report": report})
    return EXIT_OK if report.failures == 0 else EXIT_CAMPAIGN_FAILED


def _cmd_flow(args, out):
    traj = extremal.deformation_flow(_tetrahedron_from_args(args), args.ell, dt=args.dt)
    _write(out, args, traj, traj.to_csv())
    return EXIT_OK


def _cmd_conjecture(args, out):
    tet = _tetrahedron_from_args(args)
    if args.name == "prima":
        holds, margin = extremal.conjecture_prima_test(tet, args.ell)
        payload = {
            "conjecture": "prima",
            "holds": bool(holds),
            "margin": margin,
            "indeterminate": bool(abs(margin) < extremal.INDETERMINATE_BAND),
        }
    else:
        nonempty, witness = extremal.conjecture_prima2_test(tet, args.ell)
        payload = {
            "conjecture": "prima2",
            "nonempty": bool(nonempty),
            "inconclusive": not nonempty,
            "witness": witness,
        }
    _write(out, args, payload)
    return EXIT_OK


def _cmd_degenerate(args, out):
    path = extremal.degeneration_path(args.steps)
    payload = [{"angles": angles, "volume": v} for angles, v in path]
    table = "t12,t13,t14,t34,t24,t23,volume\n" + "".join(_row([*a, v]) for a, v in path)
    _write(out, args, payload, table)
    return EXIT_OK


def _cmd_scan(args, out):
    if not (args.ells or args.grid):
        raise InvalidArgumentError("scan requires --ells or --grid")
    try:
        if args.ells:
            grid = [float(x) for x in args.ells.split(",")]
        else:
            start, stop, count = args.grid.split(":")
            grid = list(np.linspace(float(start), float(stop), int(count)))
    except ValueError as exc:
        flag = f"--ells {args.ells!r}" if args.ells else f"--grid {args.grid!r}"
        raise InvalidArgumentError(f"bad {flag}: {exc}") from exc
    rows = extremal.regular_volume_scan(grid)
    payload = [{"ell": e, "volume": v} for e, v in rows]
    _write(out, args, payload, "ell,volume\n" + "".join(_row(row) for row in rows))
    return EXIT_OK


def _cmd_sample(args, out):
    if args.constraint == "volume_floor" and args.floor is None:
        raise InvalidArgumentError("--constraint volume_floor requires --floor")
    _write(out, args, Tetrahedron.from_angles(sample_O(args.seed, args.constraint, args.floor)))
    return EXIT_OK


_HANDLERS = {
    "convert": _cmd_convert,
    "volume": _cmd_volume,
    "grad": _cmd_grad,
    "verify": _cmd_verify,
    "flow": _cmd_flow,
    "conjecture": _cmd_conjecture,
    "degenerate": _cmd_degenerate,
    "scan": _cmd_scan,
    "sample": _cmd_sample,
}


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args, out)
    except InvalidArgumentError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except TruncTetError as exc:
        err.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
