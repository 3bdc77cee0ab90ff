"""Command-line front end.

Subcommands: convert, volume, grad, verify, flow, conjecture, degenerate,
scan. All numeric output is reproducible: identical argv (including --seed)
yields byte-identical output. Exit codes: 0 success, 1 validation failure,
2 numerical failure, 3 campaign finished with failing samples.
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

DEFAULTS = {"tol": 1e-9, "dt": 1e-3, "samples": 10_000, "seed": 0}


class UsageError(Exception):
    pass


def _parse_vector(text, degrees=False):
    parts = text.split(",")
    if len(parts) != 6:
        raise UsageError(f"expected 6 comma-separated values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"malformed vector {text!r}: {exc}") from exc
    if degrees:
        values = [math.radians(v) for v in values]
    return values


def _tetrahedron_from_args(args):
    if getattr(args, "angles", None):
        return Tetrahedron.from_angles(_parse_vector(args.angles, args.degrees))
    if getattr(args, "lengths", None):
        return Tetrahedron.from_lengths(_parse_vector(args.lengths))
    raise UsageError("provide either --angles or --lengths")


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _fmt(x):
    return f"{x:.17g}"


def _add_vector_flags(parser):
    parser.add_argument("--angles", help="six dihedral angles, comma separated")
    parser.add_argument("--lengths", help="six edge lengths, comma separated")
    parser.add_argument(
        "--degrees", action="store_true", help="interpret --angles in degrees"
    )


def _add_output_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON output")
    group.add_argument("--csv", action="store_true", help="CSV output")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="trunctet",
        description="Compact truncated hyperbolic tetrahedra: charts, volumes, "
        "gradients and extremal verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between angle and length charts")
    _add_vector_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("volume", help="volume of a tetrahedron")
    _add_vector_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("grad", help="volume gradients in both charts")
    _add_vector_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("verify", help="sampling campaigns")
    p.add_argument("campaign", choices=["theorem", "anglesum"])
    p.add_argument("--ell", type=float, help="edge length floor (theorem)")
    p.add_argument("--sum", type=float, dest="theta_sum", help="angle sum (anglesum)")
    p.add_argument("--samples", type=int, default=DEFAULTS["samples"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    _add_output_flags(p)

    p = sub.add_parser("flow", help="edge-shrinking deformation flow")
    _add_vector_flags(p)
    p.add_argument("--ell", type=float, required=True, help="edge length floor")
    p.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    _add_output_flags(p)

    p = sub.add_parser("conjecture", help="exploratory conjecture probes")
    p.add_argument("name", choices=["prima", "prima2"])
    _add_vector_flags(p)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--probes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    _add_output_flags(p)

    p = sub.add_parser("degenerate", help="flat degeneration path")
    p.add_argument("--steps", type=int, default=20)
    _add_output_flags(p)

    p = sub.add_parser("scan", help="volumes of the regular family")
    p.add_argument("--ells", help="comma-separated grid of edge lengths")
    p.add_argument("--grid", help="START:STOP:COUNT grid specification")
    _add_output_flags(p)

    p = sub.add_parser("sample", help="draw one admissible angle tuple")
    p.add_argument(
        "--constraint", choices=["interior", "acute", "volume_floor"], default="interior"
    )
    p.add_argument("--floor", type=float, help="volume floor value")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    _add_output_flags(p)

    return parser


def _cmd_convert(args, out):
    tet = _tetrahedron_from_args(args)
    if args.csv:
        out.write("l12,l13,l14,l34,l24,l23\n")
        out.write(",".join(_fmt(l) for l in tet.lengths) + "\n")
    else:
        out.write(_dump(tet.to_json_dict()) + "\n")
    return EXIT_OK


def _cmd_volume(args, out):
    tet = _tetrahedron_from_args(args)
    if args.json:
        out.write(_dump(tet.to_json_dict()) + "\n")
    else:
        out.write(_fmt(tet.volume) + "\n")
    return EXIT_OK


def _cmd_grad(args, out):
    tet = _tetrahedron_from_args(args)
    d_angles = schlafli.dvol_dangles(tet)
    d_lengths = schlafli.dvol_dlengths(tet)
    payload = {
        "tetrahedron": tet.to_json_dict(),
        "dvol_dangles": [float(_fmt(v)) for v in d_angles.values],
        "dvol_dlengths": [float(_fmt(v)) for v in d_lengths.values],
    }
    if args.csv:
        out.write("chart," + ",".join(f"e{i}" for i in range(1, 7)) + "\n")
        out.write("angles," + ",".join(_fmt(v) for v in d_angles.values) + "\n")
        out.write("lengths," + ",".join(_fmt(v) for v in d_lengths.values) + "\n")
    else:
        out.write(_dump(payload) + "\n")
    return EXIT_OK


def _cmd_verify(args, out):
    if args.samples < 0:
        raise UsageError(f"--samples must be nonnegative, got {args.samples}")
    if args.campaign == "theorem":
        if args.ell is None:
            raise UsageError("verify theorem requires --ell")
        report = extremal.verify_theorem(args.ell, args.samples, args.seed, tol=args.tol)
    else:
        if args.theta_sum is None:
            raise UsageError("verify anglesum requires --sum")
        report = extremal.verify_fixed_angle_sum(
            args.theta_sum, args.samples, args.seed, tol=args.tol
        )
    header = dict(DEFAULTS)
    header.update({"samples": args.samples, "seed": args.seed, "tol": args.tol})
    payload = {"defaults": header, "report": report.to_json_dict()}
    out.write(_dump(payload) + "\n")
    return EXIT_OK if report.failures == 0 else EXIT_CAMPAIGN_FAILED


def _cmd_flow(args, out):
    tet = _tetrahedron_from_args(args)
    traj = extremal.deformation_flow(tet, args.ell, dt=args.dt)
    if args.json:
        payload = {
            "ell_floor": traj.ell_floor,
            "dt": traj.dt,
            "reason": traj.reason,
            "points": [
                {"t": float(_fmt(t)), "tetrahedron": tt.to_json_dict()}
                for t, tt in traj.points
            ],
        }
        out.write(_dump(payload) + "\n")
    else:
        out.write(traj.to_csv())
    return EXIT_OK


def _cmd_conjecture(args, out):
    if args.probes < 0:
        raise UsageError(f"--probes must be nonnegative, got {args.probes}")
    tet = _tetrahedron_from_args(args)
    if args.name == "prima":
        holds, margin = extremal.conjecture_prima_test(tet, args.ell)
        indeterminate = bool(abs(margin) < extremal.INDETERMINATE_BAND)
        payload = {
            "conjecture": "prima",
            "holds": bool(holds),
            "margin": float(_fmt(margin)),
            "indeterminate": indeterminate,
        }
    else:
        nonempty, witness = extremal.conjecture_prima2_test(
            tet, args.ell, args.probes, args.seed
        )
        payload = {
            "conjecture": "prima2",
            "nonempty": bool(nonempty),
            "inconclusive": not nonempty,
            "witness": witness.to_json_dict() if witness else None,
        }
    out.write(_dump(payload) + "\n")
    return EXIT_OK


def _cmd_degenerate(args, out):
    path = extremal.degeneration_path(args.steps)
    if args.json:
        payload = [
            {"angles": [float(_fmt(a)) for a in angles], "volume": float(_fmt(v))}
            for angles, v in path
        ]
        out.write(_dump(payload) + "\n")
    else:
        out.write("t12,t13,t14,t34,t24,t23,volume\n")
        for angles, v in path:
            out.write(",".join(_fmt(a) for a in angles) + "," + _fmt(v) + "\n")
    return EXIT_OK


def _cmd_scan(args, out):
    try:
        if args.ells:
            grid = [float(x) for x in args.ells.split(",")]
        elif args.grid:
            start, stop, count = args.grid.split(":")
            grid = list(np.linspace(float(start), float(stop), int(count)))
        else:
            raise UsageError("scan requires --ells or --grid")
    except ValueError as exc:
        flag = f"--ells {args.ells!r}" if args.ells else f"--grid {args.grid!r}"
        raise UsageError(f"bad {flag}: {exc}") from exc
    rows = extremal.regular_volume_scan(grid)
    if args.json:
        payload = [{"ell": float(_fmt(e)), "volume": float(_fmt(v))} for e, v in rows]
        out.write(_dump(payload) + "\n")
    else:
        out.write("ell,volume\n")
        for e, v in rows:
            out.write(_fmt(e) + "," + _fmt(v) + "\n")
    return EXIT_OK


def _cmd_sample(args, out):
    if args.constraint == "volume_floor" and args.floor is None:
        raise UsageError("--constraint volume_floor requires --floor")
    rng = np.random.default_rng(args.seed)
    angles = sample_O(rng, args.constraint, floor=args.floor)
    tet = Tetrahedron.from_angles(angles)
    out.write(_dump(tet.to_json_dict()) + "\n")
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


#: flags whose value is a comma-separated vector
_VECTOR_FLAGS = ("--angles", "--lengths")

#: a value that starts with a minus sign, which argparse would take for an
#: option unless it is a single number
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _join_vector_values(argv):
    # "--lengths -0.7,..." as "--lengths=-0.7,...", the one form argparse
    # reads when the vector starts with a negative value
    joined = []
    for token in argv:
        if joined and joined[-1] in _VECTOR_FLAGS and _NEGATIVE_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(_join_vector_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args, out)
    except (UsageError, InvalidArgumentError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except TruncTetError as exc:
        err.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
