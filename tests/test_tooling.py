"""Packaging and benchmark-tooling guards: the package imports without
SciPy, its public names are the pinned list, the CLI commands print no
numpy RuntimeWarning, the README's command examples parse, every name the
benchmark's tracer wraps still exists,
and the campaigns and the deformation flow reach the volume through the
attribute the tracer and the benchmark's self-test wrap, the flow makes one
chart call, one volume call and one strict polytope test per block of at
most ``_FLOW_BLOCK`` rows, one of each for a path that fits one block,
a campaign makes records only for its reference and its witnesses, a
NaN or an int too large for a float (10**400) in any public numeric
parameter raises a typed error, without hanging, and every name a package
module imports is used, and every private definition is read."""

import ast
import glob
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest
import trunctet
import trunctet.convert
import trunctet.domain
import trunctet.volume
from trunctet import (
    Tetrahedron,
    deformation_flow,
    regular_volume_l0,
    sample_T_ell,
    verify_fixed_angle_sum,
    verify_theorem,
)
from trunctet.cli import build_parser
from trunctet.extremal import _FLOW_BLOCK

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(trunctet.__file__))
    code = (
        "import sys, trunctet; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


START = "0.7,0.7,0.8,0.7,0.7,0.8"
FLOW = "0.9,0.8,0.7,0.9,0.8,0.7"
#: the s = 6 start of ``tests/test_extremal.py::s6_start``, whose prima2 hits at ell 5
S6 = ("1.141882653589793,1.141282653589793,0.858417346410207,"
      "0.858417346410207,0.858417346410207,1.141282653589793")


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["convert", "--lengths", START], 0, ""),
        (["convert", "--lengths", "800,0.5,0.5,0.5,0.5,0.5"], 2,
         "numerical error: length kernel overflows at edge {1,2}: z_k z_l = inf, "
         "cosine argument nan\n"),
        (["volume", "--lengths", START], 0, ""),
        (["volume", "--angles", "0.001,0.001,3.139092653589793,0.001,0.001,3.139092653589793"],
         0, ""),
        (["volume", "--angles", "2,2,2,2,2,2"], 2,
         "numerical error: angles array([2., 2., 2., 2., 2., 2.]) not interior to the angle "
         "polytope\n"),
        (["grad", "--lengths", START], 0, ""),
        (["flow", "--lengths", START, "--ell", "0.5"], 0, ""),
        (["degenerate", "--steps", "5"], 0, ""),
        (["convert", "--lengths=-0.7,0.7,0.8,0.7,0.7,0.8"], 2,
         "numerical error: length -0.7 is negative at edge {1,2}\n"),
        (["convert", "--lengths", "-0.7,0.7,0.8,0.7,0.7,0.8"], 2,
         "numerical error: length -0.7 is negative at edge {1,2}\n"),
        (["scan", "--ells", "0.1,abc"], 1,
         "error: bad --ells '0.1,abc': could not convert string to float: 'abc'\n"),
        # malformed arguments (InvalidArgumentError) are validation failures
        (["degenerate", "--steps", "1"], 1, "error: degeneration_path needs at least 2 steps\n"),
        (["flow", "--lengths", START, "--ell", "0.5", "--dt", "0"], 1,
         "error: dt must be positive\n"),
        (["volume", "--angles", "nan,0.5,0.5,0.5,0.5,0.5"], 1,
         "error: angles: non-finite entries in array([nan, 0.5, 0.5, 0.5, 0.5, 0.5])\n"),
        # non-finite flow and campaign arguments, rejected before any step or draw
        (["flow", "--lengths", FLOW, "--ell", "0.3", "--dt", "nan"], 1,
         "error: dt must be finite, got nan\n"),
        (["flow", "--lengths", FLOW, "--ell", "0.3", "--dt", "inf"], 1,
         "error: dt must be finite, got inf\n"),
        (["flow", "--lengths", FLOW, "--ell", "nan", "--json"], 1,
         "error: ell_floor must be finite, got nan\n"),
        (["verify", "theorem", "--ell", "0.3", "--samples", "3", "--tol", "nan"], 1,
         "error: tol must be finite and nonnegative, got nan\n"),
        (["verify", "theorem", "--ell", "0.3", "--samples", "3", "--tol", "inf"], 1,
         "error: tol must be finite and nonnegative, got inf\n"),
        (["verify", "theorem", "--ell", "0.3", "--samples", "3", "--tol=-1e-9"], 1,
         "error: tol must be finite and nonnegative, got -1e-09\n"),
        (["verify", "theorem", "--ell", "nan"], 1, "error: ell must be finite, got nan\n"),
        (["verify", "anglesum", "--sum", "nan"], 1, "error: theta_sum must be finite, got nan\n"),
        (["sample", "--constraint", "volume_floor", "--floor", "nan"], 1,
         "error: volume floor must be finite, got nan\n"),
        (["conjecture", "prima", "--angles", "0.5,0.5,0.5,0.5,0.5,0.5", "--ell", "nan"], 1,
         "error: ell must be finite, got nan\n"),
        (["conjecture", "prima", "--angles", "0.5,0.5,0.5,0.5,0.5,0.5", "--ell", "inf"], 1,
         "error: ell must be finite, got inf\n"),
        (["conjecture", "prima2", "--angles", "0.5,0.5,0.5,0.5,0.5,0.4", "--ell", "nan"], 1,
         "error: ell must be finite, got nan\n"),
        (["scan", "--ells", "0.5,nan"], 1, "error: regular length must be finite, got nan\n"),
        (["scan", "--grid", "0.1:nan:3"], 1, "error: regular length must be finite, got nan\n"),
        # prima2 at ell 5: inconclusive on the README start, a hit on the s = 6 start
        (["conjecture", "prima2", "--angles", "0.4,0.5,0.3,0.45,0.35,0.5", "--ell", "5"], 0, ""),
        (["conjecture", "prima2", "--angles", S6, "--ell", "5"], 0, ""),
        # negative seeds, rejected before any draw
        (["verify", "theorem", "--ell", "0.3", "--samples", "3", "--seed", "-1"], 1,
         "error: seed must be a nonnegative integer, got -1\n"),
        (["verify", "anglesum", "--sum", "3.0", "--samples", "2", "--seed", "-1"], 1,
         "error: seed must be a nonnegative integer, got -1\n"),
        (["sample", "--seed", "-5"], 1, "error: seed must be a nonnegative integer, got -5\n"),
    ],
)
def test_cli_prints_no_runtime_warning(argv, code, stderr):
    # RuntimeWarnings become errors: a numpy warning fails the command
    src = os.path.dirname(os.path.dirname(trunctet.__file__))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "trunctet.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert done.returncode == code, done.stderr
    assert done.stderr == stderr


BAD_VALUE_SWEEP = """
import math
import sys
import trunctet as t
nan = eval(sys.argv[1])
tet = t.Tetrahedron.from_angles([0.4, 0.5, 0.3, 0.45, 0.35, 0.5])
start = t.Tetrahedron.from_lengths([0.9, 0.8, 0.7, 0.9, 0.8, 0.7])
calls = {
    "integrate tol": lambda: t.integrate(math.sin, 0.0, 100.0, tol=nan),
    "integrate a": lambda: t.integrate(math.sin, nan, 1.0),
    "integrate b": lambda: t.integrate(math.sin, 0.0, nan),
    "sample_O_batch budget":
        lambda: t.sample_O_batch(1, 1, "volume_floor", floor=100.0, budget=nan),
    "sample_O_batch floor": lambda: t.sample_O_batch(1, 1, "volume_floor", floor=nan),
    "sample_T_ell ell": lambda: t.sample_T_ell(0, nan, 1),
    "sample_T_ell budget": lambda: t.sample_T_ell(0, 50.0, 1, budget=nan),
    "deformation_flow dt": lambda: t.deformation_flow(start, 0.3, dt=nan),
    "deformation_flow ell_floor": lambda: t.deformation_flow(start, nan),
    "verify_theorem ell": lambda: t.verify_theorem(nan, 3, seed=0),
    "verify_theorem tol": lambda: t.verify_theorem(0.3, 3, seed=0, tol=nan),
    "verify_fixed_angle_sum theta_sum": lambda: t.verify_fixed_angle_sum(nan, 3, seed=0),
    "verify_fixed_angle_sum tol": lambda: t.verify_fixed_angle_sum(3.0, 3, seed=0, tol=nan),
    "regular_from_length": lambda: t.regular_from_length(nan),
    "regular_from_angle": lambda: t.regular_from_angle(nan),
    "conjecture_prima_test ell": lambda: t.conjecture_prima_test(tet, nan),
    "conjecture_prima2_test ell": lambda: t.conjecture_prima2_test(tet, nan),
    "lobachevsky": lambda: t.lobachevsky(nan),
    "in_O tol": lambda: t.in_O([0.5] * 6, tol=nan),
    "in_O_mask tol": lambda: t.domain.in_O_mask([[0.5] * 6] * 2, tol=nan),
}
if isinstance(nan, int):
    # a huge budget is a valid count
    calls = {name: call for name, call in calls.items() if not name.endswith("budget")}
for name, call in calls.items():
    try:
        outcome = f"returned {call()!r}"
    except t.TruncTetError:
        outcome = "raised"
    except Exception as exc:
        outcome = f"raised {exc!r}"
    print(f"{name}: {outcome}", flush=True)
"""


def bad_value_outcomes(value):
    """The sweep's outcome lines with ``value`` (Python source) in each public
    numeric parameter in turn, in a subprocess, so that a call that loops
    forever on it fails at the timeout."""
    src = os.path.dirname(os.path.dirname(trunctet.__file__))
    done = subprocess.run(
        [sys.executable, "-c", BAD_VALUE_SWEEP, value], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=30, check=True,
    )
    return done.stdout.splitlines()


def test_nan_arguments_raise_typed_errors():
    outcomes = bad_value_outcomes('float("nan")')
    assert len(outcomes) == 20
    assert [line for line in outcomes if not line.endswith(": raised")] == []


def test_huge_int_arguments_raise_typed_errors():
    # 10**400 overflows float(): every parameter but the two budgets
    outcomes = bad_value_outcomes("10**400")
    assert len(outcomes) == 18
    assert [line for line in outcomes if not line.endswith(": raised")] == []


def test_readme_commands_parse():
    # every example of the README's command block parses with the CLI's own
    # parser (nothing runs), so the examples cannot drift from the flags
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        lines = [line for line in f if line.startswith("trunctet ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_public_names_are_the_contract():
    assert sorted(trunctet.__all__) == [
        "ALL_PERMUTATIONS", "AccuracyError", "COSH_L0", "DomainError", "EvaluationError",
        "InconsistencyError", "InvalidArgumentError", "L0", "NearDegenerateError",
        "NotATetrahedronError", "NotInClosureError", "SamplingError", "THETA_MAX",
        "Tetrahedron", "Trajectory", "TruncTetError", "VerificationReport",
        "acute_constraints_hold", "angles_to_lengths", "angles_to_lengths_batch",
        "conjecture_prima2_test", "conjecture_prima_test", "deformation_flow",
        "degeneration_path", "dvol_dangles", "dvol_dlengths", "empirical_k",
        "gram", "gram_det", "in_L", "in_O", "integrate", "jacobian_angles_of_lengths",
        "jacobian_lengths_of_angles", "key_bracket", "lemma_gaps", "lengths_to_angles",
        "lengths_to_angles_batch", "lobachevsky", "permutation_moving_edge_to_front",
        "permute", "regular_from_angle", "regular_from_length", "regular_volume_l0",
        "regular_volume_scan", "sample_O", "sample_O_batch", "sample_T_ell",
        "tecnicofinale_gap", "truncation_area", "ushijima_intermediates",
        "ushijima_volume", "verify_fixed_angle_sum", "verify_theorem", "vertex_sums",
    ]
    for name in trunctet.__all__:
        assert hasattr(trunctet, name), name


def test_tracer_points_exist_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    import tracer

    originals = []
    for name, owner, attr, _, _ in tracer.TRACE_POINTS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
        originals.append((owner, attr, owner.__dict__[attr]))
    recorder = tracer.Recorder()
    recorder.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        recorder.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_campaign_volumes_go_through_the_module_attribute(monkeypatch):
    shift = 1e-6
    before = [verify_theorem(0.3, 30, seed=5), verify_fixed_angle_sum(3.0, 30, seed=6)]
    original = trunctet.volume.ushijima_volume
    monkeypatch.setattr(trunctet.volume, "ushijima_volume", lambda a: original(a) + shift)
    after = [verify_theorem(0.3, 30, seed=5), verify_fixed_angle_sum(3.0, 30, seed=6)]
    for old, new in zip(before, after):
        assert len(new.witnesses) == len(old.witnesses) == 5
        for (_, a), (_, b) in zip(old.witnesses, new.witnesses):
            assert b.angles == a.angles
            assert abs(b.volume - a.volume - shift) < 1e-12


def test_flow_volumes_go_through_the_module_attribute(monkeypatch):
    # the flow evaluates its columns by the volume module's column entry,
    # looked up on the module, where a wrapper sees it
    shift = 1e-6
    rng = np.random.default_rng(7)
    (start,) = sample_T_ell(rng, 0.3, 1, require_volume_floor=regular_volume_l0())
    before = deformation_flow(start, 0.3, dt=1e-2)
    original = trunctet.volume._volume_columns
    monkeypatch.setattr(trunctet.volume, "_volume_columns", lambda *a: original(*a) + shift)
    after = deformation_flow(start, 0.3, dt=1e-2)
    assert len(after.points) == len(before.points) > 10
    # the start is given, not evaluated; every step's volume moves
    assert after.points[0] == before.points[0]
    for (_, a), (_, b) in zip(before.points[1:], after.points[1:]):
        assert b.lengths == a.lengths
        assert b.volume == a.volume + shift


def counted(monkeypatch, owner, attr, sizes):
    # wrap owner.attr, which takes (6, m) columns first, so that each call
    # appends the number of columns it got
    original = getattr(owner, attr)

    def wrapper(columns, *args):
        sizes.append(columns.shape[1])
        return original(columns, *args)

    monkeypatch.setattr(owner, attr, wrapper)


def strict_polytope_tests(monkeypatch, sizes):
    # wrap domain._in_polytope so that each strict test appends the number of
    # rows it got: the columns of an array, or one 6-vector
    original = trunctet.domain._in_polytope

    def wrapper(xs, sums, strict, tol):
        if strict:
            sizes.append(xs.shape[1] if isinstance(xs, np.ndarray) else 1)
        return original(xs, sums, strict, tol)

    monkeypatch.setattr(trunctet.domain, "_in_polytope", wrapper)


def test_flow_calls_per_block_and_rows_per_call(monkeypatch):
    # one chart call and one volume call per block of _FLOW_BLOCK steps, on
    # columns, blocks spanning segment ends; no call gets more than one
    # block. The chart test makes the block's one strict polytope test, on
    # all its rows: the volume makes none
    rng = np.random.default_rng(7)
    (start,) = sample_T_ell(rng, 0.3, 1, require_volume_floor=regular_volume_l0())
    for dt in (1e-3, 1e-5):
        charts, vols, tests = [], [], []
        counted(monkeypatch, trunctet.convert, "_chart_rows", charts)
        counted(monkeypatch, trunctet.volume, "_volume_columns", vols)
        strict_polytope_tests(monkeypatch, tests)
        traj = deformation_flow(start, 0.3, dt=dt)
        monkeypatch.undo()
        assert tests == charts
        strict_polytope_tests(monkeypatch, tests)
        trunctet.volume.ushijima_volume(traj.angles)
        monkeypatch.undo()
        assert tests == charts
        steps = len(traj.points) - 1
        assert steps > 100
        bound = math.ceil(steps / _FLOW_BLOCK) + 1
        assert len(charts) <= bound and len(vols) <= bound
        assert max(charts) <= _FLOW_BLOCK and max(vols) <= _FLOW_BLOCK
        assert sum(vols) == steps


def test_a_flow_within_one_block_makes_one_chart_and_one_volume_call(monkeypatch):
    # a path of at most _FLOW_BLOCK steps, a regular or a budget end, is
    # one block: its rows are chart-tested and evaluated by one call each
    rng = np.random.default_rng(7)
    (start,) = sample_T_ell(rng, 0.3, 1, require_volume_floor=regular_volume_l0())
    for dt, max_steps in ((1e-3, 200_000), (1e-4, _FLOW_BLOCK)):
        charts, vols = [], []
        counted(monkeypatch, trunctet.convert, "_chart_rows", charts)
        counted(monkeypatch, trunctet.volume, "_volume_columns", vols)
        traj = deformation_flow(start, 0.3, dt=dt, max_steps=max_steps)
        monkeypatch.undo()
        steps = len(traj.points) - 1
        assert 100 < steps <= _FLOW_BLOCK
        assert charts == vols == [steps]


def test_campaign_builds_records_only_for_witnesses(monkeypatch):
    built = []
    init = Tetrahedron.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tetrahedron, "__init__", counting_init)
    report = verify_theorem(0.3, 2000, seed=9)
    assert report.samples == 2000
    # the regular reference and the witnesses, not one record per sample
    assert 0 < len(built) <= report.max_witnesses + 2


#: imported names a module keeps without using them, by module file name
UNUSED_IMPORTS_KEPT = {}


def test_every_imported_name_is_used():
    # an unused-import lint on the AST: an imported name must be read as a
    # name in its module, or listed in the module's __all__
    package = os.path.dirname(trunctet.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [
                    getattr(target, "id", None) for target in node.targets]:
                used |= set(ast.literal_eval(node.value))
        name = os.path.basename(path)
        assert imported - used == UNUSED_IMPORTS_KEPT.get(name, set()), name


def _loaded(node, kind, field):
    # the names (ast.Name, "id") or attributes (ast.Attribute, "attr") a node reads
    return {getattr(n, field) for n in ast.walk(node)
            if isinstance(n, kind) and isinstance(n.ctx, ast.Load)}


def _defined_names(node):
    # the names a module-level function, class or assignment defines
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for target in targets if target is not None
            for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_every_private_definition_is_read():
    # a dead-code lint on the AST: a module-level private function, class or
    # assignment of the package is read somewhere in it beyond its own
    # definition, and every field of convert._Tables is read as an attribute
    package = os.path.dirname(trunctet.__file__)
    statements = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as f:
            statements += [(os.path.basename(path), node) for node in ast.parse(f.read()).body]
    attributes = [_loaded(node, ast.Attribute, "attr") for _, node in statements]
    reads = [_loaded(node, ast.Name, "id") | attrs
             for (_, node), attrs in zip(statements, attributes)]
    for k, (module, node) in enumerate(statements):
        for name in _defined_names(node):
            if name.startswith("_") and not name.startswith("__"):
                assert any(name in read for j, read in enumerate(reads) if j != k), (module, name)
    tables = next(node for module, node in statements
                  if module == "convert.py" and _defined_names(node) == ["_Tables"])
    fields = [item.target.id for item in tables.body if isinstance(item, ast.AnnAssign)]
    assert fields and set(fields) <= set().union(*attributes)
