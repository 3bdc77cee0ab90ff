"""Packaging and benchmark-tooling guards: the package imports without
SciPy, its public names are the pinned list, the CLI commands print no
numpy RuntimeWarning, every name the benchmark's tracer wraps still exists,
and the campaigns and the deformation flow reach the volume through the
attribute the tracer and the benchmark's self-test wrap, the flow makes one
chart call and one volume call per block of at most ``_FLOW_BLOCK`` rows,
and a campaign makes records only for its reference and its witnesses."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import trunctet
import trunctet.convert
import trunctet.volume
from trunctet import (
    Tetrahedron,
    deformation_flow,
    regular_volume_l0,
    sample_T_ell,
    verify_fixed_angle_sum,
    verify_theorem,
)
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


def test_public_names_are_the_contract():
    assert sorted(trunctet.__all__) == [
        "ALL_PERMUTATIONS", "AccuracyError", "COSH_L0", "DomainError", "EvaluationError",
        "InconsistencyError", "InvalidArgumentError", "L0", "NearDegenerateError",
        "NotATetrahedronError", "NotInClosureError", "SamplingError", "THETA_MAX",
        "Tetrahedron", "Trajectory", "TruncTetError", "VerificationReport",
        "acute_constraints_hold", "angles_to_lengths", "angles_to_lengths_batch",
        "conjecture_prima2_test", "conjecture_prima_test", "deformation_flow",
        "degeneration_path", "dilog", "dvol_dangles", "dvol_dlengths", "empirical_k",
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
    shift = 1e-6
    rng = np.random.default_rng(7)
    (start,) = sample_T_ell(rng, 0.3, 1, require_volume_floor=regular_volume_l0())
    before = deformation_flow(start, 0.3, dt=1e-2)
    original = trunctet.volume.ushijima_volume
    monkeypatch.setattr(trunctet.volume, "ushijima_volume", lambda a: original(a) + shift)
    after = deformation_flow(start, 0.3, dt=1e-2)
    assert len(after.points) == len(before.points) > 10
    # the start is given, not evaluated; every step's volume moves
    assert after.points[0] == before.points[0]
    for (_, a), (_, b) in zip(before.points[1:], after.points[1:]):
        assert b.lengths == a.lengths
        assert b.volume == a.volume + shift


def counted(monkeypatch, owner, attr, sizes):
    # wrap owner.attr so that each call appends the number of rows it got
    original = getattr(owner, attr)

    def wrapper(rows):
        sizes.append(len(rows))
        return original(rows)

    monkeypatch.setattr(owner, attr, wrapper)


def test_flow_calls_per_block_and_rows_per_call(monkeypatch):
    # one chart call and one volume call per block of _FLOW_BLOCK steps,
    # blocks spanning segment ends; no call gets more than one block
    rng = np.random.default_rng(7)
    (start,) = sample_T_ell(rng, 0.3, 1, require_volume_floor=regular_volume_l0())
    for dt in (1e-3, 1e-5):
        charts, vols = [], []
        counted(monkeypatch, trunctet.convert, "chart_angles", charts)
        counted(monkeypatch, trunctet.volume, "ushijima_volume", vols)
        steps = len(deformation_flow(start, 0.3, dt=dt).points) - 1
        monkeypatch.undo()
        assert steps > 100
        bound = math.ceil(steps / _FLOW_BLOCK) + 1
        assert len(charts) <= bound and len(vols) <= bound
        assert max(charts) <= _FLOW_BLOCK and max(vols) <= _FLOW_BLOCK
        assert sum(vols) == steps


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
