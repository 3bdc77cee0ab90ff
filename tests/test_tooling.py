"""Packaging and benchmark-tooling guards: the package imports without
SciPy, every name the benchmark's tracer wraps still exists, and the
campaigns reach the volume through the attribute the tracer and the
benchmark's self-test wrap."""

import os
import subprocess
import sys

import trunctet
import trunctet.volume
from trunctet import verify_fixed_angle_sum, verify_theorem

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
