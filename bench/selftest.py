"""Self-test of the benchmark: its checks must not be vacuous.

    python3 bench/selftest.py

1. The mpmath references agree with the closed forms for the regular
   tetrahedron of edge length l0.
2. Each workload, at a tiny size, passes its output checks on the program
   as it is, and fails them when ``trunctet.volume.ushijima_volume`` is
   wrapped to add 1e-6 to every volume.
3. ``run.py`` prints every metric of BENCHMARK.json, with its unit, in both
   the untraced and the traced run of every workload.

Exits nonzero on the first failed expectation.
"""

import json
import math
import os
import subprocess
import sys

import run

run.import_program()

import oracle  # noqa: E402
import trunctet.volume  # noqa: E402
import workloads  # noqa: E402

PERTURBATION = 1e-6


def tiny(name):
    if name == "campaign":
        return workloads.Campaign(samples=20, rounds=2, checked_witnesses=2)
    if name == "flow":
        return workloads.Flow(starts=2, checked_volumes=2)
    return workloads.Gradients(pool=4, checked_volumes=2, checked_gradients=2)


def run_checks(name):
    workload = tiny(name)
    run.set_up(workload, seed=1)
    ledger = run.Ledger()
    run.measure(workload, 0.0, ledger)
    run.measure(workload, 0.0, ledger)
    for index, message in workload.check(ledger.kept):
        ledger.fail(index, [message])
    return ledger.messages


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def test_oracle():
    exact = float(oracle.volume([math.pi / 6] * 6))
    closed = trunctet.volume.regular_volume_l0()
    expect(abs(exact - closed) < 1e-12, f"mpmath volume at l0 {exact!r} matches closed form {closed!r}")
    angles = oracle.lengths_to_angles([workloads.L0] * 6)
    dev = max(abs(float(a) - math.pi / 6) for a in angles)
    expect(dev < 1e-15, f"mpmath lengths_to_angles at l0 gives pi/6 (deviation {dev:.1e})")
    regular = float(oracle.regular_volume(workloads.L0))
    expect(abs(regular - closed) < 1e-12, "mpmath regular_volume(l0) matches closed form")


def test_perturbation(name):
    problems = run_checks(name)
    expect(not problems, f"{name}: checks pass on the program as it is {problems[:1]}")
    original = trunctet.volume.ushijima_volume

    def perturbed(angles):
        return original(angles) + PERTURBATION

    trunctet.volume.ushijima_volume = perturbed
    try:
        problems = run_checks(name)
    finally:
        trunctet.volume.ushijima_volume = original
    expect(bool(problems), f"{name}: a {PERTURBATION:g} volume perturbation fails the checks "
           f"({len(problems)} failures, first: {problems[0][1] if problems else None})")


def test_metric_names(name, trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", name,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    expect(done.returncode == 0, f"{name} trace {trace}: run.py exits 0 ({done.stderr[-300:]})")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{name} trace {trace}: metric names and units match BENCHMARK.json "
           f"(missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))})")
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if not line.startswith("#")}
    expect(all((n, u) in printed for n, u in wanted.items()),
           f"{name} trace {trace}: every metric is printed on its own line with its unit")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name} trace {trace}: correct with no failed operation")


def main():
    test_oracle()
    for name in workloads.WORKLOADS:
        test_perturbation(name)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            test_metric_names(name, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
