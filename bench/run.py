"""Benchmark of the trunctet package.

    python3 bench/run.py --workload {campaign,flow,gradients} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed, runs its operations in a closed
loop (one caller in one thread; the next call starts when the previous one
returns) for S seconds of busy time, checks every output against references
that do not share code with the program, and prints one metric per line,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the loop runs once untraced and
once traced, and the metrics are the per-layer ones plus the tracing
overhead. The exit code is 0 only when every operation succeeded and every
check passed. See README.md in this directory for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import os

# one BLAS thread, before numpy is imported: the program is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from array import array

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: set-up is timed in this process and in this many fresh interpreters
SETUP_PROBES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "flow", "gradients"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, print the seconds and exit")
    return parser.parse_args(argv)


def import_program():
    """Import trunctet from ``src/`` beside the benchmark, and from nowhere else."""
    package = os.path.join(SRC, "trunctet")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"bench: no trunctet package at {package}")
    sys.path.insert(0, SRC)
    import trunctet

    if os.path.realpath(os.path.dirname(trunctet.__file__)) != os.path.realpath(package):
        sys.exit(f"bench: trunctet imported from {trunctet.__file__}, not {package}")


def set_up(workload, seed):
    workload.setup(seed)
    workload.warm()


#: the calibration runs before the first operation, after every
#: CALIBRATE_EVERY seconds of busy time, and after the last operation
CALIBRATE_EVERY = 0.1
#: its time on the 2-core machine the benchmark was tuned on, while no other
#: tenant shared the core
REFERENCE_CALIBRATION_S = 1.5e-3
_ANGLES = np.linspace(0.1, 0.5, 6)


def _complex_loop():
    acc, z = 0j, complex(0.3, 0.2)
    for i in range(6000):
        w = complex(i * 1e-5, 0.5)
        acc = acc * 0.5 + w * z / (w + 2.0)


def _container_loop():
    out = []
    for i in range(3000):
        d = {"a": i, "b": (i, i + 1.5)}
        out.append([d["b"][1], float(i)])
        if len(out) > 64:
            out.clear()


def _small_array_loop():
    for i in range(200):
        x = np.cos(_ANGLES + i * 1e-6)
        if np.all(x > 0):
            float(x.sum())


def calibration_seconds():
    """Geometric mean of the times of three fixed loops that share no code
    with the program: complex arithmetic, small containers, and numpy calls
    on 6-vectors. Together they slow down under a busy sibling hardware
    thread about as much as the workloads do; one integer loop alone
    followed less than half of that."""
    perf = time.perf_counter
    product = 1.0
    for loop in (_complex_loop, _container_loop, _small_array_loop):
        start = perf()
        loop()
        product *= perf() - start
    return product ** (1.0 / 3.0)


class Phase:
    """Latencies and completed work of one measured loop, with the
    calibration times taken between its operations.

    On a shared machine, while another tenant runs on the sibling hardware
    thread, everything runs up to half as fast, for stretches of seconds to
    minutes. Each latency is therefore divided by the
    slowdown the calibration loop measured around it, which expresses it in
    seconds of the reference machine.
    """

    def __init__(self):
        self.latencies = array("d")
        self.calibration_before = array("q")
        self.calibrations = array("d")
        self.units = 0

    @property
    def busy(self):
        return sum(self.latencies)

    def slowdowns(self):
        cal = self.calibrations
        return [(cal[j] + cal[j + 1]) / (2.0 * REFERENCE_CALIBRATION_S)
                for j in self.calibration_before]

    def mean_slowdown(self):
        return statistics.fmean(self.calibrations) / REFERENCE_CALIBRATION_S

    def normalized_latencies(self):
        return [t / f for t, f in zip(self.latencies, self.slowdowns())]


class Ledger:
    """Outcome of every operation of a run: failed ones are listed, passed
    ones only counted, and ``kept`` holds what a workload chose to keep for
    its expensive checks."""

    MAX_MESSAGES = 100

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.messages = []
        self.kept = []

    def fail(self, index, messages):
        self.failed.add(index)
        room = max(0, self.MAX_MESSAGES - len(self.messages))
        self.messages.extend((index, message) for message in messages[:room])


def measure(workload, seconds, ledger):
    """Run operations on the workload's items, in order from the first,
    until ``seconds`` of busy time have passed."""
    from trunctet.errors import TruncTetError

    phase = Phase()
    items = workload.items
    perf = time.perf_counter
    busy = 0.0
    since_calibration = CALIBRATE_EVERY
    while busy < seconds or not phase.latencies:
        if since_calibration >= CALIBRATE_EVERY:
            phase.calibrations.append(calibration_seconds())
            since_calibration = 0.0
        item = items[len(phase.latencies) % len(items)]
        start = perf()
        try:
            result = workload.op(item)
        except TruncTetError as exc:
            result = exc
        elapsed = perf() - start
        busy += elapsed
        since_calibration += elapsed
        phase.latencies.append(elapsed)
        phase.calibration_before.append(len(phase.calibrations) - 1)
        index = ledger.attempted
        ledger.attempted += 1
        units, problems, keep = workload.summarize(index, item, result)
        phase.units += units
        if problems:
            ledger.fail(index, problems)
        if keep is not None:
            ledger.kept.append((index, keep))
    phase.calibrations.append(calibration_seconds())
    return phase


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def timed_set_up(workload, seed):
    """Seconds from interpreter start to warm-up done."""
    set_up(workload, seed)
    return time.perf_counter() - T_START


def probe_set_up(args):
    """``timed_set_up`` in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout)


def environment(loadavg):
    from importlib import metadata

    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": loadavg,
    }


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None):
    args = parse_args(argv)
    loadavg = read_loadavg()
    import_program()
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    ledger = Ledger()
    if args.setup_only:
        print(timed_set_up(workload, args.seed))
        return 0

    print("# env " + json.dumps(environment(loadavg), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; closed loop, 1 caller, 1 thread")
    metrics = {}
    if args.trace == 0:
        setups = [timed_set_up(workload, args.seed)]
        phase = measure(workload, args.seconds, ledger)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [probe_set_up(args) for _ in range(SETUP_PROBES)]
        latencies = phase.normalized_latencies()
        slowdown = phase.mean_slowdown()
        _, p50, p75 = quartiles(latencies)
        metrics["work_per_s"] = (phase.units / sum(latencies), "1/s")
        metrics["op_ms_p50"] = (1e3 * p50, "ms")
        metrics["op_ms_p75"] = (1e3 * p75, "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["setup_s"] = (statistics.median(setups) / slowdown, "s")
        extra = {name: (value * slowdown, unit)
                 for name, (value, unit) in workload.extra_metrics().items()}
        _, raw_p50, raw_p75 = quartiles(phase.latencies)
        print(f"# {len(latencies)} ops, {phase.units} {workload.unit}, {phase.busy:.3f} s busy; "
              f"machine slowdown {slowdown:.4f} from {len(phase.calibrations)} calibration loops")
        print(f"# before dividing by the slowdown: work_per_s {phase.units / phase.busy:.6g}, "
              f"op_ms_p50 {1e3 * raw_p50:.6g}, op_ms_p75 {1e3 * raw_p75:.6g}, "
              f"set-up samples (s) " + ", ".join(f"{t:.4f}" for t in setups))
    else:
        setup_rec = tracer.Recorder()
        setup_rec.install()
        try:
            set_up(workload, args.seed)
        finally:
            setup_rec.uninstall()
        untraced = measure(workload, args.seconds, ledger)
        rec = tracer.Recorder()
        rec.install()
        try:
            traced = measure(workload, args.seconds, ledger)
        finally:
            rec.uninstall()
        ops = len(traced.latencies)
        metrics.update(tracer.layer_metrics(rec, setup_rec, ops))
        # both phases start from the first item, so op k ran the same input
        pairs = list(zip(traced.normalized_latencies(), untraced.normalized_latencies()))
        metrics["trace.overhead_ms_per_op"] = (
            1e3 * statistics.median(t - u for t, u in pairs), "ms")
        metrics["trace.overhead_frac"] = (statistics.median(t / u - 1.0 for t, u in pairs), "ratio")
        extra = {}
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.npz")
        rec.save(spans_path)
        print(f"# untraced {len(untraced.latencies)} ops in {untraced.busy:.3f} s, traced "
              f"{ops} ops in {traced.busy:.3f} s; {len(rec.spans['id'])} spans "
              f"({rec.dropped_spans} dropped) in {os.path.relpath(spans_path, ROOT)}")
        print("# waiting time: not applicable, the program is single-threaded")

    for index, message in workload.check(ledger.kept):
        ledger.fail(index, [message])
    for index, message in ledger.messages[:20]:
        print(f"# CHECK FAILED op {index}: {message}")
    attempted, failed = ledger.attempted, len(ledger.failed)
    extra["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1

if __name__ == "__main__":
    sys.exit(main())
