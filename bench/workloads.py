"""The benchmark's workloads and their output checks.

A workload builds its inputs from the seed (``setup``) and runs one
operation per input (``op``). Outside the timed region, ``summarize`` makes
the cheap checks of each result at once and keeps only what the expensive
checks need, so the benchmark's own memory does not grow with the number of
operations a faster program completes. ``check`` runs the expensive checks
at the end against references from ``oracle`` (mpmath) or closed forms.
Floats are compared with tolerances, never through hashes of their bytes,
since a correct vectorisation may move the last ulps.

The program is called through module attributes at call time, so that the
traced run sees every call, and only from ``op``: the checks must not add
to the traced counts.
"""

import hashlib
import io
import json
import math
import time

import numpy as np
import trunctet.cli
import trunctet.domain
import trunctet.extremal
import trunctet.schlafli
import trunctet.tetra
import trunctet.volume
from trunctet.errors import TruncTetError

#: edge length of the regular tetrahedron with all angles pi/6, computed
#: here rather than imported so that the inputs do not depend on the program
L0 = math.acosh((3.0 + math.sqrt(3.0)) / 4.0)

VOLUME_TOL = 1e-12
REFERENCE_TOL = 1e-9
GRADIENT_TOL = 1e-7
CONVERSION_TOL = 1e-9
CERTIFICATE_TOL = 1e-12


def _oracle():
    # mpmath is imported on first use so that it weighs neither on setup_s
    # nor on peak_rss_mb, which are read before the checks run
    import oracle

    return oracle


def _raised(result):
    return isinstance(result, TruncTetError)


class Campaign:
    """One op is one campaign round: ``verify theorem`` at each floor of
    ``FLOORS`` and ``verify anglesum --sum 3.0``, each an in-process
    ``cli.main`` call with its own seed. Work units are tetrahedra checked."""

    name = "campaign"
    unit = "tetrahedra"
    FLOORS = ("0.1", "0.3", repr(L0))
    ANGLE_SUM = "3.0"

    def __init__(self, samples=250, rounds=64, checked_witnesses=24):
        self.samples = samples
        self.rounds = rounds
        self.witness_budget = checked_witnesses
        self.digests = {}
        self.first_call = None
        self.references = {}
        self.tets = {"theorem": 0, "anglesum": 0}
        self.seconds = {"theorem": 0.0, "anglesum": 0.0}

    def _argvs(self, seeds, samples):
        argvs = [
            ["verify", "theorem", "--ell", ell, "--samples", str(samples), "--seed", str(s)]
            for ell, s in zip(self.FLOORS, seeds)
        ]
        argvs.append(["verify", "anglesum", "--sum", self.ANGLE_SUM,
                      "--samples", str(samples), "--seed", str(seeds[-1])])
        return argvs

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.items = [
            self._argvs([int(s) for s in rng.integers(0, 2**31 - 1, size=4)], self.samples)
            for _ in range(self.rounds)
        ]

    def warm(self):
        self.op(self._argvs([1, 2, 3, 4], 5))

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        code = trunctet.cli.main(argv, out=out, err=err)
        return code, out.getvalue()

    def op(self, argvs):
        perf = time.perf_counter
        calls = []
        for argv in argvs:
            start = perf()
            code, stdout = self.call(argv)
            calls.append((argv, code, stdout, perf() - start))
        return calls

    def summarize(self, index, argvs, result):
        if _raised(result):
            return 0, [f"raised {result!r}"], None
        units, problems, keep = 0, [], []
        for argv, code, stdout, seconds in result:
            where = " ".join(argv)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if self.digests.setdefault(tuple(argv), digest) != digest:
                problems.append(f"{where}: stdout differs between repeats")
            if self.first_call is None:
                self.first_call = (index, argv, stdout)
            if code != 0:
                problems.append(f"{where}: exit code {code}")
                continue
            kind, n = argv[1], int(argv[argv.index("--samples") + 1])
            units += n
            self.tets[kind] += n
            self.seconds[kind] += seconds
            report = json.loads(stdout)["report"]
            problems.extend(f"{where}: {msg}" for msg in self._check_report(index, argv, report))
            # every witness of the first round, then the worst one of each
            # report while the budget lasts
            if index == 0:
                witnesses = report["witnesses"]
            elif self.witness_budget > 0:
                self.witness_budget -= 1
                witnesses = report["witnesses"][:1]
            else:
                continue
            keep.append((argv, report["params"], witnesses))
        return units, problems, keep or None

    def _check_report(self, index, argv, report):
        n = int(argv[argv.index("--samples") + 1])
        if report["samples"] != n or report["passes"] != n or report["failures"] != 0:
            yield (f"samples {report['samples']}, passes {report['passes']}, "
                   f"failures {report['failures']} for n = {n}")
        params = report["params"]
        kind = argv[1]
        value = float(argv[argv.index("--ell" if kind == "theorem" else "--sum") + 1])
        if kind == "theorem" and params["ell"] != value:
            yield f"report ell {params['ell']!r} != {value!r}"
        # compared with mpmath once per distinct value, in ``check``
        self.references.setdefault((kind, value), {}).setdefault(params["reference_volume"], index)
        if kind == "theorem" and value == L0:
            closed = trunctet.volume.regular_volume_l0()
            if abs(params["reference_volume"] - closed) > REFERENCE_TOL:
                yield f"reference volume at l0 {params['reference_volume']!r} != {closed!r}"

    def extra_metrics(self):
        """Throughput per subcommand, as ``*_tets_per_s``."""
        return {
            f"{kind}_tets_per_s": (self.tets[kind] / secs if secs else 0.0, "1/s")
            for kind, secs in self.seconds.items()
        }

    def check(self, kept):
        oracle = _oracle()
        problems = []
        for (kind, value), seen in self.references.items():
            if kind == "theorem":
                exact = float(oracle.regular_volume(value))
            else:
                exact = float(oracle.volume([value / 6.0] * 6))
            for reference, index in seen.items():
                if abs(reference - exact) > REFERENCE_TOL:
                    problems.append((index, f"{kind} {value!r}: reference volume "
                                            f"{reference!r} != mpmath {exact!r}"))
        for index, calls in kept:
            for argv, params, witnesses in calls:
                for witness in witnesses:
                    for msg in self._check_witness(argv, params, witness, oracle):
                        problems.append((index, f"{' '.join(argv)}: {msg}"))
        if self.first_call is not None:
            index, argv, stdout = self.first_call
            if self.call(argv)[1] != stdout:
                problems.append((index, f"{' '.join(argv)}: rerun stdout differs"))
        return problems

    @staticmethod
    def _check_witness(argv, params, witness, oracle):
        tet = witness["tetrahedron"]
        exact = float(oracle.volume(tet["angles"]))
        if abs(tet["volume"] - exact) > VOLUME_TOL:
            yield f"witness volume {tet['volume']!r} != mpmath {exact!r}"
        angles = [float(a) for a in oracle.lengths_to_angles(tet["lengths"])]
        if max(abs(a - b) for a, b in zip(angles, tet["angles"])) > CONVERSION_TOL:
            yield f"witness lengths {tet['lengths']!r} do not match its angles"
        if abs(witness["margin"] - (params["reference_volume"] - tet["volume"])) > VOLUME_TOL:
            yield f"witness margin {witness['margin']!r} != reference - volume"
        if argv[1] == "theorem" and min(tet["lengths"]) < params["ell"]:
            yield f"witness lengths {tet['lengths']!r} below the floor"


class Flow:
    """One op is one ``deformation_flow`` at the floor ``ELL`` from a
    non-regular start with volume at least vol(l0), as in acceptance
    criterion 9. Work units are flow steps."""

    name = "flow"
    unit = "steps"
    ELL = 0.3

    def __init__(self, starts=160, checked_volumes=12):
        self.starts = starts
        self.checked_volumes = checked_volumes

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        floor = trunctet.volume.regular_volume_l0()
        self.items = []
        while len(self.items) < self.starts:
            batch = trunctet.extremal.sample_T_ell(
                rng, self.ELL, self.starts - len(self.items), require_volume_floor=floor
            )
            self.items.extend(tet for tet in batch if not tet.is_regular())

    def warm(self):
        self.op(self.items[0])

    def op(self, start):
        return trunctet.extremal.deformation_flow(start, self.ELL)

    def summarize(self, index, start, traj):
        if _raised(traj):
            return 0, [f"raised {traj!r}"], None
        problems = []
        if traj.reason != trunctet.extremal.TERMINATED_REGULAR:
            problems.append(f"flow ended with reason {traj.reason!r}")
        vols = traj.volumes
        if not all(b > a for a, b in zip(vols, vols[1:])):
            problems.append("volumes not strictly increasing")
        final = traj.points[-1][1]
        if max(final.lengths) - min(final.lengths) > REFERENCE_TOL:
            problems.append(f"final lengths {final.lengths!r} not regular")
        angles = final.angles if index < self.checked_volumes else None
        return len(traj.points) - 1, problems, (start.min_length, float(final.volume), angles)

    def extra_metrics(self):
        return {}

    def check(self, kept):
        oracle = _oracle()
        problems = []
        for index, (min_length, final_volume, angles) in kept:
            regular = trunctet.tetra.regular_from_length(min_length).volume
            if abs(final_volume - regular) > REFERENCE_TOL:
                problems.append((index, f"final volume {final_volume!r} != {regular!r}"))
            if angles is not None:
                exact = float(oracle.volume(angles))
                if abs(final_volume - exact) > VOLUME_TOL:
                    problems.append((index, f"final volume {final_volume!r} != mpmath {exact!r}"))
        return problems


class Gradients:
    """One op is the acceptance-criterion-8 certificate for one volume-floor
    sample: ``from_angles``, ``permuted`` to put the longest edge first,
    ``lemma_gaps``, ``tecnicofinale_gap``, ``key_bracket`` and
    ``dvol_dlengths``. Work units are certificates."""

    name = "gradients"
    unit = "certificates"

    def __init__(self, pool=1500, checked_volumes=12, checked_gradients=6):
        self.pool = pool
        self.checked_volumes = checked_volumes
        self.checked_gradients = checked_gradients

    def setup(self, seed):
        self.seed = seed
        rng = np.random.default_rng(seed)
        floor = trunctet.volume.regular_volume_l0()
        self.items = trunctet.tetra.sample_O_batch(
            rng, self.pool, constraint="volume_floor", floor=floor
        )

    def warm(self):
        for angles in self.items[:3]:
            self.op(angles)

    def op(self, angles):
        tet = trunctet.tetra.Tetrahedron.from_angles(angles)
        pos = int(np.argmax(tet.lengths))
        tet = tet.permuted(trunctet.domain.permutation_moving_edge_to_front(pos))
        return (
            tet,
            trunctet.schlafli.lemma_gaps(tet.angles),
            trunctet.schlafli.tecnicofinale_gap(tet.angles),
            trunctet.schlafli.key_bracket(tet),
            trunctet.schlafli.dvol_dlengths(tet),
        )

    def summarize(self, index, angles, result):
        if _raised(result):
            return 0, [f"raised {result!r}"], None
        tet, (g1, g2, g3), gap, bracket, grad = result
        theta12 = tet.angles[0]
        certified = (
            gap >= -CERTIFICATE_TOL
            and bracket > 0
            and grad[0] < 0
            and g2 >= -CERTIFICATE_TOL
            and g3 >= -CERTIFICATE_TOL
            and (g1 >= -CERTIFICATE_TOL or not math.pi / 6 <= theta12 <= math.pi / 3)
        )
        problems = [] if certified else [
            f"sign certificate fails at angles {tet.angles!r}: gaps {(g1, g2, g3)!r}, "
            f"tecnicofinale {gap!r}, bracket {bracket!r}, dV/dl12 {grad[0]!r}"
        ]
        keep = None
        if index < max(self.checked_volumes, self.checked_gradients):
            keep = (tet, grad.as_array())
        return 1, problems, keep

    def extra_metrics(self):
        return {}

    def check(self, kept):
        oracle = _oracle()
        rng = np.random.default_rng([self.seed, 8])
        problems = []
        for index, (tet, grad) in kept:
            if index < self.checked_volumes:
                exact = float(oracle.volume(tet.angles))
                if abs(tet.volume - exact) > VOLUME_TOL:
                    problems.append(
                        (index, f"volume {float(tet.volume)!r} != mpmath {exact!r}"))
            if index < self.checked_gradients:
                v = rng.normal(size=6)
                v /= np.linalg.norm(v)
                exact = float(oracle.directional_derivative(tet.lengths, v))
                got = float(grad @ v)
                if abs(got - exact) > GRADIENT_TOL:
                    problems.append(
                        (index, f"dvol_dlengths . v = {got!r} != central difference {exact!r}"))
        return problems


WORKLOADS = {w.name: w for w in (Campaign, Flow, Gradients)}
