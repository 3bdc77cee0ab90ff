"""Extremal machinery: the edge-shrinking deformation flow, sampling
campaigns for the volume-maximization theorem and its relatives, the regular
family scan, flat degenerations, and deterministic exploratory tests of two
averaging conjectures, of which prima fails above angle sum 3 pi / 2.
"""

import functools
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import convert, domain, tetra, volume
from .errors import DomainError, InvalidArgumentError
from .tetra import TIE_TOL, Tetrahedron, regular_from_angle, regular_from_length

DEFAULT_DT = 1e-3
MARGIN_TOL = 1e-9
INDETERMINATE_BAND = 1e-6

TERMINATED_REGULAR = "regular"
TERMINATED_BOUNDARY = "boundary"
TERMINATED_BUDGET = "budget"

CSV_HEADER = "t,l12,l13,l14,l34,l24,l23,volume"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled deformation path: the times ``t`` (n,), ``angles`` and
    ``lengths`` (n, 6) and ``volumes`` (n,) of its n points, with metadata.
    Trajectories compare by identity; compare their ``points`` instead."""

    t: np.ndarray
    angles: np.ndarray
    lengths: np.ndarray
    volumes: np.ndarray
    ell_floor: float
    dt: float
    reason: str

    @functools.cached_property
    def points(self):
        """The (t, Tetrahedron) pairs of the path, built on first use."""
        fields = (f.tolist() for f in (self.t, self.angles, self.lengths, self.volumes))
        return tuple((t, Tetrahedron(tuple(a), tuple(l), v)) for t, a, l, v in zip(*fields))

    def to_json_dict(self):
        return {
            "ell_floor": self.ell_floor,
            "dt": self.dt,
            "reason": self.reason,
            "points": [{"t": t, "tetrahedron": tet} for t, tet in self.points],
        }

    def to_csv(self):
        lines = [CSV_HEADER]
        for row in np.column_stack([self.t, self.lengths, self.volumes]).tolist():
            lines.append(",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"


_margin = itemgetter(0)


@dataclass
class VerificationReport:
    """Outcome of a sampling campaign."""

    campaign: str
    seed: int
    params: dict
    samples: int = 0
    passes: int = 0
    worst_margin: float = math.inf
    witnesses: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    max_witnesses: int = 5

    @property
    def failures(self):
        return self.samples - self.passes

    def record(self, tet, margin, passed):
        self.record_batch([margin], [passed], lambda _: tet)

    def record_batch(self, margins, passed, witness):
        """Record a batch of samples in arrival order.

        ``margins`` and ``passed`` are (m,) sequences; ``witness(i)`` makes
        the record of sample i and is called only for the samples that
        enter the witness list. The witnesses are the ``max_witnesses``
        smallest margins, ties in arrival order: the first ``max_witnesses``
        of a stable argsort of the batch, merged after the witnesses already
        held, which arrived earlier.
        """
        margins = np.asarray(margins, dtype=float)
        if len(passed) != len(margins):
            raise InvalidArgumentError(f"{len(margins)} margins but {len(passed)} pass flags")
        if not len(margins):
            return
        self.samples += len(margins)
        self.passes += int(np.count_nonzero(passed))
        order = np.argsort(margins, kind="stable")
        # the first of the smallest margins, as a running minimum finds it
        worst = float(margins[order[0]])
        if worst < self.worst_margin:
            self.worst_margin = worst
        held = [(margin, False, tet) for margin, tet in self.witnesses]
        fresh = [(float(margins[i]), True, i) for i in order[: self.max_witnesses].tolist()]
        kept = sorted(held + fresh, key=_margin)[: self.max_witnesses]
        self.witnesses = [(margin, witness(w) if new else w) for margin, new, w in kept]

    def to_json_dict(self):
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "params": self.params,
            "samples": self.samples,
            "passes": self.passes,
            "failures": self.failures,
            "worst_margin": None if math.isinf(self.worst_margin) else self.worst_margin,
            "witnesses": [
                {"margin": m, "tetrahedron": tet.to_json_dict()}
                for m, tet in self.witnesses
            ],
            "notes": list(self.notes),
        }


def _positive_ell(ell):
    # a length floor ell, finite and positive as every public ell parameter
    ell = domain.as_finite(ell, "ell")
    if ell <= 0:
        raise DomainError(f"ell must be positive, got {ell!r}")
    return ell


# --- sampling T_ell ------------------------------------------------------

def sample_T_ell(rng, ell, n, budget=None, require_volume_floor=None):
    """n tetrahedra with all edge lengths >= ell, by ``tetra._sample_rows``.

    Proposals are drawn over the full angle polytope (the set of length
    vectors above the floor meets every angle-sum regime, so acute
    restriction would miss most of it), unless ``require_volume_floor``
    also asks for volume above a floor, for ell > 0. An int ``rng`` is taken as a seed.
    """
    constraint = tetra.INTERIOR if require_volume_floor is None else tetra.VOLUME_FLOOR
    rows = tetra._sample_rows(rng, n, constraint, require_volume_floor, _positive_ell(ell), budget)
    return [Tetrahedron(tuple(a), tuple(l), v) for a, l, v in zip(*(r.tolist() for r in rows))]


# --- deformation flow ----------------------------------------------------

#: flow steps whose candidate rows are chart-tested and evaluated together.
#: A one-row chart or volume call costs as much as 200 to 330 further rows
#: (115-281 us against 0.35-1.47 us per row on a shared 2-core host), and
#: the flow workload's starts at ell = 0.3 take 457 steps on average and 756
#: at p99, so 1024 rows make nearly every start one chart call and one
#: volume call (1.31 of each at 512 rows). That pays only while a block's
#: temporaries stay small: before ``clausen`` reused its buffers, a flow in
#: the benchmark's loop took 38 page faults against 13-17 at 512 rows, and
#: the gain was lost
_FLOW_BLOCK = 1024


def _flow_schedule(current, dt, max_steps):
    # the level (n,) of the longest edges after each of the first n <= max_steps
    # steps of the flow from the lengths ``current`` and the times (n + 1,) of
    # the start and each step; step i's row is np.minimum(current, levels[i]).
    # Each segment lowers the tied set of longest edges from lmax to the
    # second-largest value in steps of dt and ends on it exactly, so the
    # segments follow from the (at most six) distinct start lengths
    current = [float(x) for x in current]
    levels, increments = [np.empty(0)], [np.zeros(1)]
    budget = max_steps
    while budget > 0:
        lmax, lmin = max(current), min(current)
        if lmax - lmin < TIE_TOL:
            break
        second = max(x for x in current if x < lmax - TIE_TOL)
        seg_len = lmax - second
        if seg_len > TIE_TOL:
            # clipped before the ceil, which overflows on seg_len / dt = inf
            n_sub = max(1, math.ceil(min(seg_len / dt, budget + 1)))
            count = min(n_sub, budget)
            budget -= count
            shift = np.minimum(np.arange(count + 1) * dt, seg_len)
            level = lmax - shift[1:]
            if count == n_sub:
                level[-1] = second
            levels.append(level)
            increments.append(shift[1:] - shift[:-1])
        current = [second if x >= lmax - TIE_TOL else x for x in current]
    # accumulate adds left to right: each time holds the bits of a running sum
    return np.concatenate(levels), np.cumsum(np.concatenate(increments))


def deformation_flow(start, ell_floor, dt=DEFAULT_DT, max_steps=200_000):
    """Shrink the maximal-length edges in lockstep until the tetrahedron is
    regular, recording the angles, lengths and volume of every step.

    Each segment lowers the tied set of longest edges until it merges with
    the second-largest value; the tied set then grows and the process
    repeats. Termination reasons: ``regular`` (all six lengths merged),
    ``boundary`` (the path left the length chart, which the theorem rules
    out when the starting volume is at least vol of the regular tetrahedron
    of the floor length), or ``budget`` (``max_steps`` steps taken; the step
    that finds the boundary counts as one).

    Every step lowers the longest edges to a level that follows from the
    start lengths alone, so the levels of the whole path are computed
    first, one float per step. Blocks of ``_FLOW_BLOCK`` steps are formed
    from them as (6, m) columns of the start lengths capped at each level.
    One ``convert._chart_rows`` test per block gives the angles, cosines and
    vertex sums that one ``volume._volume_columns`` call takes up to the first
    column outside the chart; no block past it is formed. A path of at most
    ``_FLOW_BLOCK`` steps, as nearly every flow at ell = 0.3 and the default
    dt is, makes one call of each. The path is returned as arrays; records
    are built only when ``Trajectory.points`` is read.
    """
    dt, ell_floor = domain.as_finite(dt, "dt"), domain.as_finite(ell_floor, "ell_floor")
    if dt <= 0:
        raise InvalidArgumentError("dt must be positive")
    if start.min_length < ell_floor - 1e-9:
        raise DomainError(
            f"start tetrahedron has min length {start.min_length:.6g} below "
            f"the floor {ell_floor:.6g}"
        )
    max_steps = domain.as_count(max_steps, "max_steps")
    levels, t = _flow_schedule(start.lengths, dt, max_steps)
    # the start and each block's (6, m) length and angle columns and volumes
    # up to its first column outside the chart
    start_lengths = np.array(start.lengths)
    lengths, angles = [start_lengths[:, None]], [np.array(start.angles)[:, None]]
    vols = [np.array([start.volume])]
    steps = len(levels)
    reason = TERMINATED_BUDGET if steps >= max_steps else TERMINATED_REGULAR
    for first in range(0, steps, _FLOW_BLOCK):
        columns = np.minimum(start_lengths[:, None], levels[None, first:first + _FLOW_BLOCK])
        block_angles, ok, cos, sums = convert._chart_rows(columns)
        inside = len(ok) if ok.all() else int(ok.argmin())
        lengths.append(columns[:, :inside])
        angles.append(block_angles[:, :inside])
        vols.append(volume._volume_columns(angles[-1], cos[:, :inside], sums[:, :inside], first))
        if inside < len(ok):
            steps, reason = first + inside, TERMINATED_BOUNDARY
            break
    lengths, angles = (np.concatenate(x, axis=1).T for x in (lengths, angles))
    return Trajectory(t[:steps + 1], angles, lengths, np.concatenate(vols), ell_floor, dt, reason)


# --- campaigns -----------------------------------------------------------

def _campaign(name, seed, params, reference, tol, notes, **sampling):
    # the report of one ``tetra._sample_rows`` draw (``sampling`` holds ell and
    # the proposals): one entry per row, records made for the witnesses only
    report = VerificationReport(campaign=name, seed=seed, params=params, notes=notes)
    angles, lengths, vols = tetra._sample_rows(
        domain.as_count(seed, "seed"), params["n"], **sampling)
    margins = reference - vols

    def witness(i):
        return Tetrahedron(tuple(angles[i].tolist()), tuple(lengths[i].tolist()), float(vols[i]))

    report.record_batch(margins, margins >= -tol, witness)
    return report


def verify_theorem(ell, n, seed, tol=MARGIN_TOL):
    """Sample n tetrahedra of T_ell and check vol <= vol of the regular
    tetrahedron of edge length ell (plus tol). For ell > l0 the theorem is
    only conjectured; the report is flagged accordingly."""
    ell = _positive_ell(ell)
    tol = domain.as_finite(tol, "tol", nonnegative=True)
    reference = regular_from_length(ell).volume
    params = {"ell": ell, "n": n, "tol": tol, "reference_volume": reference}
    notes = ["conjecture regime: ell exceeds l0, outcome recorded, not asserted"]
    return _campaign("theorem", seed, params, reference, tol,
                     notes if ell > volume.L0 + 1e-12 else [], ell=ell)


def verify_fixed_angle_sum(theta_sum, n, seed, tol=MARGIN_TOL):
    """Sample n angle tuples with the prescribed total angle sum and check
    vol <= vol of the regular tetrahedron with angles theta_sum / 6."""
    theta_sum = domain.as_finite(theta_sum, "theta_sum")
    tol = domain.as_finite(tol, "tol", nonnegative=True)
    if not 0.0 < theta_sum < 2.0 * math.pi:
        raise DomainError(f"theta_sum must lie in (0, 2*pi) so the regular comparison "
                          f"tetrahedron exists, got {theta_sum!r}")
    reference = regular_from_angle(theta_sum / 6.0).volume
    params = {"theta_sum": theta_sum, "n": n, "tol": tol, "reference_volume": reference}

    def propose(rng, size):
        # uniform on the slice of the angle-sum simplex
        return rng.dirichlet(np.ones(6), size=size) * theta_sum

    return _campaign("fixed_angle_sum", seed, params, reference, tol, [], ell=0.0,
                     propose=propose)


def regular_volume_scan(ell_grid):
    """Volumes of the regular family along a grid of edge lengths."""
    return [(float(ell), regular_from_length(ell).volume) for ell in ell_grid]


#: the flattening family's first eps, and delta / eps, which at 2 or more
#: keeps the family inside the closure of the angle polytope
_DEGENERATION_EPS0 = 0.2
_DEGENERATION_RATIO = 2.5


def degeneration_path(steps):
    """Walk the flattening family (eps, eps, pi - delta, eps, eps, pi - delta),
    delta = 2.5 eps, from eps = 0.2 down to the flat octagon limit
    (0, 0, pi, 0, 0, pi) in ``steps`` evenly spaced steps, evaluating the
    continuously extended volume."""
    if domain.as_count(steps, "steps") < 2:
        raise InvalidArgumentError("degeneration_path needs at least 2 steps")
    out = []
    for k in range(steps):
        eps = _DEGENERATION_EPS0 * (1.0 - k / (steps - 1))
        delta = _DEGENERATION_RATIO * eps
        angles = (eps, eps, math.pi - delta, eps, eps, math.pi - delta)
        out.append((angles, volume.ushijima_volume(angles)))
    return out


# --- conjectures (exploratory; outputs are evidence, not gates) ----------

def conjecture_prima_test(tet, ell):
    """Average-angle regularization test: holds when the regular tetrahedron
    with the mean dihedral angle keeps its edge length above ell > 0."""
    ell = _positive_ell(ell)
    theta_mean = sum(tet.angles) / 6.0
    if theta_mean >= math.pi / 3.0:
        raise DomainError(
            f"mean angle {theta_mean:.6g} has no regular tetrahedron"
        )
    regular = regular_from_angle(theta_mean)
    margin = regular.lengths[0] - ell
    return margin >= -MARGIN_TOL, margin


def conjecture_prima2_test(tet, ell):
    """Search the convex hull of the 24 symmetric images of ``tet`` (vertices
    excluded) for another point of T_ell among the barycenters of its 210 sub-orbits
    (``domain._coset_rows``), by one batch conversion. The whole orbit's comes first:
    it is the regular tetrahedron of the mean angle, as in ``conjecture_prima_test``.
    Returns (nonempty, witness), the first hit; a False result is inconclusive,
    not a refutation: the candidates are finitely many points of the hull; ell > 0."""
    if tet.is_regular():
        raise DomainError("conjecture requires a non-regular tetrahedron")
    ell = _positive_ell(ell)
    orbit = np.asarray(tet.angles)[[domain._EDGE_IMAGES[s] for s in domain.ALL_PERMUTATIONS]]
    # one coset size at a time: a row's points are summed in index order
    points = np.concatenate([orbit[rows].mean(axis=1) for rows in domain._coset_rows()])
    off_orbit = np.abs(orbit - points[:, np.newaxis]).max(axis=2).min(axis=1) >= 1e-9
    long = (convert.angles_to_lengths_batch(points) >= ell - MARGIN_TOL).all(axis=1)
    hits = np.flatnonzero(off_orbit & long)
    return (True, Tetrahedron.from_angles(points[hits[0]])) if len(hits) else (False, None)
