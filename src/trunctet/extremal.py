"""Extremal machinery: the edge-shrinking deformation flow, sampling
campaigns for the volume-maximization theorem and its relatives, the regular
family scan, flat degenerations, and exploratory tests for the open
conjectures.
"""

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import convert, domain, volume
from .errors import DomainError, InvalidArgumentError
from .tetra import (
    Tetrahedron,
    regular_from_angle,
    regular_from_length,
    rejection_sample,
    uniform_proposals,
)

TIE_TOL = 1e-9
DEFAULT_DT = 1e-3
MARGIN_TOL = 1e-9
INDETERMINATE_BAND = 1e-6

TERMINATED_REGULAR = "regular"
TERMINATED_BOUNDARY = "boundary"
TERMINATED_BUDGET = "budget"
TERMINATED_MERGED = "merged"

CSV_HEADER = "t,l12,l13,l14,l34,l24,l23,volume"


@dataclass(frozen=True)
class Trajectory:
    """Sampled deformation path: (t, tetrahedron) pairs with metadata."""

    points: tuple
    ell_floor: float
    dt: float
    reason: str

    @property
    def volumes(self):
        return [tet.volume for _, tet in self.points]

    def to_csv(self):
        lines = [CSV_HEADER]
        for t, tet in self.points:
            cells = [f"{t:.17g}"] + [f"{l:.17g}" for l in tet.lengths]
            cells.append(f"{tet.volume:.17g}")
            lines.append(",".join(cells))
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


# --- sampling T_ell ------------------------------------------------------

def sample_T_ell(rng, ell, n, budget=None, require_volume_floor=None):
    """n tetrahedra with all edge lengths >= ell, by ``rejection_sample``.

    Proposals are drawn uniformly over the full angle polytope (the set of
    length vectors above the floor meets every angle-sum regime, so acute
    restriction would miss most of it). Optionally also enforces a volume
    floor, in which case proposals come from the acute region, which is a
    necessary condition for the floor at vol(l0) and above.

    The records are built from the arrays of ``_T_ell_rows``, the private
    row sampler that the campaigns use directly.
    """
    rows = _T_ell_rows(rng, ell, n, budget, require_volume_floor)
    return [Tetrahedron(tuple(a), tuple(l), v) for a, l, v in zip(*(r.tolist() for r in rows))]


def _T_ell_rows(rng, ell, n, budget=None, require_volume_floor=None):
    # the (n, 6) angles, (n, 6) lengths and (n,) volumes of n rows of T_ell
    # drawn as sample_T_ell describes. Without a floor the volumes come from
    # one batch call on the n rows; with one, each batch's rows above the
    # length floor are evaluated in one call
    acute = require_volume_floor is not None

    def accept(batch):
        angles = batch[domain.acute_mask(batch) if acute else domain.in_O_mask(batch)]
        lengths = convert.angles_to_lengths_batch(angles)
        ok = (lengths >= ell).all(axis=1)  # NaN rows compare False
        angles, lengths = angles[ok], lengths[ok]
        if not acute:
            return angles, lengths
        vols = volume.ushijima_volume(angles)
        keep = vols >= require_volume_floor
        return angles[keep], lengths[keep], vols[keep]

    high = math.pi / 2.0 if acute else math.pi
    rows = rejection_sample(rng, n, uniform_proposals(high), accept, budget)
    if acute:
        return rows
    angles, lengths = rows
    return angles, lengths, volume.ushijima_volume(angles)


def _record_rows(report, reference, tol, angles, lengths, vols):
    # one report entry per row; records are made for the witnesses only
    margins = reference - vols

    def witness(i):
        return Tetrahedron(tuple(angles[i].tolist()), tuple(lengths[i].tolist()), float(vols[i]))

    report.record_batch(margins, margins >= -tol, witness)


# --- deformation flow ----------------------------------------------------

#: flow steps whose candidate rows are chart-tested and evaluated together;
#: bounds the temporaries of the batch volume whatever the segment length
_FLOW_BLOCK = 128


def _segment_blocks(current, tied, lmax, second, dt, count):
    # the candidate length rows of the first ``count`` steps of the segment
    # that lowers the tied edges from lmax to second in steps of dt, with the
    # t increment of each step, _FLOW_BLOCK steps at a time
    seg_len = lmax - second
    n_sub = max(1, math.ceil(seg_len / dt))
    last = min(n_sub, count)
    for first in range(0, last, _FLOW_BLOCK):
        sub = np.arange(first + 1, min(first + _FLOW_BLOCK, last) + 1)
        shift = np.minimum(sub * dt, seg_len)
        rows = np.tile(current, (len(sub), 1))
        rows[:, tied] = np.where(sub == n_sub, second, lmax - shift)[:, None]
        yield rows, (shift - np.minimum((sub - 1) * dt, seg_len)).tolist()


def deformation_flow(start, ell_floor, dt=DEFAULT_DT, max_steps=200_000):
    """Shrink the maximal-length edges in lockstep until the tetrahedron is
    regular, recording one tetrahedron per step.

    Each segment lowers the tied set of longest edges until it merges with
    the second-largest value; the tied set then grows and the process
    repeats. Termination reasons: ``regular`` (all six lengths merged),
    ``boundary`` (the path left the length chart, which the theorem rules
    out when the starting volume is at least vol of the regular tetrahedron
    of the floor length), or ``budget`` (``max_steps`` steps taken; the step
    that finds the boundary counts as one).

    The steps of a segment depend only on its start, so their length rows
    are built in blocks, each block decided by one batch ``chart_angles``
    call and evaluated by one batch volume call up to its first row outside
    the chart.
    """
    if dt <= 0:
        raise InvalidArgumentError("dt must be positive")
    if start.min_length < ell_floor - 1e-9:
        raise DomainError(
            f"start tetrahedron has min length {start.min_length:.6g} below "
            f"the floor {ell_floor:.6g}"
        )
    points = [(0.0, start)]

    def finish(reason):
        return Trajectory(tuple(points), float(ell_floor), float(dt), reason)

    current = np.asarray(start.lengths, dtype=float)
    t_global = 0.0
    steps = 0
    while steps < max_steps:
        lmax = float(current.max())
        lmin = float(current.min())
        if lmax - lmin < TIE_TOL:
            return finish(TERMINATED_REGULAR)
        tied = current >= lmax - TIE_TOL
        second = float(current[~tied].max())
        if lmax - second > TIE_TOL:
            blocks = _segment_blocks(current, tied, lmax, second, dt, max_steps - steps)
            for rows, increments in blocks:
                angles, ok = convert.chart_angles(rows)
                inside = len(ok) if ok.all() else int(ok.argmin())
                vols = volume.ushijima_volume(angles[:inside]).tolist()
                for a, l, v, increment in zip(angles.tolist(), rows.tolist(), vols, increments):
                    t_global = t_global + increment
                    points.append((t_global, Tetrahedron(tuple(a), tuple(l), v)))
                if inside < len(ok):
                    return finish(TERMINATED_BOUNDARY)
                steps += inside
        current[tied] = second
    return finish(TERMINATED_BUDGET)


# --- campaigns -----------------------------------------------------------

def verify_theorem(ell, n, seed, tol=MARGIN_TOL):
    """Sample n tetrahedra of T_ell and check vol <= vol of the regular
    tetrahedron of edge length ell (plus tol). For ell > l0 the theorem is
    only conjectured; the report is flagged accordingly."""
    ell = float(ell)
    if ell <= 0:
        raise DomainError(f"ell must be positive, got {ell!r}")
    reference = regular_from_length(ell).volume
    report = VerificationReport(
        campaign="theorem",
        seed=seed,
        params={"ell": ell, "n": n, "tol": tol, "reference_volume": reference},
    )
    if ell > volume.L0 + 1e-12:
        report.notes.append(
            "conjecture regime: ell exceeds l0, outcome recorded, not asserted"
        )
    _record_rows(report, reference, tol, *_T_ell_rows(np.random.default_rng(seed), ell, n))
    return report


def verify_fixed_angle_sum(theta_sum, n, seed, tol=MARGIN_TOL):
    """Sample n angle tuples with the prescribed total angle sum and check
    vol <= vol of the regular tetrahedron with angles theta_sum / 6."""
    theta_sum = float(theta_sum)
    if not 0.0 < theta_sum < 2.0 * math.pi:
        raise DomainError(
            f"theta_sum must lie in (0, 2*pi) so the regular comparison "
            f"tetrahedron exists, got {theta_sum!r}"
        )
    reference = regular_from_angle(theta_sum / 6.0).volume
    report = VerificationReport(
        campaign="fixed_angle_sum",
        seed=seed,
        params={"theta_sum": theta_sum, "n": n, "tol": tol, "reference_volume": reference},
    )

    def propose(rng, size):
        return rng.dirichlet(np.ones(6), size=size) * theta_sum

    def accept(batch):
        return (batch[domain.in_O_mask(batch)],)

    (angles,) = rejection_sample(np.random.default_rng(seed), n, propose, accept)
    lengths = convert.angles_to_lengths_batch(angles)
    # rows the batch conversion marks NaN: the scalar conversion raises the
    # typed error Tetrahedron.from_angles raises, or returns its lengths
    for row in np.flatnonzero(np.isnan(lengths).any(axis=1)):
        lengths[row] = convert.angles_to_lengths(angles[row])
    _record_rows(report, reference, tol, angles, lengths, volume.ushijima_volume(angles))
    return report


def regular_volume_scan(ell_grid):
    """Volumes of the regular family along a grid of edge lengths."""
    return [(float(ell), regular_from_length(ell).volume) for ell in ell_grid]


def degeneration_path(steps, eps0=0.2, delta_ratio=2.5):
    """Walk the flattening family (eps, eps, pi - delta, eps, eps, pi - delta)
    down to the flat octagon limit (0, 0, pi, 0, 0, pi), evaluating the
    continuously extended volume. ``delta_ratio`` >= 2 keeps the path inside
    the closure of the angle polytope."""
    if steps < 2:
        raise InvalidArgumentError("degeneration_path needs at least 2 steps")
    if delta_ratio < 2.0:
        raise InvalidArgumentError("delta_ratio below 2 leaves the polytope closure")
    out = []
    for k in range(steps):
        eps = eps0 * (1.0 - k / (steps - 1))
        delta = delta_ratio * eps
        angles = (eps, eps, math.pi - delta, eps, eps, math.pi - delta)
        out.append((angles, volume.ushijima_volume(angles)))
    return out


# --- conjectures (exploratory; outputs are evidence, not gates) ----------

def conjecture_prima_test(tet, ell, tol=MARGIN_TOL):
    """Average-angle regularization test: holds when the regular tetrahedron
    with the mean dihedral angle keeps its edge length above ell."""
    theta_mean = sum(tet.angles) / 6.0
    if theta_mean >= math.pi / 3.0:
        raise DomainError(
            f"mean angle {theta_mean:.6g} has no regular tetrahedron"
        )
    regular = regular_from_angle(theta_mean)
    margin = regular.lengths[0] - float(ell)
    return margin >= -tol, margin


def conjecture_prima2_test(tet, ell, probes, seed, tol=MARGIN_TOL):
    """Search the convex hull of the 24 symmetric images of ``tet`` (vertices
    excluded) for another point of T_ell.

    Returns (nonempty, witness); a False result after the probe budget is
    inconclusive, not a refutation.
    """
    if tet.is_regular():
        raise DomainError("conjecture requires a non-regular tetrahedron")
    ell = float(ell)
    orbit = np.array(
        [domain.permute(sigma, tet.angles) for sigma in domain.ALL_PERMUTATIONS]
    )

    def try_point(angles):
        if min(np.max(np.abs(orbit - angles), axis=1)) < 1e-9:
            return None  # coincides with an orbit vertex
        candidate = Tetrahedron.from_angles(angles)
        if candidate.min_length >= ell - tol:
            return candidate
        return None

    # the orbit barycenter has all angles equal to the mean: test it first
    witness = try_point(orbit.mean(axis=0))
    if witness is not None:
        return True, witness
    rng = np.random.default_rng(seed)
    for _ in range(int(probes)):
        weights = rng.dirichlet(np.ones(len(orbit)))
        witness = try_point(weights @ orbit)
        if witness is not None:
            return True, witness
    return False, None
