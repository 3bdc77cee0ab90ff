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
    TIE_TOL,
    Tetrahedron,
    regular_from_angle,
    regular_from_length,
    rejection_sample,
    uniform_proposals,
)

DEFAULT_DT = 1e-3
MARGIN_TOL = 1e-9
INDETERMINATE_BAND = 1e-6

TERMINATED_REGULAR = "regular"
TERMINATED_BOUNDARY = "boundary"
TERMINATED_BUDGET = "budget"

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

#: flow steps whose candidate rows are chart-tested and evaluated together.
#: A block has a fixed cost of a few hundred microseconds against about
#: 1.5 us per row, and a flow at ell = 0.3 and the default dt takes about
#: 460 steps, so 512 rows take it in one or two blocks. Larger blocks save
#: little more, and from 1024 rows the volume's (16, m) Clausen temporaries
#: reach glibc's 128 KiB mmap threshold
_FLOW_BLOCK = 512


def _flow_blocks(current, dt, max_steps):
    # the candidate length rows of the first max_steps steps of the flow
    # from the lengths ``current``, with the t increment of each step, in
    # blocks of at most _FLOW_BLOCK rows filled from as many segments as it
    # takes. Each segment lowers the tied set of longest edges from lmax to
    # the second-largest value in steps of dt and ends on it exactly, so the
    # whole schedule follows from the start lengths
    current = current.copy()
    block, increments = np.empty((_FLOW_BLOCK, 6)), []
    while max_steps > 0:
        lmax = float(current.max())
        lmin = float(current.min())
        if lmax - lmin < TIE_TOL:
            break
        tied = current >= lmax - TIE_TOL
        second = float(current[~tied].max())
        seg_len = lmax - second
        if seg_len > TIE_TOL:
            n_sub = max(1, math.ceil(seg_len / dt))
            last = min(n_sub, max_steps)
            max_steps -= last
            first = 0
            while first < last:
                held = len(increments)
                take = min(_FLOW_BLOCK - held, last - first)
                sub = np.arange(first + 1, first + take + 1)
                shift = np.minimum(sub * dt, seg_len)
                rows = block[held:held + take]
                rows[:] = current
                rows[:, tied] = np.where(sub == n_sub, second, lmax - shift)[:, None]
                increments += (shift - np.minimum((sub - 1) * dt, seg_len)).tolist()
                first += take
                if len(increments) == _FLOW_BLOCK:
                    yield block, increments
                    block, increments = np.empty((_FLOW_BLOCK, 6)), []
        current[tied] = second
    if increments:
        yield block[:len(increments)], increments


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

    Every step's length row follows from the start lengths alone, so the
    path is built ahead of its evaluation, in blocks of up to ``_FLOW_BLOCK``
    rows that run across segment ends. Each block is decided by one batch
    ``chart_angles`` call and evaluated by one batch volume call up to its
    first row outside the chart; memory is bounded by one block whatever
    ``dt`` and ``max_steps`` are.
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

    t_global = 0.0
    steps = 0
    for rows, increments in _flow_blocks(np.asarray(start.lengths, dtype=float), dt, max_steps):
        angles, ok = convert.chart_angles(rows)
        inside = len(ok) if ok.all() else int(ok.argmin())
        vols = volume.ushijima_volume(angles[:inside]).tolist()
        for a, l, v, increment in zip(angles.tolist(), rows.tolist(), vols, increments):
            t_global = t_global + increment
            points.append((t_global, Tetrahedron(tuple(a), tuple(l), v)))
        if inside < len(ok):
            return finish(TERMINATED_BOUNDARY)
        steps += inside
    return finish(TERMINATED_BUDGET if steps >= max_steps else TERMINATED_REGULAR)


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
    # NaN rows are the rows the scalar conversion raises on: raise the first's
    if np.isnan(lengths).any():
        convert.angles_to_lengths(angles[np.isnan(lengths).any(axis=1).argmax()])
    _record_rows(report, reference, tol, angles, lengths, volume.ushijima_volume(angles))
    return report


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
    if steps < 2:
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
    with the mean dihedral angle keeps its edge length above ell."""
    theta_mean = sum(tet.angles) / 6.0
    if theta_mean >= math.pi / 3.0:
        raise DomainError(
            f"mean angle {theta_mean:.6g} has no regular tetrahedron"
        )
    regular = regular_from_angle(theta_mean)
    margin = regular.lengths[0] - float(ell)
    return margin >= -MARGIN_TOL, margin


def conjecture_prima2_test(tet, ell, probes, seed):
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
        if candidate.min_length >= ell - MARGIN_TOL:
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
