"""The Tetrahedron record (coherent angle/length pair with cached volume),
the regular one-parameter family, and rejection samplers over the angle
polytope.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import convert, domain, volume
from .errors import (
    AccuracyError,
    DomainError,
    InconsistencyError,
    InvalidArgumentError,
    SamplingError,
)

ROUND_TRIP_TOL = 1e-9


@dataclass(frozen=True)
class Tetrahedron:
    """Marked isometry class: dihedral angles, edge lengths and volume.

    Instances are immutable values; construct them through ``from_angles`` /
    ``from_lengths`` so that the three fields stay coherent.
    """

    angles: tuple
    lengths: tuple
    volume: float

    @classmethod
    def from_angles(cls, angles):
        a = domain.as_vector(angles, "angles")
        if not domain.in_O(a, strict=True):
            raise DomainError(f"angles {a!r} not interior to the angle polytope")
        lengths = convert.angles_to_lengths(a)
        return cls(tuple(a.tolist()), tuple(lengths.tolist()), volume.ushijima_volume(a))

    @classmethod
    def from_lengths(cls, lengths):
        l = domain.as_vector(lengths, "lengths")
        angles = convert.lengths_to_angles(l)
        if not domain.in_O(angles, strict=True):
            raise DomainError(f"lengths {l!r} lie on the boundary of the length chart")
        return cls(tuple(angles.tolist()), tuple(l.tolist()), volume.ushijima_volume(angles))

    @property
    def min_length(self):
        return min(self.lengths)

    @property
    def max_length(self):
        return max(self.lengths)

    def is_regular(self, tol=1e-9):
        return self.max_length - self.min_length < tol

    def maximal_edge_count(self, tie_tol=1e-9):
        """Number of edges whose length ties with the maximum."""
        return sum(1 for l in self.lengths if l >= self.max_length - tie_tol)

    def permuted(self, sigma):
        """The same tetrahedron with its vertices relabelled by ``sigma``:
        angles and lengths are permuted alike and the volume is kept."""
        return Tetrahedron(
            tuple(domain.permute(sigma, self.angles).tolist()),
            tuple(domain.permute(sigma, self.lengths).tolist()),
            self.volume,
        )

    def to_json_dict(self):
        return {
            "angles": [float(f"{x:.17g}") for x in self.angles],
            "lengths": [float(f"{x:.17g}") for x in self.lengths],
            "volume": float(f"{self.volume:.17g}"),
        }

    @classmethod
    def from_json_dict(cls, record):
        """Rebuild a record from its angles, rejecting stored lengths or a
        stored volume that disagree with them beyond ``ROUND_TRIP_TOL``."""
        tet = cls.from_angles(record["angles"])
        lengths = domain.as_vector(record["lengths"], "lengths")
        defect = max(np.max(np.abs(lengths - tet.lengths)), abs(record["volume"] - tet.volume))
        if not defect <= ROUND_TRIP_TOL:
            raise InconsistencyError(f"record differs from its angles' tetrahedron by {defect:.3g}")
        return tet


THETA_MAX = math.pi / 3.0


def regular_from_angle(theta):
    theta = float(theta)
    if not 0.0 < theta < THETA_MAX:
        raise DomainError(f"regular angle must lie in (0, pi/3), got {theta!r}")
    return Tetrahedron.from_angles([theta] * 6)


def regular_from_length(ell):
    """Regular tetrahedron of edge length ell, from the closed form
    cos theta = cosh ell / (2 cosh ell - 1).

    Raises AccuracyError when the returned edge length misses ell by more
    than ``ROUND_TRIP_TOL``: near the flat limit theta -> pi/3 the length
    diverges, and from ell ~ 17 the rounding of cos theta shows in it.
    """
    ell = float(ell)
    if ell <= 0.0 or not math.isfinite(ell):
        raise DomainError(f"regular length must be positive, got {ell!r}")
    # the ratio has rounded to 1/2 long before cosh would overflow
    ch = math.cosh(min(ell, 700.0))
    theta = math.acos(ch / (2.0 * ch - 1.0))
    if theta >= THETA_MAX:
        raise AccuracyError(f"length {ell!r} too close to the divergent flat limit")
    tet = regular_from_angle(theta)
    defect = abs(tet.lengths[0] - ell)
    if defect > ROUND_TRIP_TOL:
        raise AccuracyError(
            f"regular tetrahedron for length {ell!r} has edge length off by {defect:.3g}",
            best_estimate=tet,
        )
    return tet


# --- samplers -----------------------------------------------------------

INTERIOR = "interior"
ACUTE = "acute"
VOLUME_FLOOR = "volume_floor"

_BATCH = 4096


def rejection_sample(rng, n, propose, accept, budget=None):
    """The first n accepted rows of batches of proposals, as arrays.

    ``propose(rng, size)`` draws a (size, 6) array of candidate rows;
    ``accept(rows)`` returns a tuple of arrays whose first axis runs over
    the accepted rows of the batch, in proposal order (the angle rows, and
    whatever else the caller computed for them). Batches are drawn until n
    rows are in; the chunks are then joined and cut at n, so every row of
    the last batch is accepted or rejected, not only those up to the n-th.
    ``budget`` caps the number of rows drawn and defaults to
    max(10^6, 2 * 10^4 * n).
    """
    if budget is None:
        budget = max(1_000_000, 20_000 * n)
    chunks = []
    accepted = 0
    draws = 0
    while accepted < n:
        if draws >= budget:
            raise SamplingError(
                f"rejection budget {budget} exhausted after {accepted}/{n} accepted"
            )
        chunks.append(accept(propose(rng, _BATCH)))
        draws += _BATCH
        accepted += len(chunks[-1][0])
    if not chunks:
        # n = 0: the (empty) arrays of an empty batch, with their shapes
        chunks.append(accept(np.empty((0, 6))))
    return tuple(np.concatenate(parts)[:n] for parts in zip(*chunks))


def uniform_proposals(high):
    """Proposal rule drawing every entry uniformly from [0, high).

    ``rng.uniform(0.0, high)`` computes 0.0 + high * u from the same
    doubles u, so the scaled ``rng.random`` draws are bitwise its draws,
    without its per-entry broadcasting.
    """
    return lambda rng, size: rng.random((size, 6)) * high


def sample_O_batch(rng, n, constraint=INTERIOR, floor=None, budget=None):
    """n angle rows satisfying the constraint, by ``rejection_sample``.

    Deterministic for a given Generator state. ``floor`` is the volume floor
    for the ``volume_floor`` constraint, whose proposals are drawn from the
    acute region (a necessary condition for volume above vol at l0).
    """
    if constraint not in (INTERIOR, ACUTE, VOLUME_FLOOR):
        raise InvalidArgumentError(f"unknown constraint {constraint!r}")
    if constraint == VOLUME_FLOOR and floor is None:
        raise InvalidArgumentError("volume_floor constraint requires a floor value")

    def accept(batch):
        if constraint == INTERIOR:
            return (batch[domain.in_O_mask(batch)],)
        rows = batch[domain.acute_mask(batch)]
        if constraint == ACUTE:
            return (rows,)
        return (rows[volume.ushijima_volume(rows) >= floor],)

    high = math.pi if constraint == INTERIOR else math.pi / 2.0
    (rows,) = rejection_sample(rng, n, uniform_proposals(high), accept, budget)
    return list(rows)


def sample_O(rng, constraint=INTERIOR, floor=None, budget=None):
    """One point of the angle polytope satisfying the requested constraint."""
    return sample_O_batch(rng, 1, constraint, floor, budget)[0]
