"""The Tetrahedron record (coherent angle/length pair with cached volume),
the regular one-parameter family, and the rejection sampler over the angle
polytope: ``_sample_rows`` makes every accept decision (region, length
floor, volume floor) for ``sample_O_batch``, ``sample_T_ell`` and both
campaigns, whatever its ``propose`` draws (the region's uniform box by
default). A Generator is drawn in ``_BATCH``-row blocks, an int seed in
blocks sized from the acceptance seen so far, at most ``_GROW_CAP`` rows;
budgets round up to ``_BATCH``.
"""

import math
import numbers
import operator
from collections.abc import Mapping
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

#: lengths closer than this tie
TIE_TOL = 1e-9


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
        # validated once; the volume is looked up on the module, where wrappers see it
        a = domain.as_vector(angles, "angles")
        xs = a.tolist()
        if not domain._in_polytope(xs, domain._vertex_sums(xs), True, 0.0):
            raise DomainError(f"angles {a!r} not interior to the angle polytope")
        lengths, = convert._guarded(convert._ANGLE_GUARDS, convert._cosh_lengths, convert._arccosh, a)
        return cls(tuple(xs), tuple(lengths.tolist()), volume.ushijima_volume(a))

    @classmethod
    def from_lengths(cls, lengths):
        """The record of a length row that ``in_L`` accepts. Another row raises
        the typed error of a failing ``lengths_to_angles`` guard, else DomainError."""
        l = domain.as_vector(lengths, "lengths")
        angles = convert.chart_angles(l)
        if angles is None:
            convert.lengths_to_angles(l)
            raise DomainError(f"lengths {l!r} lie outside the length chart: a length is not "
                              "positive, or their angles are not strictly inside the angle "
                              "polytope or do not convert back to them within 1e-9")
        return cls(tuple(angles.tolist()), tuple(l.tolist()), volume.ushijima_volume(angles))

    @property
    def min_length(self):
        return min(self.lengths)

    @property
    def max_length(self):
        return max(self.lengths)

    def is_regular(self):
        return self.max_length - self.min_length < TIE_TOL

    def maximal_edge_count(self):
        """Number of edges whose length ties with the maximum."""
        return sum(1 for l in self.lengths if l >= self.max_length - TIE_TOL)

    def permuted(self, sigma):
        """The same tetrahedron with its vertices relabelled by ``sigma``:
        angles and lengths are permuted alike and the volume is kept."""
        take = operator.itemgetter(*domain._EDGE_IMAGES[domain._validate_permutation(sigma)])
        return Tetrahedron(take(self.angles), take(self.lengths), self.volume)

    def to_json_dict(self):
        return {"angles": list(self.angles), "lengths": list(self.lengths), "volume": self.volume}

    @classmethod
    def from_json_dict(cls, record):
        """Rebuild a record (a mapping with angles, lengths and volume) from its
        angles, rejecting stored lengths or a stored volume that disagree with
        them beyond ``ROUND_TRIP_TOL``."""
        if not isinstance(record, Mapping):
            raise InvalidArgumentError(f"record: expected a mapping, got {record!r}")
        missing = [key for key in ("angles", "lengths", "volume") if key not in record]
        if missing:
            raise InvalidArgumentError(f"record: missing {', '.join(missing)}")
        tet = cls.from_angles(record["angles"])
        lengths = domain.as_vector(record["lengths"], "lengths")
        volume = record["volume"]
        if not isinstance(volume, numbers.Real):
            raise InvalidArgumentError(f"volume: expected a number, got {volume!r}")
        # np.max, unlike max, keeps a NaN
        defect = np.max(np.abs(np.append(lengths, volume) - (*tet.lengths, tet.volume)))
        if not defect <= ROUND_TRIP_TOL:
            raise InconsistencyError(f"record differs from its angles' tetrahedron by {defect:.3g}")
        return tet


THETA_MAX = math.pi / 3.0


def regular_from_angle(theta):
    theta = domain.as_finite(theta, "regular angle")
    if not 0.0 < theta < THETA_MAX:
        raise DomainError(f"regular angle must lie in (0, pi/3), got {theta!r}")
    return Tetrahedron.from_angles([theta] * 6)


def regular_from_length(ell):
    """Regular tetrahedron of edge length ell, from the closed form
    cos theta = cosh ell / (2 cosh ell - 1).

    Raises AccuracyError when the returned edge length misses ell by more
    than ``ROUND_TRIP_TOL``: near the flat limit theta -> pi/3 the length
    diverges, and from ell ~ 17 the rounding of cos theta shows in it;
    below ell ~ 1.5e-8 cosh ell rounds to 1, and theta to 0.
    """
    ell = domain.as_finite(ell, "regular length")
    if ell <= 0.0:
        raise DomainError(f"regular length must be positive, got {ell!r}")
    # the ratio has rounded to 1/2 long before cosh would overflow
    ch = math.cosh(min(ell, 700.0))
    theta = math.acos(ch / (2.0 * ch - 1.0))
    if theta >= THETA_MAX:
        raise AccuracyError(f"length {ell!r} too close to the divergent flat limit")
    if theta == 0.0:
        raise AccuracyError(f"length {ell!r} too short: cosh rounds to 1 and the angle to 0")
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
#: the largest block of a seed's generator: 768 KiB of proposals
_GROW_CAP = 4 * _BATCH


def rejection_sample(rng, n, propose, accept, budget=None):
    """The first n accepted rows of blocks of proposals, as arrays.

    ``propose(rng, size)`` draws a (size, 6) array of candidate rows;
    ``accept(rows)`` returns a tuple of arrays whose first axis runs over
    the accepted rows of the block, in proposal order (the angle rows, and
    whatever else the caller computed for them), until n rows are in; they
    are joined and cut at n. A Generator ``rng`` is drawn in blocks of
    ``_BATCH`` rows, keeping the caller's stream. An int seeds a generator
    no one else sees, whose blocks are sized to the rows still wanted: the
    first has ceil(1.25 n) rows, at most ``_BATCH``; while none is accepted
    the next have 4096, 8192, then 16384 rows (``_GROW_CAP``); after that,
    with a rows accepted out of d drawn, a block has ceil(1.25 (n - a) d / a)
    rows, at most ``_GROW_CAP``. A generator's stream does not depend on
    where its blocks are cut, so a seed gives its generator's rows.
    ``budget``, a nonnegative integer, caps the rows drawn, rounded up to a
    multiple of ``_BATCH``; it defaults to max(10^6, 2 * 10^4 * n).
    """
    n = domain.as_count(n, "n")
    if budget is None:
        budget = max(1_000_000, 20_000 * n)
    budget = domain.as_count(budget, "budget")
    # a caller's Generator keeps _BATCH blocks; a seed's are sized to the sample
    sized = not isinstance(rng, np.random.Generator)
    if sized:
        rng = np.random.default_rng(domain.as_count(rng, "seed"))
    cap = -(-budget // _BATCH) * _BATCH
    chunks, accepted, draws = [], 0, 0
    size = min(-(-5 * n // 4), _BATCH) if sized else _BATCH
    while accepted < n:
        if draws >= cap:
            raise SamplingError(
                f"rejection budget {budget} exhausted after {accepted}/{n} accepted"
            )
        size = min(size, cap - draws)
        chunks.append(accept(propose(rng, size)))
        draws += size
        accepted += len(chunks[-1][0])
        if sized and accepted:
            # ceil(1.25 (n - accepted) draws / accepted), in integers
            size = min(-(-5 * (n - accepted) * draws // (4 * accepted)), _GROW_CAP)
        elif sized:
            size = min(max(2 * size, _BATCH), _GROW_CAP)
    if not chunks:
        # n = 0: the (empty) arrays of an empty batch, with their shapes
        chunks.append(accept(np.empty((0, 6))))
    return tuple(np.concatenate(parts)[:n] for parts in zip(*chunks))


def _sample_rows(rng, n, constraint=INTERIOR, floor=None, ell=None, budget=None,
                 propose=None):
    """n rows by ``rejection_sample`` from ``propose(rng, size)``, by default
    uniform proposals over [0, pi)^6, or [0, pi/2)^6 under the acute
    constraints, from a Generator or a seed (blocks sized to the sample), the
    budget rounded up to a multiple of ``_BATCH``. A block keeps the rows in
    the region (``_in_O_index``, or ``acute_mask``, necessary for a volume
    floor at vol(l0) and above), then with ``ell`` those with all lengths >=
    ell (NaN rows of the batch conversion fail, so ell = 0 keeps the rows
    it converts), then under ``volume_floor`` those with volume >= ``floor``.
    Returns ``(angles,)``, or with ``ell`` the angles, lengths and volumes
    (the n rows' volumes from one call). Both campaigns draw here: the
    theorem's with uniform proposals and its ell, the angle-sum one with
    proposals on its slice and ell = 0."""
    if ell is not None:
        ell = domain.as_finite(ell, "ell")
    if constraint not in (INTERIOR, ACUTE, VOLUME_FLOOR):
        raise InvalidArgumentError(f"unknown constraint {constraint!r}")
    if constraint == VOLUME_FLOOR:
        if floor is None:
            raise InvalidArgumentError("volume_floor constraint requires a floor value")
        floor = domain.as_finite(floor, "volume floor")

    def accept(batch):
        rows = [np.take(batch, domain._in_O_index(batch), axis=0) if constraint == INTERIOR
                else np.compress(domain.acute_mask(batch), batch, axis=0)]
        if ell is not None:
            lengths = convert.angles_to_lengths_batch(rows[0])
            ok = (lengths >= ell).all(axis=1)  # NaN rows compare False
            rows = [rows[0][ok], lengths[ok]]
        if constraint == VOLUME_FLOOR:
            vols = volume.ushijima_volume(rows[0])
            keep = vols >= floor
            rows = [r[keep] for r in rows] + [vols[keep]]
        return rows

    def uniform(rng, size):
        # bitwise rng.uniform(0.0, high), which computes 0.0 + high * u
        rows = rng.random((size, 6))
        rows *= high
        return rows

    high = math.pi if constraint == INTERIOR else math.pi / 2.0
    rows = rejection_sample(rng, n, propose or uniform, accept, budget)
    if ell is not None and constraint != VOLUME_FLOOR:
        rows += (volume.ushijima_volume(rows[0]),)
    return rows if ell is not None else rows[:1]


def sample_O_batch(rng, n, constraint=INTERIOR, floor=None, budget=None):
    """n angle rows satisfying the constraint (``floor`` is the volume floor
    of ``volume_floor``), by ``_sample_rows``; deterministic for a given
    Generator state, or a seed (an int ``rng``, drawn in blocks sized to n)."""
    return list(_sample_rows(rng, n, constraint, floor, budget=budget)[0])


def sample_O(rng, constraint=INTERIOR, floor=None):
    """One point of the angle polytope satisfying the requested constraint."""
    return sample_O_batch(rng, 1, constraint, floor)[0]
