"""The dihedral-angle polytope, acute-angle constraints and the vertex
permutation action.

An angle configuration is admissible when all six entries are positive and
the three angles at each of the four vertices sum below pi; the set of such
6-tuples is an open convex polytope. Closure points (zero entries, vertex
sums equal to pi) are handled by the same predicates with ``strict=False``.
"""

import itertools
import math

import numpy as np

from .errors import InvalidArgumentError
from .indexing import EDGE_PAIRS, VERTEX_EDGES, edge_position

ACUTE_PAIR_BOUND = 7.0 * math.pi / 12.0

#: all 24 vertex permutations, as tuples (sigma(1), ..., sigma(4))
ALL_PERMUTATIONS = tuple(itertools.permutations((1, 2, 3, 4)))


def as_vector(values, name="vector"):
    """Validate and return a 6-vector as a float ndarray."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (6,):
        raise InvalidArgumentError(f"{name}: expected 6 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name}: non-finite entries in {arr!r}")
    return arr


def vertex_sums(angles):
    """The four sums of angles around each vertex, as a length-4 array."""
    return np.array(_vertex_sums(as_vector(angles, "angles").tolist()))


def _vertex_sums(xs):
    # left to right, in VERTEX_EDGES order
    return [xs[p] + xs[q] + xs[r] for p, q, r in VERTEX_EDGES]


def in_O(angles, strict=True, tol=0.0):
    """Membership in the angle polytope (its closure when strict=False).

    ``tol`` loosens every inequality by the given amount; it is used by
    callers that must absorb round-trip noise near the boundary. Plain
    floats, because this runs once per volume and per flow step, where
    numpy's per-call overhead would dominate.
    """
    if isinstance(angles, np.ndarray):
        if angles.shape != (6,):
            raise InvalidArgumentError(f"angles: expected 6 entries, got shape {angles.shape}")
        angles = angles.tolist()
    try:
        xs = tuple(map(float, angles))
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"angles: expected 6 numbers, got {angles!r}") from exc
    if len(xs) != 6 or not all(map(math.isfinite, xs)):
        raise InvalidArgumentError(f"angles: expected 6 finite entries, got {angles!r}")
    sums = _vertex_sums(xs)
    if strict:
        return min(xs) > -tol and max(sums) < math.pi + tol
    return min(xs) >= -tol and max(sums) <= math.pi + tol


def acute_constraints_hold(angles):
    """Necessary angle constraints for volume at least that of the regular
    tetrahedron of edge length l0: total angle sum at most pi, every angle
    acute, and angles of any two edges sharing a vertex summing below 7pi/12.
    """
    return bool(acute_mask(as_vector(angles, "angles")[np.newaxis])[0])


def _validate_permutation(sigma):
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != [1, 2, 3, 4]:
        raise InvalidArgumentError(f"not a permutation of 1..4: {sigma!r}")
    return sigma


#: for each permutation sigma, the position of edge {sigma(i), sigma(j)}
#: for each edge position of {i, j}
_EDGE_IMAGES = {
    sigma: np.array([edge_position(sigma[i - 1], sigma[j - 1]) for i, j in EDGE_PAIRS])
    for sigma in ALL_PERMUTATIONS
}


def permute(sigma, angles):
    """Relabel vertices: entry at edge {i,j} becomes the entry at
    {sigma(i), sigma(j)} of the input."""
    return as_vector(angles, "angles")[_EDGE_IMAGES[_validate_permutation(sigma)]]


def compose(sigma, tau):
    """Composition sigma o tau acting on vertex labels."""
    sigma = _validate_permutation(sigma)
    tau = _validate_permutation(tau)
    return tuple(sigma[tau[i] - 1] for i in range(4))


def permutation_moving_edge_to_front(pos):
    """A vertex permutation sending edge position ``pos`` to position 0."""
    i, j = EDGE_PAIRS[pos]
    rest = [v for v in (1, 2, 3, 4) if v not in (i, j)]
    # order (i, j, rest...) as images of (1, 2, 3, 4)
    return (i, j, rest[0], rest[1])


# --- vectorized helpers for the samplers -------------------------------

def in_O_mask(batch, strict=True, tol=0.0):
    """Polytope membership, as ``in_O``, for an (m, 6) batch of angle rows.

    The first vertex sum is tested on every row. The rows that pass it
    (about 1/6 of uniform proposals) are gathered once, as contiguous
    columns, and the other three sums and the sign test run on those. Sums
    run left to right, as in ``in_O``.
    """
    A = np.asarray(batch, dtype=float)
    below = np.less if strict else np.less_equal
    bound = math.pi + tol
    (p, q, r), *rest = VERTEX_EDGES
    idx = np.flatnonzero(below(A[:, p] + A[:, q] + A[:, r], bound))
    cols = A[idx].T.copy()
    low = cols.min(axis=0)
    keep = low > -tol if strict else low >= -tol
    for p, q, r in rest:
        keep &= below(cols[p] + cols[q] + cols[r], bound)
    ok = np.zeros(len(A), dtype=bool)
    ok[idx[keep]] = True
    return ok


def acute_mask(batch):
    """Acute-region membership for an (m, 6) batch of angle rows."""
    A = np.asarray(batch, dtype=float)
    ok = A.sum(axis=1) <= math.pi
    ok &= np.all(A < math.pi / 2, axis=1)
    for edges in VERTEX_EDGES:
        x, y, z = (A[:, p] for p in edges)
        ok &= (x + y < ACUTE_PAIR_BOUND) & (x + z < ACUTE_PAIR_BOUND) & (y + z < ACUTE_PAIR_BOUND)
    return ok
