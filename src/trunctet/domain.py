"""The dihedral-angle polytope, acute-angle constraints and the vertex
permutation action.

An angle configuration is admissible when all six entries are positive and
the three angles at each of the four vertices sum below pi; the set of such
6-tuples is an open convex polytope. Closure points (zero entries, vertex
sums equal to pi) are handled by the same predicates with ``strict=False``.
"""

import functools
import itertools
import math
import operator

import numpy as np

from .errors import InvalidArgumentError
from .indexing import EDGE_PAIRS, VERTEX_EDGES, edge_position

ACUTE_PAIR_BOUND = 7.0 * math.pi / 12.0

#: all 24 vertex permutations, as tuples (sigma(1), ..., sigma(4))
ALL_PERMUTATIONS = tuple(itertools.permutations((1, 2, 3, 4)))

#: the three edges at each vertex, one row per member (3 x 4)
_VERTEX_TRIPLES = np.array(VERTEX_EDGES).T


def _as_floats(values, name, expected):
    # values as a float ndarray; a failed conversion raises, and so do complex
    # entries, whose imaginary parts a cast to float would drop
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise TypeError("complex entries")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{name}: expected {expected}, got {values!r}") from exc


def as_vector(values, name="vector"):
    """Validate and return a 6-vector of real, finite numbers as a float ndarray."""
    arr = _as_floats(values, name, "6 numbers")
    if arr.shape != (6,):
        raise InvalidArgumentError(f"{name}: expected 6 entries, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):  # on 6 entries, faster than numpy
        raise InvalidArgumentError(f"{name}: non-finite entries in {arr!r}")
    return arr


def as_rows(values, name="rows"):
    """Validate and return (m, 6) rows of real numbers (NaN, inf pass) as a float ndarray."""
    rows = _as_floats(values, name, "(m, 6) rows of numbers")
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise InvalidArgumentError(f"{name}: expected (m, 6) rows, got shape {rows.shape}")
    return rows


def _ndim(values):
    # np.ndim, for callers of 6-vectors or (m, 6) rows to dispatch on; a
    # ragged nesting, where numpy raises ValueError, goes to as_rows to fail
    try:
        return np.ndim(values)
    except ValueError:
        return 2


def as_finite(value, name, nonnegative=False):
    """Validate and return a finite number, nonnegative if asked, as a float."""
    bounds = "finite and nonnegative" if nonnegative else "finite"
    try:
        finite, number = math.isfinite(value), float(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:
        # an int beyond the floats, whose repr may run to thousands of digits
        raise InvalidArgumentError(f"{name} must be {bounds}, got a number too large "
                                   "for a float") from None
    if not finite or (nonnegative and value < 0):
        raise InvalidArgumentError(f"{name} must be {bounds}, got {number!r}")
    return number


def as_count(value, name):
    """Validate and return a nonnegative integer count."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise InvalidArgumentError(f"{name} must be a nonnegative integer, got {value!r}")
    return count


def vertex_sums(angles):
    """The four sums of angles around each vertex, as a length-4 array."""
    return np.array(_vertex_sums(as_vector(angles, "angles").tolist()))


def _vertex_sums(xs):
    # left to right, in VERTEX_EDGES order: a list on floats, (4, m) on columns
    if isinstance(xs, list):
        return [xs[p] + xs[q] + xs[r] for p, q, r in VERTEX_EDGES]
    return functools.reduce(operator.add, xs[_VERTEX_TRIPLES])


def in_O(angles, strict=True, tol=0.0):
    """Membership in the angle polytope (its closure when strict=False).

    ``tol`` loosens every inequality by the given amount; it is used by
    callers that must absorb round-trip noise near the boundary; it must be
    finite. The input is validated by ``as_vector``.
    """
    tol = as_finite(tol, "tol")
    xs = as_vector(angles, "angles").tolist()
    return _in_polytope(xs, _vertex_sums(xs), strict, tol)


def _in_polytope(xs, sums, strict, tol):
    # in_O's test on the entries and vertex sums of finite Python floats (no
    # sum is NaN), or on (6, m) columns and their (m,) sums, where NaN fails it
    above, below = (operator.gt, operator.lt) if strict else (operator.ge, operator.le)
    if isinstance(xs, np.ndarray):
        low, high = xs.min(axis=0), functools.reduce(np.maximum, sums)
    else:
        low, high = min(xs), max(sums)
    return above(low, -tol) & below(high, math.pi + tol)


def acute_constraints_hold(angles):
    """Necessary angle constraints for volume at least that of the regular
    tetrahedron of edge length l0: total angle sum at most pi, every angle
    acute, and angles of any two edges sharing a vertex summing below 7pi/12.
    """
    return bool(acute_mask(as_vector(angles, "angles")[np.newaxis])[0])


def _validate_permutation(sigma):
    # integer entries only, as in as_count: int() would truncate 2.9 to 2
    try:
        valid = tuple(map(operator.index, sigma))
    except TypeError:
        valid = None
    if valid not in _EDGE_IMAGES:
        raise InvalidArgumentError(f"not a permutation of 1..4: {sigma!r}")
    return valid


#: for each permutation sigma, the position of edge {sigma(i), sigma(j)}
#: for each edge position of {i, j}
_EDGE_IMAGES = {sigma: [edge_position(sigma[i - 1], sigma[j - 1]) for i, j in EDGE_PAIRS]
                for sigma in ALL_PERMUTATIONS}


def permute(sigma, angles):
    """Relabel vertices: entry at edge {i,j} becomes the entry at
    {sigma(i), sigma(j)} of the input."""
    return as_vector(angles, "angles")[_EDGE_IMAGES[_validate_permutation(sigma)]]


def compose(sigma, tau):
    """Composition sigma o tau acting on vertex labels."""
    sigma = _validate_permutation(sigma)
    tau = _validate_permutation(tau)
    return tuple(sigma[tau[i] - 1] for i in range(4))


@functools.cache
def _coset_rows():
    """The left cosets gH of the 29 nontrivial subgroups H of S4, the closures of every
    pair under ``compose`` (as sets, also the right cosets Hg = g(g^-1 H g)), as index
    rows into ``ALL_PERMUTATIONS``: an array per coset size, largest (S4) first, rows sorted."""
    subgroups = set()
    for pair in itertools.combinations_with_replacement(ALL_PERMUTATIONS, 2):
        group, new = set(), {ALL_PERMUTATIONS[0]}  # from the identity
        while new:
            group |= new
            new = {compose(s, g) for s in new for g in pair} - group
        subgroups.add(frozenset(group))
    cosets = {tuple(sorted(ALL_PERMUTATIONS.index(compose(g, h)) for h in group))
              for group in subgroups if len(group) > 1 for g in ALL_PERMUTATIONS}
    sizes = sorted({len(c) for c in cosets}, reverse=True)
    return tuple(np.array(sorted(c for c in cosets if len(c) == size)) for size in sizes)


#: for each edge position {i, j}, the permutation (i, j, rest...), as the
#: images of (1, 2, 3, 4), that sends it to position 0
_TO_FRONT = {pos: (i, j, *[v for v in (1, 2, 3, 4) if v not in (i, j)])
             for pos, (i, j) in enumerate(EDGE_PAIRS)}


def permutation_moving_edge_to_front(pos):
    """A vertex permutation sending edge position ``pos``, an integer 0-5, to position 0."""
    try:
        return _TO_FRONT[operator.index(pos)]
    except (TypeError, KeyError):
        raise InvalidArgumentError(f"edge position must be an integer 0-5, got {pos!r}") from None


# --- vectorized helpers for the samplers -------------------------------
# Their sums may overflow on huge finite rows, or be NaN (inf - inf): both fail.

def in_O_mask(batch, strict=True, tol=0.0):
    """Polytope membership, as ``in_O``, for (m, 6) rows validated by ``as_rows``."""
    tol = as_finite(tol, "tol")
    A = as_rows(batch, "angles")
    ok = np.zeros(len(A), dtype=bool)
    ok[_in_O_index(A, strict, tol)] = True
    return ok


@np.errstate(over="ignore", invalid="ignore")
def _in_O_index(A, strict=True, tol=0.0):
    # in_O_mask's row indices of unvalidated float rows; those passing the first
    # vertex sum (~1/6 of proposals) are gathered once, by np.take (3x A[idx])
    below = np.less if strict else np.less_equal
    (p, q, r), *rest = VERTEX_EDGES
    idx = np.flatnonzero(below(A[:, p] + A[:, q] + A[:, r], math.pi + tol))
    cols = np.take(A, idx, axis=0).T.copy()
    return idx[_in_polytope(cols, [cols[p] + cols[q] + cols[r] for p, q, r in rest], strict, tol)]


@np.errstate(over="ignore", invalid="ignore")
def acute_mask(batch):
    """Acute-region membership for (m, 6) angle rows validated by ``as_rows``."""
    A = as_rows(batch, "angles")
    ok = A.sum(axis=1) <= math.pi
    ok &= np.all(A < math.pi / 2, axis=1)
    for edges in VERTEX_EDGES:
        x, y, z = (A[:, p] for p in edges)
        ok &= (x + y < ACUTE_PAIR_BOUND) & (x + z < ACUTE_PAIR_BOUND) & (y + z < ACUTE_PAIR_BOUND)
    return ok
