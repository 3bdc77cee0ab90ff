"""High-precision references for the benchmark's output checks.

Everything here is written against mpmath at 30 digits and shares no code
with the trunctet package, so a defect in the timed code cannot hide itself
by also corrupting its reference.
"""

import mpmath
from mpmath import mp, mpf

DPS = 30

#: edge order of the six-vectors: {1,2}, {1,3}, {1,4}, {3,4}, {2,4}, {2,3}
EDGES = ((1, 2), (1, 3), (1, 4), (3, 4), (2, 4), (2, 3))


def _mp(x):
    return x if isinstance(x, mpf) else mpf(float(x))


def volume(angles):
    """Ushijima's dilogarithm volume from the six dihedral angles, as an
    mpf; the dilogarithm is mpmath's principal-branch ``polylog(2, .)``."""
    with mp.workdps(DPS):
        t12, t13, t14, t34, t24, t23 = (_mp(x) for x in angles)
        a, b, c, d, e, f = (mpmath.expj(t) for t in (t12, t13, t14, t34, t24, t23))
        cos = mpmath.cos
        gram = mpmath.matrix([
            [1, -cos(t12), -cos(t13), -cos(t23)],
            [-cos(t12), 1, -cos(t14), -cos(t24)],
            [-cos(t13), -cos(t14), 1, -cos(t34)],
            [-cos(t23), -cos(t24), -cos(t34), 1],
        ])
        sqrt_det = mpmath.sqrt(mpmath.mpc(mpmath.det(gram)))
        sin = mpmath.sin
        sin_sum = sin(t12) * sin(t34) + sin(t13) * sin(t24) + sin(t14) * sin(t23)
        denom = (a * d + b * e + c * f + a * b * f + a * c * e + b * c * d
                 + d * e * f + a * b * c * d * e * f)
        z1 = -2 * (sin_sum - sqrt_det) / denom
        z2 = -2 * (sin_sum + sqrt_det) / denom

        def li2(z):
            return mpmath.polylog(2, z)

        def u(z):
            return (li2(z) + li2(a * b * d * e * z) + li2(a * c * d * f * z)
                    + li2(b * c * e * f * z) - li2(-a * b * c * z)
                    - li2(-a * e * f * z) - li2(-b * d * f * z)
                    - li2(-c * d * e * z)) / 2

        return ((u(z1) - u(z2)) / 2).imag


def lengths_to_angles(lengths):
    """Dihedral angles from edge lengths through the cofactors of the
    vertex Gram matrix (unit diagonal, entry ij = -cosh l_ij):
    cos theta_ij = C_kl / sqrt(C_kk C_ll) with {k, l} the opposite edge."""
    with mp.workdps(DPS):
        gram = mpmath.eye(4)
        for (i, j), length in zip(EDGES, lengths):
            gram[i - 1, j - 1] = gram[j - 1, i - 1] = -mpmath.cosh(_mp(length))

        def cofactor(r, c):
            minor = mpmath.matrix(
                [[gram[x, y] for y in range(4) if y != c] for x in range(4) if x != r]
            )
            return (-1) ** (r + c) * mpmath.det(minor)

        out = []
        for i, j in EDGES:
            k, l = (v - 1 for v in (1, 2, 3, 4) if v not in (i, j))
            out.append(mpmath.acos(cofactor(k, l) / mpmath.sqrt(cofactor(k, k) * cofactor(l, l))))
        return out


def volume_of_lengths(lengths):
    with mp.workdps(DPS):
        return volume(lengths_to_angles(lengths))


def regular_angle(ell):
    """Dihedral angle of the regular tetrahedron of edge length ell, from
    the closed form cos theta = cosh ell / (2 cosh ell - 1)."""
    with mp.workdps(DPS):
        ch = mpmath.cosh(_mp(ell))
        return mpmath.acos(ch / (2 * ch - 1))


def regular_volume(ell):
    with mp.workdps(DPS):
        return volume([regular_angle(ell)] * 6)


def directional_derivative(lengths, direction, h=1e-6):
    """Central difference of the volume along ``direction`` in the length
    chart; at 30 digits the O(h^2) truncation error is the only one left."""
    with mp.workdps(DPS):
        l = [_mp(x) for x in lengths]
        v = [_mp(x) for x in direction]
        step = mpf(h)
        plus = volume_of_lengths([a + step * b for a, b in zip(l, v)])
        minus = volume_of_lengths([a - step * b for a, b in zip(l, v)])
        return (plus - minus) / (2 * step)
