"""Exact reference for the geodesic certificates, independent of their integer grid.

The certificate in `cpslie.connection` proves the least degree of the
geodesics on a simplex grid, in integers scaled by den.  This reference
reads the same degree off the Fraction Taylor coefficients at a few
seeded rational starts, through the contraction `conn.tensor.contract` only.
"""

import random
from fractions import Fraction

from cpslie.connection import GEODESIC_MAX_DEGREE, Connection

TOP = 2 * GEODESIC_MAX_DEGREE + 1


def taylor_vanishing(conn: Connection, seed: int = 0, starts: int = 3) -> list[bool]:
    """Whether v_k is zero at every one of `starts` seeded rational x(0), for k = 0, ..., TOP.

    The body velocity x(t) = sum_k v_k t^k solves x' = -nabla_x x, so
    v_0 = x(0) and v_(k+1) = -(1/(k+1)) sum_i nabla_(v_i) v_(k-i).
    """
    n, rng = conn.algebra.dim, random.Random(seed)
    vanishes = [True] * (TOP + 1)
    for _ in range(starts):
        v = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))]
        for k in range(TOP):
            terms = [conn.tensor.contract(v[i], v[k - i]) for i in range(k + 1)]
            v.append(tuple(-sum(c) / (k + 1) for c in zip(*terms)))
        vanishes = [z and not any(vk) for z, vk in zip(vanishes, v)]
    return vanishes


def taylor_least_degree(conn: Connection, seed: int = 0, starts: int = 3) -> int | None:
    """The least degree d <= GEODESIC_MAX_DEGREE of the geodesics from `starts` seeded rational x(0).

    A geodesic has degree <= d exactly when v_(d+1), ..., v_(2d+1) vanish.
    None when no d up to the cap passes at every start.
    """
    vanishes = taylor_vanishing(conn, seed, starts)
    return next((d for d in range(GEODESIC_MAX_DEGREE + 1) if all(vanishes[d + 1 : 2 * d + 2])), None)
