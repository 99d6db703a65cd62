"""Floating-point reference for the exact geodesic certificates.

A fixed-step RK4 integration of x' = -nabla_x x and a least-squares
polynomial fit of each trajectory.  The exact certificates in
`cpslie.connection` prove the degree of the geodesics in integers; tests
cross-check them against this numeric view, as `tests/test_layouts.py`
keeps per-index references for the batched products.
"""

import random
from fractions import Fraction
from math import isfinite

import numpy as np

from cpslie.connection import CompletenessReport, Connection
from cpslie.linalg import basis_vec

GEODESIC_STEP = 1e-3
GEODESIC_T_MAX = 10.0
GEODESIC_REL_TOL = 1e-6


def initial_conditions(n: int, seed: int) -> list:
    """Signed coordinate vectors plus 10 seeded rational points in [-2, 2]."""
    out = [basis_vec(n, i, s) for i in range(n) for s in (1, -1)]
    rng = random.Random(seed)
    for _ in range(10):
        out.append(tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n)))
    return out


def integrate_geodesics(conn: Connection, initial: list, t_max=GEODESIC_T_MAX, step=GEODESIC_STEP):
    """RK4 trajectories of x' = -nabla_x x from each initial condition.

    Returns (times, values) with values of shape (steps+1, len(initial), dim).
    """
    n = conn.algebra.dim
    # row i*n + j holds -nabla_{e_i} e_j, so each stage's -nabla_y y is one
    # product of the (b, n*n) outer products y_i y_j with this matrix.  The
    # doubled copy gives stages 2 and 3 as 2k exactly, so their stage inputs
    # scale by h/4 and h/2 and the weighted sum is three adds, bit for bit
    # the classical k1 + 2 k2 + 2 k3 + k4.  The int quotient num / den is
    # correctly rounded, so each entry has the bits of -float(Fraction)
    side = conn.tensor.side
    neg_gam = np.array([[-(x / side.den) for x in col] for col in zip(*side.num)])
    neg_gam2 = 2.0 * neg_gam
    x = np.array([[float(c) for c in v] for v in initial])
    steps = int(round(t_max / step))
    times = np.linspace(0.0, steps * step, steps + 1)
    values = np.empty((steps + 1, *x.shape))
    values[0] = x
    y, k1, k2, k3, k4 = (np.empty_like(x) for _ in range(5))
    outer = np.empty((len(initial), n, n))
    outer_rows = outer.reshape(len(initial), n * n)
    x_i, x_j, y_i, y_j = x[:, :, None], x[:, None, :], y[:, :, None], y[:, None, :]

    def stage(k, scale, gam, out):
        np.multiply(k, scale, out=y)
        np.add(x, y, out=y)
        np.multiply(y_i, y_j, out=outer)
        np.matmul(outer_rows, gam, out=out)

    half, quarter, sixth = 0.5 * step, 0.25 * step, step / 6.0
    for s in range(steps):
        np.multiply(x_i, x_j, out=outer)
        np.matmul(outer_rows, neg_gam, out=k1)
        stage(k1, half, neg_gam2, k2)
        stage(k2, quarter, neg_gam2, k3)
        stage(k3, half, neg_gam, k4)
        np.add(k1, k2, out=k1)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(k1, sixth, out=k1)
        np.add(x, k1, out=x)
        values[s + 1] = x
    return times, values


def fit_residual(times, values, degree: int) -> float:
    """Worst relative residual of a degree-`degree` least-squares fit of each coordinate series.

    With Q an orthonormal basis of the polynomials of that degree sampled
    at the times, the residual of a series y is y - Q Q^T y.  Returns inf
    when a trajectory blew up.
    """
    basis = np.linalg.qr(np.polynomial.polynomial.polyvander(times, degree))[0]
    rel = []
    with np.errstate(all="ignore"):
        # one (steps+1, n) block per initial condition keeps the scratch arrays small
        for b in range(values.shape[1]):
            block = values[:, b, :]
            # constants lie in the span, so fitting block - block[0] leaves the
            # residual unchanged and fits a constant coordinate without rounding
            shifted = block - block[0]
            resid = np.abs(shifted - basis @ (basis.T @ shifted)).max(axis=0)
            rel.append(resid / np.maximum(1.0, np.abs(block).max(axis=0)))
    worst = float(np.max(rel))
    return worst if isfinite(worst) else float("inf")


def polynomial_fit_certificate(conn: Connection, seed: int = 0, degree: int = 2) -> CompletenessReport:
    """Numeric check that every geodesic is a polynomial of degree <= `degree`.

    Integrates over t in [0, t_max] and passes when the fit's relative
    residual stays within tolerance.  Fails closed: a trajectory that blew
    up or a coefficient beyond the float range makes the verdict false and
    `max_relative_residual` null.
    """
    initial = initial_conditions(conn.algebra.dim, seed)
    try:
        # a trajectory that blows up becomes inf/nan and fails below, without warnings
        with np.errstate(all="ignore"):
            times, values = integrate_geodesics(conn, initial)
    except OverflowError:
        # a coefficient beyond the float range leaves no trajectory to fit
        worst = float("inf")
    else:
        worst = fit_residual(times, values, degree)
    finite = isfinite(worst)
    return CompletenessReport(
        method="polynomial-fit",
        verdict=finite and worst <= GEODESIC_REL_TOL,
        details={
            "degree": degree,
            "max_relative_residual": worst if finite else None,
            "tolerance": GEODESIC_REL_TOL,
            "step": GEODESIC_STEP,
            "t_max": GEODESIC_T_MAX,
            "seed": seed,
            "initial_conditions": len(initial),
        },
    )
