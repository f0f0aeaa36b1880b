"""Non-negative least squares by the Lawson-Hanson active-set method."""

from __future__ import annotations

import numpy as np

from .errors import NnlsConvergenceError


def nnls(a, b, max_iter: int | None = None):
    """Solve ``argmin_x || a @ x - b ||_2`` subject to ``x >= 0``.

    Parameters
    ----------
    a : array_like, shape (m, n)
        Design matrix.
    b : array_like, shape (m,)
        Right-hand side.
    max_iter : int, optional
        Cap on inner iterations (default ``10 * n``); the active-set
        method terminates finitely, the cap only guards against cycling
        caused by rounding on near-degenerate designs. Hitting it raises
        NnlsConvergenceError.

    Returns
    -------
    x : numpy.ndarray, shape (n,)
        Solution with ``x >= 0`` elementwise; components held at the
        bound are exactly ``0.0``.
    rnorm : float
        Residual norm ``|| a @ x - b ||_2``.

    Notes
    -----
    Deterministic: ties in the dual-variable argmax resolve to the
    lowest column index, so identical inputs give identical results. At
    the solution the KKT conditions hold to within a size-scaled epsilon:
    the gradient is ~0 on free components and <= it on components at zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"a must be 2-D, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"b must have shape ({a.shape[0]},), got {b.shape}")
    m, n = a.shape
    if max_iter is None:
        max_iter = 10 * max(n, 1)

    w = a.T @ b  # gradient at x = 0
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(w).max(initial=0.0)))

    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    iters = 0

    while not free.all() and np.any(w[~free] > tol):
        # free the most violated bound constraint (ties -> lowest index)
        free[int(np.argmax(np.where(free, -np.inf, w)))] = True

        while True:
            z = np.zeros(n)
            z[free], *_ = np.linalg.lstsq(a[:, free], b, rcond=None)
            if np.all(z[free] > 0.0):
                x = z
                break
            iters += 1
            if iters > max_iter:
                raise NnlsConvergenceError(f"nnls failed to converge in {max_iter} iterations")
            # step from x toward z, stopping where the first free
            # component reaches the bound; that component leaves the
            # free set with an exact zero
            q = np.flatnonzero(free & (z <= 0.0))
            den = x[q] - z[q]
            ratios = np.where(den > 0.0, x[q] / np.where(den > 0.0, den, 1.0), 0.0)
            hit = int(np.argmin(ratios))
            alpha = float(ratios[hit])
            x = x + alpha * (z - x)
            x[q[hit]] = 0.0
            free[q[hit]] = False
            drop = free & (x <= 0.0)
            x[drop] = 0.0
            free[drop] = False

        w = a.T @ (b - a @ x)

    return x, float(np.linalg.norm(b - a @ x))
