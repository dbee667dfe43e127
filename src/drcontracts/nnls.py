"""Non-negative least squares by the Lawson-Hanson active-set method.

An exhaustive search over passive sets would need no iteration cap, but it
costs up to 2**n solves: on loads whose days drop about half their end uses
it made ``estimate`` 10% slower at 6 end uses and 22 times slower at 12.
``tests/oracles.py`` keeps that search as the referee this loop must match
bit for bit.
"""

from __future__ import annotations

import numpy as np

GRADIENT_TOLERANCE = 1e-10


def gradient_tolerance(a: np.ndarray, b: np.ndarray) -> float:
    """The largest gradient entry read as rounding noise: it scales with the problem.

    On exact fits at large loads the gradient at the optimum is rounding
    noise of order m * max|a| * max|b| times the machine epsilon.
    """
    scale = a.shape[0] * np.abs(a).max(initial=0.0) * np.abs(b).max(initial=0.0)
    return GRADIENT_TOLERANCE * max(1.0, float(scale))


def _solve_passive(a: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Unconstrained least squares restricted to the passive columns."""
    cols = a[:, passive]
    gram = cols.T @ cols
    rhs = cols.T @ b
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(cols, b, rcond=None)[0]


def nnls(a, b) -> tuple[np.ndarray, float]:
    """Minimize ``||a @ x - b||`` subject to ``x >= 0``.

    Parameters
    ----------
    a : (m, n) array_like
        Design matrix.
    b : (m,) array_like
        Target vector.

    Returns
    -------
    x : (n,) ndarray
        The non-negative solution.
    rnorm : float
        Residual norm ``||a @ x - b||``.

    Notes
    -----
    Deterministic: the entering variable is the one with the largest
    gradient ``a.T @ (b - a @ x)`` above ``gradient_tolerance(a, b)``, lowest index
    on ties, so repeated runs produce identical output.  The loop stops after
    ``max(3 * n, 30)`` entries.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise ValueError("a must be a 2-d matrix")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"b must have shape ({m},), got {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("a and b must be finite")

    at = a.T
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = at @ (b - a @ x)
    tol = gradient_tolerance(a, b)

    for _ in range(max(3 * n, 30)):
        j, top = -1, tol
        for i, (wi, held) in enumerate(zip(w.tolist(), passive.tolist())):
            if wi > top and not held:
                j, top = i, wi
        if j < 0:
            break
        passive[j] = True
        while True:
            z = _solve_passive(a, b, passive)
            s = np.zeros(n)
            s[passive] = z
            if (z > 0.0).all():
                x = s
                break
            # Step toward s until the first passive variable hits zero.
            blocking = passive & (s <= 0.0)
            denom = x[blocking] - s[blocking]
            ratios = np.divide(
                x[blocking],
                denom,
                out=np.zeros_like(denom),
                where=denom > 0.0,
            )
            step = float(ratios.min())
            x = x + step * (s - x)
            drop = passive & (x <= GRADIENT_TOLERANCE)
            x[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                break
        w = at @ (b - a @ x)

    residual = b - a @ x
    return x, float(np.linalg.norm(residual))
