"""Output checks of the benchmark, run outside every timed window.

A factorization passes when its ``R`` matches LAPACK's ``R`` of the same
matrix up to row signs; a solve passes when ``x`` matches
``scipy.linalg.lstsq``.  Both tolerances have the form ``c * eps * n``.
Every comparison is ``err <= tol``, which is false for NaN, so a NaN
anywhere fails the check instead of slipping past it (a test written
``err > tol`` would pass it).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

EPS = float(np.finfo(np.float64).eps)
#: The ``c`` of the ``c * eps * n`` tolerances.  The inputs keep their
#: condition number below 5 (see ``Workload.inputs``); measured errors sit
#: two to three orders of magnitude below these bounds.
C_R = 10.0
C_X = 10.0


class Reference:
    """LAPACK results for one input pair, computed once per round."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        n = a.shape[1]
        self.n = n
        self.r = scipy.linalg.qr(a, mode="r")[0][:n]
        self.x = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]

    def r_error(self, r: np.ndarray) -> float:
        """Relative Frobenius distance of ``r`` to LAPACK's R, up to row signs."""
        r = np.asarray(r, dtype=np.float64)
        if r.shape != self.r.shape:
            return float("inf")
        flip = np.where(np.diag(r) * np.diag(self.r) < 0.0, -1.0, 1.0)
        return float(np.linalg.norm(flip[:, None] * r - self.r)
                     / np.linalg.norm(self.r))

    def x_error(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.x.shape:
            return float("inf")
        return float(np.linalg.norm(x - self.x) / np.linalg.norm(self.x))

    def r_ok(self, r: np.ndarray) -> bool:
        return self.r_error(r) <= C_R * EPS * self.n

    def x_ok(self, x: np.ndarray) -> bool:
        return self.x_error(x) <= C_X * EPS * self.n


def checker_self_test(seed: int = 0) -> list[str]:
    """Show the checker fails corrupted results; return what it missed.

    A correct factor must pass; R scaled by ``1 + 1e-6``, R with one NaN,
    and a solution with one NaN must each fail.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((96, 24)) / np.sqrt(96) + 3.0 * np.eye(96, 24)
    b = rng.standard_normal(96)
    ref = Reference(a, b)
    q, r = np.linalg.qr(a)
    x = scipy.linalg.solve_triangular(r, q.T @ b)
    missed = []
    if not ref.r_ok(-r):
        missed.append("correct R (row signs flipped) rejected")
    if not ref.x_ok(x):
        missed.append("correct x rejected")
    if ref.r_ok(r * (1.0 + 1e-6)):
        missed.append("scaled R accepted")
    nan_r = r.copy()
    nan_r[3, 5] = np.nan
    if ref.r_ok(nan_r):
        missed.append("NaN R accepted")
    nan_x = x.copy()
    nan_x[0] = np.nan
    if ref.x_ok(nan_x):
        missed.append("NaN x accepted")
    return missed
