"""LAPACK-style *block* QR — the algorithmic baseline (paper Section V-A).

The block algorithm splits the matrix into block *columns* (not tiles):
each panel is factored column-by-column across its full height, then the
accumulated transformation hits the whole trailing submatrix at once.  This
is what LAPACK ``dgeqrf`` / ScaLAPACK ``pdgeqrf`` implement, and its
panel's long, latency-bound critical path is exactly why the paper's
tree-based algorithms win on tall-and-skinny matrices.

This is a real, runnable implementation (used in accuracy cross-checks);
the *performance* of its distributed incarnation is modelled separately in
:mod:`repro.baselines.scalapack`.
"""

from __future__ import annotations

import numpy as np

from ..kernels.lapack import geqrt, ormqr
from ..util.validation import as_f64_matrix, check_positive_int, require

__all__ = ["block_qr", "block_qr_r"]


def block_qr(a: np.ndarray, nb: int = 64, ib: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Blocked Householder QR: returns the thin ``(Q, R)`` pair.

    Parameters
    ----------
    a:
        ``(m, n)`` with ``m >= n``.
    nb:
        Panel (block column) width.
    ib:
        Inner blocking of the panel factorization (defaults to ``nb``).
    """
    a = as_f64_matrix(a).copy()
    m, n = a.shape
    require(m >= n, f"block_qr requires m >= n, got {m} x {n}")
    check_positive_int(nb, "nb")
    if ib is None:
        ib = nb
    panels: list[tuple[int, np.ndarray, np.ndarray]] = []
    for k0 in range(0, n, nb):
        kb = min(nb, n - k0)
        panel = a[k0:m, k0 : k0 + kb]
        t = geqrt(panel, min(ib, kb))
        if k0 + kb < n:
            ormqr(panel, t, a[k0:m, k0 + kb : n], trans=True)
        panels.append((k0, panel, t))
    r = np.triu(a[:n, :])
    q = np.zeros((m, n))
    q[:n, :n] = np.eye(n)
    for k0, panel, t in reversed(panels):
        ormqr(panel, t, q[k0:m, :], trans=False)
    return q, r


def block_qr_r(a: np.ndarray, nb: int = 64, ib: int | None = None) -> np.ndarray:
    """R factor only (no Q assembly) — the cheaper call sites need."""
    a = as_f64_matrix(a).copy()
    m, n = a.shape
    require(m >= n, f"block_qr_r requires m >= n, got {m} x {n}")
    if ib is None:
        ib = nb
    for k0 in range(0, n, nb):
        kb = min(nb, n - k0)
        panel = a[k0:m, k0 : k0 + kb]
        t = geqrt(panel, min(ib, kb))
        if k0 + kb < n:
            ormqr(panel, t, a[k0:m, k0 + kb : n], trans=True)
    return np.triu(a[:n, :])
