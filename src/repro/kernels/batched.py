"""Stacked forms of the six tile kernels: the scalar wrapper mapped over a batch.

Each ``*_batched`` function takes ``(B, ...)`` stacks and calls the
matching :mod:`repro.kernels.lapack` wrapper on every slice, so slice ``b``
of the outputs equals the scalar kernel on slice ``b`` bit for bit.  No
executor calls them: every backend runs the scalar wrappers op by op.  They
remain as a stable entry point for code that times stacked kernel calls.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import ShapeError
from . import lapack

__all__ = [
    "geqrt_batched",
    "ormqr_batched",
    "tsqrt_batched",
    "tsmqr_batched",
    "ttqrt_batched",
    "ttmqr_batched",
]


def _check_stacks(func: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if arr.ndim != 3:
            raise ShapeError(f"{func}: operands must be (B, m, n) stacks, got {arr.shape}")


def geqrt_batched(a: np.ndarray, ib: int) -> np.ndarray:
    """Factor a ``(B, m, n)`` stack of tiles in place; return ``(B, ib, k)`` T."""
    _check_stacks("geqrt_batched", a)
    return np.stack([lapack.geqrt(tile, ib) for tile in a])


def ormqr_batched(v_tile: np.ndarray, t: np.ndarray, c: np.ndarray,
                  trans: bool = True) -> None:
    """Apply ``B`` GEQRT transformations to a ``(B, m, q)`` stack in place."""
    _check_stacks("ormqr_batched", v_tile, t, c)
    for b in range(len(c)):
        lapack.ormqr(v_tile[b], t[b], c[b], trans=trans)


def tsqrt_batched(r: np.ndarray, a2: np.ndarray, ib: int) -> np.ndarray:
    """Factor ``B`` stacked ``[r; a2]`` pairs in place; return ``(B, ib, k)`` T."""
    _check_stacks("tsqrt_batched", r, a2)
    return np.stack([lapack.tsqrt(r[b], a2[b], ib) for b in range(len(r))])


def ttqrt_batched(r1: np.ndarray, r2: np.ndarray, ib: int) -> np.ndarray:
    """Triangle-on-triangle factorization of ``B`` stacked pairs in place."""
    _check_stacks("ttqrt_batched", r1, r2)
    return np.stack([lapack.ttqrt(r1[b], r2[b], ib) for b in range(len(r1))])


def tsmqr_batched(v2: np.ndarray, t: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                  trans: bool = True) -> None:
    """Apply ``B`` TSQRT transformations to stacked ``[c1; c2]`` in place."""
    _check_stacks("tsmqr_batched", v2, t, c1, c2)
    for b in range(len(v2)):
        lapack.tsmqr(v2[b], t[b], c1[b], c2[b], trans=trans)


def ttmqr_batched(v2: np.ndarray, t: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                  trans: bool = True) -> None:
    """Apply ``B`` TTQRT transformations to stacked ``[c1; c2]`` in place."""
    _check_stacks("ttmqr_batched", v2, t, c1, c2)
    for b in range(len(v2)):
        lapack.ttmqr(v2[b], t[b], c1[b], c2[b], trans=trans)
