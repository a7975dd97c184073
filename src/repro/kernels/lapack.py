"""The six tile kernels as thin wrappers over LAPACK's tile-QR routines.

The paper calls PLASMA's core-BLAS kernels through MKL; LAPACK 3.4 adopted
the same kernels, and SciPy wraps them:

======== ================================ ==============================
kernel   LAPACK routine                   operands
======== ================================ ==============================
GEQRT    ``dgeqrt``                       one tile
ORMQR    ``dgemqrt``                      reflectors of a GEQRT tile
TSQRT    ``dtpqrt``, ``l = 0``            ``[R; full tile]``
TTQRT    ``dtpqrt``, ``l = m2``           ``[R; upper trapezoid]``
TSMQR    ``dtpmqrt``, ``l = 0``           pair of trailing tiles
TTMQR    ``dtpmqrt``, ``l = m2``          pair of trailing tiles
======== ================================ ==============================

Contracts every wrapper keeps:

* **In place, on C-order tile views.**  Operands are copied into Fortran
  order for LAPACK and the results are copied back into the caller's views.
* **Storage regions.**  Only the region a kernel owns is written back: the
  ``R`` triangle of TSQRT/TTQRT's pivot block (``rtri`` in
  :mod:`repro.analysis.races`) and the upper trapezoid of TTQRT's second
  block (``ttop``).  The strictly-lower bytes (``vlow``) hold reflectors of
  earlier steps and are never written; LAPACK does not read them either
  (``tests/test_kernels.py`` fills them with NaN to prove it).
* **T layout.**  ``T`` comes back as ``(ib, k)``: LAPACK gets
  ``nb = min(ib, k)`` and the rows beyond ``nb`` are zero, so ``T`` has the
  same shape for every tile of a factorization.  Each ``nb``-column block
  holds its upper-triangular compact-WY factor.
* ``trans=True`` applies ``Q^T`` (the factorization update) and
  ``trans=False`` applies ``Q`` (reconstructing ``Q``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack as _lapack

from ..util.errors import ShapeError
from ..util.validation import check_positive_int

__all__ = ["geqrt", "ormqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"]

_dgeqrt = _lapack.dgeqrt
_dgemqrt = _lapack.dgemqrt
_dtpqrt = _lapack.dtpqrt
_dtpmqrt = _lapack.dtpmqrt

# Upper-trapezoid masks for the write-back of R triangles and TT
# reflectors, cached per shape: tile QR repeats the same few shapes.
_TRIU_MASKS: dict[tuple[int, int], np.ndarray] = {}


def _triu_mask(rows: int, cols: int) -> np.ndarray:
    mask = _TRIU_MASKS.get((rows, cols))
    if mask is None:
        mask = ~np.tri(rows, cols, -1, dtype=bool)
        mask.setflags(write=False)
        _TRIU_MASKS[rows, cols] = mask
    return mask


def _fortran(x: np.ndarray) -> np.ndarray:
    return np.array(x, order="F")


def _check_info(info: int, routine: str) -> None:
    if info != 0:  # pragma: no cover - the shape checks run first
        raise ShapeError(f"{routine}: LAPACK argument {-info} is invalid")


def _padded(t: np.ndarray, ib: int) -> np.ndarray:
    """``T`` from LAPACK (``nb`` rows) as an ``(ib, k)`` C-order array."""
    out = np.zeros((ib, t.shape[1]))
    out[: t.shape[0]] = t
    return out


def _nb(t: np.ndarray, k: int) -> int:
    """The ``nb`` a stored ``(ib, k)`` ``T`` was computed with."""
    return min(t.shape[0], k)


def _trans(trans: bool) -> str:
    return "T" if trans else "N"


def geqrt(a: np.ndarray, ib: int) -> np.ndarray:
    """Factor tile ``a`` in place; return the ``(ib, k)`` ``T`` factor.

    Corresponds to the paper's ``dgeqrt(A(i,j))``: ``triu(a)`` becomes ``R``
    and the strict lower trapezoid stores the reflectors ``V`` (implicit
    unit diagonal).  ``k = min(m, n)``.
    """
    check_positive_int(ib, "ib")
    if a.ndim != 2:
        raise ShapeError(f"geqrt expects a 2-D tile, got ndim={a.ndim}")
    nb = min(ib, *a.shape)
    out, t, info = _dgeqrt(nb, _fortran(a), overwrite_a=1)
    _check_info(info, "dgeqrt")
    a[...] = out
    return _padded(t, ib)


def ormqr(v_tile: np.ndarray, t: np.ndarray, c: np.ndarray, trans: bool = True) -> None:
    """Apply a :func:`geqrt` transformation to tile ``c`` in place.

    Corresponds to the paper's ``dormqr(A(i,j), A(i,l))``.  ``v_tile`` is
    the factored tile (only its strictly-lower reflectors are read), ``t``
    its ``T`` factor, and ``c`` an ``(m, q)`` tile with ``m`` rows like
    ``v_tile``.
    """
    m, n = v_tile.shape
    k = min(m, n)
    if c.shape[0] != m:
        raise ShapeError(f"ormqr: c has {c.shape[0]} rows, expected {m}")
    if t.shape[1] != k:
        raise ShapeError(f"ormqr: t has {t.shape[1]} columns, expected {k}")
    out, info = _dgemqrt(v_tile[:, :k], t[: _nb(t, k)], _fortran(c),
                         trans=_trans(trans), overwrite_c=1)
    _check_info(info, "dgemqrt")
    c[...] = out


def tsqrt(r: np.ndarray, a2: np.ndarray, ib: int) -> np.ndarray:
    """Factor ``[r; a2]`` in place; return the ``(ib, k)`` ``T`` factor.

    The paper's ``dtsqrt(A(i,j), A(k,j))``.  ``r`` is the ``(k, k)`` pivot
    block: its upper triangle becomes the new ``R`` and its strictly-lower
    storage (reflectors of the pivot's own GEQRT) is neither read nor
    written.  ``a2`` is an ``(m2, k)`` tile, overwritten with the bottom
    parts ``V2`` of the reflectors (the top parts are unit vectors).
    """
    check_positive_int(ib, "ib")
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ShapeError(f"tsqrt: r must be square, got {r.shape}")
    k = r.shape[1]
    if a2.ndim != 2 or a2.shape[1] != k:
        raise ShapeError(f"tsqrt: a2 must have {k} columns, got {a2.shape}")
    r_out, v2, t, info = _dtpqrt(0, min(ib, k), _fortran(r), _fortran(a2),
                                 overwrite_a=1, overwrite_b=1)
    _check_info(info, "dtpqrt")
    np.copyto(r, r_out, where=_triu_mask(k, k))
    a2[...] = v2
    return _padded(t, ib)


def ttqrt(r1: np.ndarray, r2: np.ndarray, ib: int) -> np.ndarray:
    """Triangle-on-triangle factorization ``[r1; r2]`` (paper ``dttqrt``).

    ``r1`` is ``(k, k)`` upper triangular and ``r2`` is ``(m2, k)`` upper
    trapezoidal (``m2 <= k``; smaller only for a ragged last tile row).
    ``r1``'s triangle receives the combined ``R`` and ``r2``'s upper
    trapezoid the reflector parts ``V2``.  In tile QR the strictly-lower
    storage of both blocks holds reflectors of earlier GEQRT/TS steps, so
    only the upper parts are read and written (``dtpqrt`` with ``l = m2``).
    """
    check_positive_int(ib, "ib")
    if r1.ndim != 2 or r1.shape[0] != r1.shape[1]:
        raise ShapeError(f"ttqrt: r1 must be square, got {r1.shape}")
    k = r1.shape[1]
    if r2.ndim != 2 or r2.shape[1] != k or r2.shape[0] > k:
        raise ShapeError(f"ttqrt: incompatible shapes, {r1.shape} vs {r2.shape}")
    m2 = r2.shape[0]
    r_out, v2, t, info = _dtpqrt(m2, min(ib, k), _fortran(r1), _fortran(r2),
                                 overwrite_a=1, overwrite_b=1)
    _check_info(info, "dtpqrt")
    np.copyto(r1, r_out, where=_triu_mask(k, k))
    np.copyto(r2, v2, where=_triu_mask(m2, k))
    return _padded(t, ib)


def _pair_update(name: str, l: int, v2, t, c1, c2, trans: bool) -> None:
    """``[c1[:k]; c2] := Q^T [c1[:k]; c2]`` (or ``Q``) via ``dtpmqrt``."""
    m2, k = v2.shape
    if c1.shape[0] < k:
        raise ShapeError(f"{name}: c1 needs >= {k} rows, got {c1.shape[0]}")
    if c2.shape[0] != m2 or c1.shape[1] != c2.shape[1]:
        raise ShapeError(
            f"{name}: c2 shape {c2.shape} incompatible with v2 {v2.shape} / c1 {c1.shape}"
        )
    top, bottom, info = _dtpmqrt(l, v2, t[: _nb(t, k)], _fortran(c1[:k]), _fortran(c2),
                                 trans=_trans(trans), overwrite_a=1, overwrite_b=1)
    _check_info(info, "dtpmqrt")
    c1[:k] = top
    c2[...] = bottom


def tsmqr(v2: np.ndarray, t: np.ndarray, c1: np.ndarray, c2: np.ndarray,
          trans: bool = True) -> None:
    """Apply a :func:`tsqrt` transformation to the stacked tiles ``[c1; c2]``.

    The paper's ``dtsmqr(A(i,j), A(k,j), A(i,l), A(k,l))``.  ``v2`` is the
    ``(m2, k)`` reflector block from :func:`tsqrt` and ``t`` its factor;
    the first ``k`` rows of ``c1`` and all of ``c2`` (``m2`` rows) are
    updated in place.
    """
    _pair_update("tsmqr", 0, v2, t, c1, c2, trans)


def ttmqr(v2: np.ndarray, t: np.ndarray, c1: np.ndarray, c2: np.ndarray,
          trans: bool = True) -> None:
    """Apply a :func:`ttqrt` transformation (paper ``dttmqr``).

    ``v2`` is the ``(m2, k)`` block whose upper trapezoid holds the TT
    reflectors; its strictly-lower storage belongs to other reflectors and
    is not read.  ``c1`` (pivot row tile, ``>= k`` rows) and ``c2`` (``m2``
    rows) are updated in place.
    """
    if v2.shape[0] > v2.shape[1]:
        raise ShapeError(f"ttmqr: v2 must have m2 <= k, got {v2.shape}")
    _pair_update("ttmqr", v2.shape[0], v2, t, c1, c2, trans)
