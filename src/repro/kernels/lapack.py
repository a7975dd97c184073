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

* **In place, on Fortran-order tiles.**  Tiles are stored column-major
  (:mod:`repro.tiles.matrix`), so an F-contiguous operand goes to LAPACK
  as is, with ``overwrite_*=1``, and comes back mutated in place: no copy
  in, no copy out.  Views that are not F-contiguous (the ``[:k, :k]`` pivot
  of a ragged tile, a TT ``[:m2, :k]`` block, C-order caller arrays) are
  copied into Fortran order and only their owned region is written back.
* **Storage regions.**  A kernel writes only the region it owns: the ``R``
  triangle of TSQRT/TTQRT's pivot block (``rtri`` in
  :mod:`repro.analysis.races`) and the upper trapezoid of TTQRT's second
  block (``ttop``).  The strictly-lower bytes (``vlow``) hold reflectors of
  earlier steps; LAPACK neither reads nor writes them, and the copy
  fallback masks them out of its write-back (``tests/test_kernels.py``
  fills them with NaN on both paths to prove it).
* **T layout.**  ``T`` comes back as ``(ib, k)``: LAPACK gets
  ``nb = min(ib, k)``.  When ``nb == ib`` LAPACK's own Fortran-order ``T``
  is returned; only for ``k < ib`` are the rows beyond ``nb`` zero-padded,
  so ``T`` has the same shape for every tile of a factorization.  Each
  ``nb``-column block holds its upper-triangular compact-WY factor.
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

# Upper-trapezoid masks for the copy fallback's write-back of R triangles
# and TT reflectors, cached per shape: tile QR repeats the same few shapes.
_TRIU_MASKS: dict[tuple[int, int], np.ndarray] = {}


def _triu_mask(rows: int, cols: int) -> np.ndarray:
    mask = _TRIU_MASKS.get((rows, cols))
    if mask is None:
        mask = ~np.tri(rows, cols, -1, dtype=bool)
        mask.setflags(write=False)
        _TRIU_MASKS[rows, cols] = mask
    return mask


def _inout(x: np.ndarray) -> np.ndarray:
    """``x`` itself when LAPACK can overwrite it in place, else a Fortran copy."""
    return x if x.flags.f_contiguous else np.array(x, order="F")


def _write_back(dst: np.ndarray, out: np.ndarray, where=True) -> None:
    """Store a fallback result into ``dst``'s owned region (no-op in place)."""
    if out is not dst:
        np.copyto(dst, out, where=where)


def _check_info(info: int, routine: str) -> None:
    if info != 0:  # pragma: no cover - the shape checks run first
        raise ShapeError(f"{routine}: LAPACK argument {-info} is invalid")


def _padded(t: np.ndarray, ib: int) -> np.ndarray:
    """``T`` from LAPACK (``nb`` rows) as an ``(ib, k)`` array."""
    if t.shape[0] == ib:
        return t
    out = np.zeros((ib, t.shape[1]), order="F")
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
    out, t, info = _dgeqrt(nb, _inout(a), overwrite_a=1)
    _check_info(info, "dgeqrt")
    _write_back(a, out)
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
    out, info = _dgemqrt(v_tile[:, :k], t[: _nb(t, k)], _inout(c),
                         trans=_trans(trans), overwrite_c=1)
    _check_info(info, "dgemqrt")
    _write_back(c, out)


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
    r_out, v2, t, info = _dtpqrt(0, min(ib, k), _inout(r), _inout(a2),
                                 overwrite_a=1, overwrite_b=1)
    _check_info(info, "dtpqrt")
    _write_back(r, r_out, _triu_mask(k, k))
    _write_back(a2, v2)
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
    r_out, v2, t, info = _dtpqrt(m2, min(ib, k), _inout(r1), _inout(r2),
                                 overwrite_a=1, overwrite_b=1)
    _check_info(info, "dtpqrt")
    _write_back(r1, r_out, _triu_mask(k, k))
    _write_back(r2, v2, _triu_mask(m2, k))
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
    c1_top = c1[:k]
    top, bottom, info = _dtpmqrt(l, v2, t[: _nb(t, k)], _inout(c1_top), _inout(c2),
                                 trans=_trans(trans), overwrite_a=1, overwrite_b=1)
    _check_info(info, "dtpmqrt")
    _write_back(c1_top, top)
    _write_back(c2, bottom)


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
