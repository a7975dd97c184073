"""Serial reference executor for tile QR — the numerical ground truth.

Executes an operation list (:mod:`repro.qr.ops`) directly on a
:class:`~repro.tiles.TileMatrix`, one kernel at a time, recording the
compact-WY ``T`` factors so the implicit ``Q`` can later be applied.  Every
other backend (the threaded PULSAR runtime, the simulator's functional
checks) is validated against this executor: given the same operation list
they must produce *bit-identical* factors, since the kernels are
deterministic and the sequential order is a legal schedule of the DAG.

Observability comes for free: the kernels imported from
:mod:`repro.kernels` are instrumented shims, so running under an installed
recorder (:mod:`repro.obs`) yields one span per kernel on lane 0 in
schedule order, with exact per-kernel flop counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .. import kernels
from ..obs import record as _obs_record
from ..tiles.matrix import TileMatrix
from ..tiles.shared import t_factor_key
from ..util.errors import ShapeError
from ..util.validation import require
from .checksum import SDCGuard
from .ops import Op, operand_views

__all__ = ["FactorRecord", "TileQRFactors", "execute_ops"]


@dataclass(frozen=True)
class FactorRecord:
    """One stored panel transformation (factor kernel + its ``T``).

    The reflector vectors themselves stay inside the factored tile matrix
    (below-diagonal storage), exactly as in PLASMA; only ``T`` and the shape
    metadata need to be kept on the side.
    """

    kind: str  # GEQRT | TSQRT | TTQRT
    i: int
    k2: int
    j: int
    t: np.ndarray
    m2: int
    k: int


@dataclass
class TileQRFactors:
    """The complete implicit QR factorization of a tile matrix.

    Attributes
    ----------
    a:
        The factored :class:`TileMatrix`: R in/above the diagonal tiles'
        upper triangles, Householder reflectors elsewhere.
    records:
        Panel transformations in application order (``Q^T = product of the
        recorded transforms applied forward``).
    ib:
        Inner block size used throughout.
    """

    a: TileMatrix
    records: list[FactorRecord] = field(default_factory=list)
    ib: int = 48

    @property
    def m(self) -> int:
        return self.a.m

    @property
    def n(self) -> int:
        return self.a.n

    def r_factor(self) -> np.ndarray:
        """The dense ``n x n`` upper-triangular R."""
        return self.a.upper_triangular()

    # -- applying the implicit Q ------------------------------------------

    def apply_qt(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q^T @ c`` for a dense ``(m, q)`` array ``c``."""
        return self._apply(c, trans=True)

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q @ c`` for a dense ``(m, q)`` array ``c``."""
        return self._apply(c, trans=False)

    def q_thin(self) -> np.ndarray:
        """Materialise the thin ``(m, n)`` orthonormal factor ``Q``."""
        c = np.zeros((self.m, self.n))
        c[: self.n, : self.n] = np.eye(self.n)
        return self.apply_q(c)

    def solve_ls(self, b: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min_x ||A x - b||_2``.

        This is the paper's motivating application (Section I): apply
        ``Q^T`` to ``b`` and back-substitute against R.
        """
        b = np.asarray(b, dtype=np.float64)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        if b.shape[0] != self.m:
            raise ShapeError(f"b has {b.shape[0]} rows, expected {self.m}")
        y = self.apply_qt(b)[: self.n, :]
        x = scipy.linalg.solve_triangular(self.r_factor(), y, lower=False)
        return x[:, 0] if squeeze else x

    def _apply(self, c: np.ndarray, trans: bool) -> np.ndarray:
        c = np.array(c, dtype=np.float64, copy=True)
        if c.ndim != 2 or c.shape[0] != self.m:
            raise ShapeError(f"c must be ({self.m}, q), got {c.shape}")
        layout = self.a.layout
        # One Fortran-order block per tile row, copied in and out once, so
        # the apply kernels update the blocks in place like tiles.
        blocks = [np.array(c[layout.row_span(i), :], order="F")
                  for i in range(layout.mt)]
        records = self.records if trans else list(reversed(self.records))
        for rec in records:
            if rec.kind == "GEQRT":
                kernels.ormqr(self.a.tile(rec.i, rec.j), rec.t, blocks[rec.i], trans=trans)
            elif rec.kind == "TSQRT":
                v2 = self.a.tile(rec.k2, rec.j)
                kernels.tsmqr(v2, rec.t, blocks[rec.i], blocks[rec.k2], trans=trans)
            else:  # TTQRT
                v2 = self.a.tile(rec.k2, rec.j)[: rec.m2, : rec.k]
                c2 = blocks[rec.k2][: rec.m2, :]
                kernels.ttmqr(v2, rec.t, blocks[rec.i], c2, trans=trans)
        for i, block in enumerate(blocks):
            c[layout.row_span(i), :] = block
        return c


def _apply_op(a, op, ib, ts):
    """Execute one op's scalar kernel in place; return its ``T`` (or None).

    Factor kernels store their ``T`` into ``ts`` under the op's
    :func:`~repro.tiles.shared.t_factor_key` as a side effect, so update
    kernels of the same panel find it.  Extracted from the serial loop so
    the SDC guard (:mod:`repro.qr.checksum`) can re-invoke a single op for
    recomputation, on a :class:`TileMatrix` or a shared-memory store alike.
    """
    if op.kind == "GEQRT":
        t = kernels.geqrt(a.tile(op.i, op.j), ib)
        ts[("G", op.i, op.j)] = t
        return t
    if op.kind == "ORMQR":
        kernels.ormqr(a.tile(op.i, op.j), ts[("G", op.i, op.j)], a.tile(op.i, op.l))
        return None
    if op.kind == "TSQRT":
        r = a.tile(op.i, op.j)[: op.k, : op.k]
        t = kernels.tsqrt(r, a.tile(op.k2, op.j), ib)
        ts[("E", op.k2, op.j)] = t
        return t
    if op.kind == "TSMQR":
        kernels.tsmqr(
            a.tile(op.k2, op.j),
            ts[("E", op.k2, op.j)],
            a.tile(op.i, op.l),
            a.tile(op.k2, op.l),
        )
        return None
    if op.kind == "TTQRT":
        r1 = a.tile(op.i, op.j)[: op.k, : op.k]
        r2 = a.tile(op.k2, op.j)[: op.m2, : op.k]
        t = kernels.ttqrt(r1, r2, ib)
        ts[("E", op.k2, op.j)] = t
        return t
    if op.kind == "TTMQR":
        v2 = a.tile(op.k2, op.j)[: op.m2, : op.k]
        c2 = a.tile(op.k2, op.l)[: op.m2, :]
        kernels.ttmqr(v2, ts[("E", op.k2, op.j)], a.tile(op.i, op.l), c2)
        return None
    raise ValueError(f"unknown op kind {op.kind!r}")  # pragma: no cover


def execute_ops(
    a: TileMatrix,
    ops: list[Op],
    ib: int,
    *,
    fault_plan=None,
    checkpoint=None,
    skip=None,
    preloaded_ts=None,
) -> TileQRFactors:
    """Run an operation list serially on ``a`` (modified in place).

    Returns the :class:`TileQRFactors` wrapping ``a`` and the recorded
    transformations.  ``ops`` must be in a sequentially valid order, e.g.
    straight from :func:`repro.qr.ops.expand_plans`.

    ``fault_plan`` with ``faulty_sdc`` arms the checksum guard
    (:mod:`repro.qr.checksum`); ``checkpoint`` (a bound
    :class:`~repro.qr.persist.CheckpointStore`) snapshots progress as ops
    complete.  ``skip`` is a set of op indices already executed on ``a``
    (resume path): their tile mutations are trusted, their ``T`` factors
    come from ``preloaded_ts`` (op index -> array), and their records are
    emitted without re-running the kernels.
    """
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    factors = TileQRFactors(a=a, ib=ib)
    ts: dict[tuple[str, int, int], np.ndarray] = {}
    skip = frozenset() if skip is None else frozenset(skip)
    if preloaded_ts:
        for idx in skip:
            if idx in preloaded_ts:
                ts[t_factor_key(ops[idx])] = preloaded_ts[idx]
    # Observability (only when a recorder is installed): tag each kernel
    # span with its op index and expose progress as a gauge.
    rec = _obs_record._RECORDER
    progress = [0]
    if rec is not None:
        rec.register_gauge("serial.ops_done", lambda: progress[0])
    try:
        _run_ops(a, ops, ib, factors, ts, rec, progress,
                 fault_plan=fault_plan, checkpoint=checkpoint, skip=skip)
    finally:
        if rec is not None:
            rec.unregister_gauge("serial.ops_done")
            _obs_record.set_current_op(None)
    return factors


def _run_ops(a, ops, ib, factors, ts, rec, progress, *,
             fault_plan=None, checkpoint=None, skip=frozenset()) -> None:
    guard = (SDCGuard(fault_plan)
             if fault_plan is not None and fault_plan.faulty_sdc else None)
    done = np.zeros(len(ops), dtype=bool) if checkpoint is not None else None
    if done is not None:
        for idx in skip:
            done[idx] = True
    for idx, op in enumerate(ops):
        if idx in skip:
            if op.is_factor:
                factors.records.append(
                    FactorRecord(op.kind, op.i, op.k2, op.j,
                                 ts[t_factor_key(op)], op.m2, op.k))
            progress[0] = idx + 1
            continue
        if rec is not None:
            _obs_record.set_current_op(idx)
        if guard is None:
            t = _apply_op(a, op, ib, ts)
        else:
            t = guard.execute(
                idx, list(operand_views(a, op)[1]),
                lambda: _apply_op(a, op, ib, ts),
            )
        if op.is_factor:
            factors.records.append(
                FactorRecord(op.kind, op.i, op.k2, op.j, t, op.m2, op.k))
        progress[0] = idx + 1
        if done is not None:
            done[idx] = True
            checkpoint.note_done()
            if checkpoint.due():
                checkpoint.write(a, ts.__getitem__, done)
    if done is not None:
        checkpoint.write(a, ts.__getitem__, done)
