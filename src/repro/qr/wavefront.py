"""Wavefront partition and wavefront-order serial executor for tile QR.

The dependency DAG of a tree QR is shallow and wide: at every level of
the longest-path schedule, dozens of independent ops of the *same kind
and shape* are ready (one TSQRT per domain; one TSMQR per domain per
trailing column).  This module executes the DAG level-synchronously:

1. :func:`compute_wavefronts` partitions the op list into *wavefronts*
   — antichains of the dependency graph whose ops touch pairwise
   disjoint tiles — using longest-path levels and a greedy first-fit
   split of each level (the split only triggers on write-after-read
   pairs, which share a level because the DAG has no WAR edges).
2. :func:`execute_ops_batched` runs the wavefronts in order, each op
   through the same scalar kernel wrappers as the serial reference,
   directly on the :class:`~repro.tiles.TileMatrix` tile views.

Because every DAG edge is respected (wavefronts concatenate to a legal
schedule) and every op runs the same deterministic kernel on the same
operands, ``backend="batched"`` produces factors bit-identical to
``serial`` — ``tests/test_wavefront.py`` asserts both properties.

Observability: each op's kernel call records its own span through the
instrumented shims of :mod:`repro.kernels`; the ``batch.calls`` /
``batch.ops`` counters count one call per op.
"""

from __future__ import annotations

import numpy as np

from ..obs import record as _obs_record
from ..tiles.matrix import TileMatrix
from ..tiles.shared import t_factor_key
from ..util.validation import require
from .checksum import SDCGuard
from .dag import op_dependency_graph
from .ops import Op, operand_views
from .reference import FactorRecord, TileQRFactors, _apply_op

__all__ = ["compute_wavefronts", "op_levels", "execute_ops_batched", "wavefront_stats"]


def op_levels(ops: list[Op], graph=None) -> np.ndarray:
    """Longest-path level of every op in the dependency DAG.

    Level 0 ops have no predecessors; every edge strictly increases the
    level, so the ops of one level form an antichain and any order that
    lists whole levels in sequence is a legal schedule.
    """
    g = op_dependency_graph(ops) if graph is None else graph
    n = g.n_tasks
    level = np.zeros(n, dtype=np.int64)
    indeg = g.n_deps.copy()
    stack = [t for t in range(n) if indeg[t] == 0]
    seen = 0
    while stack:
        t = stack.pop()
        seen += 1
        lo, hi = g.succ_index[t], g.succ_index[t + 1]
        for e in range(lo, hi):
            d = g.succ_task[e]
            if level[t] + 1 > level[d]:
                level[d] = level[t] + 1
            indeg[d] -= 1
            if indeg[d] == 0:
                stack.append(d)
    require(seen == n, "dependency graph has a cycle")
    return level


def compute_wavefronts(ops: list[Op], graph=None) -> list[list[int]]:
    """Partition ``ops`` into wavefronts of independent, tile-disjoint ops.

    Returns a list of wavefronts, each a list of op indices.  Guarantees
    (property-tested in ``tests/test_wavefront.py``):

    * every op index appears in exactly one wavefront;
    * no wavefront contains two ops touching (reading or writing) the
      same tile;
    * concatenating the wavefronts respects every edge of
      :func:`~repro.qr.dag.op_dependency_graph` — the result is a legal
      schedule.

    Ops of one DAG level are already mutually independent; the only
    same-level tile sharing is a V-tile read racing a later write into a
    disjoint storage region of the same tile (the WAR pairs the DAG
    deliberately has no edges for) or two updates reading one V tile.
    A greedy first-fit pass splits those into consecutive wavefronts,
    preserving op order within each level.
    """
    level = op_levels(ops, graph)
    n_levels = int(level.max()) + 1 if len(ops) else 0
    by_level: list[list[int]] = [[] for _ in range(n_levels)]
    for idx in range(len(ops)):
        by_level[level[idx]].append(idx)

    wavefronts: list[list[int]] = []
    for members in by_level:
        # First-fit: place each op in the earliest wavefront of this level
        # whose touched-tile set it does not intersect.
        slots: list[tuple[list[int], set]] = []
        for idx in members:
            op = ops[idx]
            touched = set(op.reads()) | set(op.writes())
            for wf, tiles in slots:
                if not (tiles & touched):
                    wf.append(idx)
                    tiles |= touched
                    break
            else:
                slots.append(([idx], touched))
        wavefronts.extend(wf for wf, _ in slots)
    return wavefronts


def wavefront_stats(ops: list[Op], wavefronts: list[list[int]] | None = None) -> dict:
    """Summary statistics of a wavefront partition (for docs and reports).

    Returns wavefront count, mean/max width, and the fraction of ops that
    share their wavefront with at least one op of the same signature —
    the ops a stacked kernel call could group for a given tree shape.
    """
    if wavefronts is None:
        wavefronts = compute_wavefronts(ops)
    widths = [len(wf) for wf in wavefronts]
    batched_ops = 0
    for wf in wavefronts:
        groups: dict = {}
        for idx in wf:
            groups.setdefault(_signature(ops[idx]), []).append(idx)
        batched_ops += sum(len(g) for g in groups.values() if len(g) >= 2)
    n = len(ops)
    return {
        "n_ops": n,
        "n_wavefronts": len(wavefronts),
        "mean_width": (n / len(wavefronts)) if wavefronts else 0.0,
        "max_width": max(widths, default=0),
        "batched_fraction": (batched_ops / n) if n else 0.0,
    }


def _signature(op: Op) -> tuple:
    """Grouping key for :func:`wavefront_stats`.

    ``m2``/``k``/``q`` pin the operand shapes for every non-ragged tile.
    """
    return (op.kind, op.m2, op.k, op.q)


# -- wavefront-order serial executor -----------------------------------------


def execute_ops_batched(
    a: TileMatrix, ops: list[Op], ib: int, *, wavefronts=None,
    fault_plan=None, checkpoint=None, skip=None, preloaded_ts=None,
) -> TileQRFactors:
    """Run an operation list on ``a`` (in place), one wavefront at a time.

    Semantically identical to :func:`repro.qr.reference.execute_ops` —
    factors come out bit-identical — but executes the DAG level by level,
    each op through the scalar kernel wrappers.  Factor records are appended in program order, so
    :class:`~repro.qr.reference.TileQRFactors` application order is
    unchanged.

    ``wavefronts`` accepts a precomputed partition of *exactly these*
    ``ops`` (a :class:`~repro.qr.session.PlanCache` passes its memoized
    one); the default ``None`` computes it here.  ``fault_plan`` /
    ``checkpoint`` / ``skip`` / ``preloaded_ts`` have the same semantics
    as on :func:`~repro.qr.reference.execute_ops`: arm the SDC checksum
    guard, snapshot progress, and (on resume) trust already-executed ops'
    tile state, taking their ``T`` factors from ``preloaded_ts``.
    """
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    factors = TileQRFactors(a=a, ib=ib)
    ts: dict[tuple[str, int, int], np.ndarray] = {}
    # Factor t-arrays land here keyed by op index; records are emitted in
    # program order at the end.
    t_of: dict[int, np.ndarray] = {}
    skip = frozenset() if skip is None else frozenset(skip)
    if preloaded_ts:
        for idx in skip:
            if idx in preloaded_ts:
                t_of[idx] = preloaded_ts[idx]
                ts[t_factor_key(ops[idx])] = preloaded_ts[idx]
    guard = (SDCGuard(fault_plan)
             if fault_plan is not None and fault_plan.faulty_sdc else None)
    done = np.zeros(len(ops), dtype=bool) if checkpoint is not None else None
    if done is not None:
        for idx in skip:
            done[idx] = True
    if wavefronts is None:
        wavefronts = compute_wavefronts(ops)
    rec = _obs_record._RECORDER
    progress = [0]
    if rec is not None:
        rec.name_lane(0, "batched")
        rec.register_gauge("batched.ops_done", lambda: progress[0])
    try:
        for wf in wavefronts:
            for idx in wf:
                if idx not in skip:
                    _run_single(a, ops[idx], idx, ib, ts, t_of, rec, guard)
                    if done is not None:
                        # A mid-wavefront done-set is still predecessor-
                        # closed: every DAG predecessor sits in a strictly
                        # earlier level.
                        done[idx] = True
                        checkpoint.note_done()
                        if checkpoint.due():
                            checkpoint.write(a, ts.__getitem__, done)
                progress[0] += 1
        if done is not None:
            checkpoint.write(a, ts.__getitem__, done)
    finally:
        if rec is not None:
            rec.unregister_gauge("batched.ops_done")
            _obs_record.set_current_op(None)
    for idx, op in enumerate(ops):
        if op.is_factor:
            factors.records.append(
                FactorRecord(op.kind, op.i, op.k2 if op.kind != "GEQRT" else -1,
                             op.j, t_of[idx], op.m2, op.k)
            )
    return factors


def _run_single(a, op: Op, idx: int, ib, ts, t_of, rec, guard=None) -> None:
    """Run one op through the scalar kernels (same code path as serial)."""
    if rec is not None:
        _obs_record.set_current_op(idx)
    if guard is None:
        t = _apply_op(a, op, ib, ts)
    else:
        t = guard.execute(idx, list(operand_views(a, op)[1]),
                          lambda: _apply_op(a, op, ib, ts))
    if t is not None:
        t_of[idx] = t
    if rec is not None:
        rec.count(_obs_record.K_BATCH_CALLS)
        rec.count(_obs_record.K_BATCH_OPS)
