"""Task-graph builder: QR operation lists -> DES task graphs.

Dependencies are derived from tile dataflow (read-after-write and
write-after-write on each tile); write-after-read hazards are *not* edges
because the systolic array decouples them with packets — a factor kernel's
reflectors travel as a V/T snapshot, so the next factor step on the pivot
tile's R triangle never waits for remote updates that are still reading V
(the storage regions are disjoint, see :mod:`repro.kernels.lapack`).

Communication edges are priced with the machine model:

* **tile movement** (write-after-write across nodes): one wire transfer of
  the tile;
* **transformation broadcast** (factor -> update): under the VSA's chained
  by-pass (``broadcast="chain"``, the paper's design) the packet relays
  through the update VDPs of consecutive columns, paying one forward
  overhead per hop plus a wire transfer whenever the chain crosses nodes —
  cumulative along the chain.  Under ``broadcast="direct"`` (generic
  runtime baseline, used for the PaRSEC model) every consumer receives a
  separate point-to-point send from the producer's node.

Worker placement comes from the same :class:`~repro.qr.mapping.VDPThreadMap`
the threaded runtime uses, so the simulated execution is the paper's array,
not a generic list schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dessim.graph import TaskGraph, TaskGraphBuilder
from ..dessim.trace import KIND_BINARY, KIND_PANEL, KIND_UPDATE
from ..kernels.flops import kernel_flops, qr_useful_flops
from ..machine.model import MachineModel
from ..tiles.layout import TileLayout
from ..trees.plan import PanelPlan
from ..util.validation import require
from .mapping import VDPThreadMap
from .ops import expand_plans

__all__ = ["QRTaskGraph", "build_qr_taskgraph", "op_dependency_graph"]

_KIND_CODE = {
    "GEQRT": KIND_PANEL,
    "TSQRT": KIND_PANEL,
    "ORMQR": KIND_UPDATE,
    "TSMQR": KIND_UPDATE,
    "TTQRT": KIND_BINARY,
    "TTMQR": KIND_BINARY,
}


@dataclass
class QRTaskGraph:
    """A DES-ready QR task graph plus its accounting metadata."""

    graph: TaskGraph
    n_workers: int
    n_nodes: int
    cores: int
    useful_flops: float
    performed_flops: float
    machine: MachineModel

    def flop_overhead(self) -> float:
        """Extra work ratio of the tree algorithm vs plain Householder QR."""
        return self.performed_flops / self.useful_flops - 1.0


def op_dependency_graph(ops, durations=None) -> TaskGraph:
    """Pure dataflow DAG of an operation list — no machine model by default.

    One task per op (same indices), edges from read-after-write and
    write-after-write hazards on each tile; write-after-read needs no edge
    because factor kernels only touch storage regions disjoint from the
    reflectors that in-flight updates read (see the module docstring).  The
    per-tile write chains this builds totally order every tile's mutations,
    which is why *any* legal schedule of this graph — including the
    process-parallel executor's — produces factors bit-identical to the
    serial reference.

    The returned :class:`~repro.dessim.graph.TaskGraph` supplies the CSR
    successor arrays (``succ_index``/``succ_task``) and in-degree counts
    (``n_deps``) the parallel dispatcher tracks at run time.

    ``durations`` optionally assigns one duration per op (same order), so
    the analysis layer can ask the graph for model-predicted chain lengths
    (:meth:`~repro.dessim.graph.TaskGraph.critical_path`) without pricing
    communication; omitted, every task costs zero seconds.
    """
    if durations is not None and len(durations) != len(ops):
        raise ValueError(
            f"durations has {len(durations)} entries for {len(ops)} ops"
        )
    b = TaskGraphBuilder()
    last_writer: dict[tuple[int, int], int] = {}
    for i, op in enumerate(ops):
        tid = b.add_task(0.0 if durations is None else float(durations[i]), 0)
        for key in op.reads():
            b.add_edge(last_writer[key], tid)
        for key in op.writes():
            prev = last_writer.get(key)
            if prev is not None:
                b.add_edge(prev, tid)
            last_writer[key] = tid
    return b.build()


def build_qr_taskgraph(
    layout: TileLayout,
    plans: list[PanelPlan],
    machine: MachineModel,
    cores: int,
    ib: int,
    *,
    broadcast: str = "chain",
    record_meta: bool = False,
) -> QRTaskGraph:
    """Build the simulation task graph for one QR configuration.

    Parameters
    ----------
    layout:
        Tile geometry of the matrix.
    plans:
        Panel plans (tree choice already applied).
    machine:
        Timing model.
    cores:
        Allocated cores (must be a multiple of the node size); worker count
        is cores minus one proxy core per node, as in the paper's runs.
    ib:
        Inner block size.
    broadcast:
        ``"chain"`` (VSA by-pass relays) or ``"direct"`` (point-to-point).
    record_meta:
        Attach ``(kind, j, l)`` metadata per task for trace analysis.
    """
    require(broadcast in ("chain", "direct"), f"unknown broadcast scheme {broadcast!r}")
    workers = machine.workers_for_cores(cores)
    nodes = machine.nodes_for_cores(cores)
    wpn = machine.workers_per_node
    tmap = VDPThreadMap.from_plans(plans, workers)
    ops = expand_plans(layout, plans)
    chain = broadcast == "chain"

    b = TaskGraphBuilder()
    wire = machine.wire_seconds
    fwd = machine.forward_overhead_s
    # last_writer[(i, j)] = (task id, node) of the op that last mutated a tile
    last_writer: dict[tuple[int, int], tuple[int, int]] = {}
    # chain_state[factor tid] = [cumulative delay, last node in the chain]
    chain_state: dict[int, list[float]] = {}
    v_bytes: dict[int, int] = {}
    performed = 0.0

    for op in ops:
        worker = tmap.op_worker(op)
        node = worker // wpn
        dur = machine.kernel_seconds(op.kind, op.m2, op.k, op.q, ib)
        performed += kernel_flops(op.kind, op.m2, op.k, op.q, ib)
        meta = (op.kind, op.j, op.l) if record_meta else ()
        tid = b.add_task(dur, worker, kind=_KIND_CODE[op.kind], meta=meta)

        if op.is_factor:
            # Reflector snapshot size: V (triangular for GEQRT/TTQRT, full
            # tile for TSQRT) plus the (ib, k) T factor.
            if op.kind == "TSQRT":
                v_sz = op.m2 * op.k
            else:
                v_sz = op.m2 * op.k // 2
            v_bytes[tid] = (v_sz + ib * op.k) * 8
            chain_state[tid] = [0.0, float(node)]

        # Read dependencies: the V/T produced by this op's factor kernel.
        for ti, tj in op.reads():
            ft, fnode = last_writer[(ti, tj)]
            if chain:
                # By-pass relay: the packet rides the vertical channel,
                # paying one forward per hop and a wire transfer whenever
                # the chain crosses a node boundary.
                state = chain_state[ft]
                prev_node = int(state[1])
                state[0] += fwd + (wire(v_bytes[ft]) if prev_node != node else 0.0)
                state[1] = float(node)
                b.add_edge(ft, tid, state[0])
            else:
                # Point-to-point re-sends: each remote consumer's copy
                # serialises on the producer node's NIC, so the i-th remote
                # consumer waits behind the previous i-1 transfers.
                state = chain_state[ft]
                if fnode != node:
                    state[0] += v_bytes[ft] / machine.bandwidth_bps + machine.message_overhead_s
                    b.add_edge(ft, tid, state[0] + machine.latency_s)
                else:
                    b.add_edge(ft, tid, 0.0)

        # Write dependencies: serialize on each mutated tile; a cross-node
        # handoff moves the tile over the wire.
        for ti, tj in op.writes():
            prev = last_writer.get((ti, tj))
            if prev is not None:
                pt, pnode = prev
                nbytes = layout.tile_rows(ti) * layout.tile_cols(tj) * 8
                b.add_edge(pt, tid, wire(nbytes) if pnode != node else 0.0)
            last_writer[(ti, tj)] = (tid, node)

    graph = b.build()
    return QRTaskGraph(
        graph=graph,
        n_workers=workers,
        n_nodes=nodes,
        cores=cores,
        useful_flops=qr_useful_flops(layout.m, layout.n),
        performed_flops=performed,
        machine=machine,
    )
