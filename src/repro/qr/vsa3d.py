"""The 3D Virtual Systolic Array for tree-based tile QR (paper Section V-C).

One builder covers all tree shapes, because every tree is expressed as
*domains reduced by flat trees* plus *a TT reduction over domain heads*
(flat = one domain per panel, binary/greedy = singleton domains):

* **red/orange VDPs** — one per ``(panel j, domain d, column l)``; the
  ``l == j`` VDP (red) performs the domain's flat-tree reduction
  (GEQRT + TSQRT chain), the ``l > j`` VDPs (orange) apply the resulting
  transformations to their column (ORMQR + TSMQR).  Counter = domain size:
  the domain's tiles stream through, one per firing.
* **blue VDPs** — one per ``(panel j, TT elimination e, column l)``;
  counter 1; ``l == j`` performs TTQRT, ``l > j`` TTMQR.

Channels (Figure 8):

* *vertical* channels chain the V/T transformation packets across columns
  (``(j,d,l) -> (j,d,l+1)``); receivers forward the packet *before* applying
  it — the by-pass that overlaps communication with computation;
* *horizontal* channels carry tiles: updated member tiles flow to the next
  panel's VDPs (dashed/solid routing of Figure 8), domain head tiles flow
  into the TT tree, TT survivors flow up the tree, TT-eliminated tiles
  return to the next panel's flat-tree as its *last* arrival.

Each VDP's tile-input channels are enabled one at a time in stream order
(the dynamic-reconfiguration feature of Section IV-A): arrival order across
different producers is unknown, but the firing rule must only see the tile
the current firing consumes.  This generalises the paper's "dashed channel
activated when the flat-tree finishes all but the last tile".

With shifted domain boundaries the next panel's reduction starts as soon as
its first tiles are released mid-stream — no builder logic is needed for
that; it falls out of the dataflow exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..obs import record as _obs_record
from ..pulsar.packet import Packet
from ..pulsar.vdp import VDP
from ..pulsar.channel import Channel
from ..pulsar.vsa import VSA
from ..tiles.matrix import TileMatrix
from ..trees.plan import PanelPlan
from ..util.errors import VSAError
from ..util.validation import check_positive_int, require
from .collector import ResultStore
from .mapping import VDPThreadMap
from .ops import expand_plans

__all__ = ["QRArray", "build_qr_vsa"]

# VDP tuple layout: (kind, j, index, l) with kind 0 = domain, 1 = binary.
_DOMAIN, _BINARY = 0, 1

# Input slots: 0 = vertical V/T channel; 1 + t = tile of member/operand t.
_V_IN = 0
# Output slots: 0 = vertical V/T; 1 = head/pivot tile; 2 + ... member tiles.
_V_OUT = 0


@dataclass(frozen=True)
class _Dest:
    """Where a tile goes when this VDP is done with it.

    ``kind``: ``"slot"`` (push to output slot), ``"collect"`` (deposit the
    final tile in the :class:`ResultStore`).
    """

    kind: str
    slot: int = -1
    i: int = -1
    j: int = -1


@dataclass
class QRArray:
    """A built QR systolic array, ready to run.

    Attributes
    ----------
    vsa:
        The PULSAR array (run it via :meth:`run` or ``vsa.run`` directly).
    store:
        Result sink filled during execution.
    mapping:
        The VDP-to-thread map (tuple -> global worker id), built with the
        paper's strategy: cyclic over domain/column VDPs, binary parents on
        their first child's thread.
    n_vdps, n_channels:
        Array size (for reporting/tests).
    """

    vsa: VSA
    store: ResultStore
    mapping: dict[tuple, int]
    total_workers: int
    n_vdps: int
    n_channels: int

    def run(self, *, n_nodes: int = 1, workers_per_node: int | None = None, **kw):
        """Execute on the threaded PRT (see :meth:`repro.pulsar.VSA.run`)."""
        if workers_per_node is None:
            require(
                self.total_workers % n_nodes == 0,
                f"total_workers={self.total_workers} not divisible by n_nodes={n_nodes}",
            )
            workers_per_node = self.total_workers // n_nodes
        return self.vsa.run(
            n_nodes=n_nodes,
            workers_per_node=workers_per_node,
            mapping=lambda t: self.mapping[t],
            **kw,
        )


# --------------------------------------------------------------------------
# VDP bodies
# --------------------------------------------------------------------------


def _emit(vdp: VDP, dest: _Dest, tile: np.ndarray, store: ResultStore) -> None:
    if dest.kind == "slot":
        vdp.write(dest.slot, Packet.of(tile))
    else:
        store.put_tile(dest.i, dest.j, tile)


def _tag_op(vdp: VDP, kind: str, i: int, k2: int, l: int) -> None:
    """Bind the next kernel span on this thread to its op-list index.

    Only active while a recorder is installed; the builder stores the
    ``(kind, i, k2, j, l) -> op index`` map in ``params["op_of"]`` so the
    analysis layer (:mod:`repro.obs.analysis`) can join out-of-order
    threaded spans back onto the dependency graph.
    """
    if _obs_record._RECORDER is None:
        return
    op_of = vdp.params.get("op_of")
    if op_of is not None:
        _obs_record.set_current_op(op_of.get((kind, i, k2, vdp.store["j"], l)))


def _domain_body(vdp: VDP) -> None:
    """Red (``l == j``) and orange (``l > j``) domain VDP behaviour."""
    s = vdp.store
    t_idx = vdp.firing_index
    members: list[int] = s["members"]
    last = t_idx == len(members) - 1
    ib: int = vdp.params["ib"]
    store: ResultStore = vdp.params["store"]
    factor_col = s["factor_col"]  # True for red VDPs
    k = s["k"]

    vpkt = None
    if not factor_col:
        # By-pass: forward the transformation down the vertical chain before
        # applying it locally (paper Section V-C).
        if s["v_forward"]:
            vpkt = vdp.forward(_V_IN, _V_OUT)
        else:
            vpkt = vdp.read(_V_IN)

    tile = vdp.read(1 + t_idx).data
    if not last:
        vdp.disable_input(1 + t_idx)
        vdp.enable_input(2 + t_idx)

    if factor_col:
        if t_idx == 0:
            _tag_op(vdp, "GEQRT", members[0], -1, -1)
            t = kernels.geqrt(tile, ib)
            store.put_t(("G", members[0], s["j"]), t)
            # Send a snapshot of the reflectors: the head tile's R triangle
            # keeps mutating in this VDP while consumers read V.  ``triu`` of
            # the transpose is ``tril`` in the tile's column-major order.
            v_snapshot = np.triu(tile.T, 1).T
            if s["v_forward"]:
                vdp.write(_V_OUT, Packet.of(("G", v_snapshot, t, members[0])))
            s["head"] = tile
        else:
            _tag_op(vdp, "TSQRT", members[0], members[t_idx], -1)
            t = kernels.tsqrt(s["head"][:k, :k], tile, ib)
            store.put_t(("E", members[t_idx], s["j"]), t)
            if s["v_forward"]:
                vdp.write(_V_OUT, Packet.of(("TS", tile, t, members[t_idx])))
            _emit(vdp, s["member_dests"][t_idx], tile, store)
    else:
        kind, v, t, _row = vpkt.data
        if t_idx == 0:
            if kind != "G":
                raise VSAError(f"VDP {vdp.tuple}: expected GEQRT packet, got {kind}")
            _tag_op(vdp, "ORMQR", members[0], -1, s["col"])
            kernels.ormqr(v, t, tile)
            s["head"] = tile
        else:
            if kind != "TS":
                raise VSAError(f"VDP {vdp.tuple}: expected TSQRT packet, got {kind}")
            _tag_op(vdp, "TSMQR", members[0], members[t_idx], s["col"])
            kernels.tsmqr(v, t, s["head"], tile)
            _emit(vdp, s["member_dests"][t_idx], tile, store)

    if last:
        _emit(vdp, s["head_dest"], s["head"], store)


def _binary_body(vdp: VDP) -> None:
    """Blue VDP: one TT elimination step at one column; fires once."""
    s = vdp.store
    ib: int = vdp.params["ib"]
    store: ResultStore = vdp.params["store"]
    k, m2 = s["k"], s["m2"]
    factor_col = s["factor_col"]

    vpkt = None
    if not factor_col:
        if s["v_forward"]:
            vpkt = vdp.forward(_V_IN, _V_OUT)
        else:
            vpkt = vdp.read(_V_IN)

    piv_tile = vdp.read(1).data
    row_tile = vdp.read(2).data

    if factor_col:
        _tag_op(vdp, "TTQRT", s["piv"], s["row"], -1)
        t = kernels.ttqrt(piv_tile[:k, :k], row_tile[:m2, :k], ib)
        store.put_t(("E", s["row"], s["j"]), t)
        if s["v_forward"]:
            vdp.write(_V_OUT, Packet.of(("TT", row_tile, t, s["row"])))
    else:
        kind, v, t, _row = vpkt.data
        if kind != "TT":
            raise VSAError(f"VDP {vdp.tuple}: expected TTQRT packet, got {kind}")
        _tag_op(vdp, "TTMQR", s["piv"], s["row"], s["col"])
        kernels.ttmqr(v[:m2, :k], t, piv_tile, row_tile[:m2, :])

    _emit(vdp, s["piv_dest"], piv_tile, store)
    _emit(vdp, s["row_dest"], row_tile, store)


# --------------------------------------------------------------------------
# Builder
# --------------------------------------------------------------------------


def build_qr_vsa(
    a: TileMatrix,
    plans: list[PanelPlan],
    *,
    ib: int,
    total_workers: int = 1,
) -> QRArray:
    """Construct the 3D systolic array factorizing ``a`` along ``plans``.

    The tiles of ``a`` are preloaded onto the first-panel input channels
    (the initial data distribution); ``a`` itself is not mutated — tile
    copies stream through the array and end up in the result store.

    Parameters
    ----------
    a:
        The tile matrix to factor (``m >= n``).
    plans:
        Panel plans from :func:`repro.trees.plan_all_panels`.
    ib:
        Inner block size.
    total_workers:
        Number of worker threads the mapping distributes VDPs over.
    """
    check_positive_int(total_workers, "total_workers")
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    require(len(plans) == min(a.mt, a.nt), "plans must cover every panel")
    layout = a.layout
    nt = layout.nt
    nb = layout.nb
    store = ResultStore(layout)
    # (kind, i, k2, j, l) -> index in the canonical operation list, used by
    # _tag_op to stamp kernel spans with op identity under a recorder.
    op_of = {
        (op.kind, op.i, op.k2, op.j, op.l): idx
        for idx, op in enumerate(expand_plans(layout, plans))
    }
    vsa = VSA(params={"ib": ib, "store": store, "op_of": op_of})
    tmap = VDPThreadMap.from_plans(plans, total_workers)
    mapping: dict[tuple, int] = {}
    tile_bytes = nb * nb * 8 + 256
    vpkt_bytes = nb * nb * 8 + ib * nb * 8 + 512
    n_channels = 0

    # feeds[(r, l)] = (src_tuple, src_slot) producing tile (r, l)'s next hop,
    # defined while building panel j for consumption by panel j + 1.
    feeds: dict[tuple[int, int], tuple[tuple, int]] = {}
    # pending per-VDP input wiring: dst_tuple -> list of (in_slot, src, sslot)
    pending_inputs: dict[tuple, list[tuple[int, tuple, int]]] = {}

    def note_feed(src_tuple: tuple, src_slot: int, r: int, col: int) -> None:
        feeds[(r, col)] = (src_tuple, src_slot)

    for plan in plans:
        j = plan.j
        k = layout.tile_cols(j)
        tt_elims = [e for e in plan.eliminations if e.kind == "TT"]

        # ---- domain (red/orange) VDPs -------------------------------------
        for d, members in enumerate(plan.domains):
            for col in range(j, nt):
                tup = (_DOMAIN, j, d, col)
                n_in = 1 + len(members)
                n_out = 2 + len(members)
                vdp = VDP(tup, counter=len(members), fnc=_domain_body, n_in=n_in, n_out=n_out)
                vdp.store.update(
                    {
                        "members": members,
                        "j": j,
                        "col": col,
                        "k": k,
                        "factor_col": col == j,
                        "v_forward": False,  # set when the channel is made
                        "member_dests": {},
                        "head_dest": None,
                    }
                )
                vsa.add_vdp(vdp)
                mapping[tup] = tmap.domain_worker(j, d, col)

        # ---- binary (blue) VDPs -------------------------------------------
        for eidx, e in enumerate(tt_elims):
            for col in range(j, nt):
                tup = (_BINARY, j, eidx, col)
                mapping[tup] = tmap.binary_worker(j, e.piv, col)
                vdp = VDP(tup, counter=1, fnc=_binary_body, n_in=3, n_out=3)
                m2 = min(layout.tile_rows(e.row), k)
                vdp.store.update(
                    {
                        "j": j,
                        "col": col,
                        "k": k,
                        "m2": m2,
                        "row": e.row,
                        "piv": e.piv,
                        "factor_col": col == j,
                        "v_forward": False,
                        "piv_dest": None,
                        "row_dest": None,
                    }
                )
                vsa.add_vdp(vdp)

        # ---- vertical V/T chains ------------------------------------------
        for d in range(len(plan.domains)):
            for col in range(j, nt - 1):
                vsa.connect((_DOMAIN, j, d, col), _V_OUT, (_DOMAIN, j, d, col + 1), _V_IN, vpkt_bytes)
                vsa.vdps[(_DOMAIN, j, d, col)].store["v_forward"] = True
                n_channels += 1
        for eidx in range(len(tt_elims)):
            for col in range(j, nt - 1):
                vsa.connect((_BINARY, j, eidx, col), _V_OUT, (_BINARY, j, eidx, col + 1), _V_IN, vpkt_bytes)
                vsa.vdps[(_BINARY, j, eidx, col)].store["v_forward"] = True
                n_channels += 1

        # ---- wire this panel's tile inputs ---------------------------------
        # Must happen before this panel's own routing is computed: the feeds
        # map still holds the *previous* panel's producers for these tiles.
        for d, members in enumerate(plan.domains):
            for col in range(j, nt):
                tup = (_DOMAIN, j, d, col)
                for t_idx, r in enumerate(members):
                    slot = 1 + t_idx
                    if j == 0:
                        _self_channel(vsa, tup, slot, tile_bytes, enabled=t_idx == 0)
                        vsa.preload(tup, slot, a.tile(r, col).copy(order="K"))
                    else:
                        src, sslot = feeds.pop((r, col))
                        vsa.connect(src, sslot, tup, slot, tile_bytes, enabled=t_idx == 0)
                    n_channels += 1

        # ---- horizontal tile routing --------------------------------------
        def next_panel_dest(src_tuple: tuple, src_slot: int, r: int, col: int) -> _Dest:
            """Tile (r, col) leaves panel j: route onward or collect."""
            if col == j:
                return _Dest("collect", i=r, j=j)  # reflector storage, final
            if r == plan.rows[0]:
                return _Dest("collect", i=r, j=col)  # final R row of panel j
            note_feed(src_tuple, src_slot, r, col)
            return _Dest("slot", slot=src_slot)

        for col in range(j, nt):
            # cur[(r)] = (tuple, out_slot) holding row r's tile at `col` as
            # the TT reduction progresses.
            cur: dict[int, tuple[tuple, int]] = {}
            for d, members in enumerate(plan.domains):
                tup = (_DOMAIN, j, d, col)
                vdp = vsa.vdps[tup]
                # Member tiles leave via slots 2 + t as they are consumed.
                for t_idx, r in enumerate(members):
                    if t_idx == 0:
                        continue
                    vdp.store["member_dests"][t_idx] = next_panel_dest(tup, 2 + t_idx, r, col)
                cur[members[0]] = (tup, 1)
            for eidx, e in enumerate(tt_elims):
                btup = (_BINARY, j, eidx, col)
                bvdp = vsa.vdps[btup]
                for in_slot, r in ((1, e.piv), (2, e.row)):
                    src, sslot = cur[r]
                    pending_inputs.setdefault(btup, []).append((in_slot, src, sslot))
                    if src[0] == _DOMAIN:
                        vsa.vdps[src].store["head_dest"] = _Dest("slot", slot=sslot)
                    else:
                        key = "piv_dest" if sslot == 1 else "row_dest"
                        vsa.vdps[src].store[key] = _Dest("slot", slot=sslot)
                cur[e.piv] = (btup, 1)
                bvdp.store["row_dest"] = next_panel_dest(btup, 2, e.row, col)
                del cur[e.row]
            # The surviving pivot's tile leaves the panel.
            src, sslot = cur[plan.rows[0]]
            dest = next_panel_dest(src, sslot, plan.rows[0], col)
            if src[0] == _DOMAIN:
                vsa.vdps[src].store["head_dest"] = dest
            else:
                vsa.vdps[src].store["piv_dest"] = dest

        # ---- wire this panel's intra-panel binary inputs -------------------
        for btup, wires in pending_inputs.items():
            for in_slot, src, sslot in wires:
                vsa.connect(src, sslot, btup, in_slot, tile_bytes)
                n_channels += 1
        pending_inputs.clear()

    if feeds:
        raise VSAError(f"unconsumed tile feeds remain: {sorted(feeds)[:8]}")
    return QRArray(
        vsa=vsa,
        store=store,
        mapping=mapping,
        total_workers=total_workers,
        n_vdps=len(vsa.vdps),
        n_channels=n_channels,
    )


def _self_channel(vsa: VSA, dst_tuple: tuple, slot: int, max_bytes: int, enabled: bool):
    """An injection channel for initial data: a source-less input.

    Implemented as a channel whose source is the destination itself on a
    dedicated high output slot that is never written; packets are preloaded
    before launch.
    """
    vdp = vsa.vdps[dst_tuple]
    src_slot = len(vdp.outputs)
    vdp.outputs.append(None)

    ch = Channel(max_bytes, dst_tuple, src_slot, dst_tuple, slot)
    if not enabled:
        ch.disable()
    vdp.outputs[src_slot] = ch
    vdp.insert_channel(ch, "in", slot)
    return ch
