"""The 2D "domino QR" virtual systolic array — the paper's Figure 9.

This is the flat-tree QR of the authors' previous work [4], whose PULSAR
construction the paper prints in full.  We reproduce that construction
*literally*:

* one VDP per ``(panel i, column j)`` with ``j >= i``, body ``vdp_factor``
  on the diagonal and ``vdp_update`` off it;
* counter = number of tiles streaming through the panel (``mt - i``);
* three channels per direction, exactly as in the listing: slot 1 carries
  the matrix tiles downward (``send A``), slots 2 and 3 carry the
  Householder vectors and the ``T`` factor rightward (``send V``,
  ``send T``);
* every channel is declared **twice** — once as an output of its source
  and once as an input of its destination — and fused by the runtime at
  launch, as PULSAR's C API requires.

The 3D builder (:mod:`repro.qr.vsa3d`) generalises this array; the domino
array is kept as an independent, paper-faithful implementation and as a
cross-check: for the flat tree, both must produce bit-identical factors.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..pulsar.channel import Channel
from ..pulsar.packet import Packet
from ..pulsar.vdp import VDP
from ..pulsar.vsa import VSA
from ..tiles.matrix import TileMatrix
from ..util.validation import check_positive_int, require
from .collector import ResultStore
from .vsa3d import QRArray

__all__ = ["build_domino_vsa", "vdp_factor", "vdp_update"]

# Channel slots, numbered as in Figure 9 (0-based here: the listing's
# channel 1/2/3 are slots 0/1/2).
_A, _V, _T = 0, 1, 2


def vdp_factor(vdp: VDP) -> None:
    """Diagonal VDP ``(i, i)``: flat-tree panel factorization.

    First firing: ``dgeqrt`` on the arriving tile; later firings:
    ``dtsqrt`` folding each arriving tile into the locally held R.  The
    generated transformation is pushed right (V then T) before the next
    tile is awaited, so downstream updates start immediately.
    """
    s = vdp.store
    store: ResultStore = vdp.params["store"]
    ib: int = vdp.params["ib"]
    i, last = s["i"], vdp.firing_index == s["rows"] - 1
    tile = vdp.read(_A).data
    if vdp.firing_index == 0:
        t = kernels.geqrt(tile, ib)
        store.put_t(("G", i, i), t)
        s["head"] = tile
        # R keeps mutating; snapshot V.  ``triu`` of the transpose is ``tril``
        # in the tile's column-major order, which ORMQR reads without a copy.
        v_payload = np.triu(tile.T, 1).T
    else:
        t = kernels.tsqrt(s["head"][: s["k"], : s["k"]], tile, ib)
        row = i + vdp.firing_index
        store.put_t(("E", row, i), t)
        store.put_tile(row, i, tile)  # the eliminated tile holds V2
        v_payload = tile
    if s["has_right"]:
        vdp.write(_V, Packet.of(v_payload))
        vdp.write(_T, Packet.of(t))
    if last:
        store.put_tile(i, i, s["head"])


def vdp_update(vdp: VDP) -> None:
    """Off-diagonal VDP ``(i, j)``: apply the panel's transformations.

    Pops V and T from the left neighbour — forwarding both to the right
    neighbour *before* computing (the by-pass of Section V-C) — then pops
    the tile arriving from above and applies ``dormqr``/``dtsmqr``.
    Updated non-pivot tiles continue downward to panel ``i + 1``.
    """
    s = vdp.store
    store: ResultStore = vdp.params["store"]
    i, j = s["i"], s["j"]
    last = vdp.firing_index == s["rows"] - 1
    if s["has_right"]:
        v = vdp.forward(_V, _V).data
        t = vdp.forward(_T, _T).data
    else:
        v = vdp.read(_V).data
        t = vdp.read(_T).data
    tile = vdp.read(_A).data
    if vdp.firing_index == 0:
        kernels.ormqr(v, t, tile)
        s["head"] = tile
    else:
        kernels.tsmqr(v, t, s["head"], tile)
        if s["has_down"]:
            vdp.write(_A, Packet.of(tile))
        else:
            store.put_tile(i + vdp.firing_index, j, tile)
    if last:
        store.put_tile(i, j, s["head"])


def build_domino_vsa(a: TileMatrix, *, ib: int, total_workers: int = 1) -> QRArray:
    """Construct the domino array for ``a``, following Figure 9's loops.

    Returns a :class:`~repro.qr.vsa3d.QRArray`; run it and assemble factors
    with :func:`repro.qr.collector.assemble_factors` against the *flat*
    tree's operation list.
    """
    check_positive_int(ib, "ib")
    require(a.m >= a.n, f"tile QR requires m >= n, got {a.m} x {a.n}")
    layout = a.layout
    mt, nt, nb = layout.mt, layout.nt, layout.nb
    store = ResultStore(layout)
    vsa = VSA(params={"ib": ib, "store": store})
    mapping: dict[tuple, int] = {}
    tile_bytes = nb * nb * 8 + 256
    t_bytes = ib * nb * 8 + 256
    n_channels = 0
    wid = 0

    # "for i = 1..nt: for j = i..nt: create the VDP and its channels", with
    # each channel declared from both of its endpoints as in the listing.
    for i in range(nt):
        rows = mt - i
        for j in range(i, nt):
            tup = (i, j)
            has_right = j + 1 < nt
            has_down = i + 1 < nt and j > i  # column j continues to panel i+1
            fnc = vdp_factor if j == i else vdp_update
            vdp = VDP(tup, counter=rows, fnc=fnc, n_in=3, n_out=3)
            vdp.store.update(
                {
                    "i": i,
                    "j": j,
                    "k": layout.tile_cols(i),
                    "rows": rows,
                    "has_right": has_right,
                    "has_down": has_down,
                }
            )
            # input channel 1 (receive A) — from the panel above, which has
            # one more row streaming through than we do.
            if i > 0:
                vdp.insert_channel(
                    Channel(tile_bytes, (i - 1, j), _A, tup, _A), "in", _A
                )
                n_channels += 1
            if j > i:
                # input channels 2, 3 (receive V, T).
                vdp.insert_channel(Channel(tile_bytes, (i, j - 1), _V, tup, _V), "in", _V)
                vdp.insert_channel(Channel(t_bytes, (i, j - 1), _T, tup, _T), "in", _T)
                n_channels += 2
            if has_down:
                # output channel 1 (send A).
                vdp.insert_channel(Channel(tile_bytes, tup, _A, (i + 1, j), _A), "out", _A)
            if has_right:
                # output channels 2, 3 (send V, T).
                vdp.insert_channel(Channel(tile_bytes, tup, _V, (i, j + 1), _V), "out", _V)
                vdp.insert_channel(Channel(t_bytes, tup, _T, (i, j + 1), _T), "out", _T)
            vsa.add_vdp(vdp)  # "prt_vsa_vdp_insert"
            mapping[tup] = wid % total_workers
            wid += 1

    # Initial data distribution: panel 0 receives every tile of its column
    # from an injection channel (the matrix is resident at launch).
    for j in range(nt):
        tup = (0, j)
        vdp = vsa.vdps[tup]
        src_slot = len(vdp.outputs)
        vdp.outputs.append(None)
        ch = Channel(tile_bytes, tup, src_slot, tup, _A)
        vdp.outputs[src_slot] = ch
        vdp.insert_channel(ch, "in", _A)
        n_channels += 1
        for r in range(mt):
            vsa.preload(tup, _A, a.tile(r, j).copy(order="K"))

    return QRArray(
        vsa=vsa,
        store=store,
        mapping=mapping,
        total_workers=total_workers,
        n_vdps=len(vsa.vdps),
        n_channels=n_channels,
    )
