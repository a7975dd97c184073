"""The stacked ``*_batched`` helpers against their scalar counterparts.

Every ``*_batched`` helper must reproduce the scalar kernel mapped over the
batch *bit for bit* (``np.array_equal``), across inner block sizes, tile
shapes (square, tall, ragged), and batch sizes.  The zero-tail cases
exercise the ``tau == 0`` reflector path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import geqrt, ormqr, tsmqr, tsqrt, ttmqr, ttqrt
from repro.kernels.batched import (
    geqrt_batched,
    ormqr_batched,
    tsmqr_batched,
    tsqrt_batched,
    ttmqr_batched,
    ttqrt_batched,
)
from repro.util import ShapeError

BATCHES = (1, 3)
IBS = (1, 3, 8)


def _stack(rng, bsz, m, n):
    return rng.standard_normal((bsz, m, n))


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("m,n", [(8, 8), (12, 8), (8, 5)])
@pytest.mark.parametrize("ib", IBS)
def test_geqrt_batched_bit_exact(bsz, m, n, ib):
    rng = np.random.default_rng(hash((bsz, m, n, ib)) % 2**32)
    a = _stack(rng, bsz, m, n)
    ref = a.copy()
    t_ref = np.stack([geqrt(ref[b], ib) for b in range(bsz)])
    t = geqrt_batched(a, ib)
    assert np.array_equal(a, ref)
    assert np.array_equal(t, t_ref)


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("k,m2", [(8, 8), (8, 12), (5, 7)])
@pytest.mark.parametrize("ib", IBS)
def test_tsqrt_batched_bit_exact(bsz, k, m2, ib):
    rng = np.random.default_rng(hash((bsz, k, m2, ib)) % 2**32)
    r = _stack(rng, bsz, k, k)
    a2 = _stack(rng, bsz, m2, k)
    r_ref, a2_ref = r.copy(), a2.copy()
    t_ref = np.stack([tsqrt(r_ref[b], a2_ref[b], ib) for b in range(bsz)])
    t = tsqrt_batched(r, a2, ib)
    assert np.array_equal(r, r_ref)
    assert np.array_equal(a2, a2_ref)
    assert np.array_equal(t, t_ref)


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("k,m2", [(8, 8), (8, 5), (7, 3)])
@pytest.mark.parametrize("ib", IBS)
def test_ttqrt_batched_bit_exact(bsz, k, m2, ib):
    rng = np.random.default_rng(hash((bsz, k, m2, ib)) % 2**32)
    r1 = _stack(rng, bsz, k, k)
    # Random strictly-lower garbage stands in for other reflectors' storage;
    # the kernels must mask it out identically.
    r2 = _stack(rng, bsz, m2, k)
    r1_ref, r2_ref = r1.copy(), r2.copy()
    t_ref = np.stack([ttqrt(r1_ref[b], r2_ref[b], ib) for b in range(bsz)])
    t = ttqrt_batched(r1, r2, ib)
    assert np.array_equal(r1, r1_ref)
    assert np.array_equal(r2, r2_ref)
    assert np.array_equal(t, t_ref)


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("trans", [True, False])
@pytest.mark.parametrize("ib", IBS)
def test_ormqr_batched_bit_exact(bsz, trans, ib):
    rng = np.random.default_rng(hash((bsz, trans, ib)) % 2**32)
    m, n, q = 10, 8, 6
    v = _stack(rng, bsz, m, n)
    t = np.stack([geqrt(v[b], ib) for b in range(bsz)])
    c = _stack(rng, bsz, m, q)
    c_ref = c.copy()
    for b in range(bsz):
        ormqr(v[b], t[b], c_ref[b], trans=trans)
    ormqr_batched(v, t, c, trans=trans)
    assert np.array_equal(c, c_ref)


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("trans", [True, False])
@pytest.mark.parametrize("ib", IBS)
def test_tsmqr_batched_bit_exact(bsz, trans, ib):
    rng = np.random.default_rng(hash((bsz, trans, ib, 1)) % 2**32)
    k, m2, q = 8, 10, 6
    r = _stack(rng, bsz, k, k)
    v2 = _stack(rng, bsz, m2, k)
    t = np.stack([tsqrt(r[b], v2[b], ib) for b in range(bsz)])
    c1 = _stack(rng, bsz, k, q)
    c2 = _stack(rng, bsz, m2, q)
    c1_ref, c2_ref = c1.copy(), c2.copy()
    for b in range(bsz):
        tsmqr(v2[b], t[b], c1_ref[b], c2_ref[b], trans=trans)
    tsmqr_batched(v2, t, c1, c2, trans=trans)
    assert np.array_equal(c1, c1_ref)
    assert np.array_equal(c2, c2_ref)


@pytest.mark.parametrize("bsz", BATCHES)
@pytest.mark.parametrize("trans", [True, False])
@pytest.mark.parametrize("m2", [8, 5])
@pytest.mark.parametrize("ib", IBS)
def test_ttmqr_batched_bit_exact(bsz, trans, m2, ib):
    rng = np.random.default_rng(hash((bsz, trans, m2, ib)) % 2**32)
    k, q = 8, 6
    r1 = _stack(rng, bsz, k, k)
    v2 = _stack(rng, bsz, m2, k)
    t = np.stack([ttqrt(r1[b], v2[b], ib) for b in range(bsz)])
    c1 = _stack(rng, bsz, k, q)
    c2 = _stack(rng, bsz, m2, q)
    c1_ref, c2_ref = c1.copy(), c2.copy()
    for b in range(bsz):
        ttmqr(v2[b], t[b], c1_ref[b], c2_ref[b], trans=trans)
    ttmqr_batched(v2, t, c1, c2, trans=trans)
    assert np.array_equal(c1, c1_ref)
    assert np.array_equal(c2, c2_ref)


def test_geqrt_batched_zero_tail_column():
    """A column with an all-zero tail takes the ``tau == 0`` path."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 8, 5))
    a[1, 1:, 0] = 0.0  # slice 1's first column needs no reflector
    ref = a.copy()
    t_ref = np.stack([geqrt(ref[b], 3) for b in range(3)])
    t = geqrt_batched(a, 3)
    assert np.array_equal(a, ref)
    assert np.array_equal(t, t_ref)
    assert t[1, 0, 0] == 0.0  # tau of the zero-tail column


def test_tsqrt_batched_zero_tail_column():
    rng = np.random.default_rng(8)
    r = rng.standard_normal((3, 6, 6))
    a2 = rng.standard_normal((3, 7, 6))
    a2[0, :, 0] = 0.0
    a2[2, :, 3] = 0.0
    r_ref, a2_ref = r.copy(), a2.copy()
    t_ref = np.stack([tsqrt(r_ref[b], a2_ref[b], 2) for b in range(3)])
    t = tsqrt_batched(r, a2, 2)
    assert np.array_equal(r, r_ref)
    assert np.array_equal(a2, a2_ref)
    assert np.array_equal(t, t_ref)


def test_batched_kernels_reject_2d_input():
    a = np.zeros((4, 4))
    with pytest.raises(ShapeError):
        geqrt_batched(a, 2)
    with pytest.raises(ShapeError):
        tsqrt_batched(a, a, 2)
    with pytest.raises(ShapeError):
        ttqrt_batched(a, a, 2)
