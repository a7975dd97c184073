"""Adversarial inputs through the LAPACK tile kernels, on every backend.

Zero columns (the ``tau == 0`` reflector path), duplicate columns, columns
scaled by 1e-300, ragged last tile rows and columns (``m % nb``,
``n % nb``), panels narrower than ``ib`` (``k < ib``) and TT blocks with
``m2 < k``.  Each factorization must be backward stable and keep an
orthogonal Q, and serial, batched, parallel and pulsar must return
bit-identical R.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import qr_factor

EPS = np.finfo(np.float64).eps
#: Constant of the ``c * eps * n`` accuracy bounds.
C = 20.0
COLUMN_KINDS = ("random", "zero", "duplicate", "tiny")
BACKENDS = (
    ("batched", {}),
    ("parallel", {"n_procs": 2}),
    ("parallel", {"n_procs": 2, "batch": "wavefront"}),
    ("pulsar", {"n_nodes": 2, "workers_per_node": 2}),
)


def adversarial_matrix(m: int, n: int, kinds, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    for j, kind in enumerate(kinds):
        if kind == "zero":
            a[:, j] = 0.0
        elif kind == "duplicate":
            a[:, j] = a[:, rng.integers(0, j)] if j else a[:, -1]
        elif kind == "tiny":
            a[:, j] *= 1e-300
    return a


def check_factorization(a: np.ndarray, **kw) -> None:
    m, n = a.shape
    ser = qr_factor(a, backend="serial", **kw)
    r, q = ser.R, ser.q_thin()
    assert np.isfinite(r).all() and np.isfinite(q).all()
    # Scale before taking norms: squares of 1e-300 entries underflow.
    scale = np.abs(a).max()
    if scale == 0.0:
        np.testing.assert_array_equal(r, 0.0)
    else:
        backward = np.linalg.norm(a / scale - q @ (r / scale)) / np.linalg.norm(a / scale)
        assert backward <= C * EPS * n, backward
    orth = np.linalg.norm(q.T @ q - np.eye(n))
    assert orth <= C * EPS * n, orth
    for backend, extra in BACKENDS:
        other = qr_factor(a, backend=backend, **extra, **kw)
        assert np.array_equal(other.R, r), (backend, extra)


@settings(max_examples=12, deadline=None)
@given(
    nb=st.sampled_from([4, 8]),
    ib_div=st.sampled_from([1, 2, 4]),
    nt=st.integers(1, 3),
    ragged_n=st.integers(0, 7),
    extra_mt=st.integers(0, 4),
    ragged_m=st.integers(0, 7),
    tree=st.sampled_from(["flat", "binary", "hier", "greedy"]),
    h=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=32, max_size=32),
    seed=st.integers(0, 2**31 - 1),
)
def test_adversarial_columns_and_ragged_tiles(nb, ib_div, nt, ragged_n, extra_mt,
                                              ragged_m, tree, h, kinds, seed):
    ib = nb // ib_div
    n = nt * nb + ragged_n % nb
    m = max(n, (nt + extra_mt) * nb + ragged_m % nb)
    a = adversarial_matrix(m, n, kinds[:n], seed)
    check_factorization(a, nb=nb, ib=ib, tree=tree, h=h)


@pytest.mark.parametrize("m,n", [(203, 37), (100, 21), (99, 7), (96, 96)])
def test_adversarial_fixed_shapes(m, n):
    # nb=16, ib=8: ragged last tiles, k = n % 16 < ib on most shapes, and
    # TT blocks with m2 = m % 16 < k under the binary/hier trees.
    kinds = [COLUMN_KINDS[j % len(COLUMN_KINDS)] for j in range(n)]
    a = adversarial_matrix(m, n, kinds, seed=m * n)
    for tree in ("hier", "binary"):
        check_factorization(a, nb=16, ib=8, tree=tree, h=2)
