"""Unit tests for the six tile kernels (LAPACK tile-QR wrappers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    geqrt,
    lapack,
    ormqr,
    tsmqr,
    tsqrt,
    ttmqr,
    ttqrt,
)
from repro.util import ShapeError


def larfg(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """``(beta, v, tau)`` of the reflector GEQRT computes for one column.

    ``dgeqrt`` on an ``(n, 1)`` tile is one LAPACK ``dlarfg``: ``beta``
    lands on the diagonal, ``v`` below it, and ``tau`` in ``T``.
    """
    a = np.array(x, dtype=np.float64)[:, None]
    t = geqrt(a, 1)
    return a[0, 0], a[1:, 0], t[0, 0]


def reflector_matrix(v_tail: np.ndarray, tau: float, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[0] = 1.0
    v[1 : 1 + len(v_tail)] = v_tail
    return np.eye(n) - tau * np.outer(v, v)


class TestLarfg:
    """The elementary reflector (``dlarfg``) inside the GEQRT kernel."""

    def test_annihilates_tail(self, rng):
        x = rng.standard_normal(7)
        beta, v, tau = larfg(x)
        h = reflector_matrix(v, tau, 7)
        hx = h @ x
        assert hx[0] == pytest.approx(beta)
        np.testing.assert_allclose(hx[1:], 0.0, atol=1e-13)

    def test_norm_preserved(self, rng):
        x = rng.standard_normal(5)
        beta, _, _ = larfg(x)
        assert abs(beta) == pytest.approx(np.linalg.norm(x))

    def test_orthogonality(self, rng):
        x = rng.standard_normal(6)
        _, v, tau = larfg(x)
        h = reflector_matrix(v, tau, 6)
        np.testing.assert_allclose(h @ h.T, np.eye(6), atol=1e-13)

    def test_zero_tail_identity(self):
        beta, v, tau = larfg(np.array([3.0, 0.0, 0.0]))
        assert tau == 0.0
        assert beta == 3.0
        np.testing.assert_array_equal(v, 0.0)

    def test_sign_avoids_cancellation(self):
        beta, _, _ = larfg(np.array([5.0, 1e-8]))
        assert beta < 0  # beta takes the opposite sign of alpha

    def test_length_one(self):
        beta, v, tau = larfg(np.array([2.0]))
        assert (beta, tau) == (2.0, 0.0)
        assert v.size == 0


class TestGeqrt:
    @pytest.mark.parametrize("m,n,ib", [(8, 8, 2), (8, 8, 8), (20, 12, 3), (12, 20, 4), (7, 3, 1)])
    def test_factorization(self, rng, m, n, ib):
        a0 = rng.standard_normal((m, n))
        a = a0.copy()
        t = geqrt(a, ib)
        k = min(m, n)
        assert t.shape == (ib, k)
        c = a0.copy()
        ormqr(a, t, c, trans=True)
        # Q^T A must equal the stored R (upper trapezoid), zeros elsewhere.
        np.testing.assert_allclose(np.triu(c[:k, :]), np.triu(a)[:k, :], atol=1e-12)
        np.testing.assert_allclose(np.tril(c[:k, :], -1), 0.0, atol=1e-12)
        if m > k:
            np.testing.assert_allclose(c[k:, :], 0.0, atol=1e-12)

    def test_q_orthogonal(self, rng):
        a = rng.standard_normal((12, 8))
        t = geqrt(a, 4)
        q = np.eye(12)
        ormqr(a, t, q, trans=False)
        np.testing.assert_allclose(q.T @ q, np.eye(12), atol=1e-12)

    def test_r_matches_lapack_up_to_sign(self, rng):
        a0 = rng.standard_normal((16, 8))
        a = a0.copy()
        geqrt(a, 4)
        r_ours = np.abs(np.triu(a)[:8, :])
        r_np = np.abs(np.linalg.qr(a0, mode="r"))
        np.testing.assert_allclose(r_ours, r_np, atol=1e-12)

    def test_q_qt_inverse(self, rng):
        a = rng.standard_normal((10, 6))
        t = geqrt(a, 3)
        c0 = rng.standard_normal((10, 4))
        c = c0.copy()
        ormqr(a, t, c, trans=True)
        ormqr(a, t, c, trans=False)
        np.testing.assert_allclose(c, c0, atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            geqrt(rng.standard_normal(5), 2)
        a = rng.standard_normal((8, 8))
        t = geqrt(a, 4)
        with pytest.raises(ShapeError):
            ormqr(a, t, np.zeros((7, 3)))  # wrong row count


class TestTsqrt:
    @pytest.mark.parametrize("k,m2,ib", [(8, 8, 2), (8, 8, 8), (8, 3, 4), (12, 12, 3)])
    def test_eliminates_second_tile(self, rng, k, m2, ib):
        r0 = np.triu(rng.standard_normal((k, k)))
        b0 = rng.standard_normal((m2, k))
        r, b = r0.copy(), b0.copy()
        t = tsqrt(r, b, ib)
        c1, c2 = r0.copy(), b0.copy()
        tsmqr(b, t, c1, c2, trans=True)
        np.testing.assert_allclose(np.triu(c1), np.triu(r), atol=1e-12)
        np.testing.assert_allclose(c2, 0.0, atol=1e-12)

    def test_below_diagonal_untouched(self, rng):
        """The pivot's strictly-lower storage holds other reflectors."""
        r = rng.standard_normal((8, 8))
        low0 = np.tril(r, -1).copy()
        b = rng.standard_normal((8, 8))
        tsqrt(r, b, 4)
        np.testing.assert_array_equal(np.tril(r, -1), low0)

    def test_q_orthogonal(self, rng):
        k, m2 = 6, 6
        r = np.triu(rng.standard_normal((k, k)))
        b = rng.standard_normal((m2, k))
        t = tsqrt(r, b, 3)
        c1 = np.hstack([np.eye(k), np.zeros((k, m2))])
        c2 = np.hstack([np.zeros((m2, k)), np.eye(m2)])
        tsmqr(b, t, c1, c2, trans=False)
        q = np.vstack([c1, c2])
        np.testing.assert_allclose(q.T @ q, np.eye(k + m2), atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            tsqrt(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)), 2)
        with pytest.raises(ShapeError):
            tsqrt(np.eye(4), rng.standard_normal((4, 3)), 2)

    def test_tsmqr_shape_checks(self, rng):
        r = np.triu(rng.standard_normal((4, 4)))
        b = rng.standard_normal((4, 4))
        t = tsqrt(r, b, 2)
        with pytest.raises(ShapeError):
            tsmqr(b, t, np.zeros((2, 3)), np.zeros((4, 3)))  # c1 too short
        with pytest.raises(ShapeError):
            tsmqr(b, t, np.zeros((4, 3)), np.zeros((5, 3)))  # c2 mismatch


class TestTtqrt:
    @pytest.mark.parametrize("k,m2,ib", [(8, 8, 2), (8, 8, 8), (8, 5, 4), (9, 9, 3)])
    def test_eliminates_triangle(self, rng, k, m2, ib):
        r1_0 = np.triu(rng.standard_normal((k, k)))
        r2_0 = np.triu(rng.standard_normal((m2, k)))
        r1, r2 = r1_0.copy(), r2_0.copy()
        t = ttqrt(r1, r2, ib)
        c1, c2 = r1_0.copy(), r2_0.copy()
        ttmqr(r2, t, c1, c2, trans=True)
        np.testing.assert_allclose(np.triu(c1), np.triu(r1), atol=1e-12)
        np.testing.assert_allclose(c2, 0.0, atol=1e-12)

    def test_preserves_triangularity_of_v2(self, rng):
        r1 = np.triu(rng.standard_normal((8, 8)))
        r2 = np.triu(rng.standard_normal((8, 8)))
        ttqrt(r1, r2, 4)
        np.testing.assert_array_equal(np.tril(r2, -1), 0.0)

    def test_lower_storage_of_both_tiles_untouched(self, rng):
        """Regression: TT kernels must mask the foreign reflector storage."""
        r1 = rng.standard_normal((8, 8))
        r2 = rng.standard_normal((8, 8))
        low1, low2 = np.tril(r1, -1).copy(), np.tril(r2, -1).copy()
        t = ttqrt(r1, r2, 4)
        np.testing.assert_array_equal(np.tril(r1, -1), low1)
        np.testing.assert_array_equal(np.tril(r2, -1), low2)
        # ... and the apply must ignore it too: two tiles whose triu parts
        # agree but whose lower junk differs must produce identical updates.
        c1a, c2a = np.ones((8, 4)), np.ones((8, 4))
        c1b, c2b = np.ones((8, 4)), np.ones((8, 4))
        r2_clean = np.triu(r2)
        ttmqr(r2, t, c1a, c2a, trans=True)
        ttmqr(r2_clean, t, c1b, c2b, trans=True)
        np.testing.assert_array_equal(c1a, c1b)
        np.testing.assert_array_equal(c2a, c2b)

    def test_q_orthogonal(self, rng):
        k = 6
        r1 = np.triu(rng.standard_normal((k, k)))
        r2 = np.triu(rng.standard_normal((k, k)))
        t = ttqrt(r1, r2, 3)
        c1 = np.hstack([np.eye(k), np.zeros((k, k))])
        c2 = np.hstack([np.zeros((k, k)), np.eye(k)])
        ttmqr(r2, t, c1, c2, trans=False)
        q = np.vstack([c1, c2])
        np.testing.assert_allclose(q.T @ q, np.eye(2 * k), atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            ttqrt(np.eye(4), np.zeros((5, 4)), 2)  # r2 taller than r1
        with pytest.raises(ShapeError):
            ttqrt(np.zeros((4, 5)), np.zeros((4, 5)), 2)  # r1 not square


# A NaN with a payload: overwriting it with any computed NaN changes its bits.
SENTINEL = np.array([0x7FF8DEAD0000BEEF], dtype=np.uint64).view(np.float64)[0]


def _lay(x: np.ndarray, layout: str) -> np.ndarray:
    """``x`` copied into ``layout``: ``"C"`` or ``"F"`` order, or ``"F-block"``,
    the top-left block of a larger Fortran tile (how ragged pivots and TT
    blocks reach a kernel).  ``"F"`` runs LAPACK in place; the other two
    take the copy fallback."""
    if layout == "F-block":
        tile = np.full((x.shape[0] + 3, x.shape[1] + 2), SENTINEL, order="F")
        tile[: x.shape[0], : x.shape[1]] = x
        return tile[: x.shape[0], : x.shape[1]]
    return np.array(x, order=layout)


def _plant(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill ``a[mask]`` with the sentinel; return a copy of the filled array."""
    a[mask] = SENTINEL
    return a.copy()


def _sentinels_intact(a: np.ndarray, before: np.ndarray, mask: np.ndarray) -> bool:
    return np.array_equal(a[mask].view(np.uint64), before[mask].view(np.uint64))


class TestStorageRegions:
    """Each wrapper reads and writes only the storage region it owns.

    NaN sentinels fill the bytes another reflector owns (``vlow`` below the
    pivot's diagonal, the strictly-lower part of a TT block); the outputs
    must stay finite and equal to a run on clean input, and the sentinels
    must come back bit-unchanged.  This is the region model
    :mod:`repro.analysis.races` certifies schedules with.  Operands here
    are C-order arrays, which take the copy fallback;
    :class:`TestStorageRegionsFortran` reruns every case on column-major
    tiles and blocks of them.
    """

    @pytest.fixture
    def layout(self) -> str:
        return "C"

    @pytest.mark.parametrize("trans", [True, False])
    def test_ormqr_reads_only_vlow(self, rng, trans, layout):
        v = _lay(rng.standard_normal((8, 8)), layout)
        t = geqrt(v, 4)
        upper = ~np.tri(8, 8, -1, dtype=bool)
        c0 = rng.standard_normal((8, 5))
        clean = _lay(c0, layout)
        ormqr(v, t, clean, trans=trans)
        before = _plant(v, upper)  # R triangle, diagonal included
        c = _lay(c0, layout)
        ormqr(v, t, c, trans=trans)
        assert _sentinels_intact(v, before, upper)
        np.testing.assert_array_equal(c, clean)

    @pytest.mark.parametrize("k,m2,ib", [(8, 8, 4), (8, 3, 4), (5, 7, 8)])
    def test_tsqrt_leaves_vlow_of_r(self, rng, k, m2, ib, layout):
        r0, a0 = np.triu(rng.standard_normal((k, k))), rng.standard_normal((m2, k))
        r_clean, a_clean = _lay(r0, layout), _lay(a0, layout)
        t_clean = tsqrt(r_clean, a_clean, ib)
        vlow = np.tri(k, k, -1, dtype=bool)
        r, a2 = _lay(r0, layout), _lay(a0, layout)
        before = _plant(r, vlow)
        t = tsqrt(r, a2, ib)
        assert _sentinels_intact(r, before, vlow)
        np.testing.assert_array_equal(r[~vlow], r_clean[~vlow])
        np.testing.assert_array_equal(a2, a_clean)
        np.testing.assert_array_equal(t, t_clean)
        assert np.isfinite(t).all() and np.isfinite(a2).all()

    @pytest.mark.parametrize("k,m2,ib", [(8, 8, 4), (8, 5, 4), (7, 3, 16)])
    def test_ttqrt_stays_in_rtri_and_ttop(self, rng, k, m2, ib, layout):
        r1_0 = np.triu(rng.standard_normal((k, k)))
        r2_0 = np.triu(rng.standard_normal((m2, k)))
        r1_clean, r2_clean = _lay(r1_0, layout), _lay(r2_0, layout)
        t_clean = ttqrt(r1_clean, r2_clean, ib)
        low1, low2 = np.tri(k, k, -1, dtype=bool), np.tri(m2, k, -1, dtype=bool)
        r1, r2 = _lay(r1_0, layout), _lay(r2_0, layout)
        before1, before2 = _plant(r1, low1), _plant(r2, low2)
        t = ttqrt(r1, r2, ib)
        assert _sentinels_intact(r1, before1, low1)
        assert _sentinels_intact(r2, before2, low2)
        np.testing.assert_array_equal(r1[~low1], r1_clean[~low1])
        np.testing.assert_array_equal(r2[~low2], r2_clean[~low2])
        np.testing.assert_array_equal(t, t_clean)
        assert np.isfinite(t).all()

    @pytest.mark.parametrize("kernel", [tsqrt, ttqrt])
    def test_write_back_spares_a_concurrent_vlow_writer(self, rng, monkeypatch,
                                                        kernel, layout):
        """Another op may write ``vlow`` while this one runs (the certifier
        lets region-disjoint ops overlap): no stale bytes may land there."""
        k, m2 = 8, 5
        r = _lay(np.triu(rng.standard_normal((k, k))), layout)
        b = _lay(np.triu(rng.standard_normal((m2, k))), layout)
        low_r, low_b = np.tri(k, k, -1, dtype=bool), np.tri(m2, k, -1, dtype=bool)
        real = lapack._dtpqrt

        def racing(*args, **kw):
            out = real(*args, **kw)
            r[low_r] = SENTINEL
            if kernel is ttqrt:
                b[low_b] = SENTINEL
            return out

        monkeypatch.setattr(lapack, "_dtpqrt", racing)
        kernel(r, b, 4)
        assert np.isnan(r[low_r]).all()
        if kernel is ttqrt:
            assert np.isnan(b[low_b]).all()

    @pytest.mark.parametrize("trans", [True, False])
    @pytest.mark.parametrize("m2", [8, 5])
    def test_ttmqr_reads_only_ttop(self, rng, trans, m2, layout):
        k = 8
        r1 = _lay(np.triu(rng.standard_normal((k, k))), layout)
        v2 = _lay(np.triu(rng.standard_normal((m2, k))), layout)
        t = ttqrt(r1, v2, 4)
        c1_0, c2_0 = rng.standard_normal((k, 6)), rng.standard_normal((m2, 6))
        c1_clean, c2_clean = _lay(c1_0, layout), _lay(c2_0, layout)
        ttmqr(v2, t, c1_clean, c2_clean, trans=trans)
        low = np.tri(m2, k, -1, dtype=bool)
        before = _plant(v2, low)
        c1, c2 = _lay(c1_0, layout), _lay(c2_0, layout)
        ttmqr(v2, t, c1, c2, trans=trans)
        assert _sentinels_intact(v2, before, low)
        np.testing.assert_array_equal(c1, c1_clean)
        np.testing.assert_array_equal(c2, c2_clean)

    @pytest.mark.parametrize("update", [tsmqr, ttmqr])
    def test_pair_updates_leave_c1_rows_past_k(self, rng, update, layout):
        k = 6
        r = _lay(np.triu(rng.standard_normal((k, k))), layout)
        v2 = _lay(np.triu(rng.standard_normal((k, k))), layout)
        t = (tsqrt if update is tsmqr else ttqrt)(r, v2, 3)
        c1 = _lay(rng.standard_normal((k + 3, 4)), layout)
        c2 = _lay(rng.standard_normal((k, 4)), layout)
        tail = np.zeros(c1.shape, dtype=bool)
        tail[k:] = True
        before = _plant(c1, tail)
        update(v2, t, c1, c2)
        assert _sentinels_intact(c1, before, tail)
        assert np.isfinite(c1[:k]).all() and np.isfinite(c2).all()

    def test_geqrt_pads_t_rows_when_ib_exceeds_k(self, rng, layout):
        a = _lay(rng.standard_normal((12, 5)), layout)
        t = geqrt(a, 8)
        assert t.shape == (8, 5)
        np.testing.assert_array_equal(t[5:], 0.0)
        assert np.all(np.diag(t[:5]) != 0.0)


class TestStorageRegionsFortran(TestStorageRegions):
    """The same region checks with LAPACK updating column-major tiles in
    place (``F``) and on blocks of such tiles (``F-block``)."""

    @pytest.fixture(params=["F", "F-block"])
    def layout(self, request) -> str:
        return request.param


# -- in place on Fortran-order tiles ----------------------------------------

#: Leading outputs of each LAPACK routine that overwrite an operand.
_OVERWRITTEN = {"_dgeqrt": 1, "_dgemqrt": 1, "_dtpqrt": 2, "_dtpmqrt": 2}


@pytest.fixture
def lapack_outputs(monkeypatch):
    """Record, per LAPACK call, the arrays it returned for its overwritten operands."""
    calls: list[tuple] = []
    for name, n_out in _OVERWRITTEN.items():
        real = getattr(lapack, name)

        def spy(*args, _real=real, _n=n_out, **kw):
            out = _real(*args, **kw)
            calls.append(out[:_n])
            return out

        monkeypatch.setattr(lapack, name, spy)
    return calls


def _kernel_case(kind: str, order: str):
    """Run one kernel on fresh operands in ``order``.

    Returns ``(operands the kernel overwrites, T or None)``.  The inputs
    depend only on ``kind``, so two orders give comparable results.
    """
    rng = np.random.default_rng(7)
    k, q, ib = 8, 5, 4

    def arr(x):
        return np.array(x, order=order)

    if kind == "GEQRT":
        a = arr(rng.standard_normal((k, k)))
        return [a], geqrt(a, ib)
    if kind == "ORMQR":
        v = arr(rng.standard_normal((k, k)))
        t = geqrt(v, ib)
        c = arr(rng.standard_normal((k, q)))
        ormqr(v, t, c)
        return [c], None
    tt = kind in ("TTQRT", "TTMQR")
    r = arr(np.triu(rng.standard_normal((k, k))))
    b = rng.standard_normal((k, k))
    b = arr(np.triu(b) if tt else b)
    t = (ttqrt if tt else tsqrt)(r, b, ib)
    if kind in ("TSQRT", "TTQRT"):
        return [r, b], t
    c1, c2 = arr(rng.standard_normal((k, q))), arr(rng.standard_normal((k, q)))
    (ttmqr if tt else tsmqr)(b, t, c1, c2)
    return [c1, c2], None


KINDS = ("GEQRT", "ORMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR")


class TestInPlace:
    """F-contiguous operands go to LAPACK as is and come back mutated in place."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_fortran_operands_are_overwritten_in_place(self, lapack_outputs, kind):
        operands, _ = _kernel_case(kind, "F")
        outputs = lapack_outputs[-1]
        assert len(outputs) == len(operands)
        for out, operand in zip(outputs, operands):
            # Same buffer (TSMQR/TTMQR pass ``c1[:k]``, a view of ``c1``).
            assert np.shares_memory(out, operand)
            assert out.ctypes.data == operand.ctypes.data

    @pytest.mark.parametrize("kind", KINDS)
    def test_c_order_fallback_is_bit_identical(self, lapack_outputs, kind):
        f_operands, f_t = _kernel_case(kind, "F")
        c_operands, c_t = _kernel_case(kind, "C")
        # The fallback hands LAPACK copies, then writes their results back.
        for out, operand in zip(lapack_outputs[-1], c_operands):
            assert not np.shares_memory(out, operand)
        for f_op, c_op in zip(f_operands, c_operands):
            assert c_op.flags.c_contiguous
            np.testing.assert_array_equal(f_op.view(np.uint64), c_op.view(np.uint64))
        if f_t is not None:
            np.testing.assert_array_equal(f_t.view(np.uint64), c_t.view(np.uint64))

    def test_fallback_writes_only_into_the_block(self, rng):
        """A ragged block view never spills into the rest of its tile."""
        v, c, r, a2 = (
            _lay(x, "F-block") for x in (
                rng.standard_normal((5, 5)), rng.standard_normal((5, 3)),
                np.triu(rng.standard_normal((5, 5))), rng.standard_normal((5, 5)),
            )
        )
        blocks = (v, c, r, a2)
        before = [x.base.copy() for x in blocks]
        ormqr(v, geqrt(v, 4), c)
        tsqrt(r, a2, 4)
        for x, tile_before in zip(blocks, before):
            outside = np.ones(x.base.shape, dtype=bool)
            outside[: x.shape[0], : x.shape[1]] = False
            assert _sentinels_intact(x.base, tile_before, outside)

    @pytest.mark.parametrize("kind", ("GEQRT", "TSQRT", "TTQRT"))
    def test_t_is_lapacks_own_array_when_nb_equals_ib(self, kind):
        _, t = _kernel_case(kind, "F")
        assert t.shape == (4, 8)
        assert t.flags.f_contiguous
