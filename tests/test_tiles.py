"""Unit tests for tile layout, storage, and generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tiles import (
    TileLayout,
    TileMatrix,
    graded_conditioned,
    least_squares_problem,
    random_dense,
    random_tall_skinny,
)
from repro.util import ConfigurationError, ShapeError


class TestTileLayout:
    def test_exact_division(self):
        lo = TileLayout(40, 24, 8)
        assert (lo.mt, lo.nt) == (5, 3)
        assert lo.tile_rows(4) == 8
        assert lo.tile_cols(2) == 8

    def test_ragged_edges(self):
        lo = TileLayout(37, 21, 8)
        assert (lo.mt, lo.nt) == (5, 3)
        assert lo.tile_rows(4) == 5
        assert lo.tile_cols(2) == 5
        assert lo.tile_shape(4, 2) == (5, 5)

    def test_spans_cover_matrix(self):
        lo = TileLayout(37, 21, 8)
        rows = sum(lo.tile_rows(i) for i in range(lo.mt))
        cols = sum(lo.tile_cols(j) for j in range(lo.nt))
        assert (rows, cols) == (37, 21)

    def test_row_span(self):
        lo = TileLayout(20, 10, 8)
        assert lo.row_span(2) == slice(16, 20)
        assert lo.col_span(1) == slice(8, 10)

    def test_tiles_enumeration(self):
        lo = TileLayout(16, 16, 8)
        assert lo.tiles() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_out_of_range(self):
        lo = TileLayout(16, 16, 8)
        with pytest.raises(ConfigurationError):
            lo.tile_rows(2)
        with pytest.raises(ConfigurationError):
            lo.tile_cols(-1)

    def test_nbytes(self):
        assert TileLayout(10, 10, 4).nbytes() == 800

    def test_single_tile(self):
        lo = TileLayout(5, 5, 8)
        assert (lo.mt, lo.nt) == (1, 1)
        assert lo.tile_shape(0, 0) == (5, 5)


class TestTileMatrix:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((37, 21))
        tm = TileMatrix.from_dense(a, 8)
        np.testing.assert_array_equal(tm.to_dense(), a)

    def test_from_dense_copies(self, rng):
        """Regression: full-width tiles must not alias the input array."""
        a = rng.standard_normal((16, 8))  # tiles span full rows
        tm = TileMatrix.from_dense(a, 8)
        tm.tile(0, 0)[0, 0] = 999.0
        assert a[0, 0] != 999.0

    def test_set_tile_copies(self, rng):
        tm = TileMatrix.zeros(16, 8, 8)
        block = rng.standard_normal((8, 8))
        tm.set_tile(1, 0, block)
        block[0, 0] = 123.0
        assert tm.tile(1, 0)[0, 0] != 123.0

    def test_set_tile_shape_check(self):
        tm = TileMatrix.zeros(16, 8, 8)
        with pytest.raises(ShapeError):
            tm.set_tile(0, 0, np.zeros((4, 4)))

    def test_zeros(self):
        tm = TileMatrix.zeros(10, 6, 4)
        assert tm.norm_fro() == 0.0
        assert tm.to_dense().shape == (10, 6)

    def test_norm_fro_matches_numpy(self, rng):
        a = rng.standard_normal((20, 12))
        tm = TileMatrix.from_dense(a, 8)
        assert tm.norm_fro() == pytest.approx(np.linalg.norm(a))

    def test_copy_is_deep(self, rng):
        tm = TileMatrix.from_dense(rng.standard_normal((16, 8)), 8)
        cp = tm.copy()
        cp.tile(0, 0)[0, 0] = 7.0
        assert tm.tile(0, 0)[0, 0] != 7.0

    def test_iter_tiles_order(self):
        tm = TileMatrix.zeros(16, 16, 8)
        coords = [(i, j) for i, j, _ in tm.iter_tiles()]
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_upper_triangular_extracts_r(self, rng):
        a = rng.standard_normal((24, 16))
        tm = TileMatrix.from_dense(a, 8)
        r = tm.upper_triangular()
        assert r.shape == (16, 16)
        np.testing.assert_array_equal(r, np.triu(r))
        # Entries of the strictly-upper tiles must be preserved verbatim.
        assert r[0, 15] == a[0, 15]

    def test_grid_shape_validation(self):
        lo = TileLayout(16, 8, 8)
        with pytest.raises(ConfigurationError):
            TileMatrix(lo, [[np.zeros((8, 8))]])  # wrong row count


class TestGenerators:
    def test_random_dense_deterministic(self):
        np.testing.assert_array_equal(random_dense(5, 3, seed=1), random_dense(5, 3, seed=1))

    def test_random_dense_range(self):
        a = random_dense(50, 20, seed=2)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_random_tall_skinny_requires_tall(self):
        with pytest.raises(ConfigurationError):
            random_tall_skinny(5, 10, 4)

    def test_random_tall_skinny_shape(self):
        tm = random_tall_skinny(24, 8, 8, seed=0)
        assert (tm.m, tm.n, tm.nb) == (24, 8, 8)

    def test_graded_conditioned_condition_number(self):
        a = graded_conditioned(60, 10, cond=1e6, seed=3)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e6, rel=1e-6)

    def test_graded_conditioned_validation(self):
        with pytest.raises(ConfigurationError):
            graded_conditioned(10, 20, cond=10.0)
        with pytest.raises(ConfigurationError):
            graded_conditioned(20, 10, cond=0.5)

    def test_least_squares_problem_planted_solution(self):
        a, b, x = least_squares_problem(200, 10, noise=0.0, seed=4)
        np.testing.assert_allclose(a @ x, b)

    def test_least_squares_problem_noise(self):
        a, b, x = least_squares_problem(200, 10, noise=1e-3, seed=4)
        resid = np.linalg.norm(a @ x - b)
        assert 0.0 < resid < 1.0


def _all_fortran(tm: TileMatrix) -> bool:
    return all(t.flags.f_contiguous for _, _, t in tm.iter_tiles())


class TestFortranTileLayout:
    """Every tile source yields column-major tiles: the layout LAPACK's tile
    kernels update in place (:mod:`repro.kernels.lapack`)."""

    def test_from_dense_and_zeros(self, rng):
        a = rng.standard_normal((37, 21))
        assert _all_fortran(TileMatrix.from_dense(a, 8))
        assert _all_fortran(TileMatrix.from_dense(np.asfortranarray(a), 8))
        assert _all_fortran(TileMatrix.zeros(37, 21, 8))

    def test_single_column_tiles_do_not_alias(self, rng):
        a = rng.standard_normal((16, 1))  # each tile is already F-contiguous
        tm = TileMatrix.from_dense(a, 8)
        tm.tile(1, 0)[0, 0] = 999.0
        assert a[8, 0] != 999.0

    def test_set_tile_and_copy(self, rng):
        tm = TileMatrix.zeros(16, 8, 8)
        tm.set_tile(1, 0, rng.standard_normal((8, 8)))  # a C-order value
        assert tm.tile(1, 0).flags.f_contiguous
        assert _all_fortran(tm.copy())

    def test_shared_store_views_and_extract(self, rng):
        from repro.qr.ops import expand_plans
        from repro.tiles.shared import SharedTileStore
        from repro.trees.plan import plan_all_panels

        tm = TileMatrix.from_dense(rng.standard_normal((40, 24)), 8)
        ops = expand_plans(tm.layout, plan_all_panels("hier", tm.mt, tm.nt, h=2))
        store = SharedTileStore.create(tm, ops, 4)
        try:
            for i, j, _ in tm.iter_tiles():
                assert store.tile(i, j).flags.f_contiguous
            assert all(t.flags.f_contiguous for t in store.extract_ts().values())
            out = store.extract_matrix()
            assert _all_fortran(out)
            np.testing.assert_array_equal(out.to_dense(), tm.to_dense())
        finally:
            store.close()
            store.unlink()

    def test_pulsar_preload_keeps_layout(self, rng):
        from repro.qr.vsa3d import build_qr_vsa
        from repro.trees.plan import plan_all_panels

        tm = TileMatrix.from_dense(rng.standard_normal((40, 24)), 8)
        arr = build_qr_vsa(tm, plan_all_panels("hier", tm.mt, tm.nt, h=2), ib=4)
        preloads = arr.vsa._preloads
        assert len(preloads) == tm.mt * tm.nt  # every tile enters in panel 0
        for _, _, packet in preloads:
            assert packet.data.flags.f_contiguous
            assert not any(np.shares_memory(packet.data, t) for _, _, t in tm.iter_tiles())

    def test_fabric_payload_copy_keeps_layout(self, rng):
        from repro.netsim.fabric import _copy_payload

        tile = np.asfortranarray(rng.standard_normal((8, 8)))
        v, t = _copy_payload(("TS", tile, tile[:4], 3))[1:3]
        assert v.flags.f_contiguous and not np.shares_memory(v, tile)
        np.testing.assert_array_equal(v, tile)
        np.testing.assert_array_equal(t, tile[:4])

    def test_resumed_and_loaded_matrices(self, tmp_path, rng):
        from repro.qr import CheckpointStore, load_factorization, resume_factorization
        from repro.qr import save_factorization
        from repro.qr.api import qr_factor

        class Abort(Exception):
            pass

        def abort(writes: int) -> None:
            raise Abort

        a = rng.standard_normal((40, 24))
        path = tmp_path / "run.ckpt.npz"
        with pytest.raises(Abort):
            qr_factor(a, nb=8, ib=4, tree="hier", h=3,
                      checkpoint=CheckpointStore(path, every_ops=10, on_write=abort))
        f = resume_factorization(path)
        assert f.ops_skipped >= 1
        assert _all_fortran(f._factors.a)
        assert all(r.t.flags.f_contiguous for r in f._factors.records)
        np.testing.assert_array_equal(f.R, qr_factor(a, nb=8, ib=4, tree="hier", h=3).R)
        save_factorization(tmp_path / "f.npz", f)
        loaded = load_factorization(tmp_path / "f.npz")
        assert _all_fortran(loaded._factors.a)
        np.testing.assert_array_equal(loaded.R, f.R)
