"""API surface tests and failure-injection paths not covered elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import QRFactorization, qr_factor
from repro.pulsar import VDP, VSA, Packet
from repro.tiles import random_dense
from repro.util import ChannelError, ConfigurationError, ShapeError


class TestTopLevelPackage:
    def test_lazy_exports(self):
        assert repro.qr_factor is qr_factor
        assert repro.QRFactorization is QRFactorization
        assert callable(repro.lstsq)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestQRFactorizationSurface:
    @pytest.fixture(scope="class")
    def fac(self):
        a = random_dense(40, 24, seed=50)
        return a, qr_factor(a, nb=8, ib=4, tree="hier", h=3)

    def test_shape(self, fac):
        _, f = fac
        assert f.shape == (40, 24)

    def test_tree_and_backend_metadata(self, fac):
        _, f = fac
        assert f.tree.value == "hier"
        assert f.backend == "serial"
        assert f.stats is None

    def test_pulsar_backend_has_stats(self):
        a = random_dense(24, 16, seed=51)
        f = qr_factor(a, nb=8, ib=4, backend="pulsar", workers_per_node=2)
        assert f.stats is not None and f.stats.firings > 0

    def test_residuals_rejects_bad_shape(self, fac):
        _, f = fac
        with pytest.raises(ShapeError):
            f.residuals(np.zeros(5))

    def test_vector_vs_matrix_apply(self, fac):
        a, f = fac
        v = np.ones(40)
        out_vec = f.qt_matmul(v)
        out_mat = f.qt_matmul(v[:, None])
        assert out_vec.ndim == 1
        np.testing.assert_array_equal(out_vec, out_mat[:, 0])

    def test_integer_input_coerced(self):
        a = np.arange(48).reshape(12, 4) % 7 + np.eye(12, 4)
        f = qr_factor(a, nb=4, ib=2, tree="flat")
        assert f.residuals(np.asarray(a, dtype=float))["factorization"] < 1e-13


class TestNonFiniteInput:
    """NaN/Inf fails at the API instead of coming back as a non-finite R."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf])
    def bad(self, request):
        a = random_dense(64, 16, seed=52)
        a[3, 2] = request.param
        return a

    def test_qr_factor_rejects(self, bad):
        with pytest.raises(ConfigurationError, match=r"A\[3, 2\]"):
            qr_factor(bad, nb=16, ib=4)

    def test_qr_factor_rejects_tile_matrix(self, bad):
        from repro.tiles import TileMatrix

        with pytest.raises(ConfigurationError, match=r"A\[3, 2\]"):
            qr_factor(TileMatrix.from_dense(bad, 16), ib=4)

    def test_lstsq_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            repro.lstsq(bad, np.ones(64), nb=16, ib=4)

    def test_session_factor_rejects(self, bad):
        with repro.QRSession(n_procs=2) as sess:
            with pytest.raises(ConfigurationError):
                sess.factor(bad, nb=16, ib=4)


class TestFailureInjection:
    def test_oversized_packet_fails_loudly(self):
        """A write exceeding the declared channel size aborts the run."""

        def src(vdp):
            vdp.write(0, Packet.of(np.zeros(1024)))  # 8 KiB >> 64 B

        def sink(vdp):  # pragma: no cover - never fires
            vdp.read(0)

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, max_bytes=64)
        with pytest.raises(ChannelError, match="exceeds channel maximum"):
            vsa.run(deadlock_timeout=5)

    def test_read_from_wrong_slot_fails_loudly(self):
        def src(vdp):
            vdp.write(0, Packet.of(1))

        def sink(vdp):
            vdp.read(3)  # no such slot

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, max_bytes=64)
        with pytest.raises(Exception, match="no input channel"):
            vsa.run(deadlock_timeout=5)

    def test_double_pop_fails_loudly(self):
        def src(vdp):
            vdp.write(0, Packet.of(1))

        def sink(vdp):
            vdp.read(0)
            vdp.read(0)  # queue now empty

        vsa = VSA()
        vsa.add_vdp(VDP((0,), 1, src, n_out=1))
        vsa.add_vdp(VDP((1,), 1, sink, n_in=1))
        vsa.connect((0,), 0, (1,), 0, max_bytes=64)
        with pytest.raises(ChannelError, match="empty"):
            vsa.run(deadlock_timeout=5)


class TestTraceGantt:
    def test_gantt_has_one_lane_per_worker(self):
        from repro.experiments import scaled, trace_gantt

        txt = trace_gantt(scaled(32), workers_shown=6, width=50)
        lanes = [line for line in txt.splitlines() if "|" in line]
        assert len(lanes) == 6
