"""Mid-run checkpoint/resume: bit-exactness across aborts and backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.qr import CheckpointStore, resume_factorization
from repro.qr.api import qr_factor
from repro.tiles import random_dense
from repro.util import ConfigurationError

KW = dict(nb=8, ib=4, tree="hier", h=3)


class Abort(Exception):
    """Raised from ``on_write`` to kill a run at a known-good instant."""


def _abort_after(n_writes: int):
    def on_write(writes: int) -> None:
        if writes >= n_writes:
            raise Abort

    return on_write


def _interrupted_checkpoint(tmp_path, a, *, backend, every_ops=10, **extra):
    """Run until the first snapshot lands, then abort; return the archive."""
    path = tmp_path / "run.ckpt.npz"
    ck = CheckpointStore(path, every_ops=every_ops, on_write=_abort_after(1))
    with pytest.raises(Abort):
        qr_factor(a, **KW, backend=backend, checkpoint=ck, **extra)
    assert path.exists()
    return path


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "backend,extra",
        [
            ("serial", {}),
            ("batched", {}),
            ("parallel", {"n_procs": 2}),
            ("parallel", {"n_procs": 2, "batch": "wavefront"}),
        ],
        ids=["serial", "batched", "parallel", "parallel-wavefront"],
    )
    def test_aborted_run_resumes_bit_exact(self, tmp_path, small_matrix, backend, extra):
        clean = qr_factor(small_matrix, **KW)
        path = _interrupted_checkpoint(
            tmp_path, small_matrix, backend=backend, **extra
        )
        f = resume_factorization(path, backend=backend, **{
            k: v for k, v in extra.items() if k != "batch"
        })
        assert f.ops_skipped >= 1
        np.testing.assert_array_equal(clean.R, f.R)

    @pytest.mark.parametrize(
        "backend,extra",
        [
            ("serial", {}),
            ("batched", {}),
            ("parallel", {"n_procs": 2}),
            ("parallel", {"n_procs": 2, "batch": "wavefront"}),
        ],
        ids=["serial", "batched", "parallel", "parallel-wavefront"],
    )
    def test_every_snapshot_advances_the_frontier(self, tmp_path, backend, extra):
        """One archive per distinct frontier: the executors' closing
        snapshot is skipped when the cadence already wrote the full run."""
        from repro.qr import persist

        a = random_dense(48, 24, seed=5)
        clean = qr_factor(a, **KW)
        n_ops = int(round(clean.counters["ops.total"]))
        assert n_ops % 2 == 0
        path = tmp_path / "c.npz"
        done_counts = []

        def on_write(writes: int) -> None:
            arrays = persist._read_archive(path, persist._FMT_CHECKPOINT)
            done_counts.append(int(arrays["__done__"].sum()))

        ck = CheckpointStore(path, every_ops=n_ops // 2, on_write=on_write)
        qr_factor(a, **KW, backend=backend, checkpoint=ck, **extra)
        assert ck.writes == len(done_counts)
        assert all(x < y for x, y in zip(done_counts, done_counts[1:]))
        assert done_counts[-1] == n_ops
        if backend in ("serial", "batched"):
            assert done_counts == [n_ops // 2, n_ops]
        f = resume_factorization(path)
        assert f.ops_skipped == n_ops
        np.testing.assert_array_equal(clean.R, f.R)

    def test_resume_backend_need_not_match_original(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW)
        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        for backend, extra in (
            ("batched", {}),
            ("parallel", {"n_procs": 2}),
        ):
            f = resume_factorization(path, backend=backend, **extra)
            assert f.ops_skipped >= 1
            np.testing.assert_array_equal(clean.R, f.R)

    def test_checkpointed_run_is_bit_exact_with_plain(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW)
        ck = CheckpointStore(tmp_path / "c.npz", every_ops=7)
        f = qr_factor(small_matrix, **KW, checkpoint=ck)
        assert ck.writes >= 2 and ck.bytes_written > 0
        np.testing.assert_array_equal(clean.R, f.R)

    def test_resume_from_completed_run_skips_everything(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW, checkpoint=tmp_path / "c.npz")
        f = resume_factorization(tmp_path / "c.npz")
        assert f.ops_skipped == int(round(clean.counters["ops.total"]))
        np.testing.assert_array_equal(clean.R, f.R)

    def test_resumed_run_keeps_checkpointing(self, tmp_path, small_matrix):
        clean = qr_factor(small_matrix, **KW)
        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        skipped_first = resume_factorization(path).ops_skipped
        # Resume *with* continued checkpointing, abort again mid-way, and
        # resume once more: the frontier must have advanced.
        ck = CheckpointStore(path, every_ops=10, on_write=_abort_after(2))
        with pytest.raises(Abort):
            resume_factorization(path, checkpoint=ck)
        f = resume_factorization(path)
        assert f.ops_skipped > skipped_first
        np.testing.assert_array_equal(clean.R, f.R)

    def test_every_prefix_frontier_resumes_bit_exact(self, tmp_path, small_matrix):
        """Sweep abort points: any predecessor-closed frontier must resume
        to the same bits (the acceptance sweep, serial for speed)."""
        clean = qr_factor(small_matrix, **KW)
        n_ops = int(round(clean.counters["ops.total"]))
        for every in (1, n_ops // 4, n_ops // 2, n_ops - 1):
            path = _interrupted_checkpoint(
                tmp_path, small_matrix, backend="serial", every_ops=max(1, every)
            )
            f = resume_factorization(path)
            assert f.ops_skipped >= 1
            np.testing.assert_array_equal(clean.R, f.R)
            path.unlink()

    def test_checkpoint_counters_and_stats(self, tmp_path, small_matrix):
        from repro.obs import recording
        from repro.obs.record import (
            K_CKPT_BYTES,
            K_CKPT_WRITES,
            K_RESUME_SKIPPED,
        )

        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        with recording() as rec:
            f = resume_factorization(path)
        assert rec.counters.get(K_RESUME_SKIPPED, 0) == f.ops_skipped >= 1
        with recording() as rec:
            qr_factor(small_matrix, **KW, checkpoint=tmp_path / "c2.npz")
        assert rec.counters.get(K_CKPT_WRITES, 0) >= 1
        assert rec.counters.get(K_CKPT_BYTES, 0) > 0

    def test_checkpoint_path_coercion_and_validation(self, tmp_path, small_matrix):
        # A bare path is coerced to a CheckpointStore with defaults.
        f = qr_factor(small_matrix, **KW, checkpoint=str(tmp_path / "c.npz"))
        assert (tmp_path / "c.npz").exists()
        np.testing.assert_array_equal(
            qr_factor(small_matrix, **KW).R, f.R
        )
        with pytest.raises(ConfigurationError, match="checkpoint"):
            qr_factor(small_matrix, **KW, checkpoint=42)
        with pytest.raises(ConfigurationError, match="pulsar"):
            qr_factor(
                small_matrix, **KW, backend="pulsar", n_nodes=2,
                workers_per_node=2, checkpoint=str(tmp_path / "c.npz"),
            )
        with pytest.raises(ConfigurationError, match="every_ops"):
            CheckpointStore(tmp_path / "c.npz", every_ops=0)
        with pytest.raises(ConfigurationError, match="every_s"):
            CheckpointStore(tmp_path / "c.npz", every_s=0.0)
        # Non-integer counts and non-numeric periods are rejected, not
        # truncated or coerced.
        for bad in (2.5, True, "3", None):
            with pytest.raises(ConfigurationError, match="every_ops"):
                CheckpointStore(tmp_path / "c.npz", every_ops=bad)
        for bad in ("3", None, True, float("nan"), -1.0):
            with pytest.raises(ConfigurationError, match="every_s"):
                CheckpointStore(tmp_path / "c.npz", every_s=bad)
        # An infinite period is a count-only cadence.
        ck = CheckpointStore(tmp_path / "c.npz", every_ops=np.int64(4),
                             every_s=float("inf"))
        assert (ck.every_ops, ck.every_s) == (4, float("inf"))

    def test_resume_rejects_bad_backend(self, tmp_path, small_matrix):
        path = _interrupted_checkpoint(tmp_path, small_matrix, backend="serial")
        with pytest.raises(ConfigurationError, match="pulsar"):
            resume_factorization(path, backend="pulsar")

    def test_checkpoint_under_sdc_faults(self, tmp_path, small_matrix):
        """Checkpoint + SDC guard compose: flips are repaired before the
        frontier is snapshotted, so the resumed bits stay clean."""
        from repro.faults import FaultPlan

        clean = qr_factor(small_matrix, **KW)
        plan = FaultPlan(seed=17, flip_rate=0.25)
        path = tmp_path / "c.npz"
        ck = CheckpointStore(path, every_ops=10, on_write=_abort_after(1))
        with pytest.raises(Abort):
            qr_factor(small_matrix, **KW, fault_plan=plan, checkpoint=ck)
        f = resume_factorization(path, fault_plan=plan)
        assert f.ops_skipped >= 1
        np.testing.assert_array_equal(clean.R, f.R)
