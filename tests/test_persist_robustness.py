"""Hardened archive I/O: digests, truncation, tampering, torn writes."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.qr import (
    CheckpointStore,
    load_factorization,
    resume_factorization,
    save_factorization,
)
from repro.qr.api import qr_factor
from repro.util import ConfigurationError

KW = dict(nb=8, ib=4, tree="hier", h=3)


@pytest.fixture
def saved(tmp_path, small_matrix):
    """A factorization archive plus the factorization that produced it."""
    f = qr_factor(small_matrix, **KW)
    path = tmp_path / "f.npz"
    save_factorization(path, f)
    return path, f


@pytest.fixture
def checkpointed(tmp_path, small_matrix):
    """A completed-run checkpoint archive plus the clean factorization."""
    path = tmp_path / "c.npz"
    f = qr_factor(small_matrix, **KW, checkpoint=path)
    return path, f


def _arrays(path) -> dict:
    """Every entry of an ``.npz`` archive, materialised."""
    with np.load(path) as data:
        return {k: np.array(data[k]) for k in data.files}


def _resave_with_stale_digest(path, entry: str) -> None:
    """Re-save the archive with one element of ``entry`` changed.

    The old digest is kept, but ``np.savez`` writes fresh zip CRC-32s for
    the edited payload, so only the archive's own digest can notice.
    """
    arrays = _arrays(path)
    arrays[entry].flat[0] += 1
    np.savez(path, **arrays)


def _resave_as_version(path, version: int) -> None:
    """Re-save the archive stamped with ``version`` and a matching digest."""
    from repro.qr import persist

    arrays = _arrays(path)
    arrays["__meta__"][0] = version
    arrays["__digest__"] = persist._archive_digest(arrays)
    np.savez(path, **arrays)


class TestFactorizationArchive:
    def test_round_trip_is_bit_exact(self, saved, small_matrix):
        path, f = saved
        g = load_factorization(path)
        np.testing.assert_array_equal(f.R, g.R)
        np.testing.assert_array_equal(f.q_thin(), g.q_thin())

    def test_truncated_archive_rejected(self, saved):
        path, _ = saved
        raw = path.read_bytes()
        for keep in (len(raw) // 2, len(raw) - 7):
            path.write_bytes(raw[:keep])
            with pytest.raises(ConfigurationError, match="truncated|corrupt"):
                load_factorization(path)

    def test_bit_flipped_archive_rejected(self, saved):
        path, _ = saved
        raw = bytearray(path.read_bytes())
        # Flip one bit somewhere in the payload region (past the zip
        # headers): either decompression breaks or the digest catches it.
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigurationError):
            load_factorization(path)

    @pytest.mark.parametrize("entry", ["tile_1_2", "t_0"])
    def test_digest_covers_payload(self, saved, entry):
        path, _ = saved
        _resave_with_stale_digest(path, entry)
        with pytest.raises(ConfigurationError, match="failed its integrity check"):
            load_factorization(path)

    def test_version_2_archive_rejected(self, saved):
        path, _ = saved
        _resave_as_version(path, 2)
        with pytest.raises(ConfigurationError, match="format version 2"):
            load_factorization(path)

    def test_wrong_format_marker_rejected(self, saved, checkpointed, tmp_path):
        fact_path, _ = saved
        ckpt_path, _ = checkpointed
        with pytest.raises(ConfigurationError, match="qr-checkpoint"):
            load_factorization(ckpt_path)
        with pytest.raises(ConfigurationError, match="qr-factorization"):
            resume_factorization(fact_path)

    def test_legacy_archive_without_marker_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(
            path,
            __meta__=np.array([1, 40, 24, 8, 4]),
            __tree__=np.array(["hier"]),
        )
        with pytest.raises(ConfigurationError, match="format version"):
            load_factorization(path)

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_factorization(tmp_path / "nope.npz")

    def test_non_archive_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file at all")
        with pytest.raises(ConfigurationError, match="not a readable"):
            load_factorization(path)


class TestCheckpointArchive:
    def test_tampered_payload_rejected(self, checkpointed):
        path, _ = checkpointed
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigurationError):
            resume_factorization(path)

    @pytest.mark.parametrize("entry", ["__a__", "__t_data__"])
    def test_digest_covers_payload(self, checkpointed, entry):
        path, _ = checkpointed
        _resave_with_stale_digest(path, entry)
        with pytest.raises(ConfigurationError, match="failed its integrity check"):
            resume_factorization(path)

    def test_version_2_checkpoint_rejected(self, checkpointed):
        path, _ = checkpointed
        _resave_as_version(path, 2)
        with pytest.raises(ConfigurationError, match="format version 2"):
            resume_factorization(path)

    def test_truncated_checkpoint_rejected(self, checkpointed):
        path, _ = checkpointed
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(ConfigurationError, match="truncated|corrupt"):
            resume_factorization(path)

    def test_kill_mid_write_leaves_previous_snapshot(
        self, tmp_path, small_matrix, monkeypatch
    ):
        """A crash inside the serialize-and-replace window must leave the
        previous archive intact and loadable (atomic-write discipline)."""
        import repro.qr.persist as persist

        clean = qr_factor(small_matrix, **KW)
        path = tmp_path / "c.npz"
        ck = CheckpointStore(path, every_ops=10)
        # First snapshot lands normally...
        real_replace = os.replace
        calls = []

        def dying_replace(src, dst):
            calls.append(dst)
            if len(calls) >= 2:
                raise OSError("simulated crash mid-replace")
            return real_replace(src, dst)

        monkeypatch.setattr(persist.os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            qr_factor(small_matrix, **KW, checkpoint=ck)
        monkeypatch.setattr(persist.os, "replace", real_replace)
        # ...and the interrupted second write left it untouched: the
        # archive still verifies and resumes to the right bits.
        f = resume_factorization(path)
        assert f.ops_skipped >= 1
        np.testing.assert_array_equal(clean.R, f.R)
        # No temp-file litter either: the failed write cleaned up after itself.
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]

    def test_geometry_mismatch_rejected(self, checkpointed):
        path, _ = checkpointed
        with np.load(path) as data:
            arrays = {k: np.array(data[k]) for k in data.files}
        arrays["__meta__"][-1] += 1  # claim one more op than the planner makes
        del arrays["__digest__"]
        arrays["__digest__"] = __import__(
            "repro.qr.persist", fromlist=["_archive_digest"]
        )._archive_digest(arrays)
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="ops"):
            resume_factorization(path)
