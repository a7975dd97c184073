"""Workload geometry, seeded inputs, and the benchmark's calls into the program.

Each workload is one matrix geometry under the paper's hierarchical tree.
Inputs come only from ``(seed, index)``: the same seed gives the same
sequence of matrices.  :class:`Calls` holds the seven end-to-end calls the
measured and the traced runs both make, so the two runs time exactly the
same entry points.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: SDC bit-flip rate of the guarded call (fixed by the benchmark definition).
FLIP_RATE = 0.01
#: Input index of the untimed warm-up round and of the set-up probes.
WARMUP_INDEX = 2**31
#: Backends timed per round, in the order a round runs them.
BACKENDS = ("serial", "batched", "parallel", "session", "pulsar", "guarded")


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises ``ImportError`` when the checkout has no program to measure
    (for instance a directory that holds only the benchmark).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
    return repro


def n_workers() -> int:
    """``P``: the usable CPU count (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int
    nb: int
    ib: int
    h: int
    rhs: int  # right-hand-side columns of the solve; 1 means a single vector

    def factor_kwargs(self) -> dict:
        return dict(nb=self.nb, ib=self.ib, tree="hier", h=self.h)

    def inputs(self, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``index``-th fresh ``(A, B)`` pair of a run seeded ``seed``.

        ``A`` is a Gaussian matrix scaled by ``1/sqrt(m)`` plus ``3`` on its
        leading diagonal, so its condition number stays below about 5 for
        every geometry, square ones included; the accuracy checks can then
        use tolerances of the form ``c * eps * n``.
        """
        rng = np.random.default_rng([seed, index])
        a = rng.standard_normal((self.m, self.n)) / np.sqrt(self.m)
        a += 3.0 * np.eye(self.m, self.n)
        shape = (self.m,) if self.rhs == 1 else (self.m, self.rhs)
        return a, rng.standard_normal(shape)

    def n_ops(self) -> int:
        """Length of the op list one factorization of this geometry runs."""
        from repro.qr import expand_plans
        from repro.tiles.layout import TileLayout
        from repro.trees import plan_all_panels

        layout = TileLayout(self.m, self.n, self.nb)
        plans = plan_all_panels("hier", layout.mt, layout.nt, h=self.h)
        return len(expand_plans(layout, plans))


#: The workloads; ``perfbench/README.md`` gives the reason for each.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall_skinny", 4096, 256, 64, 16, 4, 16),
        Workload("wide_update", 1024, 1024, 64, 16, 4, 64),
        Workload("small_burst", 512, 64, 32, 8, 2, 1),
    )
}


class Calls:
    """The end-to-end calls of one workload, bound to one open session.

    Every ``factor`` call returns the :class:`~repro.QRFactorization` and
    reads ``R`` from it, so R extraction is part of each timed call.
    """

    def __init__(self, wl: Workload, seed: int, procs: int, session):
        from repro import FaultPlan

        self.wl = wl
        self.procs = procs
        self.session = session
        self.fault_plan = FaultPlan(seed=seed, flip_rate=FLIP_RATE)
        self.every_ops = max(1, wl.n_ops() // 2)
        self.ckpt_path = SCRATCH / f"guarded-{os.getpid()}.ckpt"
        #: CheckpointStore of the last guarded call (its write counters).
        self.last_store = None

    def factor(self, backend: str, a: np.ndarray):
        from repro import qr_factor

        kw = self.wl.factor_kwargs()
        if backend == "serial":
            f = qr_factor(a, backend="serial", **kw)
        elif backend == "batched":
            f = qr_factor(a, backend="batched", **kw)
        elif backend == "parallel":
            f = qr_factor(a, backend="parallel", n_procs=self.procs, **kw)
        elif backend == "session":
            f = self.session.factor(a, **kw)
        elif backend == "pulsar":
            f = qr_factor(a, backend="pulsar", n_nodes=self.procs,
                          workers_per_node=1, **kw)
        elif backend == "guarded":
            from repro.qr.persist import CheckpointStore

            # A count cadence only: a time cadence would make the number
            # of writes, and so the timing, depend on the host's speed.
            self.last_store = CheckpointStore(
                self.ckpt_path, every_ops=self.every_ops, every_s=1e9)
            f = qr_factor(a, backend="serial", checkpoint=self.last_store,
                          fault_plan=self.fault_plan, **kw)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        return f, f.R
