"""Substrate benchmark E8 — time and rate of each LAPACK tile kernel.

These measure the real compute kernels (not the machine model), one call
on one ``nb x nb`` tile (pair) each, in µs and Gflop/s with the exact
:mod:`repro.kernels.flops` counts.  Useful for spotting regressions in the
kernel wrappers and for choosing ``nb``/``ib`` on the host running the
functional backends.

    PYTHONPATH=src python benchmarks/bench_kernels.py     # table, nb 64 128 192
    PYTHONPATH=src python benchmarks/bench_kernels.py --nb 64 --ib 16
    PYTHONPATH=src pytest benchmarks/bench_kernels.py --benchmark-only
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Pin BLAS to one thread before NumPy loads, as the repo benchmark does:
    # on a small host an unpinned OpenBLAS can stall a 64x64 call for
    # ~0.1 s while its threads wake.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.kernels import (  # noqa: E402
    geqrt,
    kernel_flops,
    ormqr,
    tsmqr,
    tsqrt,
    ttmqr,
    ttqrt,
)

KINDS = ("GEQRT", "ORMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR")
NB, IB = 128, 32


def kernel_call(kind: str, nb: int, ib: int, rng: np.random.Generator):
    """``(call, flops)``: a no-argument call of ``kind`` on fresh copies of
    random ``nb x nb`` operands, and the flops of one call.

    Operands are column-major like the executors' tiles
    (:mod:`repro.tiles.matrix`), so each call runs LAPACK in place and the
    rates match the traced ``kernel.<K>.gflops``, not the copy fallback.
    """
    def tile(x: np.ndarray) -> np.ndarray:
        return x.copy(order="F")

    a = tile(rng.standard_normal((nb, nb)))
    r = tile(np.triu(rng.standard_normal((nb, nb))))
    b = tile(rng.standard_normal((nb, nb)))
    c1 = tile(rng.standard_normal((nb, nb)))
    c2 = tile(rng.standard_normal((nb, nb)))
    flops = kernel_flops(kind, nb, nb, nb, ib)
    if kind == "GEQRT":
        return (lambda: geqrt(tile(a), ib)), flops
    if kind == "ORMQR":
        v = tile(a)
        t = geqrt(v, ib)
        return (lambda: ormqr(v, t, tile(c1))), flops
    if kind == "TSQRT":
        return (lambda: tsqrt(tile(r), tile(b), ib)), flops
    if kind == "TTQRT":
        r2 = tile(np.triu(b))
        return (lambda: ttqrt(tile(r), tile(r2), ib)), flops
    factor, update = (tsqrt, tsmqr) if kind == "TSMQR" else (ttqrt, ttmqr)
    v2 = tile(b if kind == "TSMQR" else np.triu(b))
    t = factor(tile(r), v2, ib)
    return (lambda: update(v2, t, tile(c1), tile(c2))), flops


def time_kernel(kind: str, nb: int, ib: int, *, min_s: float = 0.2) -> tuple[float, float]:
    """Best-of-5 ``(µs per call, Gflop/s)`` of ``kind`` on ``nb`` tiles."""
    call, flops = kernel_call(kind, nb, ib, np.random.default_rng(99))
    call()
    reps, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < min_s / 5:
        call()
        reps += 1
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6, flops / best / 1e9


@pytest.mark.parametrize("kind", KINDS)
def test_kernel(benchmark, kind):
    call, flops = kernel_call(kind, NB, IB, np.random.default_rng(99))
    benchmark.extra_info["flops"] = flops  # Gflop/s = flops / time / 1e9
    benchmark(call)


def test_kernel_flop_ratios():
    """The cost-model ratios behind the tree trade-off (no timing)."""
    ts = kernel_flops("TSQRT", NB, NB, 0, IB) + NB * kernel_flops("TSMQR", NB, NB, NB, IB)
    tt = kernel_flops("TTQRT", NB, NB, 0, IB) + NB * kernel_flops("TTMQR", NB, NB, NB, IB)
    # A TT elimination moves roughly half the flops of a TS elimination,
    # which is why the binary tree is viable despite slower TT kernels.
    assert 0.3 < tt / ts < 0.7


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--nb", type=int, nargs="+", default=[64, 128, 192])
    p.add_argument("--ib", type=int, default=16)
    args = p.parse_args(argv)
    print(f"{'kernel':<8}{'nb':>6}{'ib':>5}{'µs/call':>12}{'Gflop/s':>10}")
    for nb in args.nb:
        for kind in KINDS:
            us, gflops = time_kernel(kind, nb, args.ib)
            print(f"{kind:<8}{nb:>6}{args.ib:>5}{us:>12.1f}{gflops:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
