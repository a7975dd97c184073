"""Execution-backend wall-clock comparison: serial vs batched vs pulsar vs parallel.

The paper's thesis is that a lightweight runtime turns the tile-QR DAG into
hardware utilisation; for the *real-numerics* backends that only holds if
the executor escapes the GIL.  The single-threaded ``batched`` backend runs
the DAG wavefront by wavefront on the same LAPACK kernels.  This benchmark times the functional
backends on one tall-skinny problem, verifies they produce bit-identical
factors, and records the result in ``BENCH_backend.json`` so the perf
trajectory of the real-numerics path is tracked across changes.

Standalone (the acceptance configuration is the default)::

    python benchmarks/bench_backend.py                      # m=16384 n=512 nb=128
    python benchmarks/bench_backend.py --m 2048 --n 256 --procs 4 --out BENCH.json

Under pytest it runs a tiny smoke configuration that still exercises real
multiprocessing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import qr_factor
from repro.qr.parallel import default_n_procs
from repro.tiles import random_dense

_DEFAULT_OUT = Path(__file__).resolve().parent.parent / "results" / "BENCH_backend.json"


def run_backend_bench(
    *,
    m: int = 16384,
    n: int = 512,
    nb: int = 128,
    ib: int = 32,
    tree: str = "hier",
    h: int = 6,
    procs: int | None = None,
    policy: str = "lazy",
    skip_pulsar: bool = False,
    seed: int = 0,
) -> dict:
    """Time each backend once on the same matrix; return the report dict."""
    procs = procs or default_n_procs()
    a = random_dense(m, n, seed=seed)
    kw = dict(nb=nb, ib=ib, tree=tree, h=h)

    t0 = time.perf_counter()
    ser = qr_factor(a, **kw, backend="serial")
    serial_s = time.perf_counter() - t0

    report: dict = {
        "config": {"m": m, "n": n, "nb": nb, "ib": ib, "tree": tree, "h": h,
                   "procs": procs, "policy": policy, "seed": seed},
        "host": {"cpu_count": os.cpu_count() or 1, "python": sys.version.split()[0]},
        "serial": {"seconds": serial_s},
    }

    t0 = time.perf_counter()
    bat = qr_factor(a, **kw, backend="batched")
    batched_s = time.perf_counter() - t0
    report["batched"] = {
        "seconds": batched_s,
        "speedup_vs_serial": serial_s / batched_s,
    }

    if not skip_pulsar:
        t0 = time.perf_counter()
        pul = qr_factor(a, **kw, backend="pulsar", n_nodes=1, workers_per_node=procs)
        pulsar_s = time.perf_counter() - t0
        report["pulsar"] = {
            "seconds": pulsar_s,
            "workers": procs,
            "firings": pul.stats.firings,
            "speedup_vs_serial": serial_s / pulsar_s,
        }

    t0 = time.perf_counter()
    par = qr_factor(a, **kw, backend="parallel", n_procs=procs, policy=policy)
    parallel_s = time.perf_counter() - t0
    st = par.stats
    report["parallel"] = {
        "seconds": parallel_s,
        "n_procs": st.n_procs,
        "mode": st.mode,
        "batch": st.batch,
        "tasks_per_s": st.tasks_per_s,
        "spawn_seconds": st.spawn_s,
        "dispatch_overhead": st.dispatch_overhead,
        "busy_fractions": {str(w): f for w, f in st.busy_fractions().items()},
        "speedup_vs_serial": serial_s / parallel_s,
    }

    identical = bool(
        np.array_equal(ser.R, par.R) and np.array_equal(ser.R, bat.R)
    )
    if not skip_pulsar:
        identical = identical and bool(np.array_equal(ser.R, pul.R))
    report["bit_identical"] = identical
    return report


def _write(report: dict, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--m", type=int, default=16384)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--nb", type=int, default=128)
    p.add_argument("--ib", type=int, default=32)
    p.add_argument("--tree", default="hier")
    p.add_argument("--h", type=int, default=6)
    p.add_argument("--procs", type=int, default=None, help="workers (default: CPUs)")
    p.add_argument("--policy", default="lazy", choices=("lazy", "aggressive"))
    p.add_argument("--skip-pulsar", action="store_true",
                   help="skip the threaded backend (slow at large sizes)")
    p.add_argument("--out", type=Path, default=_DEFAULT_OUT)
    args = p.parse_args(argv)

    report = run_backend_bench(
        m=args.m, n=args.n, nb=args.nb, ib=args.ib, tree=args.tree, h=args.h,
        procs=args.procs, policy=args.policy, skip_pulsar=args.skip_pulsar,
    )
    _write(report, args.out)

    print(f"serial    {report['serial']['seconds']:8.2f} s")
    bat = report["batched"]
    print(f"batched   {bat['seconds']:8.2f} s ({bat['speedup_vs_serial']:.2f}x)")
    if "pulsar" in report:
        print(f"pulsar    {report['pulsar']['seconds']:8.2f} s "
              f"({report['pulsar']['speedup_vs_serial']:.2f}x)")
    par = report["parallel"]
    print(f"parallel  {par['seconds']:8.2f} s ({par['speedup_vs_serial']:.2f}x, "
          f"{par['n_procs']} procs, {par['tasks_per_s']:.0f} tasks/s, mode={par['mode']})")
    print(f"bit-identical factors: {report['bit_identical']}")
    print(f"wrote {args.out}")
    return 0 if report["bit_identical"] else 1


def test_backend_smoke(tmp_path):
    """Tiny-size smoke: all backends agree and the JSON is written."""
    report = run_backend_bench(m=96, n=48, nb=16, ib=8, h=2, procs=2)
    out = tmp_path / "BENCH_backend.json"
    _write(report, out)
    assert out.exists()
    assert report["bit_identical"]
    assert report["parallel"]["tasks_per_s"] > 0
    assert report["batched"]["seconds"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
