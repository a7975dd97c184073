"""Amortized session throughput: warm ``QRSession.factor`` vs one-shot calls.

The tall-skinny batch regime factors the *same* configuration over and
over; a :class:`repro.QRSession` amortises everything that does not depend
on the matrix values — worker spawn, shared-memory attach, op-DAG and
wavefront derivation (see ``docs/sessions.md``).  This benchmark measures
the amortization on a repeated workload: ``calls`` one-shot
``qr_factor(backend="parallel")`` invocations versus one cold
``session.factor`` followed by ``calls`` warm ones, reporting per-call
wall time, calls/s, and the per-call ``spawn_s`` evidence (warm calls must
show ``spawn_s ~ 0``).  Factors are verified bit-identical to the serial
reference throughout.

Standalone (the acceptance configuration — repeated 2048x256, nb=64 — is
the default)::

    python benchmarks/bench_session.py
    python benchmarks/bench_session.py --m 1024 --n 128 --calls 8

The standalone run appends a trajectory entry to ``results/BENCH_qr.json``
(same schema as ``tools/bench_gate.py``) and writes the full report to
``results/BENCH_session.json``.  Under pytest it runs a tiny smoke
configuration that still exercises the real pool.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import QRSession, qr_factor
from repro.perf.bench import _git_commit, append_entry, host_fingerprint
from repro.qr.parallel import default_n_procs
from repro.tiles import random_dense

_RESULTS = Path(__file__).resolve().parent.parent / "results"
_DEFAULT_OUT = _RESULTS / "BENCH_session.json"
_DEFAULT_TRAJECTORY = _RESULTS / "BENCH_qr.json"


def run_session_bench(
    *,
    m: int = 2048,
    n: int = 256,
    nb: int = 64,
    ib: int = 16,
    tree: str = "hier",
    h: int = 2,
    procs: int | None = None,
    calls: int = 8,
    seed: int = 0,
) -> dict:
    """Time repeated one-shot vs warm-session factorizations; return report.

    The baseline is repeated one-shot ``qr_factor(backend="parallel")`` —
    spawn + attach + schedule derivation on every call.  Against it, three
    warm rows share one session's cached plan, DAG, wavefronts, arena, and
    pool: pooled parallel dispatch of whole wavefront slices, pooled
    parallel dispatch with the default op batching, and the single-thread
    batched executor on the cached wavefront partition.  The headline
    ``amortized_speedup`` takes the fastest warm row — which one wins is a
    host property (the pooled rows on multi-core hosts, where eliminated
    spawn/attach stacks on real parallelism; the batched row on
    single-core hosts, where extra processes only add IPC) — and the
    per-row times let the contributions be told apart.
    """
    # A session needs a pool to amortise; never benchmark the n_procs=1
    # serial fallback against itself.
    procs = max(2, procs or default_n_procs())
    a = random_dense(m, n, seed=seed)
    kw = dict(nb=nb, ib=ib, tree=tree, h=h)
    ref = qr_factor(a, **kw)  # serial ground truth for bit-exactness

    def timed(fn):
        t0 = time.perf_counter()
        f = fn()
        return time.perf_counter() - t0, f

    # -- repeated one-shot calls (the baseline the session must beat) ------
    oneshot_times, oneshot_spawn = [], []
    exact = True
    for _ in range(calls):
        dt, f = timed(lambda: qr_factor(a, **kw, backend="parallel", n_procs=procs))
        oneshot_times.append(dt)
        oneshot_spawn.append(f.stats.spawn_s)
        exact = exact and bool(np.array_equal(f.R, ref.R))

    # -- one session: cold call, then warm calls ---------------------------
    with QRSession(n_procs=procs) as sess:
        warm_kw = dict(kw, batch="wavefront")
        cold_s, f = timed(lambda: sess.factor(a, **warm_kw))
        cold_spawn = f.stats.spawn_s
        exact = exact and bool(np.array_equal(f.R, ref.R))

        warm_times, warm_spawn = [], []
        for _ in range(calls):
            dt, f = timed(lambda: sess.factor(a, **warm_kw))
            warm_times.append(dt)
            warm_spawn.append(f.stats.spawn_s)
            exact = exact and bool(np.array_equal(f.R, ref.R))

        # Warm calls with the default dispatch batch: same pool/arena/DAG
        # reuse, no wavefront slices.
        warm_default_times = []
        for _ in range(calls):
            dt, f = timed(lambda: sess.factor(a, **kw))
            warm_default_times.append(dt)
            exact = exact and bool(np.array_equal(f.R, ref.R))

        # Warm single-thread batched calls: no pool, but the cached
        # wavefront partition feeds the wavefront executor directly.
        warm_batched_times = []
        for _ in range(calls):
            dt, f = timed(lambda: sess.factor(a, **kw, backend="batched"))
            warm_batched_times.append(dt)
            exact = exact and bool(np.array_equal(f.R, ref.R))
        cache_stats = sess.plan_cache.stats

    oneshot_s = min(oneshot_times)
    rows = {
        "parallel_wavefront": min(warm_times),
        "parallel_default": min(warm_default_times),
        "batched": min(warm_batched_times),
    }
    best_backend = min(rows, key=rows.get)
    warm_s = rows[best_backend]
    return {
        "config": dict(m=m, n=n, nb=nb, ib=ib, tree=tree, h=h, procs=procs,
                       calls=calls, seed=seed),
        "host": host_fingerprint(),
        "oneshot": {
            "seconds_per_call": oneshot_s,
            "calls_per_s": 1.0 / oneshot_s,
            "spawn_s": oneshot_spawn,
        },
        "session": {
            "cold_seconds": cold_s,
            "cold_spawn_s": cold_spawn,
            "warm_seconds_per_call": rows["parallel_wavefront"],
            "warm_calls_per_s": 1.0 / rows["parallel_wavefront"],
            "warm_spawn_s": warm_spawn,
            "warm_default_batch_seconds_per_call": rows["parallel_default"],
            "warm_batched_seconds_per_call": rows["batched"],
            "best_warm_backend": best_backend,
            "best_warm_seconds_per_call": warm_s,
            "best_warm_calls_per_s": 1.0 / warm_s,
            "plan_cache": {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "evictions": cache_stats.evictions,
            },
        },
        "amortized_speedup": oneshot_s / warm_s,
        "max_warm_spawn_s": max(warm_spawn),
        "bit_identical": exact,
    }


def trajectory_entry(report: dict) -> dict:
    """A ``results/BENCH_qr.json``-schema entry for this session workload."""
    cfg = report["config"]
    oneshot = report["oneshot"]["seconds_per_call"]
    warm = report["session"]["best_warm_seconds_per_call"]
    return {
        "written": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit": _git_commit(),
        "host": report["host"],
        "config": {k: cfg[k] for k in ("m", "n", "nb", "ib", "tree", "h", "procs")},
        "measured": {
            "parallel_s": round(oneshot, 6),
            "session_warm_s": round(warm, 6),
            "parallel_mode": "parallel",
        },
        "counters": {},
        "derived": {
            "session_speedup": round(oneshot / warm, 3),
            "session_warm_backend": report["session"]["best_warm_backend"],
            "max_warm_spawn_s": round(report["max_warm_spawn_s"], 6),
        },
    }


def _print_report(report: dict) -> None:
    one, ses = report["oneshot"], report["session"]
    print(f"one-shot parallel  {one['seconds_per_call']:.4f} s/call "
          f"({one['calls_per_s']:.2f} calls/s, spawn {min(one['spawn_s']):.4f} s)")
    print(f"session cold       {ses['cold_seconds']:.4f} s "
          f"(spawn {ses['cold_spawn_s']:.4f} s)")
    print(f"session warm, parallel wavefront  {ses['warm_seconds_per_call']:.4f} s/call "
          f"({ses['warm_calls_per_s']:.2f} calls/s, "
          f"spawn <= {report['max_warm_spawn_s']:.4f} s)")
    print(f"session warm, parallel default    "
          f"{ses['warm_default_batch_seconds_per_call']:.4f} s/call")
    print(f"session warm, batched             "
          f"{ses['warm_batched_seconds_per_call']:.4f} s/call")
    print(f"plan cache         {ses['plan_cache']}")
    print(f"amortized speedup  {report['amortized_speedup']:.2f}x "
          f"(best warm row: {ses['best_warm_backend']} at "
          f"{ses['best_warm_seconds_per_call']:.4f} s/call vs one-shot parallel)")
    print(f"bit-identical factors: {report['bit_identical']}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--m", type=int, default=2048)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--nb", type=int, default=64)
    p.add_argument("--ib", type=int, default=16)
    p.add_argument("--tree", default="hier")
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--procs", type=int, default=None,
                   help="pool size (default: max(2, CPUs))")
    p.add_argument("--calls", type=int, default=8,
                   help="repeated factorizations per variant")
    p.add_argument("--out", type=Path, default=_DEFAULT_OUT)
    p.add_argument("--trajectory", default=str(_DEFAULT_TRAJECTORY),
                   help="BENCH_qr.json trajectory to append to ('' skips)")
    args = p.parse_args(argv)

    report = run_session_bench(
        m=args.m, n=args.n, nb=args.nb, ib=args.ib, tree=args.tree, h=args.h,
        procs=args.procs, calls=args.calls,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if args.trajectory:
        append_entry(Path(args.trajectory), trajectory_entry(report))
    _print_report(report)
    print(f"wrote {args.out}")
    return 0 if report["bit_identical"] else 1


def test_session_bench_smoke(tmp_path):
    """Tiny-size smoke: bit-exact, warm calls skip spawn, JSON written."""
    report = run_session_bench(m=480, n=96, nb=16, ib=8, h=2, procs=2, calls=2)
    out = tmp_path / "BENCH_session.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    assert report["bit_identical"]
    assert report["session"]["plan_cache"]["misses"] == 1
    assert report["session"]["plan_cache"]["hits"] >= 3 * report["config"]["calls"]
    # Warm leases reuse live workers: no process spawn, only pipe messages.
    assert report["max_warm_spawn_s"] < min(0.05, report["session"]["cold_spawn_s"])
    entry = trajectory_entry(report)
    assert set(entry["measured"]) >= {"parallel_s", "session_warm_s"}


if __name__ == "__main__":
    raise SystemExit(main())
