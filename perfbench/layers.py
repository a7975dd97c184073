"""Per-layer timing from outside the program.

:class:`Tracer` replaces public functions of each layer (module attributes
and class attributes, looked up by the program at call time) with timing
wrappers for the duration of a traced round, and restores them after.  A
wrapper records nothing unless a phase is set, so calls made between the
timed calls (the output checks) pass straight through.

Spans are aggregated in memory per ``(phase, name)``: calls, busy time,
the part of that time covered by nested traced calls on the same thread
(``child``), and a work count (flops, ops, bytes, ...).  Self time is busy
minus child.  :func:`layer_metrics` turns one round's aggregates and the
stats objects the calls returned into the per-layer metrics.

No recorder inside the program is used: ``qr_factor(trace=...)`` stays off.
"""

from __future__ import annotations

import inspect
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

KINDS = ("GEQRT", "ORMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR")
PANEL = ("GEQRT", "TSQRT", "TTQRT")
UPDATE = ("ORMQR", "TSMQR", "TTMQR")


@dataclass
class Agg:
    calls: int = 0
    busy: float = 0.0
    child: float = 0.0
    work: float = 0.0

    @property
    def self_s(self) -> float:
        return self.busy - self.child


class Tracer:
    """Timing wrappers around layer entry points, aggregated per phase."""

    def __init__(self):
        self.phase: str | None = None
        self.agg: dict[tuple[str, str], Agg] = {}
        #: Return values of targets registered with ``keep=True``.
        self.kept: dict[tuple[str, str], list] = {}
        self._targets: list[tuple[object, str, str, object, bool]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, owner, attr: str, name: str, work=None, keep=False) -> None:
        """Time ``owner.attr`` as span ``name`` while installed.

        ``work(args, result)`` gives the span's work count; ``keep``
        retains each result (for objects built inside the program whose
        counters are read afterwards).
        """
        self._targets.append((owner, attr, name, work, keep))

    @contextmanager
    def installed(self):
        for owner, attr, name, work, keep in self._targets:
            raw = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._wrap(raw.__func__, name, work, keep)))
            else:
                setattr(owner, attr, self._wrap(raw, name, work, keep))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, raw = self._saved.pop()
                setattr(owner, attr, raw)

    @contextmanager
    def in_phase(self, phase: str):
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None

    def take(self) -> tuple[dict, dict]:
        """Return and reset the aggregates and kept results."""
        agg, kept = self.agg, self.kept
        self.agg, self.kept = {}, {}
        return agg, kept

    def _wrap(self, fn, name, work, keep):
        tracer = self

        def traced(*args, **kw):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kw)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]  # time of nested traced calls
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                dur = perf_counter() - t0
                stack.pop()
            if stack:
                stack[-1][0] += dur
            w = work(args, out) if work is not None else 0
            with tracer._lock:
                a = tracer.agg.setdefault((phase, name), Agg())
                a.calls += 1
                a.busy += dur
                a.child += frame[0]
                a.work += w
                if keep:
                    tracer.kept.setdefault((phase, name), []).append(out)
            return out

        return traced


def standard_tracer() -> Tracer:
    """A tracer over every layer the per-layer metrics read."""
    import scipy.linalg

    import repro.kernels as kernels
    import repro.kernels.batched as stacked
    from repro.kernels import flops as fl
    from repro.qr import api, checksum, persist, reference, wavefront
    from repro.tiles import matrix

    # Exact flops of one scalar kernel call, from its operand shapes (the
    # same formulas repro.kernels.flops assigns the matching op).
    kernel_flops = {
        "GEQRT": lambda a: fl.geqrt_flops(a[0].shape[0], a[0].shape[1], a[1]),
        "ORMQR": lambda a: fl.ormqr_flops(a[0].shape[0], min(a[0].shape),
                                          a[2].shape[1], a[1].shape[0]),
        "TSQRT": lambda a: fl.tsqrt_flops(a[0].shape[0], a[1].shape[0], a[2]),
        "TSMQR": lambda a: fl.tsmqr_flops(a[0].shape[1], a[0].shape[0],
                                          a[2].shape[1], a[1].shape[0]),
        "TTQRT": lambda a: fl.ttqrt_flops(a[0].shape[0], a[2]),
        "TTMQR": lambda a: fl.ttmqr_flops(a[0].shape[1], a[2].shape[1],
                                          a[1].shape[0]),
    }
    t = Tracer()
    for kind in KINDS:
        t.add(kernels, kind.lower(), f"kernel.{kind}",
              work=lambda args, out, f=kernel_flops[kind]: f(args))
        t.add(stacked, f"{kind.lower()}_batched", f"batched.{kind}",
              work=lambda args, out: args[0].shape[0])
    t.add(api, "execute_ops", "serial.exec")
    t.add(wavefront, "execute_ops_batched", "batched.exec")
    t.add(api, "plan_all_panels", "plan.build")
    t.add(api, "expand_plans", "plan.build", work=lambda args, out: len(out))
    t.add(wavefront, "op_dependency_graph", "dag.build",
          work=lambda args, out: len(out.succ_task))
    t.add(wavefront, "compute_wavefronts", "wavefront.build",
          work=lambda args, out: len(out))
    t.add(matrix.TileMatrix, "from_dense", "tiles.copy_in",
          work=lambda args, out: args[1].nbytes)
    t.add(matrix.TileMatrix, "upper_triangular", "tiles.copy_out",
          work=lambda args, out: out.nbytes)
    t.add(checksum, "tile_checksum", "checksum")
    t.add(reference, "SDCGuard", "sdc.guard", keep=True)
    t.add(persist.CheckpointStore, "write", "ckpt.write")
    t.add(reference.TileQRFactors, "apply_qt", "solve.apply_qt")
    t.add(scipy.linalg, "solve_triangular", "solve.trsm")
    return t


# -- metrics -------------------------------------------------------------------

#: Per-layer metric name -> (unit, better).
METRICS: dict[str, tuple[str, str]] = {}
for _k in KINDS:
    METRICS[f"kernel.{_k}.calls"] = ("count", "lower")
    METRICS[f"kernel.{_k}.busy_s"] = ("s", "lower")
    METRICS[f"kernel.{_k}.gflops"] = ("Gflop/s", "higher")
METRICS["kernel.panel.busy_s"] = ("s", "lower")
METRICS["kernel.update.busy_s"] = ("s", "lower")
for _k in KINDS:
    METRICS[f"batched.{_k}.calls"] = ("count", "lower")
    METRICS[f"batched.{_k}.busy_s"] = ("s", "lower")
METRICS.update({
    "batched.ops_per_call": ("ops/call", "higher"),
    "batched.exec_s": ("s", "lower"),
    "batched.self_s": ("s", "lower"),
    "serial.exec_s": ("s", "lower"),
    "serial.self_s": ("s", "lower"),
    "plan.build_s": ("s", "lower"),
    "plan.ops": ("count", "lower"),
    "dag.build_s": ("s", "lower"),
    "dag.edges": ("count", "lower"),
    "wavefront.build_s": ("s", "lower"),
    "wavefront.count": ("count", "lower"),
    "tiles.copy_in_s": ("s", "lower"),
    "tiles.copy_out_s": ("s", "lower"),
    "tiles.bytes": ("B", "lower"),
})
for _p in ("parallel", "session"):
    METRICS.update({
        f"{_p}.spawn_s": ("s", "lower"),
        f"{_p}.dispatch_s": ("s", "lower"),
        f"{_p}.busy_s": ("s", "lower"),
        f"{_p}.idle_s": ("s", "lower"),
    })
METRICS.update({
    "parallel.ops_redispatched": ("count", "lower"),
    "parallel.workers_died": ("count", "lower"),
    "session.plan_hits": ("count", "higher"),
    "session.plan_misses": ("count", "lower"),
    "pulsar.firings": ("count", "lower"),
    "pulsar.messages": ("count", "lower"),
    "pulsar.bytes": ("B", "lower"),
    "pulsar.elapsed_s": ("s", "lower"),
    "pulsar.retransmits": ("count", "lower"),
    "checksum.calls": ("count", "lower"),
    "checksum.busy_s": ("s", "lower"),
    "sdc.injected": ("count", "higher"),
    "sdc.detected": ("count", "higher"),
    "sdc.recovered": ("count", "higher"),
    "ckpt.writes": ("count", "lower"),
    "ckpt.bytes": ("B", "lower"),
    "ckpt.write_s": ("s", "lower"),
    "solve.apply_qt_s": ("s", "lower"),
    "solve.trsm_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})

#: Counts that must repeat exactly between two traced passes of one seed.
REPEATED_COUNTS = (
    ["plan.ops", "dag.edges", "wavefront.count", "pulsar.firings",
     "sdc.injected", "sdc.detected", "sdc.recovered", "ckpt.writes"]
    + [f"kernel.{k}.calls" for k in KINDS]
    + [f"batched.{k}.calls" for k in KINDS]
)


def _pool_stats(prefix: str, stats) -> dict[str, float]:
    busy = stats.per_worker_busy_s
    return {
        f"{prefix}.spawn_s": stats.spawn_s,
        f"{prefix}.dispatch_s": stats.dispatch_s,
        f"{prefix}.busy_s": sum(busy.values()),
        f"{prefix}.idle_s": sum(stats.elapsed_s - b for b in busy.values()),
    }


def layer_metrics(agg: dict, kept: dict, stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (all but ``trace.overhead_frac``).

    ``stats`` holds the public objects the round's calls returned:
    ``parallel`` and ``session`` (``ParallelRunStats``), ``pulsar``
    (``RunStats``), ``store`` (the guarded call's ``CheckpointStore``) and
    ``plan_hits`` / ``plan_misses`` (the session plan cache's deltas).
    """
    def get(phase, name) -> Agg:
        return agg.get((phase, name), Agg())

    out: dict[str, float] = {}
    # Scalar kernels: one serial factorization plus one solve, both
    # single-threaded (pulsar's worker threads share the GIL, so their
    # kernel wall time is not kernel time).
    for k in KINDS:
        calls = flops = busy = 0.0
        for phase in ("serial", "solve"):
            a = get(phase, f"kernel.{k}")
            calls += a.calls
            busy += a.busy
            flops += a.work
        out[f"kernel.{k}.calls"] = calls
        out[f"kernel.{k}.busy_s"] = busy
        out[f"kernel.{k}.gflops"] = flops / busy / 1e9 if busy > 0 else 0.0
    out["kernel.panel.busy_s"] = sum(out[f"kernel.{k}.busy_s"] for k in PANEL)
    out["kernel.update.busy_s"] = sum(out[f"kernel.{k}.busy_s"] for k in UPDATE)

    stacked_calls = stacked_ops = 0.0
    for k in KINDS:
        a = get("batched", f"batched.{k}")
        out[f"batched.{k}.calls"] = a.calls
        out[f"batched.{k}.busy_s"] = a.busy
        stacked_calls += a.calls
        stacked_ops += a.work
    single = sum(get("batched", f"kernel.{k}").calls for k in KINDS)
    calls = stacked_calls + single
    out["batched.ops_per_call"] = (stacked_ops + single) / calls if calls else 0.0
    out["batched.exec_s"] = get("batched", "batched.exec").busy
    out["batched.self_s"] = get("batched", "batched.exec").self_s
    out["serial.exec_s"] = get("serial", "serial.exec").busy
    out["serial.self_s"] = get("serial", "serial.exec").self_s

    plan = get("serial", "plan.build")
    out["plan.build_s"] = plan.busy
    out["plan.ops"] = plan.work
    dag = get("batched", "dag.build")
    out["dag.build_s"] = dag.busy
    out["dag.edges"] = dag.work
    wf = get("batched", "wavefront.build")
    out["wavefront.build_s"] = wf.self_s  # the DAG it builds is dag.build_s
    out["wavefront.count"] = wf.work
    cin, cout = get("serial", "tiles.copy_in"), get("serial", "tiles.copy_out")
    out["tiles.copy_in_s"] = cin.busy
    out["tiles.copy_out_s"] = cout.busy
    out["tiles.bytes"] = cin.work + cout.work

    par = stats["parallel"]
    out.update(_pool_stats("parallel", par))
    out["parallel.ops_redispatched"] = par.ops_redispatched
    out["parallel.workers_died"] = par.workers_died
    out.update(_pool_stats("session", stats["session"]))
    out["session.plan_hits"] = stats["plan_hits"]
    out["session.plan_misses"] = stats["plan_misses"]

    pul = stats["pulsar"]
    out["pulsar.firings"] = pul.firings
    out["pulsar.messages"] = pul.messages_sent
    out["pulsar.bytes"] = pul.bytes_sent
    out["pulsar.elapsed_s"] = pul.elapsed_s
    out["pulsar.retransmits"] = pul.retransmits

    cs = get("guarded", "checksum")
    out["checksum.calls"] = cs.calls
    out["checksum.busy_s"] = cs.busy
    guards = kept.get(("guarded", "sdc.guard"), [])
    out["sdc.injected"] = sum(g.injected for g in guards)
    out["sdc.detected"] = sum(g.detected for g in guards)
    out["sdc.recovered"] = sum(g.recovered for g in guards)
    store = stats["store"]
    out["ckpt.writes"] = store.writes
    out["ckpt.bytes"] = store.bytes_written
    out["ckpt.write_s"] = get("guarded", "ckpt.write").busy

    out["solve.apply_qt_s"] = get("solve", "solve.apply_qt").busy
    out["solve.trsm_s"] = get("solve", "solve.trsm").busy
    return {k: float(v) for k, v in out.items()}


def attribution_problems(agg: dict) -> list[str]:
    """Check ``exec_s == kernel busy + self_s`` and ``self_s >= 0``.

    The kernel busy time is summed per span name; the exec span's child
    time comes from the nesting stack.  They agree only if every kernel
    call of the phase ran inside the exec span and nothing else did.  The
    batched exec span also holds its wavefront partition.
    """
    problems = []
    for phase, exec_name, children in (
        ("serial", "serial.exec", [f"kernel.{k}" for k in KINDS]),
        ("batched", "batched.exec",
         [f"kernel.{k}" for k in KINDS] + [f"batched.{k}" for k in KINDS]
         + ["wavefront.build"]),
    ):
        ex = agg.get((phase, exec_name), Agg())
        inner = sum(agg.get((phase, c), Agg()).busy for c in children)
        if ex.calls != 1:
            problems.append(f"{exec_name}: {ex.calls} calls, expected 1")
        if abs(ex.child - inner) > 1e-9 * max(1.0, ex.busy):
            problems.append(
                f"{exec_name}: nested time {ex.child:.6f}s != kernel busy "
                f"{inner:.6f}s")
        if ex.self_s < 0.0:
            problems.append(f"{exec_name}: self time {ex.self_s:.6f}s < 0")
    return problems
