"""Benchmark of the tile-QR library: end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload tall_skinny --seed 1 --seconds 50 --trace 0

One process is one closed-loop caller.  Each round draws a fresh input
pair from ``(seed, round)`` and makes back-to-back calls on it:
``serial``, ``batched``, ``parallel`` (one-shot), ``session`` (warm),
``pulsar``, ``guarded`` (serial with checkpoints and SDC bit flips), a
``solve`` on the serial factorization, and in measured runs ``parallel``
and ``session`` once more and ``solve`` three times more.  Rounds repeat
for ``--seconds``; every result is checked against LAPACK outside the
timed windows.

``--trace 0`` prints the end-to-end metrics: the median time of each call,
the median set-up time of fresh processes, peak RSS and the share of calls
that succeeded.  Times are scaled to a reference host speed by a
calibration loop run right before and after each call (see
``hostspeed.py``); the table also shows the median wall time as measured.

``--trace 1`` runs the same rounds with timing wrappers around each
layer's public functions (see ``layers.py``) and prints the per-layer
metrics; it runs its rounds twice with the same inputs and fails if any
count differs between the two passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
2, with no result line, when the checkout holds no program to measure.
"""

import os

# Pin BLAS to one thread before NumPy loads (here and in every child).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, NamedTuple  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import reaper  # noqa: E402
import workloads  # noqa: E402
from workloads import BACKENDS, WORKLOADS, Calls  # noqa: E402

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5
CALLS = BACKENDS + ("solve",)
#: Calls that run on the calling CPU alone; the others use every CPU.
ONE_CPU = ("serial", "batched", "guarded", "solve")
#: A measured round makes the two pool calls twice: their times spread
#: most from call to call, and they are cheap next to a pulsar call.  It
#: solves four times: a solve costs a few percent of a factorization, and
#: with one sample per round its median spread most from run to run.
MEASURED_ROUND = CALLS + ("parallel", "session") + ("solve",) * 3
#: End-to-end metric name -> unit.
END_TO_END = {f"{c}_s": "s" for c in CALLS}
END_TO_END.update(setup_s="s", peak_rss_mb="MiB", ok_ratio="ratio")


class Timed(NamedTuple):
    seconds: float  # wall time of the call
    cal_s: float  # calibration loop time around it (see ``calibrated``)
    result: Any

    @property
    def scaled(self) -> float:
        """Seconds at the reference host speed (see ``hostspeed``)."""
        return self.seconds * hostspeed.CAL_REF_S / self.cal_s


class Tally:
    """Attempted and failed calls, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def run_round(calls: Calls, a, b, ref: checks.Reference, tally: Tally,
              calibrate=None, around=lambda name: nullcontext(),
              names=CALLS, done=None) -> dict:
    """Make the round's calls on ``(a, b)``; check each result.

    Returns ``{call: [Timed, ...]}`` for the calls that passed; ``result``
    is ``(factorization, R)`` or the solve's ``x``.  A call that raised,
    failed its check, or left a thread running (which would slow the
    calibration loop) is tallied and left out.  ``calibrate`` (a
    ``hostspeed.Calibrator``) runs before and after each call; ``around``
    gives a context entered around each call (the tracer's phase);
    ``names`` and ``done`` let a round run in parts.
    """
    done = {} if done is None else done
    for name in names:
        tally.attempted += 1
        threads = threading.active_count()
        before = calibrate() if calibrate else None
        try:
            with around(name):
                t0 = perf_counter()
                if name == "solve":
                    if "serial" not in done:
                        raise RuntimeError("no serial factorization to solve with")
                    out = done["serial"][0].result[0].solve(b)
                else:
                    out = calls.factor(name, a)
                dt = perf_counter() - t0
        except Exception as exc:  # a failing call is a result, not a crash
            tally.fail(f"{name}: {type(exc).__name__}: {exc}")
            continue
        cal = calibrated(name, before, calibrate)
        if threading.active_count() > threads:
            tally.fail(f"{name}: left {threading.active_count() - threads} "
                       "thread(s) running")
            continue
        if name == "solve":
            ok, err = ref.x_ok(out), ref.x_error(out)
        else:
            ok, err = ref.r_ok(out[1]), ref.r_error(out[1])
        if not ok:
            tally.fail(f"{name}: relative error {err:.3e} above tolerance")
            continue
        done.setdefault(name, []).append(Timed(dt, cal, out))
    return done


def calibrated(name: str, before, calibrate) -> float:
    """The loop time a call is scaled by: the mean of the calibrations
    before and after it, on the calling CPU for a one-CPU call and over all
    CPUs otherwise; ``0.0`` when not calibrating."""
    if before is None:
        return 0.0
    after = calibrate()
    k = 0 if name in ONE_CPU else 1
    return (before[k] + after[k]) / 2.0


def rounds(seconds: float):
    """Yield round indices from 0 while one more round of median length
    ends closer to ``seconds`` after the first than stopping does, that
    is while half of it still fits; at least one round.  (Stopping when a
    whole round no longer fits left half a round of the time unused on
    average, and the big workloads run only five or six rounds.)"""
    t_end = perf_counter() + seconds
    lengths = []
    index = 0
    while True:
        t0 = perf_counter()
        yield index
        lengths.append(perf_counter() - t0)
        index += 1
        if perf_counter() + statistics.median(lengths) / 2 > t_end:
            return


# -- end-to-end run --------------------------------------------------------------


def measure(wl, seed: int, seconds: float, procs: int, tally: Tally,
            calibrate: hostspeed.Calibrator):
    """End-to-end samples ``{metric: [values]}``, and the unscaled wall
    times ``{metric: [seconds]}`` of the timed ones."""
    import repro

    samples = {m: [] for m in END_TO_END}
    walls = {m: [] for m, unit in END_TO_END.items() if unit == "s"}
    with repro.QRSession(n_procs=procs) as session:
        calls = Calls(wl, seed, procs, session)
        # Warm-up round, untimed: the session's cold call, lazy imports.
        a, b = wl.inputs(seed, workloads.WARMUP_INDEX)
        run_round(calls, a, b, checks.Reference(a, b), tally, calibrate)
        for index in rounds(seconds):
            a, b = wl.inputs(seed, index)
            done = run_round(calls, a, b, checks.Reference(a, b), tally,
                             calibrate, names=MEASURED_ROUND)
            for name, timed in done.items():
                samples[f"{name}_s"] += [t.scaled for t in timed]
                walls[f"{name}_s"] += [t.seconds for t in timed]
    # Read after the session's pool has been reaped, before the set-up
    # probes, so the largest child is a worker of this run.
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    samples["peak_rss_mb"].append(kib / 1024.0)
    for t in setup_probes(wl, seed, procs, tally, calibrate):
        samples["setup_s"].append(t.scaled)
        walls["setup_s"].append(t.seconds)
    samples["ok_ratio"].append((tally.attempted - tally.failed) / tally.attempted)
    return samples, walls


def setup_probes(wl, seed: int, procs: int, tally: Tally,
                 calibrate: hostspeed.Calibrator) -> list[Timed]:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    values = []
    for _ in range(SETUP_PROBES):
        tally.attempted += 1
        before = calibrate()
        # Its own session, so a probe that hangs is killed with its children.
        with subprocess.Popen(
            [sys.executable, str(probe), wl.name, str(seed), str(procs)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=workloads.ROOT, start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=120)
            except BaseException as exc:  # a timeout, or SIGTERM to us
                with suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
                tally.fail("setup probe timed out")
                continue
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tally.fail(f"setup probe exited {proc.returncode}: "
                       f"{stderr.strip()[-300:]}")
            continue
        result = json.loads(lines[-1])
        if not result["ok"]:
            tally.fail("setup probe: cold factor failed its check")
            continue
        cal = calibrated("setup", before, calibrate)
        values.append(Timed(result["setup_s"], cal, None))
    return values


# -- traced run ------------------------------------------------------------------


def traced_round(calls, tracer, wl, seed, index, tally, problems):
    """One round with the layer wrappers installed, plus one untraced serial
    call on the same input for the tracing overhead.

    Returns ``(layer metrics, traced serial s, untraced serial s)`` or
    ``None`` when a call failed.
    """
    a, b = wl.inputs(seed, index)
    ref = checks.Reference(a, b)
    cache = calls.session.plan_cache.stats
    hits, misses = cache.hits, cache.misses

    def untraced_serial():
        plain = run_round(calls, a, b, ref, tally, names=CALLS[:1])
        return plain["serial"][0].seconds if plain else None

    # The untraced serial call runs right before or right after the traced
    # one, alternating by round, so cache warmth favours neither.
    if index % 2 == 0:
        plain = untraced_serial()
    with tracer.installed():
        done = run_round(calls, a, b, ref, tally, around=tracer.in_phase,
                         names=CALLS[:1])
    if index % 2 == 1:
        plain = untraced_serial()
    with tracer.installed():
        run_round(calls, a, b, ref, tally, around=tracer.in_phase,
                  names=CALLS[1:], done=done)
    agg, kept = tracer.take()
    if len(done) < len(CALLS) or plain is None:
        return None
    stats = {
        "parallel": done["parallel"][0].result[0].stats,
        "session": done["session"][0].result[0].stats,
        "pulsar": done["pulsar"][0].result[0].stats,
        "store": calls.last_store,
        "plan_hits": cache.hits - hits,
        "plan_misses": cache.misses - misses,
    }
    metrics = layers.layer_metrics(agg, kept, stats)
    problems += [f"round {index}: {p}" for p in layers.attribution_problems(agg)]
    sdc = (metrics["sdc.injected"], metrics["sdc.detected"], metrics["sdc.recovered"])
    if len(set(sdc)) != 1:
        problems.append(f"round {index}: sdc injected/detected/recovered = {sdc}")
    return metrics, done["serial"][0].seconds, plain


def count_mismatches(first: list, second: list) -> list[str]:
    """Counts that differ between two passes' rounds on the same inputs.

    ``first`` and ``second`` hold one layer-metrics dict per round, or
    ``None`` for a round with a failed call (already tallied).
    """
    out = []
    for i, (ma, mb) in enumerate(zip(first, second)):
        if ma is None or mb is None:
            continue
        for key in layers.REPEATED_COUNTS:
            if ma[key] != mb[key]:
                out.append(f"round {i}: {key} = {ma[key]:g} then {mb[key]:g} "
                           "on the same input")
    return out


def trace(wl, seed: int, seconds: float, procs: int, tally: Tally,
          problems: list[str]):
    """Per-layer samples ``{metric: [per-round values]}``."""
    import repro

    tracer = layers.standard_tracer()
    with repro.QRSession(n_procs=procs) as session:
        calls = Calls(wl, seed, procs, session)
        a, b = wl.inputs(seed, workloads.WARMUP_INDEX)
        run_round(calls, a, b, checks.Reference(a, b), tally)
        # Two passes over the same inputs; the first fills half the time.
        first = [traced_round(calls, tracer, wl, seed, i, tally, problems)
                 for i in rounds(seconds / 2)]
        second = [traced_round(calls, tracer, wl, seed, i, tally, problems)
                  for i in range(len(first))]
    problems += count_mismatches([r and r[0] for r in first],
                                 [r and r[0] for r in second])
    ok = [r for r in first + second if r is not None]
    if not ok:
        return {}
    samples = {m: [r[0][m] for r in ok] for m in ok[0][0]}
    traced = statistics.median(r[1] for r in ok)
    plain = statistics.median(r[2] for r in ok)
    samples["trace.overhead_frac"] = [traced / plain - 1.0]
    return samples


# -- report ----------------------------------------------------------------------


def blas_threads() -> str:
    """Threads NumPy's OpenBLAS reports it will use, or the pinned setting."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (pinned, not queried)"


def host_fingerprint(procs: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": procs, "blas": vendor, "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "-"
    return f"p{100 * (n - 10) // n}={sorted(values)[n - 11]:.6g}"


def print_table(samples: dict, units: dict, walls: dict) -> None:
    """Median, sample count and high percentile of every metric; for
    scaled times also the median wall time as measured."""
    print(f"{'metric':28} {'unit':8} {'median':>12} {'wall median':>12} "
          f"{'n':>5}  high percentile")
    for name, unit in units.items():
        vals = samples.get(name, [])
        med = f"{statistics.median(vals):.6g}" if vals else "-"
        wall = f"{statistics.median(walls[name]):.6g}" if walls.get(name) else "-"
        print(f"{name:28} {unit:8} {med:>12} {wall:>12} {len(vals):>5}  "
              f"{high_percentile(vals)}")


def main(argv=None) -> int:
    """Run the benchmark; every process it started has ended on return."""
    reaper.exit_on_sigterm()
    try:
        return benchmark(argv)
    finally:
        reaper.reap()


def benchmark(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads.import_repro()
    except ImportError as exc:
        print(f"perfbench: no program to measure: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    procs = workloads.n_workers()
    tally = Tally()
    problems = [f"checker self-test: {m}" for m in checks.checker_self_test()]
    print("# host " + json.dumps(host_fingerprint(procs)))
    print(f"# workload {wl.name}: {wl.m}x{wl.n} nb={wl.nb} ib={wl.ib} hier "
          f"h={wl.h} rhs={wl.rhs}; P={procs}; seed={args.seed}; "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g}s")
    workloads.SCRATCH.mkdir(exist_ok=True)
    try:
        if args.trace:
            samples = trace(wl, args.seed, args.seconds, procs, tally, problems)
            units, walls = {k: u for k, (u, _) in layers.METRICS.items()}, {}
        else:
            with hostspeed.Calibrator(procs) as calibrate:
                samples, walls = measure(wl, args.seed, args.seconds, procs,
                                         tally, calibrate)
            units = END_TO_END
    finally:
        shutil.rmtree(workloads.SCRATCH, ignore_errors=True)
    metrics = {}
    for name, unit in units.items():
        vals = samples.get(name)
        if not vals:
            problems.append(f"no samples of {name}")
            continue
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
    print_table(samples, units, walls)
    for note in tally.notes + problems:
        print(f"# FAILED {note}")
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
