"""Self-checks of the benchmark: the output checker, span attribution, and
count repetition.

    python3 -m pytest perfbench -q
"""

import os
import shutil

import numpy as np
import pytest

import run  # first: pins BLAS threads if NumPy is not loaded yet
import checks
import layers
import workloads

repro = workloads.import_repro()

TINY = workloads.Workload("tiny", 96, 24, 8, 4, 2, 2)


def test_checker_fails_corrupted_results():
    assert checks.checker_self_test() == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r * 1.001,
    lambda r: np.where(np.eye(*r.shape, k=1) > 0, np.nan, r),
    lambda r: r[:-1],
])
def test_checker_fails_corrupted_library_r(corrupt):
    a, b = TINY.inputs(0, 0)
    ref = checks.Reference(a, b)
    f = repro.qr_factor(a, **TINY.factor_kwargs())
    assert ref.r_ok(f.R) and ref.x_ok(f.solve(b))
    assert not ref.r_ok(corrupt(f.R))


def test_tracer_restores_every_target():
    from repro.tiles.matrix import TileMatrix

    tracer = layers.standard_tracer()
    before = [(o, a, vars(o).get(a)) for o, a, *_ in tracer._targets]
    with tracer.installed():
        assert repro.kernels.geqrt is not before[0][2]
    for owner, attr, raw in before:
        assert vars(owner).get(attr) is raw, attr
    assert isinstance(vars(TileMatrix)["from_dense"], classmethod)


@pytest.fixture(scope="module")
def two_passes():
    """Two traced rounds on the same input, as the traced run makes them."""
    tally, problems = run.Tally(), []
    tracer = layers.standard_tracer()
    workloads.SCRATCH.mkdir(exist_ok=True)
    with repro.QRSession(n_procs=2) as session:
        calls = workloads.Calls(TINY, 5, 2, session)
        a, b = TINY.inputs(5, workloads.WARMUP_INDEX)
        run.run_round(calls, a, b, checks.Reference(a, b), tally)
        passes = [run.traced_round(calls, tracer, TINY, 5, 0, tally, problems)
                  for _ in range(2)]
    shutil.rmtree(workloads.SCRATCH, ignore_errors=True)
    return tally, problems, passes


def test_traced_round_passes_its_checks(two_passes):
    tally, problems, passes = two_passes
    assert tally.failed == 0, tally.notes
    assert problems == []
    metrics = passes[0][0]
    assert set(metrics) == set(layers.METRICS) - {"trace.overhead_frac"}
    # The serial factorization runs every op once and the solve applies one
    # update per factor op, so update calls add up to the op count.
    assert metrics["plan.ops"] == sum(
        metrics[f"kernel.{k}.calls"] for k in layers.UPDATE)
    for name in ("serial", "batched"):
        exec_s = metrics[f"{name}.exec_s"]
        assert exec_s > 0 and 0 <= metrics[f"{name}.self_s"] <= exec_s


def test_counts_repeat_between_passes(two_passes):
    _, _, (first, second) = two_passes
    assert run.count_mismatches([first[0]], [second[0]]) == []
    changed = dict(second[0], **{"ckpt.writes": second[0]["ckpt.writes"] + 1})
    assert run.count_mismatches([first[0]], [changed]) == [
        f"round 0: ckpt.writes = {first[0]['ckpt.writes']:g} then "
        f"{changed['ckpt.writes']:g} on the same input"]


def test_attribution_check_catches_unattributed_time():
    agg = {
        ("serial", "serial.exec"): layers.Agg(1, 1.0, 0.6, 0),
        ("serial", "kernel.GEQRT"): layers.Agg(3, 0.5, 0.0, 0),
        ("batched", "batched.exec"): layers.Agg(1, 1.0, 1.2, 0),
        ("batched", "batched.TSQRT"): layers.Agg(2, 1.2, 0.0, 0),
    }
    problems = layers.attribution_problems(agg)
    assert any("serial.exec: nested time" in p for p in problems)
    assert any("batched.exec: self time" in p for p in problems)


def test_calibrator_times_every_cpu_and_stops_its_helpers():
    import hostspeed

    with hostspeed.Calibrator(2) as calibrate:
        helpers = list(calibrate._procs)
        own, mean = calibrate()
        assert len(helpers) == 1 and 0.0 < own < 5.0 and 0.0 < mean < 5.0
    assert not helpers[0].is_alive()


def test_reap_ends_every_child_and_the_resource_tracker():
    import subprocess
    import sys
    from multiprocessing import resource_tracker

    import reaper

    a, _ = TINY.inputs(0, 0)
    repro.qr_factor(a, backend="parallel", n_procs=2, **TINY.factor_kwargs())
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None and sleeper.pid in reaper.child_pids()
    reaper.reap(grace=0.5)
    assert reaper.child_pids() == []
    assert resource_tracker._resource_tracker._fd is None
    assert not os.path.exists(f"/proc/{tracker}")


def test_trace_run_reports_every_layer_metric():
    tally, problems = run.Tally(), []
    workloads.SCRATCH.mkdir(exist_ok=True)
    try:
        samples = run.trace(TINY, 7, 0.1, 2, tally, problems)
    finally:
        shutil.rmtree(workloads.SCRATCH, ignore_errors=True)
    assert tally.failed == 0 and problems == [], tally.notes + problems
    assert set(samples) == set(layers.METRICS)
