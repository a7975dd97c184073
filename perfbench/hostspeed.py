"""Host-speed calibration for the end-to-end times.

The host's speed drifts by tens of percent over minutes: other guests
steal CPU time and share cores.  That drift moves every timed call of a
run together, so the benchmark times a fixed pure-Python loop on all ``P``
CPUs at once right before and right after each call, and reports the call
as ``wall * CAL_REF_S / cal``: seconds at the reference host speed, on
which the loop takes ``CAL_REF_S``.  For a call that runs on one CPU,
``cal`` is the loop time on the calling CPU; for a call that uses all of
them (worker processes or threads) it is the mean over all CPUs.  Measured
over runs of five seeds, this cut the quartile spread of the run medians
roughly in half; each kind of call tracks its own ``cal`` best.  The loop
is independent of the program, so a change to the program moves only the
numerator.
"""

from __future__ import annotations

import multiprocessing as mp
from time import perf_counter

#: Iterations of the calibration loop, and the seconds it takes at the
#: reference host speed.
CAL_LOOPS = 100_000
CAL_REF_S = 0.008


def loop_seconds() -> float:
    """Seconds this CPU takes right now for the fixed loop."""
    t0 = perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i
    return perf_counter() - t0


def _helper(conn) -> None:
    """Run the loop each time the parent asks, until it sends ``False``."""
    while conn.recv():
        conn.send(loop_seconds())


class Calibrator:
    """Times the loop on ``procs`` CPUs at once: here and in helpers.

    The helpers are fresh interpreters (``spawn``) that share no state with
    the program, and block on their pipe between calibrations, so they take
    no CPU time from the calls being measured.
    """

    def __init__(self, procs: int):
        ctx = mp.get_context("spawn")
        self._conns = []
        self._procs = []
        for _ in range(procs - 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self._conns.append(mine)
            self._procs.append(proc)

    def __call__(self) -> tuple[float, float]:
        """Loop seconds on this CPU, and their mean over all CPUs, run
        concurrently."""
        for conn in self._conns:
            conn.send(True)
        times = [loop_seconds()] + [conn.recv() for conn in self._conns]
        return times[0], sum(times) / len(times)

    def close(self) -> None:
        for conn in self._conns:
            conn.send(False)
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._conns, self._procs = [], []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
