"""Stop and wait for every process a benchmark process started.

The program's parallel backends fork worker processes and use shared
memory, which makes ``multiprocessing`` start a resource-tracker process.
Python does not wait for that tracker when it exits: the tracker sees its
pipe close, and ends a moment *after* its parent, as an orphan.  The
calibration helpers and the set-up probes are children too.  :func:`reap`
ends all of them and waits for each, so nothing the benchmark started
outlives it; ``run.py`` and ``setup_probe.py`` call it on every way out.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import sys
import time
from multiprocessing import resource_tracker

#: Seconds a child gets to end on its own before it is terminated.
GRACE_S = 10.0


def _wait(pid: int, timeout: float) -> bool:
    """Reap ``pid`` if it ends within ``timeout`` seconds; True once gone."""
    t_end = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # already reaped, or not our child
        if done:
            return True
        if time.monotonic() >= t_end:
            return False
        time.sleep(0.01)


def _end(pid: int, grace: float) -> None:
    """Wait ``grace`` seconds for child ``pid``, then kill it and reap it."""
    if _wait(pid, grace):
        return
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass
        if _wait(pid, 2.0):
            return
    _wait(pid, float("inf"))


def child_pids() -> list[int]:
    """Live (not yet reaped) children of this process, from ``/proc``."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # ended while we looked
        # The command name, in parentheses, may hold spaces; fields after it
        # are state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def stop_resource_tracker(grace: float = GRACE_S) -> None:
    """Close this process's pipe to its resource tracker and wait for the
    tracker to end (it unlinks anything left registered first)."""
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is not None:
        _end(pid, grace)


def reap(grace: float = GRACE_S) -> None:
    """End every child of this process and wait for each.

    ``multiprocessing`` children first (they hold the tracker's pipe), then
    the resource tracker, then anything else still listed as our child.
    """
    for proc in mp.active_children():
        proc.join(grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(2.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop_resource_tracker(grace)
    for pid in child_pids():
        _end(pid, grace)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks (and
    :func:`reap`) run when the benchmark is stopped from outside."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
