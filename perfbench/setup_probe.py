"""One fresh-process set-up measurement (started by ``run.py``).

Times ``import repro``, opening ``QRSession(n_procs=P)`` and its first
cold ``factor`` on the workload's shape, excluding only the generation of
the input matrix.  Prints one JSON line: the set-up seconds and whether
the factor passed the output check.

    python3 perfbench/setup_probe.py <workload> <seed> <P>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import reaper  # noqa: E402
import workloads  # noqa: E402  (imports numpy, as repro itself would)


def main() -> None:
    name, seed, procs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    wl = workloads.WORKLOADS[name]
    t_gen = time.perf_counter()
    a, b = wl.inputs(seed, workloads.WARMUP_INDEX)
    gen_s = time.perf_counter() - t_gen
    repro = workloads.import_repro()
    with repro.QRSession(n_procs=procs) as session:
        r = session.factor(a, **wl.factor_kwargs()).R
        setup_s = time.perf_counter() - T0 - gen_s
    from checks import Reference

    print(json.dumps({"setup_s": setup_s, "ok": bool(Reference(a, b).r_ok(r))}))


if __name__ == "__main__":
    reaper.exit_on_sigterm()
    try:
        main()
    finally:
        reaper.reap()
