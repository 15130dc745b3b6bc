"""The part of the benchmark that runs in a fresh interpreter.

    child.py import                    time the package import only
    child.py cli TRACE -- ARGV...      run hyperboloid.cli.main(ARGV) once
    child.py verify SEED SECONDS OUTDIR TRACE
                                       call run_verification in a loop

TRACE is 0 or 1.  The last line on stdout is one JSON object with the
import time, the wall and CPU time of each operation, the calibration
timings that bracket each of them, the peak resident set of this
interpreter and, when traced, the per-layer statistics.  Only sys and
time are imported before the package, so the import time is the
package's own.
"""

import sys
import time

CAL_LOOP = 200_000
CAL_PASSES = 5


def host_speed() -> float:
    """Mean time of CAL_PASSES runs of a fixed pure-Python loop (about
    15 ms each): how fast this host runs at this moment, measured
    outside the program.  On a shared host it swings by half as other
    tenants come and go."""
    t0 = time.perf_counter()
    for _ in range(CAL_PASSES):
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
    return (time.perf_counter() - t0) / CAL_PASSES


def _timed(fn, traced: bool):
    """(result, wall s, process CPU s, tracer stats or None, host_speed
    timings before and after) of fn().

    Process CPU time counts every thread, so BLAS worker threads that
    spin while the caller is busy show up here and not in wall time."""
    from tracer import Tracer

    tracer = Tracer() if traced else None
    if tracer:
        tracer.__enter__()
    before = host_speed()
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        result = fn()
    finally:
        w1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.__exit__(None, None, None)
    cal = [before, host_speed()]
    return result, w1 - w0, c1 - c0, tracer.stats() if tracer else None, cal


def _run_cli(traced: bool, argv: list) -> dict:
    from hyperboloid.cli import main

    rc, wall, cpu, stats, cal = _timed(lambda: main(argv), traced)
    return {"rc": rc, "op_s": wall, "op_cpu_s": cpu, "cal_s": cal, "trace": stats}


def _run_verify(seed: int, seconds: float, outdir: str, traced: bool) -> dict:
    """A warm-up call fills the bracket-matrix cache and the Gauss
    tables; the timed calls that follow are the warm library use.  A
    traced run pairs each untraced call with a traced call on the same
    seed."""
    import json

    from hyperboloid.config import RunConfig
    from hyperboloid.verify import run_verification
    from workloads import MIN_OPS, keep_going, verify_seed

    def call(s, k, tag, trace):
        rep, wall, cpu, stats, cal = _timed(
            lambda: run_verification(RunConfig(seed=s)), trace)
        path = f"{outdir}/verify-{k}{tag}.json"
        with open(path, "w") as fh:
            json.dump(rep.to_dict(), fh)
        return {"k": k, "seed": s, "path": path, "op_s": wall,
                "op_cpu_s": cpu, "cal_s": cal, "trace": stats}

    warmup = call(verify_seed(seed, 0), 0, "", False)
    ops, walls, k = [], [], 1
    while keep_going(walls, seconds, 1 if traced else MIN_OPS):
        s = verify_seed(seed, k)
        ops.append(call(s, k, "", False))
        walls.append(ops[-1]["op_s"])
        if traced:
            ops.append(call(s, k, "-traced", True))
            walls[-1] += ops[-1]["op_s"]
        k += 1
    return {"warmup": warmup, "ops": ops}


def main(argv: list) -> int:
    cal = host_speed()
    t0 = time.perf_counter()
    import hyperboloid.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import json
    import resource

    mode = argv[0]
    if mode == "import":
        out = {}
    elif mode == "cli":
        out = _run_cli(argv[1] == "1", argv[3:])
    elif mode == "verify":
        out = _run_verify(int(argv[1]), float(argv[2]), argv[3], argv[4] == "1")
    else:
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 64
    out["import_s"] = import_s
    out["import_cal_s"] = cal
    # time this interpreter spent in host_speed, which run.py takes out
    # of the start-to-exit wall time
    out["calibration_s"] = CAL_PASSES * (cal + sum(out.get("cal_s", ())))
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
