"""Benchmark of the hyperboloid workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing needs installing, the package
is imported from ``src``.  Workloads (see README.md):

    derive       cold ``derive --format json``, one fresh interpreter each
    spectrum     cold ``spectrum`` on three seeded lambda and orders
    simulate     cold ``simulate --T 10`` from a seeded on-shell start
    verify-warm  ``run_verification`` called again and again in one process

One client runs one operation at a time (a closed loop) until the next
one is predicted to end after S seconds.  Every output is checked by
``referee.py``, and on the first operation the referee must also reject
a corrupted copy.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` each operation is run untraced
and then traced, and it carries the per-layer metrics.  Raw outputs and
the traced statistics of the run are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import referee
import workloads
from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 5      # interpreter start-ups whose import time setup_s takes the median of
DEADLINE_S = 165.0     # a run stops starting work after this and exits well before 180 s
HOST_REF_S = 0.015     # the calibration loop's time on the reference host, uncontended

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_cpu_p50_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for prefix, _, _, nkey in TRACED:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        if nkey:
            units[f"{prefix}.unique_ratio"] = "ratio"
    units["trace.traced_op_s"] = "s"
    units["trace.untraced_op_s"] = "s"
    return units


class Run:
    """Counts, samples and the referee verdict of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.start = time.perf_counter()
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(traced)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        # measure the default BLAS pool whatever the caller's environment says
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            self.env.pop(var, None)
        self.attempted = self.failed = 0
        self.correct = True
        self.imports, self.rss, self.import_cal = [], [], []
        self.untraced, self.traced_ops = [], []   # child records of completed ops
        self.walls = []                           # interpreter start-to-exit, untraced ops

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, *args):
        """(wall s from start to exit, less the child's calibration
        loops; the child's JSON or None)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            log(f"timed out: {' '.join(args)}")
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return wall, None
        rec = json.loads(lines[-1])
        wall -= rec["calibration_s"]
        self.imports.append(rec["import_s"])
        self.import_cal.append(rec["import_cal_s"])
        self.rss.append(rec["maxrss_mb"])
        return wall, rec

    def probe(self) -> bool:
        return self.spawn("import")[1] is not None

    def judge(self, rec, check, corrupt=None, counted=True) -> bool:
        """Count one operation and referee its output; with corrupt, the
        referee must also reject the corrupted output."""
        self.attempted += counted
        if rec is None or rec.get("rc", 0) != 0:
            self.failed += counted
            return False
        try:
            check(None)
        except referee.Rejected as exc:
            self.correct = False
            log(f"referee rejected operation {self.attempted}: {exc}")
            return True
        if corrupt is not None:
            try:
                check(corrupt)
            except referee.Rejected:
                pass
            else:
                self.correct = False
                log("referee accepted a corrupted output")
        return True

    def top_up_setup(self):
        while len(self.imports) < SETUP_SAMPLES and self.remaining() > 10:
            self.probe()


def log(msg: str):
    sys.stderr.write(f"perfbench: {msg}\n")


# -- CLI workloads: a fresh interpreter per operation ---------------------


def cli_operation(run: Run, k: int):
    """(argv, check, corruption) of operation k; check(None) referees the
    real output and check(corrupt) the corrupted one."""
    seed, w = run.seed, run.workload
    out = run.dir / f"{w}-{k}.out"

    def text(corrupt):
        body = out.read_text()
        return corrupt(body) if corrupt else body

    if w == "derive":
        points = workloads.derive_points(seed, k)
        return (workloads.derive_argv(str(out)),
                lambda c: referee.check_derive(text(c), 0, points),
                referee.corrupt_derive)
    if w == "spectrum":
        lams, ns = workloads.spectrum_inputs(seed, k)
        ref = {}

        def check(c):
            if not ref:
                ref.update(referee.spectrum_reference(lams, ns))
            referee.check_spectrum(text(c), 0, lams, ns, ref)
        return workloads.spectrum_argv(lams, ns, str(out)), check, referee.corrupt_spectrum
    x0, p0 = workloads.simulate_inputs(seed, k)
    return (workloads.simulate_argv(x0, p0, str(out)),
            lambda c: referee.check_simulate(text(c), 0, x0, p0),
            referee.corrupt_simulate)


def run_cli(run: Run):
    k = 0
    rounds = []
    while workloads.keep_going(rounds, run.seconds, 1 if run.traced else workloads.MIN_OPS):
        if run.remaining() < 30:
            break
        argv, check, corrupt = cli_operation(run, k)
        wall, rec = run.spawn("cli", "0", "--", *argv)
        if run.judge(rec, check, corrupt if k == 0 else None):
            run.untraced.append(rec)
            run.walls.append(wall)
        spent = wall
        if run.traced:
            wall_t, rec_t = run.spawn("cli", "1", "--", *argv)
            if run.judge(rec_t, check):
                run.traced_ops.append(rec_t)
            spent += wall_t
        rounds.append(spent)
        if k > 0:
            (run.dir / f"{run.workload}-{k}.out").unlink(missing_ok=True)
        k += 1


# -- verify-warm: one long-lived process --------------------------------


def run_verify_warm(run: Run):
    wall, rec = run.spawn("verify", str(run.seed), repr(run.seconds),
                          str(run.dir), "1" if run.traced else "0")
    if rec is None:
        run.attempted += 1
        run.failed += 1
        return
    warm = rec["warmup"]
    run.judge(warm, lambda c: check_verify(warm, c), counted=False)
    first = True
    for op in rec["ops"]:
        ok = run.judge(op, lambda c, op=op: check_verify(op, c),
                       referee.corrupt_verify if first else None)
        first = False
        if ok:
            (run.traced_ops if op["trace"] is not None else run.untraced).append(op)
    run.walls = [op["op_s"] for op in run.untraced]


def check_verify(op: dict, corrupt):
    body = Path(op["path"]).read_text()
    referee.check_verify(corrupt(body) if corrupt else body, op["seed"])


# -- metrics ------------------------------------------------------------


def host_scale(own: list) -> float:
    """Factor that brings a time to the reference host speed.

    Every child times a fixed loop before the import and before and
    after each operation; own holds the timings that bracket one
    measurement.  Without the factor, the median time of identical work
    moved by 20-30% between runs on the shared 2-vCPU sandbox the
    figures in README.md come from."""
    return HOST_REF_S * len(own) / sum(own)


def end_to_end(run: Run) -> dict:
    ops = run.untraced
    return {
        "setup_s": statistics.median(
            t * host_scale([c]) for t, c in zip(run.imports, run.import_cal)),
        "op_p50_s": statistics.median(op["op_s"] * host_scale(op["cal_s"]) for op in ops),
        "op_cpu_p50_s": statistics.median(
            op["op_cpu_s"] * host_scale(op["cal_s"]) for op in ops),
        "ops_per_s": len(ops) / sum(
            w * host_scale(op["cal_s"]) for w, op in zip(run.walls, ops)),
        "peak_rss_mb": max(run.rss),
    }


def per_layer(run: Run) -> dict:
    """calls and unique_ratio of the first traced operation, which has
    the same inputs in every run of a seed; self_s is the median over
    the run's traced operations."""
    first = run.traced_ops[0]["trace"]
    out = {}
    for prefix, _, _, nkey in TRACED:
        calls, _, distinct = first[prefix]
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.self_s"] = statistics.median(
            op["trace"][prefix][1] for op in run.traced_ops)
        if nkey:
            out[f"{prefix}.unique_ratio"] = distinct / calls if calls else 1.0
    for key, ops in (("traced_op_s", run.traced_ops), ("untraced_op_s", run.untraced)):
        out[f"trace.{key}"] = statistics.median(
            op["op_s"] * host_scale(op["cal_s"]) for op in ops)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hyperboloid" / "cli.py").is_file():
        log(f"no package source under {ROOT / 'src'}; run from a checkout")
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    # the first start-up compiles bytecode and warms the file cache;
    # users pay neither on every run, so it is not a setup sample
    if not run.probe():
        log("the package does not import")
        return 2
    run.imports.clear()
    run.import_cal.clear()
    (run_verify_warm if args.workload == "verify-warm" else run_cli)(run)
    if not run.traced:
        run.top_up_setup()
    if not run.untraced or (run.traced and not run.traced_ops):
        log("no operation completed; nothing to measure")
        return 1

    if run.traced:
        values, units = per_layer(run), per_layer_units()
    else:
        values, units = end_to_end(run), END_TO_END
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    raw = {"result": result, "import_s": run.imports, "import_cal_s": run.import_cal,
           "peak_rss_mb": run.rss,
           "walls": run.walls,
           "ops": [{k: v for k, v in op.items() if k != "trace"}
                   for op in run.untraced + run.traced_ops]}
    (run.dir / "result.json").write_text(json.dumps(raw, indent=1) + "\n")
    if run.traced:
        (run.dir / "trace.json").write_text(json.dumps(
            [op["trace"] for op in run.traced_ops], indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
