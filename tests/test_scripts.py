"""Smoke tests: the scripts run against the current library API."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_scripts_print_their_tables():
    t0 = time.perf_counter()
    # a header, then one row per dt and one per (lambda, n)
    for name, args, rows in (
            ("convergence_sweep.py", ["--T", "1", "--dts", "0.01,0.005"], 2),
            ("spectrum_table.py", ["--lam", "1", "--n", "0", "--grid-h", "0.01"], 1)):
        proc = run_script(name, *args)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 + rows
        for line in lines[1:]:
            float(line.split()[-1])           # ends in a number
    assert time.perf_counter() - t0 < 5.0
