"""CLI contract: subcommands, exit codes, output formats."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from hyperboloid import brackets, conical
from hyperboloid.cli import (
    EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, EXIT_VERIFY_FAIL, main,
)
from hyperboloid.expr import parse_expr

FAST = ["--grid-h", "0.01", "--T", "2", "--dt", "0.001"]
# reference output of derive --format json, pinned byte for byte
DERIVE_JSON = Path(__file__).with_name("derive_expected.json")
# reference output of spectrum --lam=0.5,1,2 --n=-2,0,1,3
SPECTRUM_CSV = Path(__file__).with_name("spectrum_expected.csv")
# reference output of simulate --T 10 --dt 0.05 from an off-shell start
SIMULATE_CSV = Path(__file__).with_name("simulate_expected.csv")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- derive -------------------------------------------------------------


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive", "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["M"][1][2] == "2*a^2"
    assert rep["dirac_table"]["x1,x2"] == "0"
    assert rep["identities_failed"] == []
    assert out == DERIVE_JSON.read_text()


def test_derive_failed_identity_exits_1(capsys, monkeypatch):
    verify_iso12 = brackets.verify_iso12
    monkeypatch.setattr(brackets, "verify_iso12",
                        lambda bm: verify_iso12(bm, flip_epsilon_sign=True))
    code, out, _ = run(capsys, "derive", "--format", "json")
    assert code == EXIT_VERIFY_FAIL
    assert json.loads(out)["identities_failed"]


def test_derive_text_json_same_content(capsys):
    code, out_j, _ = run(capsys, "derive", "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out_j)
    code, out_t, _ = run(capsys, "derive", "--format", "text")
    assert code == EXIT_OK
    # the printed expressions parse back to the same mathematical objects
    for line in out_t.splitlines():
        if line.startswith("  C"):
            label, text = line.split(" = ", 1)
            k = int(label.strip()[1:]) - 1
            assert parse_expr(text) == parse_expr(rep["constraints"][k])
    assert "2*a^2" in out_t


# -- simulate -----------------------------------------------------------


def test_simulate_apex(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    for p0 in ("1,0,0", "-1,0,0"):
        code, _, err = run(capsys, "simulate", *FAST, "--p0", p0,
                           "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,x,y,z,p_x")
        assert len(lines) == 2002   # header + samples for T=2, dt=1e-3
        assert "max constraint residual" in err


def test_simulate_rest(capsys):
    code, out, _ = run(capsys, "simulate", *FAST, "--p0", "0,0,0")
    assert code == EXIT_OK
    rows = out.splitlines()[1:]
    first, last = rows[0].split(","), rows[-1].split(",")
    assert first[1:4] == last[1:4]    # x, y, z constant


def test_simulate_matches_pinned_output(tmp_path, capsys):
    # the start is off-shell, so the initial projection runs too
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--T", "10", "--dt", "0.05",
                     "--x0=0.3,0.2,1.0630145812734648", "--p0=0.5,0.1,0.16",
                     "--out", str(out))
    assert code == EXIT_OK
    got, want = (p.read_text().splitlines() for p in (out, SIMULATE_CSV))
    assert got[0] == want[0]
    got, want = ([[float(v) for v in line.split(",")] for line in lines[1:]]
                 for lines in (got, want))
    assert len(got) == len(want) == 201
    assert [r[0] for r in got] == [r[0] for r in want]
    # the state is long double, whose width varies by platform
    for col in range(1, len(want[0])):
        scale = max(abs(r[col]) for r in want)
        assert max(abs(g[col] - w[col]) for g, w in zip(got, want)) <= 1e-12 * scale


def test_simulate_bad_dt_usage_error(capsys):
    for argv in (["simulate", "--dt", "-0.001"], ["simulate", "--dt", "nan"],
                 ["simulate", "--T", "inf"], ["spectrum", "--lam", "nan"],
                 ["spectrum", "--n", ""], ["spectrum", "--lam", ""],
                 ["simulate", "--x0", "0,0,-1"],
                 # T must be a whole number of dt steps
                 ["simulate", "--T", "1", "--dt", "0.3"],
                 ["simulate", "--T", "1", "--dt", "0.6"],
                 ["simulate", "--T", "1", "--dt", "3"],
                 # 1/(m a^2) overflows, and so does m a^2
                 ["simulate", "--a", "1e-300", "--T", "1", "--dt", "0.1"],
                 ["simulate", "--a", "1e200", "--T", "1", "--dt", "0.1"],
                 ["verify", "--a", "1e200"],
                 # grids beyond the point budget, refused before any array
                 ["spectrum", "--grid-h", "1e-320", "--lam", "1", "--n", "0"],
                 ["verify", "--grid-h", "1e-320"],
                 ["verify", "--grid-h", "1e-6"],
                 ["spectrum", "--grid-h", "1e-7", "--lam", "1", "--n", "0"],
                 ["spectrum", "--n-phi", "1048576", "--lam", "1", "--n", "0"],
                 # T / dt beyond the step budget, also when it overflows to inf
                 ["simulate", "--T", "1e9", "--dt", "1e-3"],
                 ["simulate", "--T", "1e300", "--dt", "1e-300"]):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "error" in err


def test_simulate_json_drift_summary(capsys):
    argv = ["simulate", "--T", "10", "--dt", "0.05",
            "--x0=0.3,0.2,1.0630145812734648", "--p0=0.5,0.1,0.16"]
    code, out_t, err_t = run(capsys, *argv)
    assert code == EXIT_OK
    code, out_j, err_j = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    assert out_j == out_t                 # the CSV does not change
    summary = json.loads(err_j)
    assert summary.pop("tolerance_exceeded") is False
    text = dict(line.split(": ") for line in err_t.splitlines())
    assert len(text) == len(summary) == 4
    for key, value in summary.items():
        label = key.replace("_", " ").replace("initial state", "initial-state")
        assert text[label] == f"{value:.3e}"
    # the drift formulas, recomputed from the CSV columns (a = 1)
    cols = {name: np.array([float(v) for v in col]) for name, *col in
            zip(*(line.split(",") for line in out_j.splitlines()))}
    j = np.stack([cols["J1"], cols["J2"], cols["J3"]], axis=1)
    assert summary["max_constraint_residual"] == max(
        cols["C2_residual"].max(), cols["C3_residual"].max())
    assert summary["max_H_drift"] == pytest.approx(
        np.abs(cols["H"] - cols["H"][0]).max() / abs(cols["H"][0]), rel=1e-6)
    assert summary["max_J_drift"] == pytest.approx(
        np.abs(j - j[0]).max() / np.abs(j[0]).max(), rel=1e-6)


def test_simulate_bad_p0(capsys):
    code, _, _ = run(capsys, "simulate", "--p0", "1,2")
    assert code == EXIT_USAGE


# -- spectrum -----------------------------------------------------------


def test_spectrum_energies(capsys):
    # h = 1e-4 passes too: the P^0 integrand no longer cancels, so the
    # residual does not grow as the grid is refined
    for h, ns in (("0.002", "0"), ("0.002", "-1,0"), ("1e-4", "0")):
        code, out, _ = run(capsys, "spectrum", "--grid-h", h,
                           "--lam", "1", "--n", ns)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "lambda,n,theta,psi_real,psi_imag,eigen_residual,E"
        row = lines[1].split(",")
        assert float(row[6]) == pytest.approx(0.625)       # E = (1 + 1/4)/2
        assert float(row[5]) < 1e-4


def assert_pinned_spectrum(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    code, _, _ = run(capsys, "spectrum", "--lam=0.5,1,2", "--n=-2,0,1,3",
                     "--out", str(out))
    assert code == EXIT_OK
    got, want = (p.read_text().splitlines() for p in (out, SPECTRUM_CSV))
    assert got[0] == want[0]
    got, want = ([line.split(",") for line in lines[1:]] for lines in (got, want))
    # lambda, n, theta and E exactly, row for row
    assert [r[:3] + r[6:] for r in got] == [r[:3] + r[6:] for r in want]
    scale = {}
    for r in want:
        key = (r[0], r[1])
        scale[key] = max(scale.get(key, 0.0), abs(complex(float(r[3]), float(r[4]))))
    for g, w in zip(got, want):
        dpsi = complex(float(g[3]), float(g[4])) - complex(float(w[3]), float(w[4]))
        assert abs(dpsi) <= 1e-12 * scale[(w[0], w[1])]
        assert abs(float(g[5]) - float(w[5])) <= 1e-9


def test_spectrum_matches_pinned_output(tmp_path, capsys):
    assert_pinned_spectrum(tmp_path, capsys)


def test_spectrum_calls_no_dense_eigensolver(tmp_path, capsys, monkeypatch):
    # the Gauss tables are built by Newton iteration, not by an eigensolve
    # that would start the BLAS thread pool
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    conical._leggauss_table.cache_clear()
    try:
        assert_pinned_spectrum(tmp_path, capsys)
    finally:
        conical._leggauss_table.cache_clear()


def test_spectrum_makes_no_fft(tmp_path, capsys, monkeypatch):
    # a single-n mode is radial: no phi transform, no (theta x phi) array
    def refuse(*args, **kwargs):
        raise AssertionError("FFT called")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    assert_pinned_spectrum(tmp_path, capsys)


def test_pinned_spectrum_matches_mpmath():
    # the pin against N P^n_{-1/2+i lam}(cosh theta) at 30 digits, with
    # N = sqrt(2 pi/(lam tanh(pi lam))) Gamma(1/2+i lam)/Gamma(1/2+n+i lam)
    mpmath = pytest.importorskip("mpmath")
    rows = [line.split(",") for line in SPECTRUM_CSV.read_text().splitlines()[1:]]
    scale = {}
    for r in rows:
        key = (r[0], r[1])
        scale[key] = max(scale.get(key, 0.0), abs(complex(float(r[3]), float(r[4]))))
    with mpmath.workdps(30):
        for r in rows[::3]:
            lam, n, theta = mpmath.mpf(float(r[0])), int(r[1]), mpmath.mpf(float(r[2]))
            norm = (mpmath.sqrt(2 * mpmath.pi / (lam * mpmath.tanh(mpmath.pi * lam)))
                    * mpmath.gamma(mpmath.mpc(0.5, lam))
                    / mpmath.gamma(mpmath.mpc(0.5 + n, lam)))
            want = complex(norm * mpmath.legenp(mpmath.mpc(-0.5, lam), n,
                                                mpmath.cosh(theta), type=3))
            got = complex(float(r[3]), float(r[4]))
            assert abs(got - want) <= 1e-13 * scale[(r[0], r[1])], r[:3]


def test_spectrum_lam_zero_warns(capsys):
    code, out, err = run(capsys, "spectrum", "--grid-h", "0.002",
                         "--lam", "0", "--n", "0")
    assert code == EXIT_OK
    assert "lambda = 0" in err
    assert float(out.splitlines()[1].split(",")[6]) == pytest.approx(0.125)


def test_spectrum_coarse_grid_exceeds_tolerance(capsys):
    # a NaN residual fails as well, also when it is not the first one,
    # and so does a NaN drift in simulate
    for argv in (["spectrum", "--grid-h", "0.1", "--lam", "2", "--n", "0"],
                 ["spectrum", "--lam", "500", "--theta-max", "1.1", "--n", "0"],
                 ["spectrum", "--lam", "0.5,500", "--theta-max", "1.1", "--n", "0"],
                 ["simulate", "--p0=1e200,0,0", "--T", "1", "--dt", "0.1"],
                 ["simulate", "--m", "1e-300", "--T", "1", "--dt", "0.1"],
                 ["simulate", "--no-projection", "--m", "1e-300", "--T", "1",
                  "--dt", "0.1"],
                 # the state stops being finite at t = 6, which ends the run
                 ["simulate", "--T", "10000", "--dt", "1"],
                 # the closed-form reference geodesic overflows
                 ["verify", "--a", "1e-100"]):
        with np.errstate(all="ignore"):
            code, _, _ = run(capsys, *argv)
        assert code == EXIT_TOLERANCE


def test_spectrum_beyond_gauss_order_cap_exits_2(capsys):
    # lam * theta = 1500 would need a 36,064-node Gauss table
    t0 = time.perf_counter()
    code, _, err = run(capsys, "spectrum", "--lam", "500", "--n", "1")
    assert code == EXIT_TOLERANCE
    assert "Gauss-Legendre order" in err
    assert time.perf_counter() - t0 < 5.0


def test_spectrum_negative_lam_usage(capsys):
    code, _, _ = run(capsys, "spectrum", "--lam", "-1", "--n", "0")
    assert code == EXIT_USAGE


# -- verify -------------------------------------------------------------


def test_verify_only_module(capsys):
    code, out, _ = run(capsys, "verify", "--only", "geometry")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["module"] == "geometry" for c in doc["checks"])


def test_verify_fault_flips_exit(capsys):
    # a check that cannot be measured (NaN) fails as well
    for argv, check in (
            (["--only", "phase_algebra", "--inject-fault", "epsilon_sign"],
             "iso12_closure"),
            # every J.J / (2 m a^2) sample overflows to NaN
            (["--only", "classical_sim", "--a", "1e154"], "hamiltonian_from_j"),
            # the residuals underflow to 0, so their ratio has no order
            (["--only", "spectral", "--hbar", "1e-200"], "eigen_residual_order"),
            # a coarse step of 4 dt does not fit into T
            (["--only", "classical_sim", "--T", "0.002", "--dt", "0.001"],
             "rk4_order")):
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_VERIFY_FAIL
        assert "Traceback" not in out + err
        doc = json.loads(out)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert check in failed


def test_verify_unknown_module_usage(capsys):
    for argv in (["--only", "nonsense"], ["--inject-fault", "nonsense"]):
        code, _, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert "invalid choice" in err


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "verify", "--only", "geometry",
                       "--format", "text")
    assert code == EXIT_OK
    assert out.strip().endswith("result: PASS")


def test_non_finite_json_is_null(capsys):
    # the state stops being finite at t = 6; NaN is not JSON (RFC 8259)
    def refuse(token):
        raise AssertionError(f"bare {token} in JSON")

    with np.errstate(all="ignore"):
        code, _, err = run(capsys, "simulate", "--T", "10000", "--dt", "1",
                           "--format", "json")
        assert code == EXIT_TOLERANCE
        assert json.loads(err, parse_constant=refuse)["max_J_drift"] is None
        code, out, _ = run(capsys, "verify", "--only", "classical_sim",
                           "--T", "10000", "--dt", "1")
        assert code == EXIT_VERIFY_FAIL
        doc = json.loads(out, parse_constant=refuse)
        assert None in [c["measured"] for c in doc["checks"]]


# -- config plumbing ----------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 1.0, "dt": 0.01, "a": 2.0}))
    out = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg),
                     "--T", "0.5", "--p0", "1,0,0", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 52                      # flag T=0.5 wins over file
    assert float(lines[1].split(",")[3]) == 2.0  # file a=2 survives (apex z)


def test_config_file_validated_with_flags(tmp_path, capsys):
    # a file that is valid only together with the flags exits as the same
    # values given as flags do
    cfg = tmp_path / "cfg.json"
    for data, argv, want in (
            ({"dt": 0.3}, ["simulate", "--T", "0.9"], EXIT_TOLERANCE),
            ({"theta_min": 4.0},
             ["spectrum", "--theta-max", "5", "--lam", "1", "--n", "0"], EXIT_OK),
            # the n >= 1 seed holds at large theta
            ({}, ["spectrum", "--theta-max", "10", "--lam", "0.5", "--n", "3"], EXIT_OK)):
        cfg.write_text(json.dumps(data))
        code, _, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == want
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in data.items()]
        code, _, _ = run(capsys, *argv, *flags)
        assert code == want


def test_unknown_config_key_usage(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ('{"bogus": 1}', '{"a": "2"}', '{"n_phi": 16.5}', "[1]", '{"a": ',
                 # an integer too large for a float
                 '{"a": 1' + "0" * 330 + "}"):
        cfg.write_text(text)
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
    code, _, _ = run(capsys, "verify", "--config", str(tmp_path / "missing.json"))
    assert code == EXIT_USAGE


def test_unknown_flag_usage(capsys):
    code, _, _ = run(capsys, "derive", "--frobnicate")
    assert code == EXIT_USAGE


def test_unknown_subcommand_usage(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE
