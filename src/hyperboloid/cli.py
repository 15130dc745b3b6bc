"""Command-line interface: derive, simulate, spectrum, verify.

Exit codes: 0 success, 1 verification failure, 2 numerical-tolerance
failure, 64 usage error.  A JSON config file supplies defaults; any
field can be overridden by a flag (flag wins).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import brackets, classical
from .brackets import reduce_on_shell
from .config import ConfigError, RunConfig
from .conical import ConicalError
from .expr import parse_expr
from .grid import Grid, GridError, SpectralMode, eigen_residual, sample_modes
from .verify import FAULTS, MODULES, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_TOLERANCE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; remap to the CLI contract
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="hyperboloid", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--format", choices=("json", "text", "csv"))
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--seed", type=int)
        for name in ("a", "m", "hbar", "dt", "T", "theta-min", "theta-max"):
            sp.add_argument(f"--{name}", type=float, dest=name.replace("-", "_"))
        sp.add_argument("--grid-h", type=float, dest="h")
        sp.add_argument("--n-phi", type=int, dest="n_phi")
        sp.add_argument("--no-projection", action="store_true")

    sp = sub.add_parser("derive", help="symbolic constraint chain and bracket algebra")
    common(sp)

    sp = sub.add_parser("simulate", help="integrate a geodesic, write trajectory CSV")
    common(sp)
    sp.add_argument("--x0", default=None, help="initial position X,Y,Z (default apex)")
    sp.add_argument("--p0", default="1,0,0", help="initial momentum PX,PY,PZ")

    sp = sub.add_parser("spectrum", help="eigenfunction samples and residuals")
    common(sp)
    sp.add_argument("--lam", default="0.5,1,2", help="comma list of lambda values")
    sp.add_argument("--n", default="0,1,2", help="comma list of integer orders")

    sp = sub.add_parser("verify", help="run every invariant suite")
    common(sp)
    sp.add_argument("--only", choices=MODULES, help="restrict to one module")
    sp.add_argument("--inject-fault", action="append", default=[], choices=FAULTS,
                    help="negative-control hook")
    return p


def _bind_list_values(argv: list) -> list:
    # argparse reads a value such as -1,0,0 as a flag; bind it as --p0=-1,0,0
    out = []
    for tok in argv:
        if (out and out[-1] in ("--x0", "--p0", "--lam", "--n")
                and tok[:1] == "-" and "," in tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _load_config(args) -> RunConfig:
    overrides = {k: getattr(args, k, None)
                 for k in ("a", "m", "hbar", "dt", "T", "theta_min",
                           "theta_max", "h", "n_phi", "seed", "out")}
    if getattr(args, "no_projection", False):
        overrides["projection"] = False
    return RunConfig.from_file(args.config, **overrides)


def _json(doc, **kwargs) -> str:
    """JSON text with every non-finite float written as null (RFC 8259 has
    no NaN or Infinity); allow_nan=False makes a missed one raise."""
    def clean(v):
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, list):
            return [clean(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(clean(doc), allow_nan=False, **kwargs)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_triple(text: str, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{what} must be three comma-separated numbers, got {text!r}")
    try:
        vals = np.array([float(v) for v in parts])
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"{what} entries must be finite, got {text!r}")
    return vals


# -- derive -------------------------------------------------------------


def build_derive_report() -> dict:
    cs = brackets.constraint_chain()
    bm = brackets.bracket_matrix(cs)
    iso = brackets.verify_iso12(bm)
    table = {k: str(v) for k, v in iso.table.items()}
    xx = reduce_on_shell(parse_expr("x^2 + y^2 - z^2"))
    xj = reduce_on_shell(sum(
        (brackets.coord(i) * brackets.angular_j_lower(i) for i in range(1, 4)),
        parse_expr("0")))
    casimirs = {"x.x": str(xx), "x.J": str(xj)}
    for i in range(1, 4):
        casimirs[f"{{x.x, J{i}}}"] = table[f"x.x,J{i}"]
        casimirs[f"{{x.J, J{i}}}"] = table[f"x.J,J{i}"]
    return {
        "constraints": [str(c) for c in cs],
        "M": [[str(bm.entry(i, j)) for j in range(4)] for i in range(4)],
        "M_inv": [[str(bm.inv_entry(i, j)) for j in range(4)] for i in range(4)],
        "dirac_table": {k: table[k] for k in sorted(table) if "." not in k},
        "casimirs": casimirs,
        "identities_checked": len(iso.checks),
        "identities_failed": [c.name for c in iso.failures()],
    }


def _derive_text(rep: dict) -> str:
    lines = ["Constraint chain:"]
    for k, c in enumerate(rep["constraints"]):
        lines.append(f"  C{k + 1} = {c}")
    lines.append("Bracket matrix M:")
    for row in rep["M"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append("M inverse:")
    for row in rep["M_inv"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append("Dirac brackets (on-shell):")
    for k, v in rep["dirac_table"].items():
        lines.append(f"  {{{k}}} = {v}")
    lines.append("Casimirs:")
    for k, v in rep["casimirs"].items():
        lines.append(f"  {k} = {v}")
    status = "all passed" if not rep["identities_failed"] else (
        "FAILED: " + ", ".join(rep["identities_failed"]))
    lines.append(f"Identity checks: {rep['identities_checked']} ({status})")
    return "\n".join(lines) + "\n"


def cmd_derive(args, cfg: RunConfig) -> int:
    rep = build_derive_report()
    fmt = args.format or "text"
    if fmt == "json":
        _emit(_json(rep, indent=2) + "\n", cfg.out)
    else:
        _emit(_derive_text(rep), cfg.out)
    return EXIT_VERIFY_FAIL if rep["identities_failed"] else EXIT_OK


# -- simulate -----------------------------------------------------------


def cmd_simulate(args, cfg: RunConfig) -> int:
    x0 = (_parse_triple(args.x0, "--x0") if args.x0
          else np.array([0.0, 0.0, cfg.a]))
    if x0[2] < 0:
        raise UsageError(f"--x0 must lie on the upper sheet (z >= 0), got {args.x0!r}")
    p0 = _parse_triple(args.p0, "--p0")
    xp, pp = classical.project_embedded(x0, p0, cfg.a)
    adjust = max(float(np.max(np.abs(xp - x0))), float(np.max(np.abs(pp - p0))))
    rec = classical.integrate_embedded(
        classical.EmbeddedState(xp, pp), cfg.m, cfg.a, cfg.dt, cfg.T,
        projection=cfg.projection, tol_c=cfg.tol_constraint * cfg.a * cfg.a)
    rec.write_csv(cfg.out or sys.stdout)

    drift = rec.drift(cfg.a)
    # a NaN drift fails too: it is not <= its tolerance
    over = not (drift["max_constraint_residual"] <= cfg.tol_constraint
                and drift["max_H_drift"] <= cfg.tol_drift
                and drift["max_J_drift"] <= cfg.tol_drift)
    failed = rec.drift_warning or (cfg.projection and over)
    if args.format == "json":
        sys.stderr.write(_json({"initial_state_adjustment": adjust, **drift,
                                 "tolerance_exceeded": failed}) + "\n")
    else:
        sys.stderr.write(f"initial-state adjustment: {adjust:.3e}\n" + "".join(
            f"{k.replace('_', ' ')}: {v:.3e}\n" for k, v in drift.items()))
        if failed:
            sys.stderr.write("tolerance exceeded\n")
    return EXIT_TOLERANCE if failed else EXIT_OK


# -- spectrum -----------------------------------------------------------


def _parse_list(text: str, cast, what: str):
    try:
        vals = [cast(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from None
    if not vals:
        raise UsageError(f"{what} must list at least one value")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"{what} entries must be finite, got {text!r}")
    return vals


def cmd_spectrum(args, cfg: RunConfig) -> int:
    lams = _parse_list(args.lam, float, "--lam")
    ns = _parse_list(args.n, int, "--n")
    if any(lam < 0 for lam in lams):
        raise UsageError("--lam entries must be >= 0")
    grid = Grid(cfg.theta_min, cfg.theta_max, cfg.n_theta, cfg.n_phi)
    stride = max(1, (grid.n_theta - 1) // 24)
    rows = []
    for lam in lams:
        for n, psi in zip(ns, sample_modes(grid, lam, ns, normalized=lam > 0)):
            if lam == 0:
                sys.stderr.write(
                    f"warning: normalization diverges at lambda = 0, "
                    f"emitting unnormalized samples for n = {n}\n")
            mode = SpectralMode(lam, n, normalized=lam > 0)
            res = eigen_residual(grid, mode, cfg.a, cfg.m, cfg.hbar, psi=psi)
            e = mode.energy(cfg.m, cfg.a, cfg.hbar)
            for k in range(0, grid.n_theta, stride):
                rows.append((lam, n, grid.theta[k], psi[k, 0].real,
                             psi[k, 0].imag, res, e))
    header = "lambda,n,theta,psi_real,psi_imag,eigen_residual,E"
    text = header + "\n" + "\n".join(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        for row in rows) + "\n"
    _emit(text, cfg.out)
    # a NaN residual fails too: it is not <= tol_eigen
    passed = all(row[5] <= cfg.tol_eigen for row in rows)
    return EXIT_OK if passed else EXIT_TOLERANCE


# -- verify -------------------------------------------------------------


def cmd_verify(args, cfg: RunConfig) -> int:
    report = run_verification(cfg, only=args.only, faults=tuple(args.inject_fault))
    doc = report.to_dict()
    doc["config"] = cfg.to_dict()
    fmt = args.format or "json"
    if fmt == "text":
        lines = []
        for c in doc["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{mark} {c['module']}.{c['name']}: "
                         f"measured {c['measured']:.3e} vs tol {c['tolerance']:.1e}")
        lines.append("result: " + ("PASS" if doc["passed"] else "FAIL"))
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        _emit(_json(doc, indent=2) + "\n", cfg.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _bind_list_values(sys.argv[1:] if argv is None else argv))
        cfg = _load_config(args)
        handler = {
            "derive": cmd_derive,
            "simulate": cmd_simulate,
            "spectrum": cmd_spectrum,
            "verify": cmd_verify,
        }[args.command]
        return handler(args, cfg)
    except (UsageError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (GridError, ConicalError, classical.SimulationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
