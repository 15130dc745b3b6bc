#!/usr/bin/env python3
"""Spectrum table: E_lambda = hbar^2/(2 m a^2) (lambda^2 + 1/4) and the
grid eigen-residual for each (lambda, n).

Each lambda takes one radial_profiles pass for all of its orders.
"""

import argparse

from hyperboloid.config import RunConfig
from hyperboloid.grid import Grid, SpectralMode, eigen_residual, sample_modes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", default="0.5,1,2,4")
    ap.add_argument("--n", default="0,1,2")
    ap.add_argument("--grid-h", type=float, default=2e-3, dest="h")
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--m", type=float, default=1.0)
    args = ap.parse_args()

    cfg = RunConfig(a=args.a, m=args.m, h=args.h)
    grid = Grid(cfg.theta_min, cfg.theta_max, cfg.n_theta, cfg.n_phi)
    print(f"{'lambda':>8} {'n':>3} {'E':>12} {'eigen residual':>15}")
    ns = [int(v) for v in args.n.split(",")]
    for lam in (float(v) for v in args.lam.split(",")):
        for n, psi in zip(ns, sample_modes(grid, lam, ns, normalized=lam > 0)):
            mode = SpectralMode(lam, n, normalized=lam > 0)
            res = eigen_residual(grid, mode, cfg.a, cfg.m, cfg.hbar, psi=psi)
            print(f"{lam:8.3f} {n:3d} {mode.energy(cfg.m, cfg.a, cfg.hbar):12.6f} "
                  f"{res:15.3e}")


if __name__ == "__main__":
    main()
