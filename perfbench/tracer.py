"""Per-layer tracing from outside the package.

``Tracer`` wraps each function in ``TRACED`` at every module binding of
its name (``cli`` binds ``dirac_bracket``, ``grid`` binds ``conical_pn``,
``verify`` binds the grid operators), so calls made through any alias
are seen.  Each wrapper counts calls, records the distinct leading
arguments of the functions that can repeat work, and keeps a span stack
so that a function's self time excludes the traced calls it makes,
which is what keeps the recursive ``poly_gcd`` honest.  Nothing inside
the package changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute, leading arguments that identify the
# work for unique_ratio, or 0 when the function has no unique_ratio)
TRACED = (
    ("expr.poly_gcd", "hyperboloid.expr", "poly_gcd", 0),
    ("brackets.poisson", "hyperboloid.brackets", "poisson", 2),
    ("brackets.dirac_bracket", "hyperboloid.brackets", "dirac_bracket", 2),
    ("brackets.reduce_on_shell", "hyperboloid.brackets", "reduce_on_shell", 0),
    ("brackets.is_zero_on_shell", "hyperboloid.brackets", "is_zero_on_shell", 0),
    ("brackets.bracket_matrix", "hyperboloid.brackets", "bracket_matrix", 0),
    ("brackets.constraint_chain", "hyperboloid.brackets", "constraint_chain", 0),
    ("brackets.verify_iso12", "hyperboloid.brackets", "verify_iso12", 0),
    ("geometry.inner", "hyperboloid.geometry", "inner", 0),
    ("geometry.lower", "hyperboloid.geometry", "lower", 0),
    ("classical.integrate_embedded", "hyperboloid.classical", "integrate_embedded", 0),
    ("classical.project_embedded", "hyperboloid.classical", "project_embedded", 0),
    ("classical.TrajectoryRecord.write_csv", "hyperboloid.classical",
     "TrajectoryRecord.write_csv", 0),
    ("classical.integrate_intrinsic", "hyperboloid.classical", "integrate_intrinsic", 0),
    ("classical.closed_form_geodesic", "hyperboloid.classical", "closed_form_geodesic", 0),
    ("conical.conical_p0", "hyperboloid.conical", "conical_p0", 0),
    ("conical.conical_pn", "hyperboloid.conical", "conical_pn", 3),
    ("conical.complex_gamma", "hyperboloid.conical", "complex_gamma", 0),
    ("conical.normalization", "hyperboloid.conical", "normalization", 0),
    ("conical.conical_p0_oracle", "hyperboloid.conical", "conical_p0_oracle", 0),
    ("conical.conical_pn_oracle", "hyperboloid.conical", "conical_pn_oracle", 0),
    ("numpy.leggauss", "numpy.polynomial.legendre", "leggauss", 1),
    ("grid.sample_mode", "hyperboloid.grid", "sample_mode", 0),
    ("grid.eigen_residual", "hyperboloid.grid", "eigen_residual", 0),
    ("grid.laplace_beltrami", "hyperboloid.grid", "laplace_beltrami", 0),
    ("grid.apply_j", "hyperboloid.grid", "apply_j", 0),
    ("grid.apply_p", "hyperboloid.grid", "apply_p", 0),
    ("verify.checks_phase_algebra", "hyperboloid.verify", "checks_phase_algebra", 0),
    ("verify.checks_geometry", "hyperboloid.verify", "checks_geometry", 0),
    ("verify.checks_classical", "hyperboloid.verify", "checks_classical", 0),
    ("verify.checks_spectral", "hyperboloid.verify", "checks_spectral", 0),
    ("cli.build_derive_report", "hyperboloid.cli", "build_derive_report", 0),
    ("cli.cmd_spectrum", "hyperboloid.cli", "cmd_spectrum", 0),
    ("cli.cmd_simulate", "hyperboloid.cli", "cmd_simulate", 0),
)


class _Stat:
    __slots__ = ("calls", "self_s", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set()


class Tracer:
    """Use as a context manager around one operation; ``stats()`` then
    gives {prefix: [calls, self_s, distinct argument tuples]}."""

    def __init__(self):
        self._stats = {prefix: _Stat() for prefix, *_ in TRACED}
        self._stack = []
        self._patches = []

    def _wrap(self, stat: _Stat, orig, nkey: int):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if nkey:
                stat.keys.add(args[:nkey])
            stack.append(0.0)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return wrapper

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hyperboloid" or name.startswith("hyperboloid.")]
        for prefix, modname, attr, nkey in TRACED:
            owner = importlib.import_module(modname)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, name)
            wrapper = self._wrap(self._stats[prefix], orig, nkey)
            sites = [(owner, name)] + [
                (m, n) for m in modules if m is not owner
                for n, v in list(vars(m).items()) if v is orig]
            for site, n in sites:
                self._patches.append((site, n, orig))
                setattr(site, n, wrapper)
        return self

    def __exit__(self, *exc):
        for site, n, orig in reversed(self._patches):
            setattr(site, n, orig)
        self._patches.clear()
        return False

    def stats(self) -> dict:
        return {prefix: [s.calls, s.self_s, len(s.keys)]
                for prefix, s in self._stats.items()}
