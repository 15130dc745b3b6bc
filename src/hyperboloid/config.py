"""Run configuration: JSON file, overridable field by field from flags."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace


class ConfigError(Exception):
    pass


# (theta, phi) points a grid may hold: 45 times the default 2901 x 16, 32 MiB a field
GRID_POINTS_MAX = 1 << 21

# RK4 steps T / dt a run may take: about 100 times the default 10^4
STEPS_MAX = 1 << 20


# the JSON value types each field annotation accepts
_JSON_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,),
               "str | None": (str, type(None))}


@dataclass(frozen=True)
class RunConfig:
    # physical parameters
    a: float = 1.0
    m: float = 1.0
    hbar: float = 1.0
    # integrator
    dt: float = 1e-3
    T: float = 10.0
    projection: bool = True
    # spectral grid
    theta_min: float = 0.1
    theta_max: float = 3.0
    h: float = 1e-3
    n_phi: int = 16
    # tolerances
    tol_constraint: float = 1e-8
    tol_drift: float = 1e-8
    tol_eigen: float = 1e-4
    # reproducibility and output
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        for name in ("a", "m", "hbar", "dt", "T", "theta_min", "h",
                     "tol_constraint", "tol_drift", "tol_eigen"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        # the drift and energy scales divide by m a^2, which must neither
        # underflow nor overflow
        ma2 = self.m * self.a * self.a
        if not (0 < ma2 < math.inf and 1 / ma2 < math.inf):
            raise ConfigError(
                f"m a^2 and 1/(m a^2) must be finite, got m = {self.m}, a = {self.a}")
        # a float count, so T = 1e300 with dt = 1e-300 gives inf, refused
        # before round() would overflow
        steps = self.T / self.dt
        if not steps <= STEPS_MAX:
            raise ConfigError(f"T = {self.T} with dt = {self.dt} is {steps:.3g} steps, "
                              f"more than {STEPS_MAX}")
        # a T that is not a whole number of steps would be cut short or overshot
        n = round(steps)
        if n < 1 or abs(steps - n) > 1e-9 * n:
            raise ConfigError(f"T = {self.T} is not a whole number of dt = {self.dt} steps")
        if not (math.isfinite(self.theta_max) and self.theta_max > self.theta_min):
            raise ConfigError("theta_max must be finite and exceed theta_min")
        # spectral phi differentiation wants a power-of-two FFT length
        if self.n_phi < 4 or self.n_phi & (self.n_phi - 1):
            raise ConfigError(f"n_phi must be a power of two >= 4, got {self.n_phi}")
        # a float count, so h = 1e-320 gives inf, refused before any array is built
        points = ((self.theta_max - self.theta_min) / self.h + 1) * self.n_phi
        if not points <= GRID_POINTS_MAX:
            raise ConfigError(f"the grid of h = {self.h} and n_phi = {self.n_phi} has "
                              f"{points:.3g} points, more than {GRID_POINTS_MAX}")

    @property
    def n_theta(self) -> int:
        return int(round((self.theta_max - self.theta_min) / self.h)) + 1

    @classmethod
    def from_file(cls, path: str | None, **overrides) -> "RunConfig":
        """Load a JSON config file (none when path is None) with flag values
        (None = not given) over it, and validate the merged values once."""
        data = {}
        if path is not None:
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from None
            if not isinstance(data, dict):
                raise ConfigError(f"config file {path} must hold a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            # exact JSON types: a bool is not a number here
            if type(value) not in _JSON_TYPES[types[key]]:
                raise ConfigError(f"config key {key} must be {types[key]}, got {value!r}")
            if types[key] == "float":
                try:
                    data[key] = float(value)
                except OverflowError:
                    raise ConfigError(f"config key {key} is too large for a float") from None
        data.update((k, v) for k, v in overrides.items() if v is not None)
        return cls(**data)

    def override(self, **kwargs) -> "RunConfig":
        """Apply flag values; None means the flag was not given."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
