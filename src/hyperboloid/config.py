"""Run configuration: JSON file, overridable field by field from flags."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace


class ConfigError(Exception):
    pass


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
        # the drift and energy scales divide by m a^2, which must not underflow
        ma2 = self.m * self.a * self.a
        if not (ma2 > 0 and math.isfinite(1 / ma2)):
            raise ConfigError(f"1/(m a^2) must be finite, got m = {self.m}, a = {self.a}")
        # a T that is not a whole number of steps would be cut short or overshot
        steps = round(self.T / self.dt)
        if steps < 1 or abs(self.T / self.dt - steps) > 1e-9 * steps:
            raise ConfigError(f"T = {self.T} is not a whole number of dt = {self.dt} steps")
        if not (math.isfinite(self.theta_max) and self.theta_max > self.theta_min):
            raise ConfigError("theta_max must be finite and exceed theta_min")
        # spectral phi differentiation wants a power-of-two FFT length
        if self.n_phi < 4 or self.n_phi & (self.n_phi - 1):
            raise ConfigError(f"n_phi must be a power of two >= 4, got {self.n_phi}")

    @property
    def n_theta(self) -> int:
        return int(round((self.theta_max - self.theta_min) / self.h)) + 1

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        """Load a JSON config file with flag values (None = not given) over
        it, and validate the merged values once."""
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data.update((k, v) for k, v in overrides.items() if v is not None)
        return cls(**data)

    def override(self, **kwargs) -> "RunConfig":
        """Apply flag values; None means the flag was not given."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
