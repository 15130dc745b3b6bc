"""Configuration loading, overrides, validation."""

import json

import pytest

from hyperboloid.config import STEPS_MAX, ConfigError, RunConfig


def test_defaults():
    cfg = RunConfig()
    assert cfg.a == 1.0 and cfg.m == 1.0 and cfg.hbar == 1.0
    assert cfg.dt == 1e-3 and cfg.T == 10.0 and cfg.projection
    assert cfg.tol_constraint == 1e-8 and cfg.tol_eigen == 1e-4
    assert cfg.out is None


def test_n_theta_from_spacing():
    cfg = RunConfig(theta_min=0.1, theta_max=3.0, h=0.01)
    assert cfg.n_theta == 291


def test_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"a": 2.0, "dt": 1e-4, "n_phi": 32}))
    cfg = RunConfig.from_file(str(path))
    assert cfg.a == 2.0 and cfg.dt == 1e-4 and cfg.n_phi == 32
    assert cfg.m == 1.0   # untouched defaults survive
    # validated once, with the flag values applied (None = flag absent)
    path.write_text(json.dumps({"dt": 0.3}))
    with pytest.raises(ConfigError, match="whole number"):
        RunConfig.from_file(str(path))        # T = 10 is not 0.3 steps
    cfg = RunConfig.from_file(str(path), T=0.9, a=None)
    assert cfg.dt == 0.3 and cfg.T == 0.9 and cfg.a == 1.0


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"a": 2.0, "mass": 3.0}))
    with pytest.raises(ConfigError, match="mass"):
        RunConfig.from_file(str(path))


def test_bad_file_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    for text, match in (
            ('{"a": "2"}', "a must be float"),
            ('{"a": true}', "a must be float"),         # a bool is not a number
            ('{"n_phi": 16.5}', "n_phi must be int"),
            ('{"projection": "no"}', "projection must be bool"),
            ('{"out": 3}', "out must be str | None"),
            ('{"a": 1' + "0" * 330 + "}", "too large"),
            ("[1]", "JSON object"),
            ('{"a": ', "cannot read")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_file(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file(str(tmp_path / "missing.json"))
    # a float field takes a JSON integer
    path.write_text('{"a": 2, "projection": false, "out": null}')
    cfg = RunConfig.from_file(str(path))
    assert cfg.a == 2 and cfg.projection is False and cfg.out is None


def test_override_flag_wins():
    cfg = RunConfig(a=2.0, dt=1e-4)
    out = cfg.override(a=3.0, dt=None, seed=None)
    assert out.a == 3.0
    assert out.dt == 1e-4        # None = flag absent, config value stands
    assert cfg.a == 2.0          # frozen original untouched


def test_validation():
    with pytest.raises(ConfigError):
        RunConfig(a=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(dt=0.0)
    with pytest.raises(ConfigError):
        RunConfig(theta_min=2.0, theta_max=1.0)
    with pytest.raises(ConfigError):
        RunConfig(n_phi=12)      # not a power of two
    with pytest.raises(ConfigError, match="m a"):
        RunConfig(a=1e-300)      # a*a underflows, 1/(m a^2) is infinite
    with pytest.raises(ConfigError, match="m a"):
        RunConfig(m=1e-300, a=1e-10)
    with pytest.raises(ConfigError, match="m a"):
        RunConfig(a=1e200)       # m a^2 overflows, 1/(m a^2) is 0
    with pytest.raises(ConfigError, match="inf points"):
        RunConfig(h=1e-320)      # the point count overflows to inf


def test_step_budget():
    assert RunConfig().T / RunConfig().dt * 100 <= STEPS_MAX
    RunConfig(T=STEPS_MAX * 0.5, dt=0.5)
    with pytest.raises(ConfigError, match="steps"):
        RunConfig(T=(STEPS_MAX + 1) * 0.5, dt=0.5)
    with pytest.raises(ConfigError, match="inf steps"):
        RunConfig(T=1e300, dt=1e-300)     # T / dt overflows to inf


def test_to_dict_roundtrip():
    cfg = RunConfig(a=1.5, seed=7)
    assert RunConfig(**cfg.to_dict()) == cfg
