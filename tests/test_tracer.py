"""The per-layer tracer in perfbench/ still finds every function it names."""

import importlib
import importlib.util
from pathlib import Path

from hyperboloid.config import RunConfig
from hyperboloid.verify import run_verification

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_count():
    tracer = _load_tracer()
    for prefix, modname, attr, _ in tracer.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), prefix
    with tracer.Tracer() as t:
        report = run_verification(RunConfig(), only="geometry")
    assert report.passed
    stats = t.stats()
    assert stats["verify.checks_geometry"][0] == 1
    assert stats["verify.checks_spectral"][0] == 0
