"""The benchmark tracer patches stochfeas names by attribute lookup; a class
or module it names that is deleted or renamed fails only when a traced run
starts.  This test installs and removes every wrapper."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_its_wrappers():
    tracer = load_tracing().Tracer()
    with tracer.installed():
        patches = list(tracer._patches)
    assert patches and not tracer._patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
