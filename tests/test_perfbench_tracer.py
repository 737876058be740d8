"""The benchmark tracer patches stochfeas names by attribute lookup; a class
or module it names that is deleted or renamed fails only when a traced run
starts.  One test installs and removes every wrapper; another checks that
the span an SGD run enters counts its iterations."""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_tracer_counts_the_iterations_of_an_sgd_run():
    # the run_sgd span counts the iterations of the trace it returns
    from stochfeas import fixedpoint

    fam = fixedpoint.quadratic_family(np.zeros(3), np.array([[0.1, 0, 0], [-0.1, 0, 0]]))
    cfg = fixedpoint.SgdConfig(beta=1.0, nu=0.75, max_iters=50, seed=0, gradient_family=fam)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        fixedpoint.run_sgd(cfg, np.ones(3))
    agg, counts, _ = tracer.totals()
    assert agg["fixedpoint.run_sgd"][0] == 1
    assert counts["sgd.iters"] == 50
