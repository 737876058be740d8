"""Every benchmark workload builds its inputs and runs its first operation
through the stochfeas names it calls, so that a deleted or renamed name
fails here rather than only when the benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def load_workloads(monkeypatch):
    # workloads.py imports its sibling calibration.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_its_first_operation(name, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    # the CLI workload sets STOCHFEAS_THREADS; monkeypatch restores it afterwards
    monkeypatch.delenv("STOCHFEAS_THREADS", raising=False)
    workload = workloads.WORKLOADS[name](1, tmp_path)
    try:
        workload.prepare(workload.construct())
        outcome = workload.finish(0, workload.run(0))
    finally:
        workload.close()
    assert outcome.problems == []
    assert outcome.iterations > 0
