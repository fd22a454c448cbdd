"""perfbench's in-process workloads, run once at seed 0 against the
package as it stands.

The benchmark compares each run's outputs with `perfbench/digests.json`
and reports `reference: identical` or `differs`; a change that moves a
recorded digest would otherwise show only when the benchmark is run.
cli-month's recorded digest depends on the BLAS thread count, so that
workload is only checked to run without a `CheckFailed`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its `import reference`
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def run_once(workload):
    workload.setup()
    workload.ingest()
    workload.train()
    return workload.evaluate()


@pytest.mark.parametrize("name", ["recursive-family", "gan-augment"])
def test_outputs_equal_the_recorded_digests(workloads, tmp_path, name):
    with open(PERFBENCH / "digests.json") as f:
        recorded = json.load(f)["outputs"][name]["0"]
    outputs = run_once(workloads.WORKLOADS[name](0, tmp_path))
    assert {"test_mse": outputs.test_mse, "digest": outputs.digest} == recorded


def test_cli_month_passes_its_checks(workloads, tmp_path):
    outputs = run_once(workloads.WORKLOADS["cli-month"](0, tmp_path / "run"))
    assert outputs.test_mse > 0
