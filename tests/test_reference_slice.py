"""A slice of the benchmark's own output check.

``perfbench/workloads.py`` checks every benchmark item against the outputs
recorded in ``perfbench/reference.json``.  Running a few of those items here
makes a drift in a pruning or tuning decision fail the suite, not only the
benchmark.  Both files are only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text())


# One tuned study per model.  Each of these selects different (s, gamma) when
# a merged parent's rows are taken in time order instead of child order.
@pytest.mark.parametrize(
    "key",
    ["model2-n1000-r4-b1000004", "model1-n2000-r2-b1000000", "model3-n2000-r2-b1000000"],
)
def test_mc_tuned_item_matches_reference(workloads, reference, key):
    plan = workloads.McTuned(seed=1)
    observed = plan.observe(key, plan.run(key))
    assert workloads.McTuned.check(observed, reference["mc_tuned"][key]) == []


# Three `vlmcx fit` inputs: every 3-state leaf fit runs the multinomial
# kernel, so a change in its bits that moves a decision fails here.
def test_cli_fit_item_matches_reference(workloads, reference, tmp_path):
    keys = ["tri-n10000-s2000000", "tri-n10000-s2000007", "tri-n10000-s2000031"]
    plan = workloads.CliFit(keys, str(tmp_path))
    mismatches = {
        key: workloads.CliFit.check(plan.observe(key, plan.run(key)), reference["cli_fit"][key])
        for key in keys
    }
    assert mismatches == {key: [] for key in keys}


# One generated sequence per model: any change to the generated stream, or a
# log-likelihood beyond the benchmark's tolerance, fails here.
@pytest.mark.parametrize("model", ["model1", "model2", "model3", "tri"])
def test_simulate_score_item_matches_reference(workloads, reference, model):
    key = f"{model}-n5000-s3000000"
    plan = workloads.SimulateScore(seed=1)
    observed = plan.observe(key, plan.run(key))
    assert workloads.SimulateScore.check(observed, reference["simulate_score"][key]) == []
