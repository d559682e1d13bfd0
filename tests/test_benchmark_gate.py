"""The benchmark's correctness gate in the test suite.

The harness in ``perfbench/`` grades every pass: the report checks of each
run and its key numbers against ``perfbench/reference.json``.  Here its own
worker warms up and runs one pass of each declared workload at seed 0, so a
broken import of the warm-up or a key number that drifted fails a test
before it fails a benchmark run.  Nothing under ``perfbench/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = 0


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        import worker

        worker.warm_up()
        yield worker


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_benchmark_pass_meets_its_reference(worker, tmp_path, name):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    _, _, outcomes = worker.run_pass(name, SEED, str(tmp_path / "pass"))
    attempted, failures = worker.grade(outcomes, reference[name][str(worker.data_seed(SEED))])
    assert attempted > 0
    assert failures == []
