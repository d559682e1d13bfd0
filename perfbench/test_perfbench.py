"""Self-test of the benchmark code; run from the repository root:

    python3 -m pytest perfbench -q

Each workload runs in the short mode (``--seconds 1``: one pass of the
program beside one of the baseline, and for a traced run one untraced plus
one traced pass), untraced once and traced twice.  About four minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from workloads import WORKLOADS, compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# exact counts at seed 0 that must repeat across traced runs
EXACT_COUNTS = {
    "toy-evolve": {"toy.stepper_builds": 2},
    "corpus-battery": {"multipliers.transforms_per_weighted_norm": 3},
    "picard-sweep": {"solver.picard_retries": 4},
}
SELF_TIME_SHARE = 0.05  # layer self times must cover the traced pass within 5 %
SAME_CODE_SHARE = 0.05  # program over identical baseline, side by side: 1 within 5 %


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for line in proc.stdout.splitlines()[:-1]:
        assert "FAILED" not in line, line
    return result["metrics"]


def _check_names(metrics: dict, listed: list[dict]) -> None:
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in metrics.items()}
    for value in metrics.values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_short_mode(workload):
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    e2e = _run(workload, 0)
    _check_names(e2e, spec["end_to_end"])
    for name in ("cpu_rel", "setup_s", "peak_rss_mb", "check_pass_ratio"):
        assert e2e[name]["value"] > 0
    # the program and the frozen baseline are the same code at this commit
    assert abs(e2e["cpu_rel"]["value"] - 1.0) <= SAME_CODE_SHARE, e2e["cpu_rel"]

    first, second = _run(workload, 1), _run(workload, 1)
    _check_names(first, spec["per_layer"])
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    for name, expected in EXACT_COUNTS.get(workload, {}).items():
        assert first[name]["value"] == expected

    for run in (first, second):
        self_total = sum(v["value"] for k, v in run.items() if k.endswith(".self_s"))
        wall = run["bench.traced_wall_s"]["value"]
        assert abs(self_total - wall) <= SELF_TIME_SHARE * wall, (self_total, wall)


def test_compare_flags_mismatches():
    ref = {"final_l2": 0.5, "fit_slope": 0.6, "failure_count": 0,
           "difference_norms": [1.0, 1e-3, 1e-9], "fixed_point_residual": 1e-9}
    assert compare(dict(ref), ref) == []
    assert compare(dict(ref, difference_norms=[1.0, 1e-3, 1e-9, 2e-9]), ref) == []
    bad = dict(ref, final_l2=0.5 * (1 + 1e-6), fit_slope=0.7, failure_count=1,
               difference_norms=[1.0, 1.1e-3], fixed_point_residual=1e-6)
    assert len(compare(bad, ref)) == 5
