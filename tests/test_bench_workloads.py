"""One full pass of each workload that BENCHMARK.json lists, unpatched and
read from ``bench/`` alone, so that a change to the names the benchmark
reads or to its outcomes fails here rather than in a benchmark run."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

OUTCOMES = {"validate": 341, "probe_pointwise": 121}


def test_the_benchmark_lists_these_workloads():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in listed] == list(OUTCOMES)


@pytest.mark.parametrize("name", OUTCOMES)
def test_a_pass_is_all_ok(name):
    outcomes, _ = workloads.WORKLOADS[name](1).run()
    assert len(outcomes) == OUTCOMES[name]
    assert [o for o in outcomes if not o.ok or o.wrong] == []
