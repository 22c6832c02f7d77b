"""Self-test of the benchmark: every workload at 1/20 size, traced.

Not collected by tier-1 (whose ``testpaths`` is ``tests/``); run it with

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w[0] for w in spec.WORKLOADS]
SCALE = "0.05"


def run(workload: str, trace: int, seed: int = spec.DEFAULT_SEED) -> tuple[dict, dict]:
    """One measured run; its contract line and its detail record."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
            "--scale", SCALE,
        ],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(l[len("E2E_DETAIL "):]) for l in lines if l.startswith("E2E_DETAIL "))
    return json.loads(lines[-1]), detail


def check_schema(result: dict, expected: tuple) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in expected}
    units = {m[0]: m[1] for m in expected}
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
        assert entry["unit"] == units[name]


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    names = [m[0] for m in (*spec.END_TO_END, *spec.PER_LAYER)] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, detail = run(workload, trace=0)
    check_schema(result, spec.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert set(detail["guards"]) == {g[0] for g in spec.GUARDS}
    assert len(detail["setup_rounds_s"]) >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_the_timed_wall(workload):
    result, detail = run(workload, trace=1)
    check_schema(result, spec.PER_LAYER)
    assert result["metrics"]["bench.unattributed_share"]["value"] <= 0.10
    trace = json.loads(Path(detail["trace"]).read_text())
    spans = trace["spans"]
    assert spans and trace["meta"]["workload"] == workload
    children = [s for s in spans if s["parent"] is not None]
    assert children, "no parent-linked spans"
    for span in children[:2000]:
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert parent["request_id"] is None or span["request_id"] == parent["request_id"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_reaches_the_generator(workload):
    _, default = run(workload, trace=0)
    _, again = run(workload, trace=0)
    _, other = run(workload, trace=0, seed=spec.DEFAULT_SEED + 1)
    assert default["result_digest"] == again["result_digest"]
    # "exact" is 1e-9: the thread backend sums costs in completion order
    assert default["guards"] == pytest.approx(again["guards"], abs=1e-9, rel=0)
    assert default["result_digest"] != other["result_digest"]
