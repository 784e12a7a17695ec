"""Schema smoke test of the benchmark: ``python -m pytest bench/tests``.

Runs the harness in ``--quick`` mode (same code paths, 1/20 of the
operations) and checks what it prints and writes, not how fast it is.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import adapters  # noqa: E402
import compare  # noqa: E402
import stats  # noqa: E402
import trace as tracing  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= result["failed"] >= 0 and result["attempted"] >= 1
    return result


def check_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run_quick(workload, trace=0)
    check_metrics(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, f"{name} must never read 0"


def test_traced_run_reports_every_per_layer_metric_and_a_consistent_trace():
    result = run_quick("zap_renew", trace=1)
    check_metrics(result, SPEC["per_layer"])
    with open(os.path.join(BENCH_DIR, "out", "detail-zap_renew-t1.json"), encoding="utf-8") as handle:
        detail = json.load(handle)
    offline = tracing.self_times_from_jsonl(os.path.join(REPO_ROOT, detail["trace_file"]))
    assert sum(offline.values()) <= detail["busy_s"]
    for name, seconds in offline.items():
        online = result["metrics"][f"{name}.self_ms"]["value"]
        assert online == pytest.approx(seconds * 1e3, rel=1e-6, abs=1e-3), name
    share = result["metrics"]["harness.unattributed_share"]["value"]
    assert 0.0 <= share <= 1.0


def test_benchmark_json_stays_inside_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_start_up_names_a_boundary_that_no_longer_resolves(monkeypatch):
    broken = adapters.BOUNDARIES + (adapters.Boundary("x", "y", "repro.core.client:Client.gone", "wrap"),)
    monkeypatch.setattr(adapters, "BOUNDARIES", broken)
    with pytest.raises(SystemExit) as excinfo:
        adapters.load()
    assert "repro.core.client:Client.gone" in str(excinfo.value)


def _document(median: float, values=None, quick=False) -> dict:
    summary = stats.summary(values or [median, median, median])
    summary["values"] = values or [median, median, median]
    entry = {"attempted": 100, "failed": 0, "end_to_end": {m["name"]: dict(summary) for m in SPEC["end_to_end"]}}
    machine = {"cores": 2, "python": "3", "numpy": None, "platform": "test"}
    return {"machine": machine, "quick": quick, "workloads": {w["name"]: entry for w in SPEC["workloads"]}}


def test_compare_gives_a_verdict_from_the_bounds():
    rows = compare.compare(_document(100.0), _document(150.0), SPEC)
    by_metric = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert by_metric[("zap_renew", "switch_ms_p50")] == "regressed"  # lower is better
    assert by_metric[("zap_renew", "zap_ops_per_s")] == "improved"  # higher is better
    rows = compare.compare(_document(100.0), _document(104.0), SPEC)
    assert {r["verdict"] for r in rows if r["metric"] == "switch_ms_p50"} == {"unchanged"}
    noisy = _document(100.0, values=[60.0, 100.0, 140.0])
    rows = compare.compare(noisy, _document(104.0), SPEC)
    assert {r["verdict"] for r in rows if r["metric"] != "failure_share"} == {"unresolved"}


def test_compare_refuses_quick_results(tmp_path):
    paths = []
    for label, quick in (("a", False), ("b", True)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(_document(1.0, quick=quick)))
        paths.append(str(path))
    assert compare.main(paths) == 2
