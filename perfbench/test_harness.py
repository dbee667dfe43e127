"""Fast self-check of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench

Runs the shortest run of a shrunken ``fixtures`` workload untraced and traced,
and checks that the harness emits every metric ``BENCHMARK.json`` declares,
counts a corrupted output as a failure, and refuses to run outside a
checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = dataclasses.replace(
    run.WORKLOADS["fixtures"], n_trials=400, streams=1, library_trials=400
)


def _measure(tmp_path: Path) -> run.Run:
    run.prepare(TINY, 3, tmp_path, streams=None)
    # With no time to fill, a run is one pass plus the repeated estimate and simulate.
    return run.measure(TINY, 0.0, tmp_path)


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: spec[:2] for name, spec in spans.LAYER_METRICS.items()
    }
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_end_to_end_metric_is_emitted_with_samples(tmp_path):
    measured = _measure(tmp_path)
    assert measured.failed == 0, measured.problems
    metrics, counts = run.e2e_metrics(measured)
    assert set(metrics) == set(counts) == set(run.E2E_UNITS)
    assert all(value > 0.0 for value in metrics.values())
    assert all(n >= 1 for n in counts.values())
    assert len(measured.samples["estimate_s"]) == len(measured.samples["simulate_s"]) == 2
    assert len(measured.samples["contract_s"]) == 1
    assert len(measured.samples["setup_s"]) == measured.attempted == 7


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    check = run.Run.check

    def corrupting(self, stage):
        if stage == "contract":
            (self.work / "contracts.csv").write_text("month,hour\n")
        return check(self, stage)

    monkeypatch.setattr(run.Run, "check", corrupting)
    measured = _measure(tmp_path)
    assert measured.attempted == 7
    assert measured.failed >= 1
    assert any("contracts.csv" in p for p in measured.problems)


def test_traced_run_reports_every_layer_metric(tmp_path):
    run.prepare(TINY, 3, tmp_path, streams=1)
    traced, passes, metrics, breakdown = run.traced(TINY, 0.0, tmp_path)
    assert traced.failed == 0, traced.problems
    assert passes == 1
    assert set(spans.LAYER_METRICS) <= set(metrics)
    assert metrics["nnls.calls"] == 183
    assert metrics["contracts.fallback_share"] == 0.0
    assert metrics["kernels.settle_calls"] > 0
    assert abs(metrics["trace.self_sum_ratio"] - 1.0) < 1e-9
    for stage, row in breakdown.items():
        layers = sum(v for k, v in row.items() if k != "wall_s")
        assert abs(layers - row["wall_s"]) < 1e-9, stage
    # The wrappers are gone again once the traced run has finished.
    import drcontracts.aggregation
    import drcontracts.cli
    import drcontracts.contracts

    assert drcontracts.cli.optimal_contract is drcontracts.contracts.optimal_contract
    assert drcontracts.aggregation.optimal_contract is drcontracts.contracts.optimal_contract


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
