"""End-to-end command-line pipeline on a copy of the bundled fixtures."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from drcontracts.cli import (
    ALPHA_SWEEP_HEADER,
    SCHEDULE_CSV_HEADER_FULL,
    _read_contracts_csv,
    load_run_config,
    main,
    spearman_rho,
)
from drcontracts.contracts import optimal_contract
from drcontracts.estimation import CapabilityModel, read_shapes_csv, restrict_to_common
from drcontracts.program import ProgramTerms
from drcontracts.simulation import simulate_horizon
from oracles import passive_set_search_nnls

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"
INPUTS = ("config.json", "sample_load.csv", "shapes.csv")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """Fixture inputs plus a full pipeline run (estimate -> contract -> simulate)."""
    root = tmp_path_factory.mktemp("cli")
    for name in INPUTS:
        shutil.copy(FIXTURES / name, root / name)
    config = str(root / "config.json")
    # Shrink the trial count so the module's tests stay fast.
    obj = json.loads((root / "config.json").read_text())
    obj["simulation"]["n_trials"] = 1200
    (root / "config.json").write_text(json.dumps(obj, indent=2))
    assert main(["estimate", "--config", config, "--out", str(root / "model.json")]) == 0
    assert (
        main(
            [
                "contract",
                "--config",
                config,
                "--building",
                "acme_plant",
                "--out",
                str(root / "contracts.csv"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "simulate",
                "--config",
                config,
                "--building",
                "acme_plant",
                "--out",
                str(root / "report.json"),
            ]
        )
        == 0
    )
    return root


def run(*argv: str) -> int:
    return main(list(argv))


class TestConfigValidation:
    def write_config(self, tmp_path, obj) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def base_config(self) -> dict:
        return json.loads((FIXTURES / "config.json").read_text())

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(
            "estimate",
            "--config",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert (
            run("estimate", "--config", str(path), "--out", str(tmp_path / "m.json"))
            == 2
        )

    def test_unknown_block_rejected(self, tmp_path, capsys):
        obj = self.base_config()
        obj["extras"] = {}
        code = run(
            "estimate",
            "--config",
            self.write_config(tmp_path, obj),
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "unknown config blocks" in capsys.readouterr().err

    def test_unknown_estimation_key_rejected(self, tmp_path, capsys):
        obj = self.base_config()
        obj["estimation"]["smoothing"] = 3
        code = run(
            "estimate",
            "--config",
            self.write_config(tmp_path, obj),
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "unknown estimation keys" in capsys.readouterr().err

    def test_simulation_windows_key_rejected(self, tmp_path, capsys):
        # simulate replays the contract schedule, whose length fixes the windows.
        obj = self.base_config()
        obj["simulation"]["windows_per_horizon"] = 24
        code = run(
            "simulate",
            "--config",
            self.write_config(tmp_path, obj),
            "--building",
            "acme_plant",
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "unknown simulation keys" in capsys.readouterr().err

    def test_estimation_fraction_must_be_explicit(self, tmp_path, capsys):
        obj = self.base_config()
        del obj["estimation"]["curtailable_fraction"]
        code = run(
            "estimate",
            "--config",
            self.write_config(tmp_path, obj),
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "curtailable_fraction" in capsys.readouterr().err

    def test_missing_estimation_block(self, tmp_path, capsys):
        obj = self.base_config()
        del obj["estimation"]
        code = run(
            "estimate",
            "--config",
            self.write_config(tmp_path, obj),
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "missing 'estimation' block" in capsys.readouterr().err

    def test_simulation_needs_n_trials(self, tmp_path, capsys):
        obj = self.base_config()
        del obj["simulation"]["n_trials"]
        code = run(
            "simulate",
            "--config",
            self.write_config(tmp_path, obj),
            "--building",
            "acme_plant",
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "n_trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("simulation", "n_trials", 100.0),
            ("simulation", "n_trials", True),
            ("simulation", "seed", 7.0),
            ("simulation", "seed", True),
            ("simulation", "parallel_streams", True),
            ("simulation", "parallel_streams", 0),
            ("estimation", "curtailable_fraction", True),
            ("estimation", "min_bucket_size", 4.0),
        ],
    )
    def test_malformed_config_value_rejected(self, tmp_path, capsys, block, key, value):
        # JSON 100.0 and true are not the integer 100: no block coerces them.
        obj = self.base_config()
        obj[block][key] = value
        out = tmp_path / "out.json"
        argv = ["--config", self.write_config(tmp_path, obj), "--out", str(out)]
        if block == "simulation":
            argv = ["simulate", *argv, "--building", "acme_plant"]
        else:
            argv = ["estimate", *argv]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{block} block" in err and key in err
        assert not out.exists()

    def test_ill_posed_terms_rejected(self, tmp_path, capsys):
        obj = self.base_config()
        obj["terms"]["pi_r"] = 1.0  # pi_r >= p*pi_p: reservation dominates penalty
        code = run(
            "contract",
            "--config",
            self.write_config(tmp_path, obj),
            "--building",
            "acme_plant",
            "--out",
            str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_missing_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main([])


class TestEstimate:
    def test_model_written_and_summarized(self, workspace, capsys):
        model = json.loads((workspace / "model.json").read_text())
        assert set(model["buildings"]) == {"acme_plant", "birch_mall", "cedar_office"}
        code = run(
            "estimate",
            "--config",
            str(workspace / "config.json"),
            "--out",
            str(workspace / "model_again.json"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "acme_plant" in out
        assert "buckets kept" in out

    def test_rerun_is_byte_identical(self, workspace):
        first = (workspace / "model.json").read_bytes()
        again = workspace / "model_rerun.json"
        assert (
            run(
                "estimate",
                "--config",
                str(workspace / "config.json"),
                "--out",
                str(again),
            )
            == 0
        )
        assert again.read_bytes() == first

    def test_row_order_does_not_change_the_model(self, tmp_path, monkeypatch, capsys):
        for name in INPUTS:
            shutil.copy(FIXTURES / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        argv = ("estimate", "--config", "config.json", "--out", "model.json")
        assert run(*argv) == 0
        ordered = (tmp_path / "model.json").read_text(), capsys.readouterr().out
        header, *rows = (FIXTURES / "sample_load.csv").read_text().splitlines()
        random.Random(11).shuffle(rows)
        buildings = [row.split(",")[1] for row in rows]
        assert len(set(buildings[:10])) > 1  # the buildings' rows interleave
        (tmp_path / "sample_load.csv").write_text("\n".join([header, *rows]) + "\n")
        assert run(*argv) == 0
        shuffled = (tmp_path / "model.json").read_text(), capsys.readouterr().out
        # The input digest hashes the file's bytes; nothing else may change.
        old, new = (json.loads(text)["metadata"] for text, _ in (ordered, shuffled))
        assert old["source_digest"] != new["source_digest"]
        assert shuffled[0].replace(new["source_digest"], old["source_digest"]) == ordered[0]
        assert shuffled[1] == ordered[1]
        assert new["record_counts"] == dict(Counter(buildings))


class TestContract:
    def test_schedule_columns(self, workspace):
        lines = (workspace / "contracts.csv").read_text().splitlines()
        assert lines[0] == ",".join(SCHEDULE_CSV_HEADER_FULL)
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(SCHEDULE_CSV_HEADER_FULL)
            assert float(fields[4]) >= 0.0  # c_star
            assert fields[5] in {"none", "low", "high"}

    def test_rerun_is_byte_identical(self, workspace):
        first = (workspace / "contracts.csv").read_bytes()
        again = workspace / "contracts_rerun.csv"
        assert (
            run(
                "contract",
                "--config",
                str(workspace / "config.json"),
                "--building",
                "acme_plant",
                "--out",
                str(again),
            )
            == 0
        )
        assert again.read_bytes() == first

    def test_unknown_building_is_consistency_error(self, workspace, capsys):
        code = run(
            "contract",
            "--config",
            str(workspace / "config.json"),
            "--building",
            "nope",
            "--out",
            str(workspace / "x.csv"),
        )
        assert code == 3
        assert "nope" in capsys.readouterr().err

    def test_alpha_sweep_output(self, workspace):
        out = workspace / "sweep_schedule.csv"
        code = run(
            "contract",
            "--config",
            str(workspace / "config.json"),
            "--building",
            "acme_plant",
            "--out",
            str(out),
            "--alpha-sweep",
            "0:2:5",
        )
        assert code == 0
        sweep = workspace / "sweep_schedule_alpha_sweep.csv"
        lines = sweep.read_text().splitlines()
        assert lines[0] == ",".join(ALPHA_SWEEP_HEADER)
        assert len(lines) == 6
        alphas = [float(line.split(",")[0]) for line in lines[1:]]
        assert alphas == [0.0, 0.5, 1.0, 1.5, 2.0]
        # contracts shrink (weakly) as risk aversion grows
        totals = [float(line.split(",")[1]) for line in lines[1:]]
        assert totals == sorted(totals, reverse=True)

    @pytest.mark.parametrize(
        "spec_text", ["1:2", "2:1:5", "0:1:1", "a:b:3", "-1:1:3", "nan:1:3", "0:inf:3"]
    )
    def test_alpha_sweep_parse_errors(self, workspace, spec_text, capsys):
        code = run(
            "contract",
            "--config",
            str(workspace / "config.json"),
            "--building",
            "acme_plant",
            "--out",
            str(workspace / "y.csv"),
            f"--alpha-sweep={spec_text}",
        )
        assert code == 2
        assert "--alpha-sweep" in capsys.readouterr().err
        assert not (workspace / "y.csv").exists()
        assert not (workspace / "y_alpha_sweep.csv").exists()

    def test_building_without_buckets_writes_nothing(self, tmp_path, capsys):
        for name in INPUTS:
            shutil.copy(FIXTURES / name, tmp_path / name)
        # two 23-hour days: estimate keeps the building with no buckets
        ghost = [
            f"2021-03-0{day}T{hour:02d}:00:00,ghost_site,5.0\n"
            for day in (1, 2)
            for hour in range(23)
        ]
        with (tmp_path / "sample_load.csv").open("a") as handle:
            handle.writelines(ghost)
        config = str(tmp_path / "config.json")
        assert run("estimate", "--config", config, "--out", str(tmp_path / "model.json")) == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["buildings"]["ghost_site"]["buckets"] == {}
        capsys.readouterr()

        out = tmp_path / "ghost.csv"
        code = run("contract", "--config", config, "--building", "ghost_site", "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "ghost_site" in err and "no buckets" in err
        assert not out.exists()

    def test_coerced_model_field_rejected(self, workspace, capsys):
        model = json.loads((workspace / "model.json").read_text())
        model["buildings"]["acme_plant"]["values"][0][0] = "1.5"
        (workspace / "model_coerced.json").write_text(json.dumps(model))
        obj = json.loads((workspace / "config.json").read_text())
        obj["paths"]["model"] = "model_coerced.json"
        config = workspace / "config_coerced.json"
        config.write_text(json.dumps(obj))
        out = workspace / "coerced.csv"
        code = run(
            "contract", "--config", str(config), "--building", "acme_plant", "--out", str(out)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "values" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("values", 0, 3), "1.5", "values must be a list of 24-long rows of JSON numbers"),
        (("values", 2, 5), -0.5, "values must be finite and >= 0"),
        (
            ("buckets", "03-10-weekday"),
            None,
            "building 'birch_mall': bucket labels differ from the buckets its days and "
            "values keep (missing ['03-10-weekday'], extra [])",
        ),
        (("buckets", "03-10-weekday", "sigma"), -1.0, "sigma must be finite and >= 0, got -1.0"),
        (
            ("buckets", "03-10-weekday", "fit_distance"),
            7.5,
            "fit_distance must lie in [0, 1], got 7.5",
        ),
    ],
)
def test_model_load_checks_buildings_the_command_does_not_use(
    workspace, capsys, path, value, message
):
    model = json.loads((workspace / "model.json").read_text())
    target = model["buildings"]["birch_mall"]
    for step in path[:-1]:
        target = target[step]
    # None deletes the entry; anything else replaces it.
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    (workspace / "model_other.json").write_text(json.dumps(model))
    obj = json.loads((workspace / "config.json").read_text())
    obj["paths"]["model"] = "model_other.json"
    config = workspace / "config_other.json"
    config.write_text(json.dumps(obj))
    out = workspace / "other.csv"
    code = run("contract", "--config", str(config), "--building", "acme_plant", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: malformed capability model: {message}\n"
    assert not out.exists()


def test_buckets_are_built_only_for_the_building_in_use(
    workspace, tmp_path, monkeypatch, capsys
):
    from drcontracts.distributions import EmpiricalDistribution, NormalDistribution

    built = {EmpiricalDistribution: [], NormalDistribution: []}
    for cls, made in built.items():

        def counting(self, init=cls.__post_init__, made=made):
            init(self)
            made.append(self)

        monkeypatch.setattr(cls, "__post_init__", counting)

    def counted(*argv: str) -> tuple[list, list]:
        """The empirical and normal distributions one CLI run builds."""
        for made in built.values():
            made.clear()
        assert run(*argv) == 0
        capsys.readouterr()
        return built[EmpiricalDistribution][:], built[NormalDistribution][:]

    model = CapabilityModel.load(workspace / "model.json")
    acme = model.building("acme_plant").series
    buckets = 24 * len(acme.groups)
    columns = {
        acme.values[rows, hour].tobytes() for rows in acme.groups.values() for hour in range(24)
    }
    for made in built.values():
        made.clear()
    CapabilityModel.load(workspace / "model.json")
    assert built == {EmpiricalDistribution: [], NormalDistribution: []}

    config = str(workspace / "config.json")
    # estimate fits each (month, day type) block's rows, with no bucket object.
    model_out = str(workspace / "counted_model.json")
    assert counted("estimate", "--config", config, "--out", model_out) == ([], [])
    args = ("--config", config, "--building", "acme_plant", "--out")
    emps, normals = counted("contract", *args, str(workspace / "counted.csv"))
    assert 0 < len(emps) <= buckets and normals == []
    emps, normals = counted("simulate", *args, str(workspace / "counted.json"))
    assert len(emps) == buckets and normals == []
    assert {dist.original_samples.tobytes() for dist in emps} <= columns
    pair = ("--base", "acme_plant", "--candidates", "birch_mall", "cedar_office", "--out")
    out = str(workspace / "counted_ranking.csv")
    assert counted("aggregate", "--config", config, *pair, out) == ([], [])

    # Over a partial overlap too, aggregate decides every block without a bucket.
    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    (tmp_path / "sample_load.csv").write_text(
        _partial_overlap_load(FIXTURES / "sample_load.csv")
    )
    monkeypatch.chdir(tmp_path)
    assert counted("estimate", "--config", "config.json", "--out", "model.json") == ([], [])
    assert counted("aggregate", "--config", "config.json", *pair, "ranking.csv") == ([], [])


@pytest.mark.parametrize(
    "argv",
    [
        ("contract", "--building", "acme_plant"),
        ("aggregate", "--base", "acme_plant", "--candidates", "birch_mall"),
        ("simulate", "--building", "acme_plant"),
    ],
)
def test_schema_1_model_asks_for_reestimation(workspace, capsys, argv):
    v2 = json.loads((workspace / "model.json").read_text())
    v1 = {
        "schema_version": 1,
        "metadata": v2["metadata"],
        "buildings": {
            "acme_plant": {
                "days_used": 1,
                "skipped_days": 0,
                "dropped_buckets": [],
                "buckets": {
                    "03-10-weekday": {
                        "samples": [1.0],
                        "alignment": ["2021-03-01T10:00:00"],
                        "normal": {"mu": 1.0, "sigma": 0.0},
                        "fit_distance": 0.0,
                    }
                },
            }
        },
    }
    (workspace / "model_v1.json").write_text(json.dumps(v1))
    obj = json.loads((workspace / "config.json").read_text())
    obj["paths"]["model"] = "model_v1.json"
    config = workspace / "config_v1.json"
    config.write_text(json.dumps(obj))
    out = workspace / f"v1_{argv[0]}.out"
    assert run(*argv, "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "re-run estimate" in err
    assert not out.exists()


def recording_decisions(monkeypatch) -> list[np.ndarray]:
    """The sorted blocks the CLI decides, recorded; deciding one bucket alone fails."""
    import drcontracts.aggregation
    import drcontracts.cli

    blocks = []
    decide = drcontracts.cli.decide_sorted

    def recording(terms, samples, prefix):
        blocks.append(samples)
        return decide(terms, samples, prefix)

    def per_bucket(terms, dist):
        raise AssertionError("a single bucket was decided")

    monkeypatch.setattr(drcontracts.cli, "decide_sorted", recording)
    for module in (drcontracts.aggregation, drcontracts.cli):
        monkeypatch.setattr(module, "optimal_contract", per_bucket)
    return blocks


class TestAggregate:
    def test_ranking_written(self, workspace, capsys):
        out = workspace / "ranking.csv"
        code = run(
            "aggregate",
            "--config",
            str(workspace / "config.json"),
            "--base",
            "acme_plant",
            "--candidates",
            "birch_mall",
            "cedar_office",
            "--out",
            str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("candidate_id,delta_sigma")
        assert len(lines) == 3
        printed = capsys.readouterr().out
        assert "spearman" in printed
        # hedged hvac makes the mall the more complementary partner
        assert lines[1].startswith("birch_mall,")

    def test_each_bucket_is_decided_once(self, workspace, monkeypatch):
        blocks = recording_decisions(monkeypatch)
        code = run(
            "aggregate",
            "--config",
            str(workspace / "config.json"),
            "--base",
            "acme_plant",
            "--candidates",
            "birch_mall",
            "cedar_office",
            "--out",
            str(workspace / "r_decided.csv"),
        )
        assert code == 0
        # Every day is shared and each building keeps 4 blocks of 24 buckets:
        # each loaded block is decided once, plus one pooled block per block pair.
        assert len(blocks) == 3 * 4 + 2 * 4
        assert sum(len(block) for block in blocks) == 3 * 96 + 2 * 96 == 480
        assert len({id(block) for block in blocks}) == len(blocks)

    def test_base_among_candidates_rejected(self, workspace, capsys):
        code = run(
            "aggregate",
            "--config",
            str(workspace / "config.json"),
            "--base",
            "acme_plant",
            "--candidates",
            "acme_plant",
            "--out",
            str(workspace / "r2.csv"),
        )
        assert code == 3
        assert "candidates" in capsys.readouterr().err

    def test_repeated_candidate_rejected(self, workspace, capsys):
        out = workspace / "r_repeated.csv"
        code = run(
            "aggregate",
            "--config",
            str(workspace / "config.json"),
            "--base",
            "acme_plant",
            "--candidates",
            "birch_mall",
            "birch_mall",
            "--out",
            str(out),
        )
        assert code == 3
        assert "birch_mall" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_candidate_rejected(self, workspace):
        code = run(
            "aggregate",
            "--config",
            str(workspace / "config.json"),
            "--base",
            "acme_plant",
            "--candidates",
            "ghost_site",
            "--out",
            str(workspace / "r3.csv"),
        )
        assert code == 3


class TestSimulate:
    def test_report_structure(self, workspace):
        payload = json.loads((workspace / "report.json").read_text())
        assert set(payload) == {"result", "analytic", "convergence"}
        assert payload["result"]["n_trials"] == 1200
        quantities = {row["quantity"] for row in payload["convergence"]}
        assert "mean_profit" in quantities
        assert "shortfall_frequency" in quantities
        assert payload["result"]["windows"] == sum(
            g["windows"] for g in payload["analytic"]["groups"].values()
        )

    def test_rerun_is_byte_identical(self, workspace):
        first = (workspace / "report.json").read_bytes()
        again = workspace / "report_rerun.json"
        assert (
            run(
                "simulate",
                "--config",
                str(workspace / "config.json"),
                "--building",
                "acme_plant",
                "--out",
                str(again),
            )
            == 0
        )
        assert again.read_bytes() == first

    @pytest.mark.parametrize("streams", [1, 2])
    def test_parallel_streams_key_is_ignored(self, workspace, streams):
        # The key is still accepted, as a positive integer, and changes nothing.
        obj = json.loads((workspace / "config.json").read_text())
        assert "parallel_streams" not in obj["simulation"]
        obj["simulation"]["parallel_streams"] = streams
        config = workspace / f"config_streams_{streams}.json"
        config.write_text(json.dumps(obj))
        assert "parallel_streams" not in load_run_config(str(config)).simulation_raw
        outputs = {}
        for name, path in (("plain", workspace / "config.json"), ("streams", config)):
            report = workspace / f"report_{name}_{streams}.json"
            profits = workspace / f"profits_{name}_{streams}.csv"
            argv = ["--config", str(path), "--building", "acme_plant", "--out", str(report)]
            assert run("simulate", *argv, "--profits-csv", str(profits)) == 0
            outputs[name] = (report.read_bytes(), profits.read_bytes())
        assert outputs["streams"] == outputs["plain"]

    def test_seed_override_changes_draws(self, workspace):
        out = workspace / "report_seed.json"
        assert (
            run(
                "simulate",
                "--config",
                str(workspace / "config.json"),
                "--building",
                "acme_plant",
                "--out",
                str(out),
                "--seed",
                "99",
            )
            == 0
        )
        payload = json.loads(out.read_text())
        baseline = json.loads((workspace / "report.json").read_text())
        assert payload["result"]["seed"] == 99
        assert payload["result"]["mean_profit"] != baseline["result"]["mean_profit"]

    def test_profits_csv_option(self, workspace):
        csv_path = workspace / "profits.csv"
        assert (
            run(
                "simulate",
                "--config",
                str(workspace / "config.json"),
                "--building",
                "acme_plant",
                "--out",
                str(workspace / "report_p.json"),
                "--profits-csv",
                str(csv_path),
            )
            == 0
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,profit"
        assert len(lines) == 1201

    def test_contract_schedule_mismatch(self, workspace, capsys):
        # drop one data row from the schedule so a bucket has no contract
        lines = (workspace / "contracts.csv").read_text().splitlines()
        truncated = workspace / "contracts_short.csv"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        obj = json.loads((workspace / "config.json").read_text())
        obj["paths"]["contracts"] = "contracts_short.csv"
        config2 = workspace / "config_short.json"
        config2.write_text(json.dumps(obj))
        code = run(
            "simulate",
            "--config",
            str(config2),
            "--building",
            "acme_plant",
            "--out",
            str(workspace / "r4.json"),
        )
        assert code == 3
        assert "buckets without contracts" in capsys.readouterr().err

    def test_contracts_csv_bad_header(self, workspace, capsys):
        bad = workspace / "contracts_bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        obj = json.loads((workspace / "config.json").read_text())
        obj["paths"]["contracts"] = "contracts_bad.csv"
        config2 = workspace / "config_bad.json"
        config2.write_text(json.dumps(obj))
        code = run(
            "simulate",
            "--config",
            str(config2),
            "--building",
            "acme_plant",
            "--out",
            str(workspace / "r5.json"),
        )
        assert code == 2
        assert "header" in capsys.readouterr().err

    def test_contracts_csv_duplicate_bucket(self, workspace, capsys):
        lines = (workspace / "contracts.csv").read_text().splitlines()
        dup = workspace / "contracts_dup.csv"
        dup.write_text("\n".join(lines + [lines[1]]) + "\n")
        obj = json.loads((workspace / "config.json").read_text())
        obj["paths"]["contracts"] = "contracts_dup.csv"
        config2 = workspace / "config_dup.json"
        config2.write_text(json.dumps(obj))
        code = run(
            "simulate",
            "--config",
            str(config2),
            "--building",
            "acme_plant",
            "--out",
            str(workspace / "r6.json"),
        )
        assert code == 2
        assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--out", "missing/model.json"),
        ("contract", "--building", "acme_plant", "--out", "missing/contracts.csv"),
        ("aggregate", "--base", "acme_plant", "--candidates", "birch_mall",
         "--out", "missing/ranking.csv"),
        ("simulate", "--building", "acme_plant", "--out", "missing/report.json"),
        ("simulate", "--building", "acme_plant", "--out", "unwritten.json",
         "--profits-csv", "missing/profits.csv"),
    ],
    ids=["estimate", "contract", "aggregate", "simulate", "simulate-profits"],
)
def test_unwritable_output_is_input_error(workspace, monkeypatch, capsys, argv):
    monkeypatch.chdir(workspace)
    assert run(argv[0], "--config", "config.json", *argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing" in err
    assert not (workspace / "missing").exists()
    assert not (workspace / "unwritten.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate",),
        ("contract", "--building", "acme_plant"),
        ("aggregate", "--base", "acme_plant", "--candidates", "birch_mall"),
    ],
    ids=["estimate", "contract", "aggregate"],
)
def test_seed_is_a_simulate_option_only(workspace, tmp_path, capsys, argv):
    # Only simulate draws, so only simulate takes a seed.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(argv[0], "--config", str(workspace / "config.json"), *argv[1:],
            "--out", str(out), "--seed", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()


class TestSpearman:
    @staticmethod
    def printed(x, y) -> tuple[str, str]:
        """Ours and SciPy's rho, formatted as the aggregate command prints them."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", stats.ConstantInputWarning)
            reference = stats.spearmanr(x, y).statistic
        return f"{spearman_rho(x, y):.9g}", f"{reference:.9g}"

    def test_random_vectors(self):
        rng = np.random.default_rng(11)
        for n in range(2, 30):
            x, y = rng.normal(size=(2, n))
            ours, reference = self.printed(x, y)
            assert ours == reference

    def test_vectors_with_ties(self):
        rng = np.random.default_rng(12)
        for n in range(3, 30):
            x, y = rng.integers(0, 4, size=(2, n)).astype(float)
            ours, reference = self.printed(x, y)
            assert ours == reference

    @pytest.mark.parametrize(
        "x, y", [([1.0, 2.0], [3.0, 5.0]), ([1.0, 2.0], [5.0, 3.0])]
    )
    def test_two_values(self, x, y):
        ours, reference = self.printed(x, y)
        assert ours == reference == ("1" if y[1] > y[0] else "-1")

    @pytest.mark.parametrize(
        "x, y", [([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])]
    )
    def test_constant_input_is_nan(self, x, y):
        assert self.printed(x, y) == ("nan", "nan")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_import_leaves_scipy_unloaded():
    """SciPy is a test oracle only: importing it would cost every CLI call."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import drcontracts, sys; print('scipy' in sys.modules); "
            "import drcontracts.cli; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
    )
    assert out.stdout.split() == ["False", "False"]


# SHA-256 of the fixture pipeline's outputs with the committed config (seed 7).
# A change that moves any of these must be a documented output change.  The
# model.json digest was re-recorded when the normal cdf moved from SciPy to the
# package: 6 of its 5,257 floats, all fit_distance, moved in the last bits.
# The report.json digest was re-recorded when the Monte Carlo began to draw only
# the event and CVaR-tail cells: every simulated number moved.  The
# contracts.csv and report.json digests were re-recorded when c_star began to
# be written so that it reads back bit for bit (38 of the 96 c_star cells).
GOLDEN_DIGESTS = {
    "model.json": "3a9915aa995a4c38950aa7fedd92a63c3720554bcd988190ef3d899be762362c",
    "contracts.csv": "bd8d9930ae8e02c6c9bf79cfa67147deca8668b264cfd3794f5c97dad8cb69b8",
    "ranking.csv": "648235a3574135943f90c1eb31407850c7d6bd44129b02a9437221d94effc1c5",
    "report.json": "40a9f22dd6b74ba5fc9cbdba986a135ee842c5f3f74dc3fab5b1c9a168ac06cd",
}


def _golden_pipeline(tmp_path: Path) -> list[list[str]]:
    """The fixture inputs copied into tmp_path, and the four stages' argv."""
    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    config = str(tmp_path / "config.json")
    stages = [
        ["estimate", "--out", "model.json"],
        ["contract", "--building", "acme_plant", "--out", "contracts.csv"],
        [
            "aggregate",
            "--base",
            "acme_plant",
            "--candidates",
            "birch_mall",
            "cedar_office",
            "--out",
            "ranking.csv",
        ],
        ["simulate", "--building", "acme_plant", "--out", "report.json"],
    ]
    return [
        [stage[0], "--config", config, *stage[1:-1], str(tmp_path / stage[-1])]
        for stage in stages
    ]


def _golden_digests(tmp_path: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }


def test_fixture_pipeline_outputs_are_golden(tmp_path):
    for stage in _golden_pipeline(tmp_path):
        assert run(*stage) == 0
    assert _golden_digests(tmp_path) == GOLDEN_DIGESTS


# Run in a child process: a meta-path finder makes every scipy import fail.
NO_SCIPY_PIPELINE = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from drcontracts.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_fixture_pipeline_runs_without_scipy(tmp_path):
    stages = _golden_pipeline(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PIPELINE, json.dumps(stages)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert _golden_digests(tmp_path) == GOLDEN_DIGESTS


# Days made incomplete (their 12:00 reading removed) per building, so the
# buildings' complete days overlap only in part.  acme_plant keeps the March
# weekend days 6, 7, 13 and 14 and birch_mall keeps 14, 20, 21 and 27: both keep
# every March weekend bucket, but with one common day, which cannot be paired.
PARTIAL_GAPS = {
    "acme_plant": ("2021-03-02", "2021-03-20", "2021-03-21", "2021-03-27", "2021-03-28",
                   "2021-04-13"),
    "birch_mall": ("2021-03-06", "2021-03-07", "2021-03-13", "2021-03-28", "2021-04-05",
                   "2021-04-06"),
    "cedar_office": ("2021-03-10", "2021-04-01", "2021-04-20", "2021-04-24"),
}
# dune_depot: cedar_office's load on exactly the days acme_plant lacks.
DUNE_DAYS = ("2021-03-20", "2021-03-21", "2021-03-27", "2021-03-28")

# SHA-256 of ranking.csv, stdout and stderr of the two partial-overlap runs,
# recorded when samples were still paired by timestamp label.
PARTIAL_OVERLAP_DIGESTS = {
    "ranking.csv": "a05a0c9778b42622c98647695406696c6464012f730246eab21847e71fd7565b",
    "stdout": "843fa4b180a5e260b3992a0fd77fb054b15882c16ea18411f1c46bd7b96d9bcd",
    "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "disjoint stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "disjoint stderr": "b9c98ef6c5e7596830f3ca68ca978cf739578ffbc61e4bb2c8e200f7f5bcd37b",
}


def _partial_overlap_load(src: Path) -> str:
    header, *rows = src.read_text().splitlines()
    out = [header]
    for row in rows:
        stamp, bid, _ = row.split(",")
        day = stamp[:10]
        if not (day in PARTIAL_GAPS[bid] and stamp.endswith("T12:00:00")):
            out.append(row)
        if bid == "cedar_office" and day in DUNE_DAYS:
            out.append(row.replace("cedar_office", "dune_depot"))
    return "\n".join(out) + "\n"


def test_partial_overlap_aggregation_is_golden(tmp_path, monkeypatch, capsys):
    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    (tmp_path / "sample_load.csv").write_text(
        _partial_overlap_load(FIXTURES / "sample_load.csv")
    )
    monkeypatch.chdir(tmp_path)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    capsys.readouterr()

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    argv = ("aggregate", "--config", "config.json", "--base", "acme_plant", "--candidates")
    assert run(*argv, "birch_mall", "cedar_office", "--out", "ranking.csv") == 0
    shared = capsys.readouterr()
    assert "unalignable buckets skipped: birch_mall:03-00-weekend" in shared.out
    assert run(*argv, "dune_depot", "--out", "disjoint.csv") == 3
    disjoint = capsys.readouterr()
    assert not (tmp_path / "disjoint.csv").exists()
    digests = {
        "ranking.csv": hashlib.sha256((tmp_path / "ranking.csv").read_bytes()).hexdigest(),
        "stdout": digest(shared.out),
        "stderr": digest(shared.err),
        "disjoint stdout": digest(disjoint.out),
        "disjoint stderr": digest(disjoint.err),
    }
    assert digests == PARTIAL_OVERLAP_DIGESTS


def test_aggregate_reuses_loaded_buckets_when_every_day_is_shared(
    tmp_path, monkeypatch, capsys
):
    import drcontracts.cli as cli

    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    capsys.readouterr()
    argv = ("aggregate", "--config", "config.json", "--base", "acme_plant", "--candidates",
            "birch_mall", "cedar_office", "--out")
    restrict = cli.restrict_to_common
    restricted = []

    def recording(series):
        out = restrict(series)
        restricted.append([s is loaded for s, loaded in zip(out, series)])
        return out

    sort = cli.sorted_block
    sorted_days = []

    def sorting(days):
        sorted_days.append(days)
        return sort(days)

    monkeypatch.setattr(cli, "restrict_to_common", recording)
    monkeypatch.setattr(cli, "sorted_block", sorting)
    assert run(*argv, "loaded.csv") == 0
    # The fixtures' buildings share every day: each pair keeps the loaded series,
    # and only the 4 pooled blocks of each pair are sorted.
    assert restricted == [[True, True]] * 2
    model = CapabilityModel.load("model.json")
    series = [model.building(bid).series for bid in ("acme_plant", "birch_mall", "cedar_office")]
    pooled = [
        (series[0].values[rows] + cand.values[rows]).tobytes()
        for cand in series[1:]
        for rows in series[0].groups.values()
    ]
    assert sorted(days.tobytes() for days in sorted_days) == sorted(pooled)
    capsys.readouterr()


def test_aggregate_past_the_shut_off_threshold(tmp_path, monkeypatch, capsys):
    # alpha 3 lies past the fixture terms' threshold (2.4615): psi < 0, every
    # contract is 0 and gamma, which the analytic deltas need, does not exist.
    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    obj = json.loads((tmp_path / "config.json").read_text())
    obj["terms"]["alpha"] = 3.0
    Path("past.json").write_text(json.dumps(obj))
    argv = ("aggregate", "--base", "acme_plant", "--candidates", "birch_mall", "cedar_office")
    assert run(*argv, "--config", "config.json", "--out", "below.csv") == 0
    capsys.readouterr()
    assert run(*argv, "--config", "past.json", "--out", "past.csv") == 0
    assert capsys.readouterr().err == ""

    def columns(name: str) -> dict[str, list[str]]:
        header, *rows = Path(name).read_text().splitlines()
        return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))

    below, past = columns("below.csv"), columns("past.csv")
    assert past["candidate_id"] == below["candidate_id"]
    assert past["delta_sigma"] == below["delta_sigma"]
    assert past["delta_j_oracle"] == past["individual_profit"] == ("0", "0")
    assert past["delta_j_printed"] == past["delta_j_cancelled"] == ("nan", "nan")


# birch_mall without its 2021-03-02T12:00 reading: it lacks one day that
# acme_plant and cedar_office keep.  SHA-256 of ranking.csv and stdout with
# each base, recorded while aggregate still rebuilt both buildings' buckets
# over a partial overlap.
BIRCH_GAP_DIGESTS = {
    "acme_plant": {
        "ranking.csv": "7544c1d5950b070b3f575ee869a1f644490497a990843a52761f8cdb024ddd2c",
        "stdout": "6d3f2750ea9bccc3e2153fe9f74763cd6c0e9c45a466d9a597fb63a76f62cb76",
    },
    "birch_mall": {
        "ranking.csv": "618afe82fe66e334e0d809ec7b32cf6c22a9fc9ad81f718b7f1b66e1b5811c1c",
        "stdout": "97295d3347e17d4326959bfc44e6c65d5678bd9e924c2f7136fc29902990669f",
    },
}


@pytest.mark.parametrize(
    "base, candidates, decisions",
    [
        ("acme_plant", ("birch_mall", "cedar_office"), 504),
        ("birch_mall", ("acme_plant", "cedar_office"), 528),
    ],
)
def test_aggregate_decides_each_distinct_bucket_once(
    tmp_path, monkeypatch, capsys, base, candidates, decisions
):
    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    rows = (FIXTURES / "sample_load.csv").read_text().splitlines(keepends=True)
    kept = [row for row in rows if not row.startswith("2021-03-02T12:00:00,birch_mall,")]
    assert len(kept) == len(rows) - 1
    (tmp_path / "sample_load.csv").write_text("".join(kept))
    monkeypatch.chdir(tmp_path)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    capsys.readouterr()

    blocks = recording_decisions(monkeypatch)
    argv = ("aggregate", "--config", "config.json", "--base", base, "--candidates")
    assert run(*argv, *candidates, "--out", "ranking.csv") == 0
    # 96 buckets per building and 96 pooled per candidate.  A building that
    # keeps all its days keeps its loaded blocks, decided once; the building
    # restricted away from 2021-03-02 is sorted anew for that pair only in
    # its March weekday block, and keeps its loaded ones elsewhere.
    assert sum(len(block) for block in blocks) == decisions
    assert len({id(block) for block in blocks}) == len(blocks) == decisions // 24
    digests = {
        "ranking.csv": hashlib.sha256((tmp_path / "ranking.csv").read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    }
    assert digests == BIRCH_GAP_DIGESTS[base]


PERFBENCH_INPUTS = FIXTURES.parent / "perfbench" / "inputs.py"

# The benchmark's `year` workload at seed 3 (4 buildings x 365 days), staged
# as perfbench/run.py stages it: (stage, argv after --config).
YEAR_STAGES = {
    "estimate": ("estimate", "--out", "model.json"),
    "contract": ("contract", "--building", "b00", "--alpha-sweep", "1.5:3:2",
                 "--out", "contracts.csv"),
    "aggregate b01": ("aggregate", "--base", "b00", "--candidates", "b01",
                      "--out", "ranking_b01.csv"),
    "aggregate b01 b02 b03": ("aggregate", "--base", "b00", "--candidates", "b01", "b02",
                              "b03", "--out", "ranking_all.csv"),
    "simulate": ("simulate", "--building", "b00", "--out", "report.json"),
}
YEAR_OUTPUTS = ("model.json", "contracts.csv", "contracts_alpha_sweep.csv",
                "ranking_b01.csv", "ranking_all.csv", "report.json")
# SHA-256 of each output file and each stage's stdout.  contracts.csv,
# report.json and simulate's stdout were re-recorded when c_star began to be
# written so that it reads back bit for bit.
YEAR_DIGESTS = {
    "estimate stdout": "7b9cbfae420e6aab601804c39ce743d35f20ee5e6d4ff349302df71507214f99",
    "contract stdout": "e144041eba1a1fd2ce45943968ff78e3c4d6165904e242c7add82de43086aa3c",
    "aggregate b01 stdout": "7521ba94f833b7dfdc621e38ab6b9fe89edee0debcf6601f014af3d8a737ad81",
    "aggregate b01 b02 b03 stdout": "b52d8c7b33708af6eb8a9b0ccd08e83d9e3468d6b130185aa8ed6b7ee9148950",
    "simulate stdout": "41a15db5ab8fff7467bffc7ecb53f5088acfa3088ce3ca70883a4de5615def2f",
    "model.json": "f03bbe28e220cbe7c86bc1368db5331b5ac658b5396258559e2bbaa0e59b1208",
    "contracts.csv": "23ca1954a1136ec0979994b66bc1d39861a9d1ba272a51de2bd6105f7c8fd8ea",
    "contracts_alpha_sweep.csv": "f34675bf4e42802b74a3beddf3e9ef0cca3acb1f81f91b3c019cc7eb449ee973",
    "ranking_b01.csv": "f8262baf82d5f6ac0715a31265d5618fa8e0db2899a58997a2e32af76471c7de",
    "ranking_all.csv": "e30754207c02d62b72d28f4be0edbfeb523529fac49519e036a3bb33ddd22a7f",
    "report.json": "b51e60814426630da13cff0bf184efb8e4f3c3bbcde65688ac0dc1938195cfdc",
}


def _year_inputs(tmp_path: Path, monkeypatch, seed: int = 3) -> None:
    """The `year` workload's inputs at seed in tmp_path, the working directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    shutil.copy(FIXTURES / "shapes.csv", tmp_path / "shapes.csv")
    inputs.write_year_load(tmp_path / "load.csv", tmp_path / "shapes.csv", seed)
    base = json.loads((FIXTURES / "config.json").read_text())
    config = inputs.derive_config(base, "load.csv", seed=seed, n_trials=500)
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)


def _year_inputs_with_gaps(tmp_path: Path, monkeypatch) -> None:
    """The `year` inputs at seed 7 with the 12:00 reading removed on about 15 %
    of each building's days, which estimate then skips."""
    _year_inputs(tmp_path, monkeypatch, seed=7)
    header, *rows = Path("load.csv").read_text().splitlines(keepends=True)
    days = sorted({(row[:10], row.split(",")[1]) for row in rows})
    rng = random.Random(7)
    gaps = {day for day in days if rng.random() < 0.15}
    kept = [row for row in rows if not (row[11:13] == "12" and (row[:10], row.split(",")[1]) in gaps)]
    Path("load.csv").write_text(header + "".join(kept))


def test_year_pipeline_outputs_are_golden(tmp_path, monkeypatch, capsys):
    _year_inputs(tmp_path, monkeypatch)
    digests = {}
    for stage, (command, *rest) in YEAR_STAGES.items():
        assert run(command, "--config", "config.json", *rest) == 0
        out = capsys.readouterr()
        assert out.err == ""
        digests[f"{stage} stdout"] = hashlib.sha256(out.out.encode()).hexdigest()
    for name in YEAR_OUTPUTS:
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == YEAR_DIGESTS


def test_year_ranking_matches_the_per_bucket_oracle(tmp_path, monkeypatch, capsys):
    """aggregate by block gives the bits of scoring each bucket's distributions,
    on `year` seed 7 with the 12:00 reading removed on about 15 % of each
    building's days, so that some groups lose days to the pairing and some do not."""
    import drcontracts.cli as cli
    from oracles import per_bucket_ranking

    _year_inputs_with_gaps(tmp_path, monkeypatch)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    model = CapabilityModel.load("model.json")
    base, candidates = "b00", ("b01", "b02", "b03")
    lost = Counter()
    for cand in candidates:
        shared = restrict_to_common([model.building(base).series, model.building(cand).series])
        for building, series in zip((base, cand), shared):
            for group, block in model.building(building).table.items():
                lost[len(series.groups.get(group, ())) < block.samples.shape[1]] += 1
    assert lost[True] and lost[False]

    def bits(ranks) -> list[tuple]:
        return [(r.candidate_id, *(v.hex() for v in dataclasses.astuple(r)[1:])) for r in ranks]

    written = []
    monkeypatch.setattr(cli, "write_ranking_csv", lambda path, ranks: written.append(ranks))
    config = json.loads(Path("config.json").read_text())
    for alpha in (0.5, 0.0, 3.0):
        config["terms"]["alpha"] = alpha
        Path("alpha.json").write_text(json.dumps(config))
        capsys.readouterr()
        argv = ("aggregate", "--config", "alpha.json", "--base", base, "--candidates")
        assert run(*argv, *candidates, "--out", "ranking.csv") == 0
        terms = ProgramTerms.from_json_dict(config["terms"])
        expected, unalignable = per_bucket_ranking(model, terms, base, candidates)
        (ranks,) = written
        written.clear()
        assert bits(ranks) == bits(expected)
        listed = [line for line in capsys.readouterr().out.splitlines() if "unalignable" in line]
        assert listed == ([f"unalignable buckets skipped: {', '.join(unalignable)}"] if unalignable else [])


def test_year_report_analytic_matches_the_per_group_oracle(tmp_path, monkeypatch, capsys):
    """simulate's analytic block, by sorted blocks, holds the bits of one scalar
    call per bucket, on the `year` load with gaps: the buckets differ in size.
    Contracts are sized at alpha 0.5, past the shut-off threshold (all 0) and
    under a cap that clips about half of them."""
    from oracles import per_group_analytic_summary

    _year_inputs_with_gaps(tmp_path, monkeypatch)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    building = CapabilityModel.load("model.json").building("b00")
    assert building.skipped_days > 0
    keys = building.sorted_keys()
    capability = {key: building.series.buckets[key] for key in keys}
    assert len({dist.n for dist in capability.values()}) > 2
    schedule = [key for key in keys for _ in range(capability[key].n)]
    config = json.loads(Path("config.json").read_text())
    for alpha, c_max in ((0.5, None), (3.0, None), (0.5, 5.0)):
        config["terms"].update(alpha=alpha, c_max=c_max)
        Path("case.json").write_text(json.dumps(config))
        argv = ("--config", "case.json", "--building", "b00", "--out")
        assert run("contract", *argv, "contracts.csv") == 0
        assert run("simulate", *argv, "report.json") == 0
        capsys.readouterr()
        reported = json.loads(Path("report.json").read_text())["analytic"]
        run_config = load_run_config("case.json")
        terms = run_config.require_terms()
        contracts = _read_contracts_csv(Path("contracts.csv"))
        at_cap = sum(c == terms.contract_cap for c in contracts.values())
        at_zero = sum(c == 0.0 for c in contracts.values())
        assert at_cap == 0 if c_max is None else 0 < at_cap < len(contracts)
        assert at_zero == len(contracts) if alpha == 3.0 else 0 < at_zero < len(contracts)
        expected = per_group_analytic_summary(
            terms, capability, contracts, run_config.simulation_config(None), schedule
        )
        fields = ("total_expected_profit", "expected_events_per_trial", "shortfall_probability")
        for name in fields:
            assert reported[name].hex() == getattr(expected, name).hex(), (alpha, name)
        assert reported["groups"].keys() == expected.groups.keys()
        for label, group in expected.groups.items():
            row = reported["groups"][label]
            assert row["windows"] == group.windows
            for name, value in (
                ("contract", group.contract),
                ("expected_profit", group.expected_profit),
                ("cvar", group.cvar_value),
                ("shortfall_probability", group.shortfall_probability),
            ):
                assert float(row[name]).hex() == value.hex(), (alpha, label, name)


@pytest.mark.parametrize("workload, building_id", [("fixtures", "acme_plant"), ("year", "b00")])
def test_contract_c_star_reads_back_bit_for_bit(
    workload, building_id, tmp_path, monkeypatch, capsys
):
    # simulate settles the c_star it reads from contracts.csv: a value rounded
    # up past a sample would count every event at that sample as a shortfall.
    if workload == "year":
        _year_inputs(tmp_path, monkeypatch)
    else:
        for name in INPUTS:
            shutil.copy(FIXTURES / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    argv = ("contract", "--config", "config.json", "--building", building_id)
    assert run(*argv, "--out", "contracts.csv") == 0
    capsys.readouterr()

    terms = load_run_config("config.json").require_terms()
    building = CapabilityModel.load("model.json").building(building_id)
    read = _read_contracts_csv(Path("contracts.csv"))
    assert read.keys() == building.buckets.keys()
    for key, bucket in building.buckets.items():
        c_star = optimal_contract(terms, bucket.empirical).c_star
        assert read[key].hex() == float(c_star).hex(), key.label


# SHA-256 of the benchmark's library call on the fixtures: simulate_horizon on
# acme_plant's fitted normals at the `contract` stage's c_star, 20000 trials
# over its 1464 windows, round-robin, at the committed config's seed.
# Re-recorded when c_star began to be written so that it reads back bit for bit.
LIBRARY_CALL_DIGESTS = {
    "profits": "b2bd1446c5a47f3a07144e536c206ecfb590fbd7b5da0f704f3c7664d6af56b8",
    "result": "285d5b7b52c312ed7c28a3514aca6e3bcc490746de3aaffa5669a544780dbfe9",
}


def test_fixture_library_call_is_golden(tmp_path, monkeypatch, capsys):
    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    argv = ("contract", "--config", "config.json", "--building", "acme_plant")
    assert run(*argv, "--out", "contracts.csv") == 0
    capsys.readouterr()

    config = load_run_config("config.json")
    building = CapabilityModel.load("model.json").building("acme_plant")
    normals = {key: bucket.normal for key, bucket in building.buckets.items()}
    windows = sum(bucket.empirical.n for bucket in building.buckets.values())
    assert windows == 1464
    sim_config = dataclasses.replace(
        config.simulation_config(None), n_trials=20000, windows_per_horizon=windows
    )
    result = simulate_horizon(
        config.require_terms(), normals, _read_contracts_csv(Path("contracts.csv")), sim_config
    )
    payload = json.dumps(result.to_json_dict(), sort_keys=True).encode()
    digests = {
        "profits": hashlib.sha256(result.profits.tobytes()).hexdigest(),
        "result": hashlib.sha256(payload).hexdigest(),
    }
    assert digests == LIBRARY_CALL_DIGESTS


# SHA-256 of estimate's model.json and stdout on the active-bound load,
# recorded with the Lawson-Hanson solver; model.json re-recorded with the
# package's normal cdf (1 of 1,297 floats, a fit_distance, moved).
ACTIVE_BOUND_DIGESTS = {
    "model.json": "40df1ef6c9f69499effa2be523c6657cb68f8435a50a2fe9f7adaf0504bddb6f",
    "stdout": "a4dab9d655b02736ae0cc3d1fc1e55fcf20021b40e58b796851318ce37d4d78e",
}


def _active_bound_days(shapes) -> dict[date, np.ndarray]:
    """Six weeks of noisy fixture-shape days; every third day has no HVAC and the
    day after it no lighting, so noise pushes many unconstrained fits negative."""
    rng = np.random.default_rng(13)
    days = {}
    for i in range(42):
        day = date(2021, 3, 1) + timedelta(days=i)
        weights = np.array([200.0, 300.0, 100.0])
        if i % 3 < 2:
            weights[1 + i % 3] = 0.0
        load = shapes.day_matrix(day.weekday() >= 5) @ weights
        load = np.maximum(load + rng.normal(0.0, 1.0, 24), 0.0)
        # The values as the CSV will carry them.
        days[day] = np.array([float(f"{v:.6f}") for v in load])
    return days


def test_active_bound_estimate_is_golden(tmp_path, monkeypatch, capsys):
    for name in INPUTS:
        shutil.copy(FIXTURES / name, tmp_path / name)
    shapes = read_shapes_csv(tmp_path / "shapes.csv", "hvac")
    days = _active_bound_days(shapes)
    rows = ["timestamp,building_id,load_kwh"]
    clamped = 0
    for day, profile in days.items():
        rows += [
            f"{day.isoformat()}T{h:02d}:00:00,zed_lab,{v:.6f}"
            for h, v in enumerate(profile)
        ]
        weights, _ = passive_set_search_nnls(shapes.day_matrix(day.weekday() >= 5), profile)
        clamped += bool(np.any(weights == 0.0))
    (tmp_path / "sample_load.csv").write_text("\n".join(rows) + "\n")
    assert clamped >= 1

    monkeypatch.chdir(tmp_path)
    assert run("estimate", "--config", "config.json", "--out", "model.json") == 0
    out = capsys.readouterr()
    assert out.err == ""
    digests = {
        "model.json": hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(out.out.encode()).hexdigest(),
    }
    assert digests == ACTIVE_BOUND_DIGESTS
