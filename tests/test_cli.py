"""End-to-end command-line pipeline on a copy of the bundled fixtures."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from drcontracts.cli import (
    ALPHA_SWEEP_HEADER,
    SCHEDULE_CSV_HEADER_FULL,
    main,
    spearman_rho,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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

    @pytest.mark.parametrize("spec_text", ["1:2", "2:1:5", "0:1:1", "a:b:3", "-1:1:3"])
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


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs most of a second at start-up, which every CLI call pays."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import drcontracts.cli, sys; print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=os.environ,
        check=True,
    )
    assert out.stdout.strip() == "False"


# SHA-256 of the fixture pipeline's outputs with the committed config (seed 7).
# A change that moves any of these must be a documented output change.
GOLDEN_DIGESTS = {
    "model.json": "79983ee80174be4bda163536b4acdfabfce1dd611ab53adcf1ccfe6a2cb5d21c",
    "contracts.csv": "5c4c76aa73a38c59415085db7446189a73cd3f97a5dd9da9a2786cb71c53f77a",
    "ranking.csv": "648235a3574135943f90c1eb31407850c7d6bd44129b02a9437221d94effc1c5",
    "report.json": "c6801bbf9d1045ae6c2c0b4bcf9d274067b14e0231feff58754ae418c44fb69a",
}


def test_fixture_pipeline_outputs_are_golden(tmp_path):
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
    for stage in stages:
        stage[-1] = str(tmp_path / stage[-1])
        assert run(stage[0], "--config", config, *stage[1:]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS
