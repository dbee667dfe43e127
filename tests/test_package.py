"""The package's public surface and the README examples that document it."""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import re
import shlex
import shutil
import sys
from collections import Counter
from pathlib import Path

import drcontracts
from drcontracts.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SPANS = ROOT / "perfbench" / "spans.py"

# A python block, then the bare block right after it that shows its output.
EXAMPLE = re.compile(r"```python\n(.*?)```\s*```\n(.*?)```", re.DOTALL)
# The CLI walkthrough: each `$ drcontracts ...` line, then the stdout lines it
# shows, "..." standing for lines left out.
WALKTHROUGH = re.compile(r"Representative output:\n\n```\n(.*?)```", re.DOTALL)
COMMAND = re.compile(r"^\$ drcontracts (.*)\n((?:.+\n)*)", re.MULTILINE)


def test_public_names_are_sorted_unique_and_resolve():
    names = drcontracts.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(drcontracts, name) is not None, name


def test_readme_examples_print_their_output():
    examples = EXAMPLE.findall(README.read_text())
    assert len(examples) == 2
    for index, (code, expected) in enumerate(examples):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, f"README.md example {index}", "exec"), {})
        assert out.getvalue() == expected


def test_readme_cli_walkthrough_prints_its_output(tmp_path, monkeypatch, capsys):
    for name in ("config.json", "sample_load.csv", "shapes.csv"):
        shutil.copy(ROOT / "fixtures" / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    (block,) = WALKTHROUGH.findall(README.read_text())
    commands = COMMAND.findall(block)
    assert [argv.split()[0] for argv, _ in commands] == [
        "estimate", "contract", "aggregate", "simulate"
    ]
    for argv, shown in commands:
        assert main(shlex.split(argv)) == 0
        printed = iter(capsys.readouterr().out.splitlines())
        for line in shown.splitlines():
            # `in` advances the iterator past the match: the lines come in order.
            assert line == "..." or line in printed, (argv, line)


def test_every_traced_binding_exists(monkeypatch):
    """Each name the benchmark's tracer wraps resolves as its __enter__ looks it up."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    for module_name, path, name in spans.WRAPS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module_name}.{path} (span {name})"


# The WRAPS bindings that the four CLI stages never call on the fixtures.
# Their spans read 0 in a traced run, so a layer metric built on them
# measures nothing there.  simulation.simulate_horizon is the library call's.
UNCALLED_BINDINGS = {
    ("drcontracts.aggregation", "aggregate_distribution"),
    ("drcontracts.aggregation", "optimal_contract"),
    ("drcontracts.aggregation", "sum_empirical"),
    ("drcontracts.cli", "aggregate_distribution"),
    ("drcontracts.cli", "complementarity"),
    ("drcontracts.cli", "member_sigmas"),
    ("drcontracts.cli", "optimal_contract"),
    ("drcontracts.cli", "profit_delta_from_sigmas"),
    ("drcontracts.cli", "profit_delta_oracle"),
    ("drcontracts.distributions", "EmpiricalDistribution.transform_uniform"),
    ("drcontracts.distributions", "NormalDistribution.transform_uniform"),
    ("drcontracts.estimation", "fit_normal"),
    ("drcontracts.simulation", "simulate_horizon"),
}


def test_traced_bindings_the_cli_stages_call(tmp_path, monkeypatch, capsys):
    """Counts the calls to each WRAPS binding over the README's four CLI stages,
    so that a binding the code stops calling, or starts to, fails here."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    calls: Counter = Counter()

    def counting(binding, fn):
        def counted(*args, **kwargs):
            calls[binding] += 1
            return fn(*args, **kwargs)

        return counted

    for module_name, path, _ in spans.WRAPS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(counting((module_name, path), original.__func__))
        else:
            wrapped = counting((module_name, path), original)
        monkeypatch.setattr(owner, attr, wrapped)
    for name in ("config.json", "sample_load.csv", "shapes.csv"):
        shutil.copy(ROOT / "fixtures" / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    (block,) = WALKTHROUGH.findall(README.read_text())
    for argv, _ in COMMAND.findall(block):
        assert main(shlex.split(argv)) == 0
    capsys.readouterr()
    bindings = {(module_name, path) for module_name, path, _ in spans.WRAPS}
    assert set(calls) <= bindings
    assert bindings - set(calls) == UNCALLED_BINDINGS
