"""The package's public surface and the README examples that document it."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import drcontracts

README = Path(__file__).resolve().parent.parent / "README.md"

# A python block, then the bare block right after it that shows its output.
EXAMPLE = re.compile(r"```python\n(.*?)```\s*```\n(.*?)```", re.DOTALL)


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
