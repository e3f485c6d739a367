"""The public surface: every ``__all__`` name resolves, the README's
library quickstart runs as printed, and its gate tables state ``GATES``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import rbkernel
from rbkernel.counterexample import GATES

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["rbkernel"] + [
    f"rbkernel.{info.name}" for info in pkgutil.iter_modules(rbkernel.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_readme_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library quickstart", "exec"), {})
    assert "True" in capsys.readouterr().out.splitlines()


def _readme_table(header):
    """The rows of the README table whose header line starts with ``header``,
    each a list of its cells, backquotes stripped."""
    text = README.read_text()
    lines = text[text.index("## Command line"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        # a cell may hold an escaped \|
        rows.append([cell.strip().strip("`") for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def test_readme_step_table_lists_the_gates_in_order():
    rows = _readme_table("| step | threshold |")
    assert [(name, float(threshold)) for name, threshold, *_ in rows] == list(GATES.items())


def test_readme_undefected_table_lists_every_gate_once():
    # the readings are machine-dependent, so only names and thresholds are checked
    rows = _readme_table("| gate | value on the undefected run | threshold |")
    thresholds = [(name, float(threshold)) for name, _, threshold in rows]
    assert sorted(thresholds) == sorted(GATES.items())
