"""The public surface: every ``__all__`` name resolves, and the README's
library quickstart runs as printed."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import rbkernel

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
