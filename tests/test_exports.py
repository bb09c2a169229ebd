"""Public names: every ``__all__`` entry resolves, star-imports work, and
README's library example runs as written."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fkdv

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["fkdv"] + [f"fkdv.{m.name}" for m in pkgutil.iter_modules(fkdv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name: str):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ lists missing names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for attr in exported or ():
        assert namespace[attr] is getattr(module, attr)


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
