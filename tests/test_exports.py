import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import groupshare

MODULES = sorted(info.name for info in pkgutil.iter_modules(groupshare.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"groupshare.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    namespace: dict = {}
    exec(f"from groupshare.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(groupshare.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"groupshare.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} not in {node.module}.__all__"
