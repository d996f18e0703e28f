"""The public names: every ``__all__`` entry resolves, and the package
re-exports only names its modules declare public.  Tools that wrap each
module's ``__all__`` (the benchmark's tracer) look every entry up."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polya_bernstein

MODULES = [
    importlib.import_module(f"polya_bernstein.{info.name}")
    for info in pkgutil.iter_modules(polya_bernstein.__path__)
]


@pytest.mark.parametrize("module", [polya_bernstein, *MODULES], ids=lambda m: m.__name__)
def test_every_all_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(polya_bernstein.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"polya_bernstein.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module
