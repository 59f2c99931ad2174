"""The public surface: every exported name resolves, and the package exports only its core."""

import importlib
import pkgutil

import pytest

import symex

MODULES = sorted(info.name for info in pkgutil.iter_modules(symex.__path__) if info.name != "__main__")


def test_package_exports_exactly_its_core():
    assert sorted(symex.__all__) == ["ExtractionBreakdown", "RootSet", "esp_all", "esp_direct", "esp_extraction"]
    assert all(hasattr(symex, name) for name in symex.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"symex.{name}")
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert stale == []
