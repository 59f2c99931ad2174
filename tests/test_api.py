"""The public surface: every exported name resolves, and the package exports only its core."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def load_tracer():
    # The benchmark's tracer, loaded by path so perfbench need not be a package.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_binds_resolves():
    tracer = load_tracer()
    modules = {name: importlib.import_module(f"symex.{name}") for name in tracer.MODULES}
    bound = [(home, name) for home, name, _ in tracer.BOUNDARIES] + [("esp", name) for name in tracer.ENUMERATORS]
    missing = [f"{home}.{name}" for home, name in bound if not callable(getattr(modules[home], name, None))]
    assert missing == []
    assert callable(getattr(modules["report"].Report, "add", None))
    assert isinstance(modules["cli"].SUITES, dict) and callable(modules["cli"].main)
