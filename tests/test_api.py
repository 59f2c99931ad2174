"""The public surface: every exported name resolves, and the package exports only its core."""

import copy
import importlib
import importlib.util
import pickle
import pkgutil
import types
from pathlib import Path

import pytest

import symex
from symex import coeffs
from symex.esp import BreakdownTerm, ExtractionBreakdown, esp_extraction
from symex.report import Check, Report
from symex.rootset import RootSet

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


# ---------------------------------------------------------------------------
# the value types: immutable where they were frozen, compared and shown by their fields


def test_frozen_types_refuse_assignment_to_every_field():
    _, breakdown = esp_extraction(RootSet((2, 3, 4)), 3)
    instances = {
        RootSet((2, 3)): ("elements", "n"),
        breakdown: ("i", "head", "terms", "total"),
        breakdown.terms[0]: ("h", "coefficient", "bracket_total", "bracket"),
        Check("x", 1, 1): ("label", "expected", "observed"),
    }
    for instance, fields in instances.items():
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(instance, field, 0)
            with pytest.raises(AttributeError):
                delattr(instance, field)
        with pytest.raises(AttributeError):
            instance.other = 0


def test_rootset_equality_and_hash_follow_its_elements():
    roots = RootSet([2, 3, 3])
    assert roots.elements == (2, 3, 3)
    assert roots == RootSet((2, 3, 3)) and hash(roots) == hash(RootSet((2, 3, 3)))
    assert roots != RootSet((3, 2, 3)) and roots != (2, 3, 3)
    assert len({roots, RootSet((2, 3, 3)), RootSet((3, 3, 2))}) == 2
    assert RootSet(elements=(1,)) == RootSet((1,))


def test_rootset_stores_its_size_however_it_is_built():
    # a slot set in __init__, not a property recomputed on each read
    assert isinstance(RootSet.n, types.MemberDescriptorType)
    built = [RootSet([2, 3, 3]), RootSet.of(2, 3, 3), RootSet.parse("2,3,3"), RootSet.of(7)]
    for roots in built + [copy.copy(roots) for roots in built] + [pickle.loads(pickle.dumps(roots)) for roots in built]:
        assert roots.n == len(roots.elements)


def test_value_types_survive_copy_and_pickle():
    _, breakdown = esp_extraction(RootSet((2, 3, 4)), 3)
    report = Report("name", "detail")
    report.add("x", 1, 2)
    for value in (RootSet((2, 3)), breakdown, breakdown.terms[0], Check("x", 1, 1), report):
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_reprs_are_pinned():
    assert repr(RootSet((2, 3, 4))) == "RootSet(elements=(2, 3, 4))"
    _, breakdown = esp_extraction(RootSet((2, 3, 4)), 3, explain_limit=0)
    assert repr(breakdown) == (
        "ExtractionBreakdown(i=3, head=84, terms=(BreakdownTerm(h=1, coefficient=-1, bracket_total=65, bracket=None), "
        "BreakdownTerm(h=2, coefficient=1, bracket_total=5, bracket=None)), total=24)"
    )
    assert repr(esp_extraction(RootSet((2, 3)), 2)[1].terms) == (
        "(BreakdownTerm(h=1, coefficient=-1, bracket_total=4, bracket=(((1,), 1), ((2,), 3))),)"
    )
    report = Report("name", "detail")
    report.add("x", 1, 2)
    assert repr(report) == "Report(name='name', detail='detail', checks=[Check(label='x', expected=1, observed=2)])"


def test_breakdowns_compare_and_hash_by_their_fields():
    first, second = esp_extraction(RootSet((2, 3, 4)), 3)[1], esp_extraction(RootSet((2, 3, 4)), 3)[1]
    assert first == second and hash(first) == hash(second)
    assert first != esp_extraction(RootSet((2, 3, 4)), 3, explain_limit=0)[1]
    assert first.terms[0] == BreakdownTerm(1, -1, 65, first.terms[0].bracket)
    assert ExtractionBreakdown(0, 1, (), 1) == esp_extraction(RootSet((5,)), 0)[1]


def test_a_breakdown_is_a_named_tuple_of_its_four_fields():
    _, breakdown = esp_extraction(RootSet((2, 3, 4)), 3)
    i, head, terms, total = breakdown
    assert (i, head, total) == (3, 84, 24) and terms is breakdown.terms and breakdown[1] == head
    assert ExtractionBreakdown._fields == ("i", "head", "terms", "total")
    assert breakdown == tuple(breakdown) == BreakdownTerm(*breakdown)
    assert breakdown._replace(total=0) == (3, 84, terms, 0)
    assert breakdown._asdict() == {"i": 3, "head": 84, "terms": terms, "total": 24}


def test_report_stays_mutable_and_its_add_patchable(monkeypatch):
    report = Report()
    assert report == Report() and report.checks == [] and report.ok
    report.add("x", 1, 2)
    report.name = "renamed"
    assert report.failures() == [Check("x", 1, 2)] and not report.ok and report.name == "renamed"
    assert Report().checks is not Report().checks
    with pytest.raises(TypeError):
        hash(report)
    added = []
    add = Report.add
    monkeypatch.setattr(Report, "add", lambda self, *args: added.append(args) or add(self, *args))
    assert coeffs.verify_convolution(5, 3, coeffs.coeff_closed_sequence(5, 3, 3)).ok
    assert len(added) == 3
