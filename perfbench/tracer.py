"""In-memory tracing of symex, done entirely from outside the package.

`Tracer.install` replaces public functions with wrappers on the bindings
their callers look up: a module-level name in every symex module that
holds the function (`symex.cli.esp_extraction`, `symex.esp.binomial_first`,
...), the entries of `symex.cli.SUITES`, and `Report.add` on its class.
`Tracer.uninstall` puts the originals back.

Two kinds of boundary:

* span boundaries record one span per call: name, start, end, parent span
  and op id, kept in flat arrays and written out at the end;
* leaf boundaries (the bigcomb primitives, `series_mul`, `k_subsets`,
  `Report.add`) are called up to millions of times per op, so they only
  count calls and add their time to the enclosing span.  No leaf calls
  another wrapped function, so leaf times never nest.

Self time of a span is its duration minus its child spans and leaf calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter_ns
from types import ModuleType
from typing import Callable, Iterable, Iterator

# (defining module, function, kind); kind is "span" or "leaf".
BOUNDARIES = (
    ("esp", "esp_extraction", "span"),
    ("esp", "esp_direct", "span"),
    ("esp", "esp_all", "span"),
    ("esp", "esp_compare", "span"),
    ("esp", "esp_loworder", "span"),
    ("esp", "specialize", "span"),
    ("coeffs", "coeff_recurrence", "span"),
    ("coeffs", "coeff_closed_sequence", "span"),
    ("coeffs", "verify_convolution", "span"),
    ("coeffs", "vandermonde_degeneration_check", "span"),
    ("series", "verify_gf_untransformed", "span"),
    ("series", "verify_gf_transformed", "span"),
    ("polyexpand", "verify_layer_decomposition", "span"),
    ("polyexpand", "monomial_coefficient", "span"),
    ("subsets", "count_containing_supersets", "span"),
    ("subsets", "k_subsets", "leaf"),
    ("bigcomb", "binomial_first", "leaf"),
    ("bigcomb", "binomial_second", "leaf"),
    ("bigcomb", "stirling_first_signed", "leaf"),
    ("bigcomb", "multinomial", "leaf"),
    ("series", "series_mul", "leaf"),
)
MODULES = ("cli", "esp", "bigcomb", "subsets", "coeffs", "series", "polyexpand", "report", "rootset")
# Tuples yielded through these bindings count as esp.subsets_enumerated.
ENUMERATORS = ("combinations", "k_subsets")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_leaf_ns = array("q")
        self._stack = [-1]
        self.op = -1
        self.leaf_calls: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.bits: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        name_id = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, leaf_ns, stack = self.span_parent, self.span_op, self.span_leaf_ns, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0)
            leaf_ns.append(0)
            stack.append(span_id)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span_id] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        calls, total_ns, span_leaf_ns, stack = self.leaf_calls, self.leaf_ns, self.span_leaf_ns, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                calls[name] += 1
                total_ns[name] += elapsed
                if stack[-1] >= 0:
                    span_leaf_ns[stack[-1]] += elapsed

        return wrapper

    def yield_counter(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        def counted(items: Iterable) -> Iterator:
            count = 0
            try:
                for item in items:
                    count += 1
                    yield item
            finally:
                counters[counter] += count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return counted(fn(*args, **kwargs))

        return wrapper

    def observe_extraction(self, result) -> None:
        """Cancellation and detail counts from a returned sieve breakdown."""
        value, breakdown = result
        terms = [abs(term.coefficient * term.bracket_total) for term in breakdown.terms]
        max_term = max([abs(breakdown.head), *terms]).bit_length()
        self.bits["calls"] += 1
        self.bits["head"] += abs(breakdown.head).bit_length()
        self.bits["max_term"] += max_term
        self.bits["result"] += abs(value).bit_length()
        self.bits["cancelled"] += max_term - abs(value).bit_length()
        self.counters["esp.detail_entries"] += sum(len(t.bracket) for t in breakdown.terms if t.bracket is not None)

    # -- installation ------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every boundary on every binding in `modules` (name -> module)."""
        for home, fn_name, kind in BOUNDARIES:
            original = getattr(modules[home], fn_name)
            name = f"{home}.{fn_name}"
            if kind == "leaf":
                wrapped = self.leaf(name, original)
            else:
                observe = self.observe_extraction if fn_name == "esp_extraction" else None
                wrapped = self.span(name, original, observe)
            for module in modules.values():
                if getattr(module, fn_name, None) is original:
                    self._patch(module, fn_name, wrapped)
        esp = modules["esp"]
        for fn_name in ENUMERATORS:
            self._patch(esp, fn_name, self.yield_counter("esp.subsets_enumerated", getattr(esp, fn_name)))
        cli = modules["cli"]
        for suite, fn in list(cli.SUITES.items()):
            self._patch_item(cli.SUITES, suite, self.span(f"cli.suite.{suite}", fn))
        self._patch(cli, "main", self.span("cli.main", cli.main))
        report_cls = modules["report"].Report
        self._patch(report_cls, "add", self.leaf("report.Report.add", report_cls.add))

    def _patch_item(self, mapping: dict, key: str, new: object) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns."""
        covered = array("q", self.span_leaf_ns)
        for span_id, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += self.span_end[span_id] - self.span_start[span_id]
        totals: dict[str, dict[str, int]] = {}
        for span_id, name_id in enumerate(self.span_name):
            entry = totals.setdefault(self.names[name_id], {"calls": 0, "ns": 0, "self_ns": 0})
            duration = self.span_end[span_id] - self.span_start[span_id]
            entry["calls"] += 1
            entry["ns"] += duration
            entry["self_ns"] += duration - covered[span_id]
        return totals

    def write(self, path) -> None:
        """All spans, as gzip-compressed JSON with one list per column."""
        payload = {
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
                "leaf_ns": self.span_leaf_ns.tolist(),
            },
            "leaf_calls": dict(self.leaf_calls),
            "leaf_ns": dict(self.leaf_ns),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def symex_modules() -> dict[str, ModuleType]:
    """The already-imported symex modules, keyed by short name."""
    return {name: importlib.import_module(f"symex.{name}") for name in MODULES}

