import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symex import cli, esp, verify
from symex.cli import main
from symex.coeffs import coeff_closed
from symex.rootset import RootSet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_extraction(capsys):
    code, out, err = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--method", "extraction")
    assert code == 0 and out == "24\n" and err == ""


def test_compute_empty_product(capsys):
    code, out, _ = run(capsys, "compute", "--roots", "2,3,4", "--i", "0")
    assert code == 0 and out == "1\n"
    for method in ("extraction", "direct", "dp"):
        assert run(capsys, "compute", "--roots", "2,3,4", "--i", "0", "--method", method) == (0, "1\n", "")
        extra = ', "breakdown": {"head": "1", "terms": []}' if method == "extraction" else ""
        line = f'{{"value": "1", "method": "{method}"{extra}}}\n'
        assert run(capsys, "compute", "--roots", "2,3,4", "--i", "0", "--method", method, "--json") == (0, line, "")
    refusal = "error: method 'all' needs 1 <= i <= n, got i=0, n=3\n"
    for json_flag in ((), ("--json",)):
        assert run(capsys, "compute", "--roots", "2,3,4", "--i", "0", "--method", "all", *json_flag) == (3, "", refusal)


def test_compute_domain_error_exit_code(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no route may run on an order the sieve refuses")

    monkeypatch.setattr(cli, "esp_extraction", refuse)
    line = "error: order 5 exceeds root set size 2; use the direct route\n"
    for extra in ([], ["--method", "extraction"], ["--json"], ["--explain"], ["--explain", "--json"]):
        assert run(capsys, "compute", "--roots", "2,3", "--i", "5", *extra) == (3, "", line)


def test_compute_direct_allows_large_order(capsys):
    code, out, _ = run(capsys, "compute", "--roots", "2,3", "--i", "5", "--method", "direct")
    assert code == 0 and out == "0\n"
    # n + 1, and an order past sys.maxsize, which itertools.combinations refuses
    for method in ("direct", "dp"):
        for i in ("3", str(2**64)):
            assert run(capsys, "compute", "--roots", "2,3", "--i", i, "--method", method) == (0, "0\n", "")


def test_compute_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--roots", "2,x,4", "--i", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--roots", "2,0,4", "--i", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--roots", "2,3", "--i", "1", "--method", "nosuch"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "text, reason",
    [
        ("2,0,4", "root set elements must be positive integers, got 0"),
        ("2,x,4", "cannot parse roots '2,x,4': expected comma-separated integers"),
        ("2,,3", "cannot parse roots '2,,3': expected comma-separated integers"),
    ],
)
def test_compute_roots_rejection_says_why(capsys, text, reason):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--roots", text, "--i", "1"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"symex compute: error: argument --roots: {reason}"


def test_compute_explain_text(capsys):
    code, out, _ = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--explain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "24"
    assert lines[1] == "head C(9,3) = 84"
    assert "h=1 weight -1 bracket_total 65" in lines
    assert "  {1,2} sum=5 C(5,3)=10" in lines
    assert lines[-1] == "total 24"


def test_compute_rejects_a_negative_explain_limit_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no route may run on a rejected --explain-limit")

    for name in ("esp_extraction", "esp_compare"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setitem(esp.METHODS, "dp", refuse)
    for extra in (["--explain"], ["--explain", "--json"], [], ["--method", "dp"], ["--method", "all"]):
        for limit in ("-1", "-7"):
            code, out, err = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--explain-limit", limit, *extra)
            assert code == 2 and out == ""
            assert err == f"error: --explain-limit must be >= 0, got {limit}\n"


def test_compute_explain_limit_zero_omits_the_detail(capsys):
    code, out, err = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--explain", "--explain-limit", "0")
    assert code == 0 and err == ""
    assert "  (per-subset detail omitted: n > explain limit 0)" in out.splitlines()


def reference_explain(roots, i, explain_limit):
    """The --explain text, rendered one line at a time and sieve-free: the value
    from the product recurrence, each weight from coeff_closed, and each detail
    line's label, subset sum and C(sigma_J, i) from one (i-h)-subset J of
    itertools.combinations over 1..n, whose entries sum to the bracket total."""
    value = esp.esp_all(roots)[i]
    lines = [str(value), f"head C({roots.total},{i}) = {math.comb(roots.total, i)}"]
    for h in range(1, i):
        detail = []
        for indices in combinations(range(1, roots.n + 1), i - h):
            subset_sum = sum(roots.elements[j - 1] for j in indices)
            detail.append((",".join(map(str, indices)), subset_sum, math.comb(subset_sum, i)))
        total = sum(entry for _, _, entry in detail)
        lines.append(f"h={h} weight {-coeff_closed(roots.n, i, h)} bracket_total {total}")
        if roots.n > explain_limit:
            lines.append(f"  (per-subset detail omitted: n > explain limit {explain_limit})")
            continue
        lines += [f"  {{{label}}} sum={subset_sum} C({subset_sum},{i})={entry}" for label, subset_sum, entry in detail]
    lines.append(f"total {value}")
    return "".join(line + "\n" for line in lines)


# Each root draws its own bit width in 1..70; a set may repeat a drawn root.
explain_roots = st.lists(
    st.integers(1, 70).flatmap(lambda width: st.integers(1 << (width - 1), (1 << width) - 1)), min_size=1, max_size=9
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=9))


@given(elements=explain_roots, data=st.data())
@settings(deadline=None)
def test_compute_explain_equals_the_per_line_rendering(elements, data):
    roots = RootSet(tuple(elements))
    i = data.draw(st.integers(0, roots.n), label="i")
    limit = data.draw(st.integers(max(0, roots.n - 2), roots.n + 2), label="explain_limit")
    argv = ["compute", "--roots", ",".join(map(str, elements)), "--i", str(i), "--explain", "--explain-limit", str(limit)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0 and err.getvalue() == ""
    assert out.getvalue() == reference_explain(roots, i, limit)


def test_compute_explain_stdout_is_pinned(capsys):
    # 12 roots from 1 to 128 bits wide, 1,586 detail lines over five brackets
    roots = "1,1,5,12,255,4097,65535,1048573,4294967291,1099511627689,18446744073709551557,340282366920938463463374607431768211297"
    code, out, err = run(capsys, "compute", "--roots", roots, "--i", "6", "--explain")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1593
    assert hashlib.sha256(out.encode()).hexdigest() == "979794c5a150754a2ae6899a70f7c2ad4150c98f0430ef1b799c73987514cb8c"


# 16 roots at i = 9: 39,213 lines, whose longest bracket (C(16, 8) = 12,870
# lines) spans four chunks of detail.
SIXTEEN_ROOTS = RootSet((1, 1, 5, 12, 255, 4097, 65535, 1048573, 3, 7, 9, 2, 6, 11, 13, 17))
SIXTEEN_ROOTS_EXPLAIN = [
    "compute", "--roots", ",".join(map(str, SIXTEEN_ROOTS.elements)), "--i", "9", "--explain", "--explain-limit", "16"
]


def test_compute_explain_across_chunks_writes_the_per_line_rendering_one_chunk_at_a_time():
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

        def flush(self):
            pass

    recorder = Recorder()
    with redirect_stdout(recorder):
        assert main(SIXTEEN_ROOTS_EXPLAIN) == 0
    out = "".join(recorder.writes)
    assert out.count("\n") == 39213
    assert out == reference_explain(SIXTEEN_ROOTS, 9, 16)
    # No write holds more than one chunk of detail lines, so memory stays bounded.
    detail_per_write = [sum(line.startswith("  {") for line in text.splitlines()) for text in recorder.writes]
    assert max(detail_per_write) == cli._EXPLAIN_CHUNK == 4096


def test_compute_explain_fails_when_a_bracket_total_disagrees_with_its_entries(capsys, monkeypatch):
    totals = esp._bracket_totals
    plant = lambda elements, i: [t + (s == 1) for s, t in enumerate(totals(elements, i))]  # noqa: E731
    monkeypatch.setattr(esp, "_bracket_totals", plant)
    code, out, err = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--explain")
    assert code == 1
    assert err == "error: --explain bracket h=2: entries sum to 5, bracket_total is 6\n"
    # The bracket's lines were written before its check, and stay written.
    assert out.splitlines()[-4:] == [
        "h=2 weight 1 bracket_total 6", "  {1} sum=2 C(2,3)=0", "  {2} sum=3 C(3,3)=1", "  {3} sum=4 C(4,3)=4"
    ]
    code, out, err = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--explain", "--explain-limit", "0")
    assert code == 0 and err == "" and "h=2 weight 1 bracket_total 6" in out.splitlines()


def test_a_closed_stdout_pipe_exits_one_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    # stdout block-buffered, as a pipe's is by default: the short answer fails at the flush.
    env.pop("PYTHONUNBUFFERED", None)
    # A reader gone before a short answer is flushed, and one that leaves
    # after the first line of a long explain; both processes run at once.
    read_end, write_end = os.pipe()
    os.close(read_end)
    gone = subprocess.Popen(
        [sys.executable, "-m", "symex", "compute", "--roots", "2,3,4", "--i", "3"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_end)
    with gone, subprocess.Popen(
        [sys.executable, "-m", "symex", *SIXTEEN_ROOTS_EXPLAIN], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as left:
        first = left.stdout.readline()
        left.stdout.close()
        answers = [(proc.stderr.read(), proc.wait(timeout=60)) for proc in (gone, left)]
    assert first.strip().isdigit()
    assert answers == [(b"", 1), (b"", 1)]


def test_a_reader_leaving_a_streamed_triangle_gets_exit_one_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONUNBUFFERED", None)
    # 66 kB of rows, most of them made after the first block reaches the
    # reader: the writer meets the closed end while it is still computing
    with subprocess.Popen(
        [sys.executable, "-m", "symex", "specialize", "--family", "stirling1", "--rows", "60"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as left:
        first = left.stdout.readline()
        left.stdout.close()
        answer = left.stderr.read(), left.wait(timeout=60)
    assert first == b"1 1\n"
    assert answer == (b"", 1)


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "24" and payload["method"] == "extraction"
    assert payload["breakdown"]["head"] == "84"
    assert payload["breakdown"]["terms"] == [
        {"h": 1, "weight": "-1", "bracket_total": "65"},
        {"h": 2, "weight": "1", "bracket_total": "5"},
    ]
    code, out, _ = run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--method", "direct", "--json")
    payload = json.loads(out)
    assert payload == {"value": "24", "method": "direct"}


def test_compute_method_all(capsys):
    code, out, _ = run(capsys, "compute", "--roots", "2,3,4", "--i", "2", "--method", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["values"] == {"direct": "26", "dp": "26", "extraction": "26"}
    code, out, err = run(capsys, "compute", "--roots", "2,3,4", "--i", "2", "--method", "all")
    assert code == 0 and err == ""
    assert out == "direct 26\ndp 26\nextraction 26\nagree yes\n"


GOLDEN = Path(__file__).resolve().parent / "golden"
WIDE = (10**299 + 7, 3**629, 2**995 - 1, 10**299 + 1, 5**429)


def compute_payload(roots, i, method):
    """The dict that `compute --json` once built and passed to json.dumps."""
    if method == "all":
        values = esp.esp_compare(roots, i)
        by_method = {name: str(value) for name, value in values.items()}
        return {"value": by_method["direct"], "method": "all", "values": by_method, "agree": len(set(by_method.values())) == 1}
    if method != "extraction":
        return {"value": str(esp.METHODS[method](roots, i)), "method": method}
    value, breakdown = esp.esp_extraction(roots, i)
    terms = [{"h": t.h, "weight": str(t.coefficient), "bracket_total": str(t.bracket_total)} for t in breakdown.terms]
    return {"value": str(value), "method": method, "breakdown": {"head": str(breakdown.head), "terms": terms}}


@pytest.mark.parametrize(
    "elements, i",
    [((2, 3, 4), 3), ((2, 3, 4), 0), ((2, 3, 4), 1), ((7,), 1), ((3, 1, 4, 1, 5, 9, 2, 6), 6), (WIDE, 2), (WIDE, 4), (WIDE, 5)],
)
@pytest.mark.parametrize("method", ["extraction", "direct", "dp", "all"])
def test_compute_json_is_the_bytes_of_json_dumps(capsys, elements, i, method):
    # The writer spells each line itself; every shape must stay json.dumps'
    # default text, including 300-digit values and negative weights.
    roots = RootSet(elements)
    if method == "all" and i == 0:
        i = 1  # method all refuses i = 0 with exit 3
    expected = json.dumps(compute_payload(roots, i, method)) + "\n"
    code, out, err = run(capsys, "compute", "--roots", ",".join(map(str, elements)), "--i", str(i), "--method", method, "--json")
    assert (code, out, err) == (0, expected, "")
    if elements == WIDE:
        assert len(json.loads(out)["value"]) > 300
    if method == "extraction" and i > 2:
        assert any(t["weight"].startswith("-") for t in json.loads(out)["breakdown"]["terms"])


def test_compute_json_of_disagreeing_routes(capsys, monkeypatch):
    monkeypatch.setitem(esp.METHODS, "dp", lambda roots, i: esp.esp_all(roots)[i] + 1)
    roots = RootSet((2, 3, 4))
    expected = json.dumps(compute_payload(roots, 2, "all")) + "\n"
    assert '"agree": false' in expected
    assert run(capsys, "compute", "--roots", "2,3,4", "--i", "2", "--method", "all", "--json") == (1, expected, "")


def test_compute_json_golden_bytes(capsys):
    # The installed console script is compared with this same file.
    golden = (GOLDEN / "compute_2_3_4_i3.json").read_text()
    assert golden == json.dumps(compute_payload(RootSet((2, 3, 4)), 3, "extraction")) + "\n"
    assert run(capsys, "compute", "--roots", "2,3,4", "--i", "3", "--json") == (0, golden, "")


def test_compute_method_all_runs_each_route_once(capsys, monkeypatch):
    calls = Counter()

    def counted(name, route):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return route(*args, **kwargs)

        return wrapper

    for name in ("esp_direct", "_esp_dp", "esp_extraction"):
        monkeypatch.setattr(esp, name, counted(name, getattr(esp, name)))
    code, out, _ = run(capsys, "compute", "--roots", "2,3,4,5", "--i", "3", "--method", "all")
    assert code == 0 and out.endswith("agree yes\n")
    assert calls == Counter({"esp_direct": 1, "_esp_dp": 1, "esp_extraction": 1})


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit here")
def test_compute_prints_values_past_the_int_string_limit(capsys):
    # e_12 of 12 roots of 400 nines has about 4,800 digits, past the interpreter's default limit of 4,300
    roots = ",".join(["9" * 400] * 12)
    expected = esp.esp_all(RootSet.parse(roots))[12]
    wide = "7" * 5000
    default = sys.get_int_max_str_digits()

    def run_from_default_limit(*argv):
        sys.set_int_max_str_digits(4300)
        return run(capsys, *argv)

    try:
        code, out, err = run_from_default_limit("compute", "--roots", roots, "--i", "12")
        assert code == 0 and err == "" and int(out) == expected
        code, out, err = run_from_default_limit("compute", "--roots", roots, "--i", "12", "--json")
        assert code == 0 and int(json.loads(out)["value"]) == expected
        explain = ("--explain", "--explain-limit", "0")
        code, out, err = run_from_default_limit("compute", "--roots", roots, "--i", "12", *explain)
        assert code == 0 and out.splitlines()[-1] == f"total {expected}"
        code, out, err = run_from_default_limit("compute", "--roots", f"{wide},2", "--i", "1")
        assert code == 0 and err == "" and out == f"{wide[:-1]}9\n"
    finally:
        sys.set_int_max_str_digits(default)


def test_coeffs_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "5", "--i", "3", "--h-max", "3")
    assert code == 0
    assert out.splitlines() == [
        "n=5 i=3",
        "h recurrence closed convolution",
        "1 1 1 1",
        "2 -3 -3 1",
        "3 6 6 1",
    ]


def test_coeffs_single_row_and_errors(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "4", "--i", "4", "--h-max", "1")
    assert code == 0 and out.splitlines()[-1] == "1 1 1 1"
    code, _, err = run(capsys, "coeffs", "--n", "3", "--i", "5", "--h-max", "2")
    assert code == 2 and "error" in err


def test_coeffs_stdout_is_pinned(capsys):
    code, out, err = run(capsys, "coeffs", "--n", "9", "--i", "4", "--h-max", "12")
    assert code == 0 and err == ""
    assert out == (
        "n=9 i=4\n"
        "h recurrence closed convolution\n"
        "1 1 1 1\n"
        "2 -6 -6 1\n"
        "3 21 21 1\n"
        "4 -56 -56 1\n"
        "5 126 126 1\n"
        "6 -252 -252 1\n"
        "7 462 462 1\n"
        "8 -792 -792 1\n"
        "9 1287 1287 1\n"
        "10 -2002 -2002 1\n"
        "11 3003 3003 1\n"
        "12 -4368 -4368 1\n"
    )


def test_coeffs_json_is_pinned(capsys):
    code, out, err = run(capsys, "coeffs", "--n", "9", "--i", "4", "--h-max", "12", "--json")
    assert code == 0 and err == ""
    assert out == (
        '{"n": 9, "i": 4, "rows": ['
        '{"h": 1, "recurrence": "1", "closed": "1", "convolution": "1"}, '
        '{"h": 2, "recurrence": "-6", "closed": "-6", "convolution": "1"}, '
        '{"h": 3, "recurrence": "21", "closed": "21", "convolution": "1"}, '
        '{"h": 4, "recurrence": "-56", "closed": "-56", "convolution": "1"}, '
        '{"h": 5, "recurrence": "126", "closed": "126", "convolution": "1"}, '
        '{"h": 6, "recurrence": "-252", "closed": "-252", "convolution": "1"}, '
        '{"h": 7, "recurrence": "462", "closed": "462", "convolution": "1"}, '
        '{"h": 8, "recurrence": "-792", "closed": "-792", "convolution": "1"}, '
        '{"h": 9, "recurrence": "1287", "closed": "1287", "convolution": "1"}, '
        '{"h": 10, "recurrence": "-2002", "closed": "-2002", "convolution": "1"}, '
        '{"h": 11, "recurrence": "3003", "closed": "3003", "convolution": "1"}, '
        '{"h": 12, "recurrence": "-4368", "closed": "-4368", "convolution": "1"}], '
        '"consistent": true}\n'
    )


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "convolution")
    assert code == 0
    assert out.startswith("verify suite=convolution seed=42")
    assert out.rstrip().endswith("(3/3 checks)")


def test_verify_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "nosuch"])
    assert excinfo.value.code == 2


def test_verify_rejects_a_truncation_below_one_before_any_suite(capsys, monkeypatch):
    def refuse(rng, truncation):
        raise AssertionError("no suite may run on a rejected --truncation")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, refuse)
    for suite in ("all", "equivalence", "gf"):
        for truncation in ("-3", "0"):
            code, out, err = run(capsys, "verify", "--suite", suite, "--truncation", truncation, "--json")
            assert code == 2 and out == ""
            assert err == f"error: --truncation must be >= 1, got {truncation}\n"


def test_verify_is_deterministic(capsys):
    first = run(capsys, "verify", "--suite", "equivalence", "--seed", "7")
    second = run(capsys, "verify", "--suite", "equivalence", "--seed", "7")
    assert first == second
    different = run(capsys, "verify", "--suite", "equivalence", "--seed", "8")
    assert different[0] == 0  # other seeds pass too, with their own draw counts


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "vandermonde", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["seed"] == 42
    assert all(check["passed"] for check in payload["checks"])


def test_verify_all_stdout_is_pinned(serial_verify):
    # the serial run; the two-CPU runs must print the same bytes
    # (tests/test_verify.py), and CI compares both with the same file
    code, out, err = serial_verify("verify", "--suite", "all", "--seed", "42")
    assert (code, out, err) == (0, (GOLDEN / "verify_all_seed42.txt").read_text(), "")


def test_verify_all_json_is_pinned(serial_verify):
    code, out, err = serial_verify("verify", "--suite", "all", "--seed", "42", "--json")
    assert (code, out, err) == (0, (GOLDEN / "verify_all_seed42.json").read_text(), "")


def test_bench_single_cell(capsys):
    code, out, _ = run(capsys, "bench", "--n", "5", "--i", "2", "--methods", "direct")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("bench seed=42 methods=direct")
    assert "n=5 i=2" in lines[1] and "agree=yes" in lines[1]


def test_bench_json_records(capsys):
    code, out, _ = run(capsys, "bench", "--n", "6", "--i", "3", "--methods", "dp,extraction", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    record = records[0]
    assert record["agree"] is True
    assert set(record["timings_ms"]) == {"dp", "extraction"}
    assert record["value"].isdigit()


def test_bench_times_each_named_method_once(capsys):
    # text and JSON name the same methods, each once, in the order first given
    argv = ["bench", "--n", "2", "--i", "1", "--methods", "dp,extraction,dp"]
    code, out, _ = run(capsys, *argv)
    header, cell = out.splitlines()
    assert code == 0 and " methods=dp,extraction " in header
    assert re.findall(r"(\w+)=[\d.]+ms", cell) == ["dp", "extraction"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and list(json.loads(out)[0]["timings_ms"]) == ["dp", "extraction"]


def test_bench_usage_errors(capsys):
    code, _, err = run(capsys, "bench", "--methods", "warp")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "bench", "--n", "5", "--methods", "dp")
    assert code == 2
    code, _, err = run(capsys, "bench", "--n", "3", "--i", "9", "--methods", "dp")
    assert code == 2


def test_specialize_output(capsys):
    code, out, _ = run(capsys, "specialize", "--family", "pascal", "--rows", "4")
    assert code == 0 and out.splitlines()[-1] == "1 4 6 4 1"
    code, out, _ = run(capsys, "specialize", "--family", "stirling1", "--rows", "3")
    assert code == 0 and out.splitlines()[-1] == "1 6 11 6"
    code, out, _ = run(capsys, "specialize", "--family", "stirling1", "--rows", "1")
    assert code == 0 and out == "1 1\n"


def test_specialize_disagreement_exits_one(capsys, monkeypatch):
    signed = esp.stirling_first_signed
    monkeypatch.setattr(esp, "stirling_first_signed", lambda i, p: signed(i, p) + (i == 3 and p == 2))
    code, out, err = run(capsys, "specialize", "--family", "stirling1", "--rows", "3")
    # rows stream: row 1 is written before row 2 fails its check
    assert code == 1 and out == "1 1\n"
    assert err.startswith("error: stirling1 row 2 disagrees") and "Traceback" not in err


def test_a_failed_allocation_exits_one_with_one_error_line(capsys, monkeypatch):
    # A route that cannot allocate, planted rather than provoked: the
    # triangle's second root and the per-order brackets raise MemoryError.
    factors = esp._binomial_factors

    def second_root_out_of_memory(elements, top, b):
        yield next(factors(elements, top, b))
        raise MemoryError

    monkeypatch.setattr(esp, "_binomial_factors", second_root_out_of_memory)
    code, out, err = run(capsys, "specialize", "--family", "stirling1", "--rows", "3")
    # row 1 was written before the failed allocation, and stays written
    assert (code, out, err) == (1, "1 1\n", "error: out of memory\n")

    def out_of_memory(*args):
        raise MemoryError("planted")

    monkeypatch.setattr(esp, "_bracket_totals", out_of_memory)
    for extra in ((), ("--json",), ("--explain",)):
        assert run(capsys, "compute", "--roots", "2,3,4", "--i", "3", *extra) == (1, "", "error: out of memory\n")


def test_a_real_failed_allocation_exits_one_with_one_error_line():
    # The one-pass table of 3,000 rows asks for a 13.5 GB mask before its
    # first row; the child's address space is capped at 2 GiB, this process's is not.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS here")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "symex", "specialize", "--family", "pascal", "--rows", "3000"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path}, preexec_fn=cap_address_space,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("error", [ValueError("planted"), KeyError("planted"), AssertionError("planted")])
def test_a_defect_in_a_route_exits_one_with_one_line_naming_the_command(capsys, monkeypatch, error):
    # Every argument is checked first, so any error a route raises is a defect.
    def defect(*args):
        raise error

    monkeypatch.setattr(esp, "_bracket_totals", defect)
    line = f"error: compute: {type(error).__name__}: {error}\n"
    for extra in ((), ("--json",), ("--explain",)):
        assert run(capsys, "compute", "--roots", "2,3,4", "--i", "3", *extra) == (1, "", line)


@pytest.mark.parametrize("rows", ["0", "-5"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_specialize_refuses_fewer_than_one_row_before_any_work(capsys, monkeypatch, rows, json_flag):
    def refuse(*args):
        raise AssertionError("no triangle may be built for a rejected --rows")

    monkeypatch.setattr(cli, "specialize", refuse)
    argv = ["specialize", "--family", "pascal", "--rows", rows, *json_flag]
    assert run(capsys, *argv) == (2, "", f"error: need rows >= 1, got {rows}\n")


def test_specialize_unknown_family_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["specialize", "--family", "nosuch", "--rows", "2"])
    assert excinfo.value.code == 2


def test_specialize_json(capsys):
    code, out, _ = run(capsys, "specialize", "--family", "pascal", "--rows", "3", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["rows"] == [["1", "1"], ["1", "2", "1"], ["1", "3", "3", "1"]]


@pytest.mark.parametrize("rows", [1, 2, 12])
@pytest.mark.parametrize("family", ["pascal", "stirling1"])
def test_specialize_json_is_the_bytes_of_json_dumps(capsys, family, rows):
    # The rows are written one at a time, yet the line is json.dumps' text of
    # the whole payload; each row here is e_0..e_n by the product recurrence.
    prefixes = [(1,) * n if family == "pascal" else tuple(range(1, n + 1)) for n in range(1, rows + 1)]
    payload = {"family": family, "rows": [[str(e) for e in esp.esp_all(RootSet(prefix))] for prefix in prefixes]}
    expected = json.dumps(payload) + "\n"
    assert run(capsys, "specialize", "--family", family, "--rows", str(rows), "--json") == (0, expected, "")


# ---------------------------------------------------------------------------
# one parser per process


def run_any(capsys, argv):
    """Exit code, stdout and stderr of `main(argv)`, whether it returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_parser_run(capsys, monkeypatch, argv):
    """`run_any` with a parser built for this call alone, as before the cache."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return run_any(capsys, argv)


EVERY_SUBCOMMAND = (
    ("compute", "--roots", "2,3,4", "--i", "3"),
    ("compute", "--roots", "2,3,4", "--i", "2", "--explain"),
    ("compute", "--roots", "2,0,4", "--i", "1"),
    ("coeffs", "--n", "5", "--i", "3"),
    ("verify", "--suite", "multiplicity"),
    ("bench", "--n", "4", "--i", "2", "--methods", "dp", "--json"),
    ("specialize", "--family", "pascal", "--rows", "3"),
    ("nosuch",),
)


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    codes = [run_any(capsys, argv)[0] for argv in (EVERY_SUBCOMMAND * 3)[:20]]
    assert codes[:8] == [0, 0, 2, 0, 0, 0, 0, 2]
    # the root parser and one subparser per subcommand, once for all 20 calls
    assert len(built) == 6


def test_a_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    sequence = [
        ("compute", "--roots", "2,0,4", "--i", "1"),
        ("compute", "--help"),
        ("compute", "--roots", "2,3", "--i", "5"),
        ("compute", "--roots", "2,3,4", "--i", "3", "--explain"),
        ("compute", "--roots", "2,0,4", "--i", "1"),
        ("compute", "--roots", "2,3,4", "--i", "3", "--json"),
        ("compute", "--roots", "2,3,4,5", "--i", "2", "--method", "all"),
        ("compute", "--help"),
        ("coeffs", "--n", "6", "--i", "3", "--h-max", "4"),
        ("nosuch",),
        ("specialize", "--family", "stirling1", "--rows", "4"),
        ("verify", "--suite", "multiplicity"),
        ("compute", "--roots", "2,3", "--i", "5"),
        ("compute", "--roots", "2,3,4", "--i", "3", "--explain"),
        ("nosuch",),
        ("verify", "--suite", "multiplicity", "--json"),
    ]
    reused = [run_any(capsys, argv) for argv in sequence]
    fresh = [fresh_parser_run(capsys, monkeypatch, argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 3, 0, 2, 0, 0, 0, 0, 2, 0, 0, 3, 0, 2, 0]


def test_help_follows_the_terminal_width_at_call_time(capsys, monkeypatch):
    texts = {}
    for columns in ("200", "40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        reused = run_any(capsys, ["compute", "--help"])
        assert reused == fresh_parser_run(capsys, monkeypatch, ["compute", "--help"])
        assert reused[0] == 0 and reused[2] == ""
        texts.setdefault(columns, reused[1])
        assert texts[columns] == reused[1]
    assert texts["40"] != texts["200"]


# ---------------------------------------------------------------------------
# argv routed to the command's own parser


def reference_main(argv):
    """The `main` body with no routing: one full parse, then the command."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def answer(entry, argv):
    """Exit code, stdout and stderr of `entry(argv)`; bench's timings are masked."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if argv[:1] == ["bench"]:
        text = re.sub(r"\d+\.\d+(e-?\d+)?", "<t>", text)
    return code, text, err.getvalue()


# Values for each option, valid and not; --suite avoids the slow suites.
OPTION_VALUES = {
    "--roots": ("2,3,4", "1,1,5,12", "2,0,4", "2,x"),
    "--i": ("0", "2", "3", "9", "-1", "two"),
    "--method": ("dp", "direct", "all", "nosuch"),
    "--explain-limit": ("0", "2", "-1"),
    "--n": ("4", "6", "0", "x"),
    "--h-max": ("2", "0"),
    "--suite": ("multiplicity", "vandermonde", "nosuch"),
    "--seed": ("7", "x"),
    "--truncation": ("3", "0"),
    "--methods": ("dp", "dp,extraction", "nosuch", ""),
    "--family": ("pascal", "stirling1", "nosuch"),
    "--rows": ("3", "-1", "x"),
}
FLAGS = ("--explain", "--json")


@st.composite
def argv_pieces(draw):
    kind = draw(st.sampled_from(("value", "value", "value", "flag", "stray", "dashes", "help")))
    if kind == "flag":
        return [draw(st.sampled_from(FLAGS))]
    if kind == "stray":
        return [draw(st.sampled_from(("x", "7", "compute")))]
    if kind == "dashes":
        return ["--"]
    if kind == "help":
        return [draw(st.sampled_from(("-h", "--help")))]
    option = draw(st.sampled_from(sorted(OPTION_VALUES)))
    value = draw(st.sampled_from(OPTION_VALUES[option]))
    # an abbreviation keeps the dashes and at least one letter
    option = option[: draw(st.integers(3, len(option)))]
    return [f"{option}={value}"] if draw(st.booleans()) else [option, value]


# Each command's required options with values that pass, so that some argvs succeed.
REQUIRED = {
    "compute": ["--roots", "2,3,4", "--i", "2"],
    "coeffs": ["--n", "5", "--i", "3"],
    "verify": ["--suite", "multiplicity"],
    "bench": ["--n", "4", "--i", "2", "--methods", "dp"],
    "specialize": ["--family", "pascal", "--rows", "3"],
    "comp": ["--roots", "2,3,4", "--i", "2"],
    "nosuch": [],
    "": [],
}


@st.composite
def command_argv(draw):
    command = draw(st.sampled_from(sorted(REQUIRED)))
    pieces = draw(st.lists(argv_pieces(), max_size=5))
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), REQUIRED[command])
    return ([command] if command else []) + [token for piece in pieces for token in piece]


@given(argv=command_argv())
@example(argv=[])
@example(argv=["-h"])
@example(argv=["--help"])
@example(argv=["comp", "--roots", "2,3", "--i", "1"])
@example(argv=["nosuch"])
@example(argv=["--roots", "2,3", "compute", "--i", "1"])
@example(argv=["compute", "--ro", "2,3,4", "--i", "2"])
@example(argv=["compute", "--e", "--roots", "2,3", "--i", "1"])
@example(argv=["compute", "--roots=1,2", "--i=1"])
@example(argv=["compute", "--roots", "2,3", "--i", "1", "stray"])
@example(argv=["compute", "stray", "--roots", "2,3", "--i", "1"])
@example(argv=["compute", "--roots", "2,3", "--i", "1", "--", "x"])
@example(argv=["compute", "--roots", "2,3", "--", "--i", "1"])
@example(argv=["compute", "--roots", "2,3", "--i", "1", "--i", "2"])
@example(argv=["compute", "--roots", "2,3", "--i", "1", "--unknown", "3"])
@example(argv=["compute", "--roots", "2,x", "--i", "1"])
@example(argv=["compute", "--roots", "2,3", "--i", "one"])
@example(argv=["compute", "--roots", "2,3", "--i", "5"])
@example(argv=["compute", "--roots", "2,3", "--i", "1", "-h"])
@example(argv=["verify", "--suite", "nosuch"])
@example(argv=["coeffs", "--n", "4", "--i", "2", "--h-max", "0"])
@settings(deadline=None, max_examples=150)
def test_routed_argv_answers_as_the_full_parse(argv):
    assert answer(main, argv) == answer(reference_main, argv)


def test_main_reads_sys_argv_when_given_none(monkeypatch):
    for argv in (["compute", "--roots", "2,3,4", "--i", "2", "--json"], ["compute", "--roots", "2,3", "stray"], ["-h"]):
        monkeypatch.setattr(sys, "argv", ["symex", *argv])
        assert answer(lambda _: main(), argv) == answer(reference_main, argv)


# ---------------------------------------------------------------------------
# every argv gets a documented exit code


def small_option(draw, name, values):
    """[name, value] for a value drawn from `values`, or nothing one time in five."""
    return [] if draw(st.integers(0, 4)) == 0 else [name, str(draw(values))]


def small_flag(draw, name):
    return [name] if draw(st.booleans()) else []


# Every command with values valid and not, small enough that each run is quick:
# at most 8 roots of up to 30 bits, no verify suite above 20 ms.
SMALL_COMMANDS = {
    "compute": lambda draw: [
        *small_option(draw, "--roots", st.lists(st.integers(-1, (1 << 30) - 1), max_size=8).map(lambda r: ",".join(map(str, r)))),
        *small_option(draw, "--i", st.integers(-2, 10)),
        *small_option(draw, "--method", st.sampled_from((*esp.METHODS, "all", "nosuch"))),
        *small_option(draw, "--explain-limit", st.integers(-2, 10)),
        *small_flag(draw, "--explain"),
        *small_flag(draw, "--json"),
    ],
    "coeffs": lambda draw: [
        *small_option(draw, "--n", st.integers(-2, 12)),
        *small_option(draw, "--i", st.integers(-2, 12)),
        *small_option(draw, "--h-max", st.integers(-2, 12)),
        *small_flag(draw, "--json"),
    ],
    "verify": lambda draw: [
        *small_option(draw, "--suite", st.sampled_from(("convolution", "vandermonde", "gf", "layers", "multiplicity", "nosuch"))),
        *small_option(draw, "--seed", st.integers(-5, 5)),
        *small_option(draw, "--truncation", st.integers(-2, 8)),
        *small_flag(draw, "--json"),
    ],
    "bench": lambda draw: [
        *small_option(draw, "--n", st.integers(-2, 8)),
        *small_option(draw, "--i", st.integers(-2, 8)),
        *small_option(draw, "--methods", st.lists(st.sampled_from((*esp.METHODS, "nosuch", "")), max_size=3).map(",".join)),
        *small_flag(draw, "--json"),
    ],
    "specialize": lambda draw: [
        *small_option(draw, "--family", st.sampled_from(("pascal", "stirling1", "nosuch"))),
        *small_option(draw, "--rows", st.integers(-3, 12)),
        *small_flag(draw, "--json"),
    ],
    "nosuch": lambda draw: [],
}


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(sorted(SMALL_COMMANDS)))
    return [command, *SMALL_COMMANDS[command](draw)]


@given(argv=small_argv())
@example(argv=["compute", "--roots", "2,3,4", "--i", "4", "--explain"])
@example(argv=["specialize", "--family", "pascal", "--rows", "0"])
@example(argv=["bench", "--n", "3", "--i", "2", "--methods", "dp,dp", "--json"])
@settings(deadline=None, max_examples=100)
def test_every_small_argv_exits_with_a_documented_code_and_no_traceback(argv):
    code, _, err = answer(main, argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err


# ---------------------------------------------------------------------------
# a command imports only what it runs

SRC = str(Path(cli.__file__).resolve().parents[1])


def test_compute_imports_only_what_it_runs():
    # `random` is not asserted on: a site-packages .pth may import it at interpreter start.
    unused = (
        "symex.verify", "symex.polyexpand", "symex.series", "fractions", "decimal", "statistics", "dataclasses", "pickle"
    )
    script = (
        "import sys\n"
        "from symex.cli import main\n"
        "code = main(['compute', '--roots', '1,2,3', '--i', '2'])\n"
        f"print(code, sorted(set({unused!r}) & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path}
    )
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout == "11\n0 []\n"


def test_suite_names_are_the_verifier_suites():
    assert cli.SUITE_NAMES == tuple(verify.SUITES)
    assert cli.SUITES is verify.SUITES
    with pytest.raises(AttributeError):
        cli.NO_SUCH_NAME
