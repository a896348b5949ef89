import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degbern
import degbern.cli as cli
import degbern.identities as identities
from degbern.core import ExactDivisionError, LambdaPoly
from degbern.expansion import RouteMismatchError, expand, reconstruct
from degbern.identities import identity_ids
from degbern.parser import parse_poly
from helpers import SMALL_FRACTIONS


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "degbern", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# -- expand ---------------------------------------------------------------------


def test_expand_text_with_lambda_column():
    proc = run_cli("expand", "--expr", "x^2", "--lambda", "0")
    assert proc.returncode == 0
    assert "a_0 = 1/6*l^2 - 1/2*l + 1/3" in proc.stdout
    assert "[l=0: 1/3]" in proc.stdout


def test_expand_json_scaled_bernoulli_number():
    proc = run_cli("expand", "--expr", "B(4)", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["order"] == "1"
    assert doc["degree"] == "4"
    assert doc["coefficients"][0]["lambda_poly"] == [["4", "-1/30"]]


def test_expand_constant_higher_order():
    proc = run_cli("expand", "--expr", "1", "--order", "3")
    assert proc.returncode == 0
    assert "a_0 = 1" in proc.stdout
    assert "a_1" not in proc.stdout


def test_expand_crosscheck_clean():
    proc = run_cli("expand", "--expr", "B(2)*x", "--order", "2", "--crosscheck")
    assert proc.returncode == 0


def test_expand_parse_error_exit_1():
    proc = run_cli("expand", "--expr", "2x")
    assert proc.returncode == 1
    assert "offset" in proc.stderr


def test_expand_bad_order_exit_1():
    proc = run_cli("expand", "--expr", "x", "--order", "0")
    assert proc.returncode == 1


def test_expand_bad_lambda_exit_1_without_traceback():
    # only [-]P[/Q] in ASCII digits; "1e50000000" used to run for minutes
    for bad in ("1/0", "one", "1e50000000", "1.5", "+1", " 1", "1_0", "\u0663", "1/-2"):
        proc = run_cli("expand", "--expr", "x^2", "--lambda", bad, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
    # in one token, argparse hands the value "--" over as an empty list
    proc = run_cli("expand", "--expr", "x^2", "--lambda=--")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:") and "'--'" in proc.stderr


def test_negative_lambda_in_one_token():
    proc = run_cli("expand", "--expr", "x", "--lambda=-2/7")
    assert proc.returncode == 0
    assert "a_0 = -1/2*l + 1/2   [l=-2/7: 9/14]" in proc.stdout
    assert "a_1 = 1   [l=-2/7: 1]" in proc.stdout


def test_negative_lambda_as_a_separate_word_exit_1():
    # argparse reads "-2/7" after a space as an option, not as the value
    proc = run_cli("expand", "--expr", "x", "--lambda", "-2/7")
    assert proc.returncode == 1
    assert "--lambda" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_json_document_round_trip():
    proc = run_cli("expand", "--expr", "x^3 - 1/2*l*x", "--format", "json")
    doc = json.loads(proc.stdout)
    # field-exact document round trip
    e = cli.document_to_expansion(doc)
    assert cli.expansion_to_document(doc["input"], e) == doc
    # the reconstructed polynomial is the parsed input again
    assert reconstruct(e) == parse_poly(doc["input"])


def test_json_matches_in_process_expansion():
    expr = "B(2)*B(2)"
    proc = run_cli("expand", "--expr", expr, "--format", "json")
    doc = json.loads(proc.stdout)
    e = expand(parse_poly(expr))
    assert cli.document_to_expansion(doc).coeffs == e.coeffs


def test_document_to_expansion_rejects_bad_documents():
    def doc(degree, *ks, order="1"):
        return {"order": order, "degree": degree, "coefficients": [{"k": k, "lambda_poly": [["0", "5"]]} for k in ks]}

    assert cli.document_to_expansion(doc("2", "2", "0")).coeffs == tuple(LambdaPoly.const(c) for c in (5, 0, 5))
    for bad, message in (
        (doc("2", "0", "-1"), "k = -1 is outside 0..2"),
        (doc("2", "3"), "k = 3 is outside 0..2"),
        (doc("2", "1", "1"), "k = 1 is given twice"),
        (doc("-1"), "degree must be between 0 and"),
        # expand never writes order 0 (the falling-factorial basis), nor a size past the guard
        (doc("2", "0", order="0"), "order must be between 1 and"),
        (doc("2", "0", order="100000"), "order must be between 1 and"),
        # refused before a coefficient tuple of that length is built
        (doc("10000000"), "degree must be between 0 and"),
    ):
        with pytest.raises(ValueError, match=message):
            cli.document_to_expansion(bad)


def _document(degree: int, exponent: str) -> dict:
    return {"order": "1", "degree": str(degree), "coefficients": [{"k": "0", "lambda_poly": [[exponent, "1"]]}]}


def test_document_l_exponent_past_the_limit_raises_before_allocating(monkeypatch):
    monkeypatch.delenv("DEGBERN_MAX_DEGREE", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="l-exponent 1000000000000 is outside 0..66"):
            cli.document_to_expansion(_document(2, "1000000000000"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_document_l_exponent_bound_is_degree_plus_limit(monkeypatch):
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "8")
    assert cli.document_to_expansion(_document(3, "11")).coeffs[0] == LambdaPoly.monomial(11)
    for exponent in ("12", "-1"):
        with pytest.raises(ValueError, match=f"l-exponent {exponent} is outside 0..11"):
            cli.document_to_expansion(_document(3, exponent))


def test_document_of_the_largest_l_degree_round_trips(monkeypatch):
    # l-degree 64 + 64, the bound itself
    monkeypatch.delenv("DEGBERN_MAX_DEGREE", raising=False)
    e = expand(parse_poly("l^64*x^64"))
    doc = json.loads(json.dumps(cli.expansion_to_document("l^64*x^64", e)))
    assert cli.document_to_expansion(doc).coeffs == e.coeffs


def test_lambda_poly_pair_serialization():
    p = LambdaPoly({0: Fraction(-1, 2), 3: Fraction(7)})
    pairs = cli.lambda_poly_to_pairs(p)
    assert pairs == [["0", "-1/2"], ["3", "7"]]
    assert cli.lambda_poly_from_pairs(pairs) == p


def test_latex_output_is_balanced():
    proc = run_cli("expand", "--expr", "x^2 - l*x", "--format", "latex")
    assert proc.returncode == 0
    out = proc.stdout.strip()
    assert out.count("{") == out.count("}")
    assert "\\beta" in out
    assert all(ch.isprintable() or ch == "\n" for ch in proc.stdout)


# unit coefficients of either sign, as many as the other small fractions; the empty dict is 0
_LATEX_TERMS = st.dictionaries(st.integers(0, 12), st.sampled_from([1, -1]) | SMALL_FRACTIONS, max_size=5)


@settings(max_examples=200, deadline=None)
@given(_LATEX_TERMS.map(LambdaPoly))
def test_latex_lambda_poly_writes_the_text_terms(p):
    # the LaTeX pieces mapped back to text give str(p), sign and unit rule included
    text = re.sub(r"\\frac\{(\d+)\}\{(\d+)\}", r"\1/\2", cli._latex_lambda_poly(p))
    text = re.sub(r"\\lambda\^\{(\d+)\}", r"l^\1", text).replace("\\lambda", "l")
    assert re.sub(r"(\d)l", r"\1*l", text) == str(p)


# -- verify -----------------------------------------------------------------------


def test_verify_miki_sweep():
    proc = run_cli("verify", "miki", "--n-max", "8")
    assert proc.returncode == 0
    lines = [line for line in proc.stdout.splitlines() if line.startswith("miki(")]
    assert len(lines) == 7
    assert all("PASS" in line for line in lines)


def test_verify_single_case_range_error():
    proc = run_cli("verify", "ex_g", "--n", "4", "--r", "5")
    assert proc.returncode == 1
    assert "n >= r" in proc.stderr


def test_verify_rejects_flag_the_identity_does_not_take():
    proc = run_cli("verify", "miki", "--n", "3", "--m", "7")
    assert proc.returncode == 1
    assert "miki takes parameters ('n',)" in proc.stderr
    assert "'m'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_r_max_leaves_the_iterate_sweep_alone():
    proc = run_cli("verify", "ex_g_iop", "--n-max", "3", "--r-max", "0")
    assert proc.returncode == 0
    lines = [line for line in proc.stdout.splitlines() if line.startswith("ex_g_iop(")]
    assert len(lines) > 0
    assert all("r=0" in line and "PASS" in line for line in lines)
    assert {line.split("a=")[1].split(",")[0].rstrip(")") for line in lines} == {"1", "2", "3"}


def test_verify_unknown_identity():
    proc = run_cli("verify", "not_a_thing")
    assert proc.returncode == 1
    assert "unknown identity" in proc.stderr
    # in one token, argparse hands the value "--" over as an empty list
    proc = run_cli("verify", "--id=--")
    assert proc.returncode == 1
    assert "unknown identity '--'" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_perturbed_exits_2():
    proc = run_cli("verify", "miki", "--n-max", "3", "--perturb")
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout


def test_verify_json_format():
    proc = run_cli("verify", "fpz", "--n-max", "4", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["failures"] == 0
    assert [case["params"]["n"] for case in payload["cases"]] == ["2", "3", "4"]


# -- table ------------------------------------------------------------------------


def test_table_bernoulli_numbers():
    proc = run_cli("table", "--family", "bernoulli", "--n-max", "12")
    assert proc.returncode == 0
    assert "10: 5/66" in proc.stdout
    assert "12: -691/2730" in proc.stdout


def test_table_genocchi_numbers():
    proc = run_cli("table", "--family", "genocchi", "--n-max", "12")
    assert proc.returncode == 0
    assert "12: 2073" in proc.stdout


def test_table_degenerate_bernoulli():
    proc = run_cli("table", "--family", "deg-bernoulli", "--n-max", "2")
    assert proc.returncode == 0
    assert "1: x + (1/2*l - 1/2)" in proc.stdout


def test_table_n_max_above_degree_limit_exit_1():
    proc = run_cli("table", "--family", "euler", "--n-max", "100000")
    assert proc.returncode == 1
    assert "--n-max must be between 0 and 64" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_table_n_max_follows_degree_limit(monkeypatch):
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "3")
    assert cli.main(["table", "--family", "bernoulli", "--n-max", "4"]) == 1
    assert cli.main(["table", "--family", "bernoulli", "--n-max", "3"]) == 0


def test_table_unknown_family():
    proc = run_cli("table", "--family", "fibonacci", "--n-max", "3")
    assert proc.returncode == 1
    assert "unknown family" in proc.stderr


def test_table_json_round_trip():
    proc = run_cli("table", "--family", "deg-falling", "--n-max", "3", "--format", "json")
    doc = json.loads(proc.stdout)
    entry = doc["entries"][2]
    assert entry["coefficients"][1]["lambda_poly"] == [["1", "-1"]]


def test_reader_closing_the_pipe_early_is_no_error():
    # about 135 KB of output, more than a pipe holds: the writer meets the closed pipe
    argv = ["table", "--family", "bernoulli-order", "--n-max", "40", "--order", "2", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "degbern", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert stderr == ""  # no traceback, nor a note that the flush at exit failed


# -- exit-code contract, in process -----------------------------------------------


def test_usage_error_exits_1():
    assert cli.main(["expand"]) == 1  # --expr is required
    assert cli.main(["bogus-command"]) == 1


def test_route_mismatch_maps_to_exit_2(monkeypatch):
    def boom(p, r=1):
        raise RouteMismatchError(0, "a", LambdaPoly.zero(), "b", LambdaPoly.one())

    monkeypatch.setattr(cli, "crosscheck", boom)
    assert cli.main(["expand", "--expr", "x", "--crosscheck"]) == 2


def test_exact_division_failure_maps_to_exit_3(monkeypatch):
    def boom(p, r=1, **kw):
        raise ExactDivisionError("1 + l is not divisible by l^1")

    monkeypatch.setattr(cli, "expand", boom)
    assert cli.main(["expand", "--expr", "x"]) == 3


def test_lambda_too_large_to_print_leaves_stdout_empty(capsys):
    # l^48 at l = 10^100 - 1 has more digits than str() of an int allows, and
    # 5000 digits are more than int() reads
    for expr, lam in (("x^48", "9" * 100), ("x^2", "9" * 5000)):
        assert cli.main(["expand", "--expr", expr, "--lambda", lam]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --lambda is too large")
        assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err
        assert len(captured.err) < 200
        assert captured.out == ""


def test_bad_lambda_rejected_before_expanding(monkeypatch):
    def boom(p, r=1, **kw):
        raise AssertionError("expanded before --lambda was checked")

    monkeypatch.setattr(cli, "expand", boom)
    assert cli.main(["expand", "--expr", "x", "--lambda", "1/0"]) == 1


@pytest.mark.parametrize("bad", ["zzz", "ex_e"])  # an unknown id; an id that also needs --m
def test_verify_checks_every_id_before_any_case(monkeypatch, capsys, bad):
    def boom(**params):
        raise AssertionError("ex_b computed before every id was checked")

    entry = dataclasses.replace(identities._IDENTITIES["ex_b"], lhs=boom)
    monkeypatch.setitem(identities._IDENTITIES, "ex_b", entry)
    assert cli.main(["verify", "ex_b", bad, "--n", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert bad in captured.err


def test_version_flag(capsys):
    # the entry answers exactly --version itself; argparse's action, which
    # --help lists, and the abbreviation --ver print the same line
    want = f"degbern {degbern.__version__}\n"
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr() == (want, "")
    assert cli.main(["--help"]) == 0
    assert "--version" in capsys.readouterr().out
    for flag in ("--version", "--ver"):
        proc = run_cli(flag)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
    # a reader that closed the pipe before the line was written
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "degbern", "--version"], stdout=write, stderr=subprocess.PIPE, text=True, timeout=60
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_package_version_is_the_pyproject_version():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    versions = set(re.findall(r'^version\s*=\s*"([^"]*)"$', project, re.M))
    if sys.version_info >= (3, 11):
        import tomllib

        versions.add(tomllib.loads(text)["project"]["version"])
    assert versions == {degbern.__version__}


# -- size guards: every size flag is bounded by DEGBERN_MAX_DEGREE -----------------


def test_huge_order_exits_1_at_once():
    proc = run_cli("expand", "--expr", "x^2", "--order", "100000")
    assert proc.returncode == 1
    assert "--order must be between 1 and 64" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["expand", "--expr", "x^2", "--order", "65", "--crosscheck"], "--order"),
        (["expand", "--expr", "x^2", "--order", "0"], "--order"),
        (["expand", "--expr", "B(2,65)"], "order r of B(...)"),
        (["table", "--family", "deg-bernoulli-order", "--n-max", "3", "--order", "65"], "--order"),
        (["verify", "ex_g", "--n-max", "65"], "--n-max"),
        (["verify", "miki", "--n-max", "-1"], "--n-max"),
        (["verify", "ex_g", "--r-max", "65"], "--r-max"),
        (["verify", "ex_g", "--n", "65", "--r", "2"], "--n"),
        (["verify", "ex_e", "--m", "65", "--n", "1"], "--m"),
        (["verify", "ex_g", "--n", "4", "--r", "65"], "--r"),
        (["verify", "ex_g_iop", "--a", "65", "--n", "3", "--r", "1"], "--a"),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else None,
)
def test_size_flag_outside_the_degree_limit_exits_1(capsys, argv, flag):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {flag} must be between" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ids", [["ex_g"], ["--all"]])
def test_sweep_past_the_work_of_the_degree_limit_exits_1(monkeypatch, capsys, ids):
    # each flag within the limit, the sweep not: about 2000 and 23509 cases
    monkeypatch.delenv("DEGBERN_MAX_DEGREE", raising=False)
    assert cli.main(["verify", *ids, "--n-max", "64", "--r-max", "64"]) == 1
    captured = capsys.readouterr()
    assert "cases is too big for the degree limit 64 (DEGBERN_MAX_DEGREE)" in captured.err
    assert captured.out == ""


def test_lambda_degree_outside_the_degree_limit_exits_1(capsys):
    assert cli.main(["expand", "--expr", "(1+l)^65"]) == 1
    captured = capsys.readouterr()
    assert "error: expression l-degree 65 exceeds the limit 64" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("limit", [None, "8"])
def test_exponent_of_a_constant_bounded_by_the_degree_limit(monkeypatch, capsys, limit):
    if limit is None:
        monkeypatch.delenv("DEGBERN_MAX_DEGREE", raising=False)
    else:
        monkeypatch.setenv("DEGBERN_MAX_DEGREE", limit)
    top = int(limit or 64)
    assert cli.main(["expand", "--expr", f"2^{top}"]) == 0
    assert capsys.readouterr().out.startswith(f"input: 2^{top}")
    for expr in (f"2^{top + 1}", "2^100000000"):
        assert cli.main(["expand", "--expr", expr]) == 1
        captured = capsys.readouterr()
        assert f"error: exponent must be between 0 and {top}" in captured.err
        assert captured.out == ""


def test_size_flags_follow_the_degree_limit(monkeypatch, capsys):
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "3")
    assert cli.main(["expand", "--expr", "x", "--order", "4"]) == 1
    assert cli.main(["expand", "--expr", "x", "--order", "3"]) == 0
    assert cli.main(["table", "--family", "scaled-bernoulli", "--n-max", "2", "--order", "4"]) == 1
    assert cli.main(["table", "--family", "scaled-bernoulli", "--n-max", "2", "--order", "3"]) == 0
    assert cli.main(["verify", "ex_g", "--n", "3", "--r", "4"]) == 1
    assert cli.main(["verify", "ex_g", "--n", "3", "--r", "3"]) == 0


# -- any argv: an exit code from the contract, never a traceback ------------------

_NAMES = st.text(max_size=8)  # junk, non-ASCII and control characters included
# half the sizes are small valid ones, the rest negative or up to 10^30
_SIZES = st.integers(0, 6) | st.integers(-(10**30), 10**30).filter(lambda v: not 0 <= v <= 6)
_FORMATS = st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "latex"]])


@st.composite
def _verify_or_table_argv(draw) -> list[str]:
    if draw(st.booleans()):
        argv, flags = ["verify"], ["--n", "--m", "--r", "--a", "--n-max", "--r-max"]
        for identity_id in draw(st.lists(st.sampled_from(identity_ids()) | _NAMES, min_size=1, max_size=3)):
            argv += draw(st.sampled_from([[identity_id], ["--id", identity_id]]))
        if draw(st.booleans()):
            argv.append("--perturb")
    else:
        families = sorted(cli._FAMILIES)
        argv = ["table", "--family", draw(st.sampled_from(families) | _NAMES), "--n-max", str(draw(_SIZES))]
        flags = ["--order"]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)):
        argv += [flag, str(draw(_SIZES))]
    return argv + draw(_FORMATS)


# valid, zero, past the degree limit (alone and as a product), non-ASCII, malformed, or junk
_EXPRS = st.sampled_from(
    ["x^2 - 1/2*l*x", "B(3)", "(1+x+l)^3", "0", "x^65", "l^65*x", "x^64*x", "x\u00b2", "x^\u0663", "x +"]
) | _NAMES
# a zero denominator, exponent and decimal notation, a negative, too many digits, non-ASCII
_LAMBDAS = st.sampled_from(["0", "1/0", "1e5", "1.5", "-3/7", "9" * 100, "9" * 5000, "\u0663"]) | _NAMES


@st.composite
def _expand_argv(draw) -> list[str]:
    argv = ["expand", f"--expr={draw(_EXPRS)}"]
    if draw(st.booleans()):
        argv.append(f"--lambda={draw(_LAMBDAS)}")
    if draw(st.booleans()):
        argv += ["--order", str(draw(_SIZES))]
    if draw(st.booleans()):
        argv.append("--crosscheck")
    return argv + draw(_FORMATS)


def _keeps_the_exit_code_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""


@settings(max_examples=30, deadline=2000)
@given(_verify_or_table_argv())
def test_verify_and_table_argv_keep_the_exit_code_contract(argv):
    _keeps_the_exit_code_contract(argv)


@settings(max_examples=30, deadline=2000)
@given(_expand_argv())
def test_expand_argv_keeps_the_exit_code_contract(argv):
    _keeps_the_exit_code_contract(argv)
