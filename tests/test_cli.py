"""Tests for the command-line interface and the JSON report schema."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from engine_helpers import cyclic_garbage
import preproj
from preproj import cli, e6, oracle
from preproj.cli import JSON_REPORT_SCHEMA, json_text, report_document, run
from preproj.e6 import VerificationReport, sample_check
from preproj.expr import to_element
from preproj.polyring import Poly
from preproj.quotient import QuotientAlgebra


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_lemma(capsys):
    code, out, _ = invoke(capsys, "verify", "lemma")
    assert code == 0
    assert "3/3 passed" in out


def test_warm_verify_all_accumulates_without_zero_seeds(capsys, monkeypatch):
    # a zero seed is a zero Fraction built outside the fractions module,
    # such as Fraction(0); a sum that cancels is built inside it
    assert invoke(capsys, "verify", "all")[0] == 0
    counts = Counter()
    new, zero = Fraction.__new__, Poly.zero

    def counting_new(cls, *args, **kwargs):
        value = new(cls, *args, **kwargs)
        if sys._getframe(1).f_globals.get("__name__") != "fractions":
            counts["Fraction"] += 1
            counts["zero Fraction"] += not value
        return value

    def counting_zero():
        counts["Poly.zero"] += 1
        return zero()

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(Poly, "zero", staticmethod(counting_zero))
    code, _, _ = invoke(capsys, "verify", "all")
    monkeypatch.undo()
    assert code == 0
    # the counters are live: the run builds nonzero Fractions of its own
    assert counts["Fraction"] > 0
    assert counts["zero Fraction"] == 0
    assert counts["Poly.zero"] == 0


# commands that read the built-in reduction tables: the headline, the
# oracle over Q and GF(11), and reduce on both algebras
TABLE_READERS = [
    ["verify", "all", "--json"],
    ["sample", "--seed", "3", "--trials", "10", "--json"],
    ["sample", "--seed", "3", "--trials", "10", "--field", "11", "--json"],
    ["reduce", "--json", "--algebra", "pe6", "--", "(b0*a0 + t1*b2*a2)^3 - a3*b3"],
    ["reduce", "--algebra", "re6", "--", "(x + y)^4 - t2*y*x*y"],
]


@pytest.mark.parametrize("argv", TABLE_READERS + [
    ["basis", "--algebra", "re6", "--json"],
    ["admissible", "--json", "--theta", "t1=1,t2=-1,t6=-3"],
], ids=" ".join)
def test_commands_leave_no_reference_cycle(capsys, argv):
    # the parser is built once per process, and building it leaves
    # argparse's own cycles; a call leaves none of any module
    cli._parser()
    assert cyclic_garbage(lambda: run(argv)) == []
    assert capsys.readouterr().out


def test_commands_leave_every_table_row_unchanged(capsys):
    """Table rows are shared between paths and never copied, so no
    command may change one: every row of pe6 and re6 keeps its object,
    keys, key order, values and value types."""

    def snapshot():
        return {
            (algebra.name, path): (id(row), [(b, c, type(c)) for b, c in row.items()])
            for algebra in (e6.build_pe6(), e6.build_re6())
            for path, row in algebra.reduction.items()
        }

    before = snapshot()
    for argv in TABLE_READERS:
        assert invoke(capsys, *argv)[0] == 0
    assert snapshot() == before


# the values a report holds, with the strings and floats that escaping and
# repr make hard; bool is an int, so the writer must test it first
json_leaves = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t", "é", "\u2028", "\U0001f600", "'"]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-05, 0.1 + 0.2, -0.0, 1e16, 123.456]),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(json_values)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_verify_lemma_json_schema(capsys):
    code, out, _ = invoke(capsys, "verify", "lemma", "--json")
    assert code == 0
    document = json.loads(out)
    jsonschema.validate(document, JSON_REPORT_SCHEMA)
    assert document["status"] == "pass"
    assert len(document["checks"]) == 3
    assert document["algebra"] == {
        "name": "re6",
        "dimension": 12,
        "nilpotency_degree": 6,
    }


def test_json_reports_are_deterministic_modulo_timing(capsys):
    _, out1, _ = invoke(capsys, "verify", "corner-iso", "--json")
    _, out2, _ = invoke(capsys, "verify", "corner-iso", "--json")
    d1, d2 = json.loads(out1), json.loads(out2)
    def strip(d):
        d = dict(d)
        d.pop("total_ms")
        d["checks"] = [{k: v for k, v in c.items() if k != "ms"} for c in d["checks"]]
        return d
    assert strip(d1) == strip(d2)


def test_reduce_re6(capsys):
    code, out, _ = invoke(capsys, "reduce", "--algebra", "re6", "y*y*x")
    assert code == 0
    assert out.strip() == "- x*y*x - x*y*y - y*x*y"


def test_reduce_is_a_fixed_point(capsys):
    _, out, _ = invoke(capsys, "reduce", "--algebra", "re6", "y*y*x")
    first = out.strip()
    _, out, _ = invoke(capsys, "reduce", "--algebra", "re6", first)
    assert out.strip() == first


def test_reduce_pe6_with_parameters(capsys):
    code, out, _ = invoke(
        capsys, "reduce", "--algebra", "pe6", "t1*b0*a0*b2*a2 + a0*b0"
    )
    assert code == 0
    assert out.strip() == "t1*b0*a0*b2*a2"


def test_reduce_parse_error_exit_2(capsys):
    code, _, err = invoke(capsys, "reduce", "--algebra", "re6", "y*)")
    assert code == 2
    assert "error" in err


def test_reduce_cross_quiver_exit_2(capsys):
    code, _, err = invoke(capsys, "reduce", "--algebra", "pe6", "a0 + x")
    assert code == 2
    assert "not defined in quiver" in err


@pytest.mark.parametrize("algebra,text,message", [
    ("pe6", "a2'*b2'", "unexpected character \"'\" at 1:3"),
    ("pe6", "b3*a3 + alpha*a3*b3", "unknown identifier 'alpha' at 1:9"),
    ("pe6", "a3*z", "unknown identifier 'z' at 1:4"),
    ("re6", "x*f_xy", "unknown identifier 'f_xy' at 1:3"),
    ("pe6", "b3*y*a3", "identifier 'y' is not defined in quiver E6 at 1:4"),
])
def test_reduce_knows_none_of_the_catalog_scope(capsys, algebra, text, message):
    # the primed generators, the constants and the loops at vertex 3 are
    # bound only where the derivation catalog evaluates its entries
    code, out, err = invoke(capsys, "reduce", "--algebra", algebra, text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_admissible_theta_spec_example(capsys):
    code, out, _ = invoke(
        capsys,
        "admissible",
        "--theta",
        "t1=1,t2=1,t3=1,t4=0,t5=0,t6=-2,t7=0,t8=0,t9=0",
    )
    assert code == 1
    assert "not admissible" in out
    assert "-2" in out  # the failing second condition residual


def test_admissible_expression_form(capsys):
    code, out, _ = invoke(capsys, "admissible", "x*y - 3*y*x")
    # t1=1, t2=-3, t3=0: first condition 1 - 3 - 0 = -2 != 0
    assert code == 1
    assert "not admissible" in out


def test_admissible_expression_admissible(capsys):
    # f = x*y - y*x - 3*y*x*y: t1=1, t2=-1, t6=-3; both conditions hold
    code, out, _ = invoke(capsys, "admissible", "x*y - y*x - 3*y*x*y")
    assert code == 0
    assert "f is admissible" in out


def test_admissible_rejects_degree_one(capsys):
    code, _, err = invoke(capsys, "admissible", "x + x*y")
    assert code == 2
    assert "rad^2" in err


@pytest.mark.parametrize("text,word", [("t1*x*y", "xy"), ("x*y + t2*x*y*x", "xyx")])
def test_admissible_symbolic_coefficient_is_a_usage_error(capsys, text, word):
    code, out, err = invoke(capsys, "admissible", text)
    assert (code, out) == (2, "")
    assert err == f"error: coefficient of [{word}] in f is not a number at 1:1\n"


def _python(*args, timeout=None):
    """``python args`` in a child process that imports this checkout's preproj."""
    env = {**os.environ, "PYTHONPATH": str(Path(preproj.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("value", ["1e100000000", "1e-100000000"])
def test_admissible_theta_with_an_exponent_is_a_prompt_usage_error(value):
    # Fraction would expand the exponent, which does not finish; the child
    # process makes a regression fail at the timeout instead of hanging
    result = _python("-m", "preproj.cli", "admissible", "--theta", f"t1={value}", timeout=2)
    assert result.returncode == 2 and result.stdout == ""
    assert f"invalid rational {value!r}" in result.stderr


# values outside the README's forms in ASCII digits; Fraction reads each of
# them (a non-ASCII digit and "1_0" as numbers)
NOT_A_THETA_VALUE = ("2E3", "3e0", "\u0661", "1_0", "1/\u0663", "\uff17")


@pytest.mark.parametrize(
    "value", ["7", "-7", "+7", "7/3", "-1.25", ".5", *NOT_A_THETA_VALUE]
)
def test_admissible_theta_value_forms(capsys, value):
    code, out, err = invoke(capsys, "admissible", "--theta", f"t4={value}", "--json")
    if value in NOT_A_THETA_VALUE:
        assert (code, out) == (2, "")
        assert err == f"error: invalid rational {value!r} at 1:1\n"
    else:
        assert code == 1
        assert json.loads(out)["checks"][1]["residual"] == str(3 * Fraction(value))


# "t\u00b2" made int() raise (exit 3); the others were read as t3, t1, t1
@pytest.mark.parametrize("key", ["t\u00b2", "t\u0663", "t01", "t+1", "T1", "t10", "t0"])
def test_admissible_theta_key_forms(capsys, key):
    code, out, err = invoke(capsys, "admissible", "--theta", f"{key}=1", "--json")
    assert (code, out) == (2, "")
    assert err == f"error: unknown theta key {key!r} at 1:1\n"


# the last value used to win silently, so the first line passed t1 = -1
@pytest.mark.parametrize(
    "theta, key",
    [
        ("t1=1,t1=-1,t2=1,t6=-3", "t1"),
        ("t1=1,t2=-1,t6=-3,t1=1", "t1"),
        ("t4=0, t4 = 0", "t4"),
        ("t9=1/2,t3=1,t9=.5", "t9"),
    ],
)
def test_admissible_theta_key_given_twice_is_a_usage_error(capsys, theta, key):
    code, out, err = invoke(capsys, "admissible", "--theta", theta, "--json")
    assert (code, out) == (2, "")
    assert err == f"error: theta key {key!r} given twice at 1:1\n"


# Each "(" and unary "-" nests the parser and the evaluator one level
# deeper; past the cap Python's recursion limit used to end the run as an
# internal error.  A child process with a timeout keeps a regression from
# exhausting the test run.
NESTING = 100


@pytest.mark.parametrize("text,output", [
    ("(" * NESTING + "x" + ")" * NESTING, "x"),
    ("-" * NESTING + "x", "x"),
    ("-" * (NESTING - 1) + "x", "- x"),
    ("(-" * (NESTING // 2) + "y" + ")" * (NESTING // 2), "y"),
    ("x - " + "(" * NESTING + "y" + ")" * NESTING, "x - y"),
], ids=["parentheses", "minus", "odd-minus", "mixed", "binary-minus"])
def test_nesting_at_the_cap_reduces(text, output):
    result = _python("-m", "preproj.cli", "reduce", "--algebra", "re6", "--", text, timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (0, output + "\n", "")


@pytest.mark.parametrize("command,text,column", [
    (("reduce", "--algebra", "re6"), "(" * (NESTING + 1) + "x" + ")" * (NESTING + 1), NESTING + 1),
    (("reduce", "--algebra", "re6"), "-" * (NESTING + 1) + "x", NESTING + 1),
    (("reduce", "--algebra", "re6"), "(-" * 1500 + "x" + ")" * 1500, NESTING + 1),
    (("reduce", "--algebra", "pe6"), "(" * 3000 + "a0" + ")" * 3000, NESTING + 1),
    (("reduce", "--algebra", "re6"), "x*y + " + "-" * 3000 + "x", NESTING + 7),
    (("admissible",), "x*y - " + "(" * 3000 + "y*x" + ")" * 3000, NESTING + 7),
], ids=["parentheses", "minus", "mixed-3000", "parentheses-3000", "minus-3000", "admissible"])
def test_nesting_past_the_cap_is_a_parse_error(command, text, column):
    result = _python("-m", "preproj.cli", *command, "--", text, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: nesting of '(' and unary '-' deeper than {NESTING} at 1:{column}\n"
    )


LONG_LITERAL = "1" * 5000  # over CPython's default limit of 4,300 digits


@pytest.mark.parametrize("argv,column", [
    (("reduce", "--algebra", "re6", f"{LONG_LITERAL}*x"), 1),
    (("reduce", "--algebra", "re6", f"x*1/{LONG_LITERAL}"), 5),
    (("reduce", "--algebra", "re6", f"x^{LONG_LITERAL}"), 3),
    (("admissible", f"x*y - {LONG_LITERAL}*y*x"), 7),
], ids=["integer", "denominator", "exponent", "admissible"])
def test_over_long_integer_literal_is_a_parse_error(capsys, argv, column):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: integer literal of 5000 digits is too long at 1:{column}\n"


# The run in a child process whose address space is capped at 512 MB: a
# power that builds its path or coefficient before checking the exponent
# fails with MemoryError or at the timeout, not by exhausting the machine.
_LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from preproj.cli import run
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.parametrize("algebra,text,outer,column", [
    ("re6", "x^65537", 65537, 3),
    ("re6", "x^1000000000", 1000000000, 3),
    ("re6", "((x^1000)^1000)^1000", 1000000, 11),
    ("re6", "((x^2)^256)^256", 131072, 5),
    # an exponent 0 counts as 1: x^(2^32) is built before its 0-th power
    ("re6", "y + ((x^65536)^65536)^0", 2**32, 9),
    ("re6", "2^1000000000", 1000000000, 3),
    ("re6", "(e0 + x)^1000000000", 1000000000, 10),
    ("pe6", "(a0*b0)^100000", 100000, 9),
])
def test_power_over_the_exponent_cap_is_a_prompt_usage_error(algebra, text, outer, column):
    result = _python("-c", _LIMITED_RUN, "reduce", "--algebra", algebra, text, timeout=2)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: nested exponents multiply to {outer} (at most 65536) at 1:{column}\n"
    )


NINES = "9" * 4000


def _over_cap(bits, column, kind="scalar"):
    return (
        f"{kind} power may have coefficients of {bits} bits"
        f" (at most 14284 bits, 4300 digits) at 1:{column}"
    )


def _unprintable(word):
    return f"the coefficient of {word} in the normal form has more than 4300 digits at 1:1"


# text and JSON output take the same checks; both forms are run on some
@pytest.mark.parametrize("form,algebra,text,message", [
    ((), "re6", "3^10000*x", _over_cap(20000, 3)),
    ((), "re6", "((1/3))^65536*x", _over_cap(131072, 9)),
    (("--json",), "re6", f"{NINES}^65536*x", _over_cap(870842368, 4002)),
    ((), "re6", "2^14285*x", _over_cap(14285, 3)),
    # the coefficients of (1 + t1)^k sum to 2^k
    ((), "re6", "(1 + t1)^14285*x", _over_cap(14285, 10)),
    # an element with an idempotent term: e0^k = e0 never vanishes
    (("--json",), "re6", f"({NINES}*e0)^65536*x", _over_cap(870842368, 4007, "element")),
    ((), "re6", "(2*e0)^14285*x", _over_cap(14285, 8, "element")),
    ((), "pe6", "(e3 + b0*a0)^14285*a3", _over_cap(14285, 14, "element")),
    # each power is under the cap, their product is not
    ((), "re6", "3^7000*3^7000*x", _unprintable("x")),
    (("--json",), "re6", "(1/3)^7000*(1/3)^7000*x", _unprintable("x")),
    # 10^4300 has 4,301 digits
    ((), "re6", "10^2150*10^2150*x", _unprintable("x")),
    ((), "pe6", f"{NINES}*{NINES}*b0*a0", _unprintable("b0*a0")),
    (("--json",), "pe6", f"{NINES}*{NINES}*b0*a0", _unprintable("b0*a0")),
], ids=[
    "3^10000", "(1/3)^65536", "nines^65536-json", "2^14285", "(1+t1)^14285",
    "(nines*e0)^65536-json", "(2*e0)^14285", "(e3+b0*a0)^14285", "3^7000*3^7000",
    "(1/3)^7000*(1/3)^7000-json", "10^2150*10^2150", "nines*nines", "nines*nines-json",
])
def test_coefficient_over_the_digit_cap_is_a_prompt_usage_error(form, algebra, text, message):
    result = _python(
        "-c", _LIMITED_RUN, "reduce", "--algebra", algebra, *form, text, timeout=2
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("algebra,text,digits", [
    # 2^14284 and 10^4300 - 1 have 4,300 digits, the most str prints
    ("re6", "2^14284*x", 4300),
    ("re6", "(-1/2)^14284*x", 4300),
    ("re6", f"(1/{NINES})^1*x", 4000),
    ("pe6", f"{'9' * 4300}*b0*a0", 4300),
    ("re6", "1^65536*x + 2*(-1)^65535*y", 1),
    ("re6", "(2*e0)^14284*x", 4300),
], ids=["2^14284", "(-1/2)^14284", "1/nines", "4300-nines", "unit-bases", "(2*e0)^14284"])
def test_coefficient_at_the_digit_cap_prints(algebra, text, digits):
    result = _python("-c", _LIMITED_RUN, "reduce", "--algebra", algebra, text, timeout=2)
    assert (result.returncode, result.stderr) == (0, "")
    assert max(map(len, re.findall(r"\d+", result.stdout))) == digits


@pytest.mark.parametrize("algebra,text", [
    ("re6", "(2*x)^65536"),
    ("pe6", "(a0*b0 + b0*a0)^65536"),
])
def test_element_power_without_an_idempotent_term_is_not_capped(algebra, text):
    # its coefficients pass the cap, but it is zero in the quotient
    result = _python("-c", _LIMITED_RUN, "reduce", "--algebra", algebra, text, timeout=2)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("text", ["(x+y)^64", f"({NINES}*x)^65536"], ids=["(x+y)^64", "(nines*x)^65536"])
def test_admissible_reads_a_long_power_of_f_promptly(text):
    # f is read below the nilpotency degree of re6; kept whole, (x+y)^20
    # took seconds, (x+y)^64 did not finish and the nines built a number of
    # 870 million bits
    result = _python("-c", _LIMITED_RUN, "admissible", "--quiet", "--", text, timeout=2)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


# f as a sum of terms c*w, w a product of two or three factors of degree
# 1 to 4, so that f lies in rad^2 and its words have lengths 2 to 12,
# on both sides of re6's N = 6
_F_FACTORS = st.one_of(
    st.sampled_from(["x", "y"]),
    st.builds(
        lambda base, k: f"({base})^{k}",
        st.sampled_from(["x + y", "x - 3*y", "2*y + x"]),
        st.integers(min_value=1, max_value=4),
    ),
)
F_TEXTS = st.lists(
    st.builds(
        lambda c, factors: f"{c}*{'*'.join(factors)}",
        st.sampled_from(["1", "2", "-1/3", "t1"]),
        st.lists(_F_FACTORS, min_size=2, max_size=3),
    ),
    min_size=1,
    max_size=3,
).map(" + ".join)


def _f_reading(text):
    try:
        return cli._theta_from_expression(text)
    except cli.ExprError as error:
        return str(error)


@settings(max_examples=200, deadline=None)
@given(F_TEXTS)
@example("x*y*x*y*y - (x + y)^3*(x - 3*y)^4")  # words of length 5 and 7
def test_admissible_reads_f_as_its_untruncated_element_does(text):
    """Slow path of the truncation in ``cli._theta_from_expression``: f
    read with every product kept whole gives the same nine values, or the
    same error."""
    truncated = _f_reading(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "to_element", lambda ast, quiver, below: to_element(ast, quiver))
        assert _f_reading(text) == truncated


def test_theta_over_the_digit_cap_is_a_usage_error(capsys):
    # t1^2 of 3,000 sevens has about 6,000 digits, over the limit of str
    sevens = "7" * 3000
    code, out, err = invoke(capsys, "admissible", "--theta", f"t1={sevens}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid rational '{sevens}' (more than 100 digits)")
    for value in (f"1{'0' * 100}", f"-1{'0' * 100}", f"1/{'3' * 101}"):
        code, out, err = invoke(capsys, "admissible", "--theta", f"t2={value}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid rational '{value}' (more than 100 digits)")
    code, out, err = invoke(capsys, "admissible", "3^300*x*y")
    assert (code, out) == (2, "")
    assert err == "error: coefficient of [xy] in f (more than 100 digits) at 1:1\n"


def test_theta_at_the_digit_cap_prints_every_residual(capsys):
    # the largest numerators and denominators the cap allows, pairwise coprime
    top = 10**100 - 1
    theta = ",".join(f"t{i}={(-1) ** i * (top - i)}/{top - 10 * i - 1}" for i in range(1, 10))
    code, out, err = invoke(capsys, "admissible", "--theta", theta, "--json")
    assert (code, err) == (1, "")
    residuals = [check["residual"] for check in json.loads(out)["checks"]]
    assert all(residuals) and max(map(len, residuals)) > 2000


def test_non_ascii_digit_is_a_parse_error(capsys):
    # "²".isdigit() holds, but int() refuses it
    code, _, err = invoke(capsys, "reduce", "--algebra", "re6", "x^²")
    assert code == 2
    assert err == "error: unexpected character '²' at 1:3\n"


def test_basis_header_and_format(capsys):
    code, out, _ = invoke(capsys, "basis", "--algebra", "re6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# quiver L2"
    assert "# x: 0 -> 0" in lines[1]
    assert "deg=0 0->0 e0" in lines
    assert "deg=5 0->0 x*y*x*y*y" in lines
    assert sum(1 for l in lines if l.startswith("deg=")) == 12


def test_basis_corner(capsys):
    code, out, _ = invoke(capsys, "basis", "--algebra", "pe6", "--corner", "3")
    assert code == 0
    body = [l for l in out.splitlines() if l.startswith("deg=")]
    assert len(body) == 12
    assert all("3->3" in l for l in body)


def test_corner_listing_is_the_matching_lines_of_the_full_listing(capsys):
    _, full, _ = invoke(capsys, "basis", "--algebra", "pe6")
    _, corner, _ = invoke(capsys, "basis", "--algebra", "pe6", "--corner", "3")
    lines = full.splitlines()
    header = [line for line in lines if line.startswith("#")]
    loops = [line for line in lines if line.split()[1:2] == ["3->3"]]
    assert corner.splitlines() == header + loops
    assert len(loops) == 12 and len(lines) == len(header) + 156


def test_basis_constants_csv(tmp_path, capsys):
    target = tmp_path / "sc.csv"
    code, _, _ = invoke(
        capsys, "basis", "--algebra", "re6", "--constants", str(target)
    )
    assert code == 0
    rows = target.read_text().strip().splitlines()
    parsed = [tuple(r.split(",")) for r in rows]
    assert all(len(r) == 4 for r in parsed)
    # e0 * e0 = e0 is the (0,0,0) entry with coefficient 1
    assert ("0", "0", "0", "1") in parsed


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_basis_constants_unwritable_path_is_a_usage_error(tmp_path, capsys, monkeypatch, where):
    def computed(self):
        raise AssertionError("structure constants computed for an unwritable path")

    monkeypatch.setattr(QuotientAlgebra, "structure_constants_csv", computed)
    target = tmp_path / "missing" / "sc.csv" if where == "missing-directory" else tmp_path
    code, out, err = invoke(capsys, "basis", "--algebra", "re6", "--constants", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    if where == "missing-directory":
        assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_basis_constants_failed_write_is_a_usage_error(capsys):
    # /dev/full opens for writing, and every write to it fails with ENOSPC
    code, out, err = invoke(capsys, "basis", "--algebra", "re6", "--constants", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: cannot write /dev/full: No space left on device\n"


def test_sample_command(capsys):
    code, out, _ = invoke(capsys, "sample", "--seed", "5", "--trials", "3")
    assert code == 0
    assert "3/3 passed" in out


def test_sample_field_json(capsys):
    code, out, _ = invoke(
        capsys, "sample", "--seed", "5", "--trials", "2", "--field", "7", "--json"
    )
    assert code == 0
    document = json.loads(out)
    jsonschema.validate(document, JSON_REPORT_SCHEMA)
    assert document["status"] == "pass"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sample_rejects_non_positive_trials(capsys, trials):
    code, out, err = invoke(capsys, "sample", "--seed", "1", "--trials", trials)
    assert code == 2
    assert "positive integer" in err
    assert out == ""


def test_report_without_checks_does_not_pass():
    document = report_document("sample", "pe6", [VerificationReport("sample")], 0.0)
    assert document["status"] == "fail"


def test_sample_non_prime_field(capsys):
    for field in ("6", "0", "1", "4"):
        code, out, err = invoke(capsys, "sample", "--seed", "1", "--trials", "1", "--field", field)
        assert (code, out) == (2, "")
        assert f"{field} is not prime" in err
        # the library takes the same field check, with the same message
        with pytest.raises(ValueError, match=f"^{field} is not prime$"):
            sample_check(seed=1, trials=1, field=int(field))


def test_field_out_of_range_is_a_prompt_usage_error(capsys):
    start = time.perf_counter()
    for field in ("2305843009213693951", "2147483648"):
        code, out, err = invoke(
            capsys, "sample", "--seed", "1", "--trials", "1", "--field", field
        )
        assert code == 2
        message = f"{field} is too large: the field size must be a prime below 2^31"
        assert message in err
        assert out == ""
        with pytest.raises(ValueError) as raised:
            sample_check(seed=1, trials=1, field=int(field))
        assert str(raised.value) == message
    assert cli.prime("2147483647") == 2 ** 31 - 1  # the largest accepted prime
    assert time.perf_counter() - start < 2.0


def test_basis_corner_not_a_vertex_exit_2(capsys, monkeypatch):
    # argparse wraps its usage line to the terminal width it reads
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, "basis", "--algebra", "re6", "--corner", "3")
    assert code == 2
    # the basis usage and prefix, as for every other bad basis argument
    assert err == (
        "usage: preproj basis [-h] [--json] [--quiet] --algebra {pe6,re6}\n"
        "                     [--corner CORNER] [--constants FILE]\n"
        "preproj basis: error: argument --corner: 3 is not a vertex of re6\n"
    )
    assert out == ""
    _, _, bad_int = invoke(capsys, "basis", "--algebra", "re6", "--corner", "x")
    assert bad_int.splitlines()[:2] == err.splitlines()[:2]


@pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")])
def test_verifier_exception_is_an_internal_error_exit_3(capsys, monkeypatch, error):
    def broken():
        raise error

    monkeypatch.setattr(cli, "verify_lemma", broken)
    code, out, err = invoke(capsys, "verify", "lemma")
    assert code == 3
    assert err.startswith("internal error:")
    assert "boom" in err
    assert out == ""


def test_verify_inverse_modes(capsys):
    code, _, _ = invoke(capsys, "verify", "inverse", "--mode", "corrected", "--quiet")
    assert code == 0
    code, out, _ = invoke(capsys, "verify", "inverse", "--mode", "printed")
    assert code == 1
    assert "4/6 passed" in out


def test_verify_all(capsys):
    code, out, _ = invoke(capsys, "verify", "all", "--json")
    assert code == 0
    document = json.loads(out)
    jsonschema.validate(document, JSON_REPORT_SCHEMA)
    titles = {c["name"].split(":")[0] for c in document["checks"]}
    assert titles == {"lemma", "theorem", "identities", "corner-iso", "inverse (corrected)"}


def test_usage_error_exit_2(capsys):
    assert run(["verify", "nonsense"]) == 2
    assert run(["bogus"]) == 2


# -- same results: outputs pinned by SHA-256 -----------------------------------
#
# Any change to a check name, status, residual string, basis listing or
# structure constant changes a hash.  Timing fields are stripped first;
# key order is kept, so a reordered report changes its hash too.


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _report_without_timings(text):
    document = json.loads(text)
    document.pop("total_ms")
    document["checks"] = [
        {k: v for k, v in check.items() if k != "ms"} for check in document["checks"]
    ]
    return json.dumps(document)


PINNED_REPORTS = {
    ("sample", "--seed", "7", "--trials", "30"):
        "688cb9065e03fc6c408fb3cec08dd78abbd03eec67f6b9df9edb0c61fd333fac",
    ("sample", "--seed", "7", "--trials", "30", "--field", "11"):
        "52c249fba7253a9bd142b61ad3ab3018202fec7abcbac113d0fc1c8757d34390",
    ("sample", "--seed", "7", "--trials", "30", "--field", "2"):
        "024f4a31cb9757af8aa15869b778b6468643d3cfb03153f836703fab3ed3d549",
    # the largest field the CLI accepts, 2^31 - 1
    ("sample", "--seed", "7", "--trials", "30", "--field", "2147483647"):
        "5ceb94bced0176f7412663c10c0036676e6a65b04c755516c10994d492f92fc7",
    ("verify", "all"):
        "553b1f83183f2306f0c533a780805042db3517ebf080fe292b6bc19dce7ec678",
    # each report on its own builds its own set-up, which verify all shares
    ("verify", "theorem"):
        "ffadbbe84fe5626b03b204ef7022564c520fd529a5ccaef5cc55373c82c68eed",
    ("verify", "corner-iso"):
        "b1a0ce4d6667171a8ab8dfa226ebc30689b61d593e396b1fe4f6d359833ef63b",
    ("verify", "identities"):
        "0e80b7c1be8e9a14e5d44a28b485b1d7225aa245b02306b50b196fc3804e7002",
    # its a3 residual prints a leading "- 1*t3^3", which reads back as printed
    ("verify", "inverse", "--mode", "printed"):
        "a49549a0520a681b7e39b73c1088b66d7bb9f818d3d774d9c4a011f3d9bc810d",
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_json_report_is_pinned_modulo_timing(capsys, argv):
    _, out, _ = invoke(capsys, *argv, "--json")
    assert _sha256(_report_without_timings(out)) == PINNED_REPORTS[argv]


PINNED_BASIS = {
    "pe6": ("a6516fe60062c8e62a8bf8c7605f6f0a9dc62772c8cd4ff53d693ea0b4da3117", "b8010f2787102469c9d9693e845b1936c431eee89d598ff585138d3b3aaa3e08"),
    "re6": ("f8f28f7f666c647192def6c67ff2e0cf645556aefd312b6a031993a70b575e89", "6918d3e88f6a9d0be7c9e9bab097b839b85489bdccd53302d0e677b398beab96"),
}


@pytest.mark.parametrize("algebra", list(PINNED_BASIS))
def test_basis_listing_and_constants_csv_are_pinned(tmp_path, capsys, algebra):
    target = tmp_path / "sc.csv"
    code, out, _ = invoke(capsys, "basis", "--algebra", algebra, "--constants", str(target))
    assert code == 0
    assert (_sha256(out), _sha256(target.read_text())) == PINNED_BASIS[algebra]


# admissible reports carry the residuals of ``Poly.evaluate`` and of the cube
PINNED_ADMISSIBLE = {
    ("--theta", "t1=1,t2=-1,t6=-3"):
        "0619ca9aaf14b31ad72036e0e72c75b8f1cd545f6bf806c6995454c5d01f7e80",
    # a non-integral point: both conditions and the cube fail with fractions
    ("--theta", "t1=1/2,t3=2/3,t4=-5/7,t5=3"):
        "8e9286cb76bcda38d9bf758940bc1d226168a65e58c97a7d30718c60cd83d265",
    # the first point again, given as f; the report is the same
    ("x*y - y*x - 3*y*x*y",):
        "0619ca9aaf14b31ad72036e0e72c75b8f1cd545f6bf806c6995454c5d01f7e80",
}


@pytest.mark.parametrize("args", list(PINNED_ADMISSIBLE), ids=" ".join)
def test_admissible_json_is_pinned_modulo_timing(capsys, args):
    _, out, _ = invoke(capsys, "admissible", *args, "--json")
    assert _sha256(_report_without_timings(out)) == PINNED_ADMISSIBLE[args]


def _doubled_word(word):
    """The oracle's word tables with the vector of one word of pe6 doubled,
    in a copy of its table, so that the oracle's generators, and with them
    its residuals, go wrong."""
    algebra = e6.build_pe6()
    vector = {k: 2 * c for k, c in oracle._word_vector(algebra, word).items()}
    return {algebra: {**oracle._WORD_TABLES[algebra], word: vector}}


# failing trials: the residual text of a nonzero oracle residual, over Q
# as fractions and over GF(p) in the ``c (mod p)*path`` form
PINNED_FAILING_SAMPLES = {
    (): "e3c5aae270140a86fb5b102a925720311476f6d3b4457175dfc5afeec2894142",
    ("--field", "11"): "242a553dc0110a29597af0f5999e97fe504547171878016aaed4eed97f65904d",
}


@pytest.mark.parametrize("args", list(PINNED_FAILING_SAMPLES), ids=lambda a: " ".join(a) or "Q")
def test_failing_sample_residuals_are_pinned(capsys, monkeypatch, args):
    monkeypatch.setattr(oracle, "_WORD_TABLES", _doubled_word(("a3",)))
    code, out, _ = invoke(capsys, "sample", "--seed", "7", "--trials", "4", *args, "--json")
    checks = json.loads(out)["checks"]
    assert code == 1 and len(checks) == 4
    assert all(c["status"] == "fail" and " nonzero: " in c["residual"] for c in checks)
    assert _sha256(_report_without_timings(out)) == PINNED_FAILING_SAMPLES[args]


# reduce reports carry no timing field, so the whole output is pinned
PINNED_REDUCE = {
    # a leading minus, kept from reading as an option by "--"
    ("pe6", "-b0*a0 + 2*b2*a2 - a3*b3"):
        "551b18155ba6257b2d75677663021c185d9f1bf8a1befd5de62dc3579d6ba361",
    ("pe6", "t1*b0*a0*b2*a2 + a0*b0 - t3^2*a3*a4*b4*b3"):
        "1c85cb8c1e856bfd932615238377d2558dec26cb38004d693c39ab2989c3b818",
    # a product of nonzero factors of total length 14 > N = 11
    ("pe6", "(b0*a0)*(b2*a2)*(b3*a3)*(b0*a0)*(a3*a4*b4*b3)*(b2*a2)"):
        "cf665f2fa1d6486c2f93ab3efa969eaf6ef9751d62d79a779886326e91c93c31",
    ("pe6", "e3 + b0*a0 - 2*e3 + 1/2*e0"):
        "ae113df694642b89abc7e3197af9245901d71017d8a4cc4beb388cdd34713317",
    ("re6", "(x - 2*y)^5"):
        "773ca4d4590445e807299fd3b1cf7d9f86e0fee80f038c55ba634135f9555f98",
}


@pytest.mark.parametrize("algebra,expr", list(PINNED_REDUCE), ids=" ".join)
def test_reduce_json_is_pinned(capsys, algebra, expr):
    code, out, _ = invoke(capsys, "reduce", "--algebra", algebra, "--json", "--", expr)
    assert code == 0
    assert _sha256(out) == PINNED_REDUCE[algebra, expr]


# A fixed stream of 200 reduce queries: sums of paths with integer,
# rational and t1..t9 coefficients, products and small powers of sums, and
# every eighth one a tail power, the 8th power of a combination of the
# three loops at vertex 3 of pe6 or the 12th power of one of x and y on
# re6.  Its outputs, concatenated, are pinned as one hash, taken while
# every product of two constant coefficients went through the general
# term loop of ``Poly.__mul__``.
_STREAM_COEFFS = ("1", "1", "-1", "2", "-3", "1/2", "-3/2", "2/3", "7/5", "t1", "-t3^2", "2*t7")


def _stream_word(rng, quiver, length):
    """A composable word of ``length`` arrows from a random vertex."""
    vertex = rng.choice(quiver.vertices)
    names = []
    for _ in range(length):
        arrow = rng.choice([a for a in quiver.arrows if a.source == vertex])
        names.append(arrow.name)
        vertex = arrow.target
    return "*".join(names)


def _stream_sum(rng, quiver, terms, max_length):
    parts = []
    for _ in range(terms):
        if rng.random() < 0.1:
            body = f"e{rng.choice(quiver.vertices)}"
        else:
            body = _stream_word(rng, quiver, rng.randint(1, max_length))
        coeff = rng.choice(_STREAM_COEFFS)
        parts.append(body if coeff == "1" else f"({coeff})*{body}")
    return " + ".join(parts)


def reduce_stream():
    """200 (algebra, expression) pairs; one in eight is a tail power."""
    rng = random.Random(2018)
    queries = []
    for k in range(200):
        algebra = rng.choice(("pe6", "re6")) if k % 8 else ("pe6", "re6")[k // 8 % 2]
        quiver = e6.get_algebra(algebra).quiver
        if k % 8 == 0:
            loops = ["x", "y"] if algebra == "re6" else ["b0*a0", "b2*a2", "a3*b3"]
            rng.shuffle(loops)
            inner = " + ".join(f"({rng.choice((1, 2, 3, -1, -2, -3))})*{w}" for w in loops)
            queries.append((algebra, f"({inner})^{12 if algebra == 're6' else 8}"))
            continue
        kind = rng.randrange(4)
        if kind == 0:
            text = _stream_sum(rng, quiver, rng.randint(1, 4), 7)
        elif kind == 1:
            text = f"({_stream_sum(rng, quiver, 2, 3)})*({_stream_sum(rng, quiver, 2, 3)})"
        elif kind == 2:
            text = f"({_stream_sum(rng, quiver, 2, 2)})^{rng.choice((2, 3))}"
        else:
            text = f"{rng.choice(_STREAM_COEFFS)}*({_stream_sum(rng, quiver, 3, 4)}) - e0"
        queries.append((algebra, text))
    return queries


PINNED_REDUCE_STREAM = "1a5b123c27ba58ab2d48f842bdb5dae269be0db231e0046ad5107a4eff0fdd06"


def test_reduce_json_of_a_seeded_stream_is_pinned(capsys):
    stream = reduce_stream()
    assert sum(text.endswith(("^8", "^12")) for _, text in stream) == 25
    outputs = []
    for algebra, text in stream:
        code, out, err = invoke(capsys, "reduce", "--algebra", algebra, "--json", "--", text)
        assert (code, err) == (0, ""), text
        outputs.append(out)
    assert _sha256("".join(outputs)) == PINNED_REDUCE_STREAM


# -- a pinned corpus of reduce calls -----------------------------------------------
#
# About 3,000 ``reduce`` calls from a seeded generator, of three kinds:
# "valid" (sums, products, small powers, unary minus, rationals, t1..t9,
# idempotents and runs of arrows, composable or not, with scalars inside
# them, and random spacing), "malformed" (a valid text with one character
# deleted, inserted, replaced or swapped, or a text of the other quiver) and
# "capped" (exponents, coefficient digits, nesting and literal lengths at or
# past their caps).  Each call's exit code, stdout and stderr are hashed,
# and the hashes of one kind are pinned as one digest, taken before the
# evaluator composed runs of arrows on their indices and before the report
# writer replaced ``json.dumps``.  The generator draws only with
# ``random.Random`` methods whose streams every supported Python repeats.

_CORPUS_SPACES = ("", "", " ", " ", "  ", "\n")
_CORPUS_NUMBERS = ("0", "1", "1", "2", "3", "5", "12", "100", "1/2", "2/3", "7/4", "3/1")
_CORPUS_SCALARS = _CORPUS_NUMBERS + ("t1", "t2", "t3", "t5", "t9")
# no digits: an inserted or replaced digit could raise an exponent
_CORPUS_NOISE = "()+-*/^ '_.,;=\t\n$²٣éxyzabet"
_CORPUS_EXPONENT = re.compile(r"\^\s*(\d+)")


def _corpus_run(rng, quiver):
    """A product of arrows, a walk or random ones, with the odd idempotent
    or scalar among them."""
    vertex = rng.choice(quiver.vertices)
    walk = rng.random() < 0.7
    factors = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.1:
            factors.append(rng.choice(_CORPUS_SCALARS))
        elif rng.random() < 0.08:
            factors.append(f"e{vertex if walk else rng.choice(quiver.vertices)}")
        else:
            arrows = [a for a in quiver.arrows if a.source == vertex] if walk else quiver.arrows
            arrow = rng.choice(arrows)
            factors.append(arrow.name)
            vertex = arrow.target
    return "*".join(factors)


def _corpus_factor(rng, quiver, depth):
    """(text, a bound on the terms of its free expansion)."""
    r = rng.random()
    if depth and r < 0.25:
        text, size = _corpus_sum(rng, quiver, depth - 1)
        text = f"({text})"
    elif r < 0.4:
        text, size = rng.choice(_CORPUS_SCALARS), 1
    elif r < 0.45:
        text, size = f"e{rng.choice(quiver.vertices)}", 1
    elif r < 0.5:
        text, size = rng.choice(quiver.arrows).name, 1
    else:
        text, size = _corpus_run(rng, quiver), 1
        if rng.random() >= 0.5:
            text = f"({text})"
    if rng.random() < 0.15:
        if text[0] != "(" and "*" in text:
            text = f"({text})"
        exponent = rng.randint(0, 4 if size == 1 else 3)
        text, size = f"{text}^{exponent}", size ** exponent
    if rng.random() < 0.1:
        text = f"-{text}"
    return text, size


def _corpus_sum(rng, quiver, depth):
    terms, total = [], 0
    for k in range(rng.randint(1, 3)):
        factors, size = [], 1
        for _ in range(rng.randint(1, 3)):
            text, s = _corpus_factor(rng, quiver, depth)
            factors.append(text)
            size *= s
        sign = rng.choice(("+", "-")) if k else rng.choice(("", "", "-"))
        terms.append(sign + rng.choice(_CORPUS_SPACES) + "*".join(factors))
        total += size
    return rng.choice(_CORPUS_SPACES).join(terms), total


def _corpus_valid(rng, quiver):
    while True:
        text, size = _corpus_sum(rng, quiver, 2)
        if size <= 40:
            return text


def _corpus_malformed(rng, algebra, quiver):
    if rng.random() < 0.1:
        other = e6.get_algebra("re6" if algebra == "pe6" else "pe6").quiver
        return _corpus_valid(rng, other)
    while True:
        text = _corpus_valid(rng, quiver)
        i = rng.randrange(len(text))
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(_CORPUS_NOISE) + text[i:]
        elif edit == 2:
            text = text[:i] + rng.choice(_CORPUS_NOISE) + text[i + 1:]
        elif edit == 3:
            text = text[:i]
        else:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
        if all(int(e) <= 4 for e in _CORPUS_EXPONENT.findall(text)):
            return text


def _corpus_capped(rng, quiver):
    arrow = rng.choice(quiver.arrows).name
    kind = rng.randrange(7)
    near = rng.randint(-2, 2)
    if kind == 0:
        return f"{arrow}^{65536 + near}"
    if kind == 1:
        i = rng.randint(1, 15)
        j = rng.randint(15, 17) - i
        return f"({arrow}^{2 ** i})^{2 ** j}" if rng.random() < 0.5 else f"(({arrow}^{2 ** i})^0)^{2 ** j}"
    if kind == 2:
        base, bits = rng.choice((("2", 1), ("3", 2), ("(1/2)", 1), ("(-2/3)", 2), ("7", 3), ("10", 4)))
        return f"{base}^{14284 // bits + near}*{arrow}"
    if kind == 3:
        form = rng.choice(("({}*e0)^{}", "(1 + t1)^{}*{}", "({} + e0)^{}"))
        coefficient = rng.choice(("2", "-2", "3/2"))
        exponent = 14285 + rng.randint(0, 3)
        if form == "(1 + t1)^{}*{}":
            return form.format(exponent, arrow)
        return form.format(coefficient, exponent)
    if kind == 4:
        depth = 100 + near
        opener = rng.choice(("(", "-", "(-"))
        closer = {"(": ")", "-": "", "(-": ")"}[opener]
        return opener * depth + arrow + closer * depth
    if kind == 5:
        digits = "9" * (4300 + near)
        return rng.choice((f"{digits}*{arrow}", f"{arrow}*1/{digits}", f"{arrow}^{digits}"))
    # each power is under the cap; their product may not be printable
    base, exponent = rng.choice((("3", 7000), ("10", 2150), ("(1/3)", 7000)))
    return f"{base}^{exponent}*{base}^{exponent - 1 + near}*{arrow}"


@lru_cache(maxsize=None)
def reduce_corpus():
    """``kind -> [argv, ...]`` of the pinned corpus of reduce calls."""
    rng = random.Random(1802)
    corpus = {"valid": [], "malformed": [], "capped": []}
    for kind, count in (("valid", 2000), ("malformed", 700), ("capped", 300)):
        for _ in range(count):
            algebra = rng.choice(("pe6", "re6"))
            quiver = e6.get_algebra(algebra).quiver
            if kind == "valid":
                text = _corpus_valid(rng, quiver)
            elif kind == "malformed":
                text = _corpus_malformed(rng, algebra, quiver)
            else:
                text = _corpus_capped(rng, quiver)
            flags = rng.choice(((), ("--json",), ("--quiet",)))
            corpus[kind].append(("reduce", "--algebra", algebra, *flags, "--", text))
    return corpus


PINNED_REDUCE_CORPUS = {
    "valid": ("2f4d863629dbdae0e80804441810f419268c5b4a73fb294cdd478a09ac68027f", {0: 2000}),
    "malformed": ("da38d8d5fbce9bf90d9bcbcabbbf5ca0805ca847434955e7f4de8cdb732bfa7b", {0: 119, 2: 581}),
    "capped": ("eea89a6d6b9e208ef56ec415dfe6c759668dc60bd6e2e08e147d8fa6bdaa540c", {0: 125, 2: 175}),
}


@pytest.mark.parametrize("kind", list(PINNED_REDUCE_CORPUS))
def test_reduce_corpus_is_pinned(capsys, kind):
    digests, codes = [], Counter()
    for argv in reduce_corpus()[kind]:
        code, out, err = invoke(capsys, *argv)
        digests.append(_sha256(f"{code}\n{out}\n{err}"))
        codes[code] += 1
    assert (_sha256("".join(digests)), dict(codes)) == PINNED_REDUCE_CORPUS[kind]


# -- one parser per process ------------------------------------------------------
#
# ``run`` parses every call with one parser built on its first call.  The
# slow path is a fresh parser per call: ``cli.build_parser`` put in place of
# the cached one.

_TEXT_TIMING = re.compile(r"\(\d+(\.\d+)? ms\)")


def _without_timing(text):
    """A JSON report without ``ms``/``total_ms``, or text without "(N ms)"."""
    if not text.startswith("{"):
        return _TEXT_TIMING.sub("(ms)", text)
    document = json.loads(text)
    document.pop("total_ms", None)
    document["checks"] = [
        {k: v for k, v in check.items() if k != "ms"} for check in document["checks"]
    ]
    return json.dumps(document)


def _outcome(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    return code, _without_timing(out), err


PARSER_BATTERY = [
    ("verify", "corner-iso"),
    ("verify", "corner-iso", "--json"),
    ("verify", "lemma", "--quiet"),
    ("verify", "inverse", "--mode", "printed", "--json"),
    ("verify", "inverse", "--quiet"),
    ("reduce", "--algebra", "pe6", "--json", "--", "-a0*b0 + b2*a2 - t2*b0*a0*b2*a2"),
    ("reduce", "--algebra", "re6", "--quiet", "y*y*x"),
    ("reduce", "--algebra", "re6", "(x+y)^2"),
    ("admissible", "--theta", "t1=1,t2=-1,t6=-3", "--json"),
    ("admissible", "x*y - 3*y*x", "--quiet"),
    ("admissible", "x*y - y*x"),
    ("basis", "--algebra", "pe6", "--corner", "3", "--json"),
    ("basis", "--algebra", "re6", "--quiet"),
    ("basis", "--algebra", "re6"),
    # with --field, then without: no value may carry over
    ("sample", "--seed", "5", "--trials", "2", "--field", "7", "--json"),
    ("sample", "--seed", "5", "--trials", "2", "--json"),
    ("sample", "--seed", "5", "--trials", "2", "--quiet"),
    ("--version",),
    ("-h",),
    ("sample", "-h"),
    ("verify", "nonsense"),
    ("bogus",),
    ("sample", "--seed", "1", "--trials", "1", "--field", "6"),
    ("basis", "--algebra", "re6", "--corner", "3"),
    ("admissible", "--theta", "t1=1", "x*y"),
    ("reduce", "--algebra", "re6", "y*)"),
]


def test_shared_parser_matches_a_fresh_parser_per_call(capsys, monkeypatch):
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "_parser", cli.build_parser)
        expected = {argv: _outcome(capsys, argv) for argv in PARSER_BATTERY}
    assert {code for code, _, _ in expected.values()} == {0, 1, 2}

    shared = cli._parser()
    # each call follows different calls in the second pass than in the first
    for argv in PARSER_BATTERY + PARSER_BATTERY[::-1]:
        assert _outcome(capsys, argv) == expected[argv], argv
    assert cli._parser() is shared

    # a verifier replaced on the module is reached through the shared parser
    def broken():
        raise ValueError("boom")

    lemma = ("verify", "lemma", "--json")
    with monkeypatch.context() as patched:
        patched.setattr(cli, "verify_lemma", broken)
        failing = _outcome(capsys, lemma)
        patched.setattr(cli, "_parser", cli.build_parser)
        assert _outcome(capsys, lemma) == failing
    assert failing == (3, "", "internal error: ValueError: boom\n")
    restored = _outcome(capsys, lemma)
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "_parser", cli.build_parser)
        assert _outcome(capsys, lemma) == restored
    assert restored[0] == 0


_COUNT_PARSERS = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(None)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import preproj.cli
counts = [len(built)]
calls = [["--version"], ["bogus"], ["reduce", "--algebra", "re6", "y*y*x"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    preproj.cli.run(["verify", "nonsense"])
    counts.append(len(built))
    for i in range(10):
        preproj.cli.run(calls[i % len(calls)])
counts.append(len(built))
print(*counts)
"""


def test_parser_is_built_once_on_the_first_run():
    env = {**os.environ, "PYTHONPATH": str(Path(preproj.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS], env=env, capture_output=True, text=True, check=True
    )
    on_import, after_first, after_eleven = map(int, result.stdout.split())
    assert on_import == 0
    assert after_first > 0
    assert after_eleven == after_first


def test_import_loads_neither_dataclasses_nor_inspect():
    # each would add about 1 MB of RSS to every process that imports preproj
    result = _python(
        "-c",
        "import sys, preproj, preproj.cli, preproj.derivation; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert (result.returncode, result.stdout) == (0, "\n")
