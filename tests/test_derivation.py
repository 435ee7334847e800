"""Tests for the derivation catalog: text in the reduce grammar, run in the
scope of ``e6.SymbolicSetup``."""

import gc
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from engine_helpers import text_scope, verify_all
from preproj import cli, derivation, e6
from preproj.derivation import CATALOG, DEFINITIONS, run_derivation_catalog
from preproj.e6 import (
    INVERSE_CONSTANTS,
    INVERSE_FORMULAS,
    SCOPE_NAMES,
    SymbolicSetup,
    VerificationReport,
    build_pe6,
    build_re6,
    run_text_checks,
)
from preproj.expr import (
    Mul,
    Neg,
    Pow,
    Sum,
    evaluate,
    format_element,
    parse,
    parse_element,
    to_element,
)
from preproj.freealg import FreeElement
from preproj.oracle import DEFORMED_RELATION_NAMES
from preproj.polyring import Poly
from preproj.quotient import QuotientElement

README = Path(__file__).resolve().parents[1] / "README.md"
NAMES = SCOPE_NAMES.union(DEFINITIONS)
INVERSE_NAMES = SCOPE_NAMES.union(INVERSE_CONSTANTS)


def entry_text(entry):
    _, name, *text = entry
    return text[0] if text else name


def catalog_report(monkeypatch, entries, definitions=DEFINITIONS):
    """The catalog run on ``entries`` and ``definitions`` in place of the
    module's tables."""
    monkeypatch.setattr(derivation, "CATALOG", tuple(entries))
    monkeypatch.setattr(derivation, "DEFINITIONS", definitions)
    return run_derivation_catalog(SymbolicSetup())


def test_every_entry_is_checked_once_and_passes():
    report = run_derivation_catalog(SymbolicSetup())
    assert report.passed, [c.name for c in report.checks if not c.passed]
    names = {re.sub(r" \[step \d+\]$", "", c.name) for c in report.checks}
    assert names == {name for _, name, *_ in CATALOG} | {
        "integer certificate (catalog coefficients are integral)"
    }
    links = sum(len(entry_text(e).split("=")) - 1 for e in CATALOG)
    assert len(report.checks) == links + 1 == 83


def test_the_integer_certificate_reads_every_element_the_catalog_builds(monkeypatch):
    report = catalog_report(monkeypatch, [("pe6", "a link of halves", "1/2*x*y = 1/2*x*y")])
    assert [(c.name, c.passed) for c in report.checks] == [
        ("a link of halves", True),
        ("integer certificate (catalog coefficients are integral)", False),
    ]


def run_every_text_check(setup=None):
    """The catalog and both inverse modes, at the theta of ``setup``."""
    setup = setup or SymbolicSetup()
    return [run_derivation_catalog(setup)] + [
        e6.verify_inverse(mode, setup) for mode in INVERSE_FORMULAS
    ]


def test_each_entry_is_parsed_once_per_process(monkeypatch):
    run_every_text_check()
    calls = []
    monkeypatch.setattr(e6, "parse", lambda *args: calls.append(args) or parse(*args))
    reports = run_every_text_check()
    assert calls == [] and [len(r.checks) for r in reports] == [83, 6, 6]
    # once the cache is emptied, two more runs parse every text once, and
    # a formula that both inverse modes share once for both
    e6.parsed.cache_clear()
    run_every_text_check()
    run_every_text_check()
    assert max(Counter(calls).values()) == 1
    texts = {text for text, _ in calls}
    assert texts >= {*DEFINITIONS.values(), *INVERSE_CONSTANTS.values()}
    assert sum(text.startswith(INVERSE_FORMULAS["printed"]["a2"]) for text in texts) == 1


def test_a_failing_check_of_each_kind_keeps_its_residual_text():
    """The residual strings of the runner's kinds, read by no report that
    passes: ``differs`` gives both normal forms and fails when both are
    zero, a chain link the normal form of its difference, and ``scalar``
    the difference of its two sides."""
    report = VerificationReport("failing")
    integral = run_text_checks(report, {"h": "1/2*x"}, [
        ("differs", "unequal", "x = y"),
        ("differs", "both zero", "a0*b0 = 0"),
        ("pe6", "chain", "x = x = 2*y + h"),
        ("re6", "loops commute", "x*y = y*x"),
        ("scalar", "scalars", "t1 - t3 = 0"),
        ("scalar", "two sides", "t1 = t3"),
    ], SymbolicSetup())
    assert [(c.name, c.passed, c.residual) for c in report.checks] == [
        ("unequal", False, "got b0*a0; expected b2*a2"),
        ("both zero", False, "got 0; expected 0"),
        ("chain [step 1]", True, None),
        ("chain [step 2]", False, "1/2*b0*a0 - 2*b2*a2"),
        ("loops commute", False, "x*y - y*x"),
        ("scalars", False, "difference is - t3 + t1"),
        ("two sides", False, "difference is - t3 + t1"),
    ]
    assert not integral


# -- the runner builds every element below the nilpotency degree -------------------


def elements_the_runner_builds(monkeypatch):
    """{(ast, quiver): (element, below)} for every element that
    ``e6.run_text_checks`` builds in the catalog and both inverse modes,
    and the values of the definitions it binds."""
    built = {}

    def recording(evaluator):
        def wrapper(ast, quiver, scope=None, below=None, products=None):
            value = evaluator(ast, quiver, scope, below, products)
            built[ast, quiver] = value, below
            return value

        return wrapper

    monkeypatch.setattr(e6, "to_element", recording(to_element))
    monkeypatch.setattr(e6, "evaluate", recording(evaluate))
    catalog, _, corrected = run_every_text_check()
    assert catalog.passed and corrected.passed
    return built


def test_no_element_the_runner_builds_on_pe6_holds_a_path_of_length_n(monkeypatch):
    pe6, re6 = build_pe6(), build_re6()
    built = elements_the_runner_builds(monkeypatch)
    elements = 0
    for (ast, quiver), (value, below) in built.items():
        algebra = pe6 if quiver is pe6.quiver else re6
        assert below == algebra.nilpotency_degree, ast
        if isinstance(value, FreeElement):
            assert all(len(p) < algebra.nilpotency_degree for p in value.terms), ast
            elements += quiver is pe6.quiver
    assert elements > 100


def test_every_catalog_side_untruncated_has_the_normal_form_the_runner_builds(monkeypatch):
    """Slow path of the truncation: each pe6 side of the catalog evaluated
    with every product kept whole, its definitions too, reduces to the
    normal form of the element the runner built.  Sound because the dropped
    paths lie in J^N, inside the ideal of relations (see ``FreeElement.mul``)."""
    pe6 = build_pe6()
    n = pe6.nilpotency_degree
    built = elements_the_runner_builds(monkeypatch)
    scope = text_scope(SymbolicSetup(), DEFINITIONS)
    sides = dropped = 0
    for kind, name, *text in CATALOG:
        if kind in ("pe6", "differs"):
            for side in (text[0] if text else name).split("="):
                ast = parse(side, NAMES)
                full = to_element(ast, pe6.quiver, scope)
                cut, _ = built[ast, pe6.quiver]
                assert pe6.normal_form(full) == pe6.normal_form(cut), (name, side)
                sides += 1
                dropped += any(len(p) >= n for p in full.terms)
    scope.clear()
    assert sides == 113
    # not vacuous: the full elements of some sides reach J^N
    assert dropped > 0


# -- no unary "-" before a power -----------------------------------------------------


def negated_powers(node):
    """The powers in the AST ``node`` whose base is a negation, as a unary
    "-" before a power parses: -t3^2 reads as (-t3)^2 = t3^2."""
    if isinstance(node, Pow):
        return [node] * isinstance(node.base, Neg) + negated_powers(node.base)
    if isinstance(node, Neg):
        return negated_powers(node.operand)
    if isinstance(node, Mul):
        return [found for factor in node.factors for found in negated_powers(factor)]
    if isinstance(node, Sum):
        return [found for _, part in node.parts for found in negated_powers(part)]
    return []


def every_text():
    """(label, text, names) for every text that the runner reads."""
    for name, text in DEFINITIONS.items():
        yield name, text, NAMES
    for entry in CATALOG:
        for side in entry_text(entry).split("="):
            yield entry[1], side, NAMES
    for mode, formulas in INVERSE_FORMULAS.items():
        for name, text in formulas.items():
            yield (mode, name), text, INVERSE_NAMES
    for name, text in INVERSE_CONSTANTS.items():
        yield name, text, INVERSE_NAMES


def test_no_text_puts_a_unary_minus_before_a_power():
    texts = list(every_text())
    assert len(texts) == 15 + 129 + 12 + 8
    for label, text, names in texts:
        assert negated_powers(parse(text, names)) == [], label
    # the lint sees the trap, inside a product and inside a sum
    for text in ("-t3^2*(t1 - t3)", "t4 + (-t3^2 + t1)*t5", "-(t3 - t1)^2"):
        assert len(negated_powers(parse(text))) == 1, text
    assert negated_powers(parse("-1*t3^2 - t3^2 + (-t3)*t1")) == []


# -- every entry, definition and inverse formula prints and reads back -------------


def evaluated_sides():
    """(label, value, quiver) for every side of every entry and definition,
    evaluated in the scope of one set-up."""
    pe6, re6 = build_pe6(), build_re6()
    setup = SymbolicSetup()
    scope = text_scope(setup, DEFINITIONS)
    for name in DEFINITIONS:
        yield name, scope[name](), pe6.quiver
    for entry in CATALOG:
        kind, name, *_ = entry
        for k, side in enumerate(entry_text(entry).split("=")):
            side = parse(side, NAMES)
            if kind == "re6":
                yield (name, k), to_element(side, re6.quiver), re6.quiver
            else:
                yield (name, k), evaluate(side, pe6.quiver, scope), pe6.quiver
    scope.clear()
    n = pe6.nilpotency_degree
    scope = text_scope(setup, INVERSE_CONSTANTS, n)
    for name in INVERSE_CONSTANTS:
        yield name, scope[name](), pe6.quiver
    for mode, formulas in INVERSE_FORMULAS.items():
        for name, text in formulas.items():
            formula = parse(text, INVERSE_NAMES)
            yield (mode, name), to_element(formula, pe6.quiver, scope, n), pe6.quiver
    scope.clear()


def test_every_entry_and_inverse_formula_round_trips_through_the_printer():
    seen = {Poly: 0, FreeElement: 0}
    for label, value, quiver in evaluated_sides():
        if isinstance(value, Poly):
            # a scalar c prints as the element c*1
            element = FreeElement.one(quiver).scale(value)
        else:
            element = value if isinstance(value, FreeElement) else FreeElement.from_path(value)
        assert parse_element(format_element(element), quiver) == element, label
        seen[Poly if isinstance(value, Poly) else FreeElement] += 1
    assert seen[Poly] >= 13 and seen[FreeElement] > 100


# -- a sign flipped in an entry fails its check ------------------------------------


def sign_flips(text):
    """Every text that differs from ``text`` in the sign of one term: a
    binary "+" or "-" swapped, a unary "-" dropped, or a "-" put before
    the first term of a side."""
    for match in re.finditer(r"[-+]", text):
        i = match.start()
        before = text[:i].rstrip()
        if before and before[-1] not in "=(*":
            yield text[:i] + ("-" if text[i] == "+" else "+") + text[i + 1:]
        else:
            yield text[:i] + text[i + 1:]
    for match in re.finditer(r"(?:^|= )", text):
        yield text[:match.end()] + "-" + text[match.end():]


# a zero claim on one word holds whatever its sign
SIGN_BLIND = {
    "a2*b2*a2*b2 = a2*a1*b1*b2 = 0", "b4*a4 = 0", "b4'*a4' = 0", "a0*b0 = 0",
    "a2*b2*a2*b2 = 0", "b3*a3*b3*a3 = 0", "x*y*x*z*x = 0", "x*y*z*y*x = 0",
}


def fails_with_one_sign_flipped(monkeypatch, entry):
    kind, name, *_ = entry
    for flipped in sign_flips(entry_text(entry)):
        report = catalog_report(monkeypatch, [(kind, name, flipped)])
        if not all(c.passed for c in report.checks[:-1]):
            return flipped
    return None


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e[1][:40])
def test_one_flipped_sign_fails_the_entry(monkeypatch, entry):
    flipped = fails_with_one_sign_flipped(monkeypatch, entry)
    if entry[1] in SIGN_BLIND:
        assert flipped is None
        # a word dropped from the claim fails it instead
        kind, name, *_ = entry
        text = entry_text(entry).replace("*", " + ", 1)
        report = catalog_report(monkeypatch, [(kind, name, text)])
        assert not report.checks[0].passed
    else:
        assert flipped is not None


@pytest.mark.parametrize("name", sorted(DEFINITIONS))
def test_one_flipped_sign_in_a_definition_fails_a_check(monkeypatch, name):
    failed = any(
        not catalog_report(monkeypatch, CATALOG, {**DEFINITIONS, name: flipped}).passed
        for flipped in sign_flips(DEFINITIONS[name])
    )
    # Q enters only A4 and A4_printed, as phi*Q + (t1 - t3)*Q, which is 0
    # whatever Q is: as displayed, its value is never checked
    assert failed == (name != "Q")


# -- the catalog shares the set-up of its run ----------------------------------------


def test_verify_all_builds_the_constrained_set_up_once(monkeypatch):
    assert verify_all() == 0
    calls = {"derived_constants": 0, "primed_generators": 0, "f_xy": 0, "f_xy_primed": 0}

    def counting(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)

        return count

    for name in ("derived_constants", "primed_generators"):
        monkeypatch.setattr(e6, name, counting(name, getattr(e6, name)))
    # the builds of f(x, y) and f(x, b2'*a2'), under their cached properties
    for name in ("f_xy", "f_xy_primed"):
        prop = vars(SymbolicSetup)[name]
        monkeypatch.setattr(prop, "func", counting(name, prop.func))
    assert verify_all() == 0
    assert calls == {"derived_constants": 1, "primed_generators": 1, "f_xy": 1, "f_xy_primed": 1}
    # a report run on its own builds its own, once each: the theorem reads
    # f(x, b2'*a2') only, the inverse formulas neither f, the catalog both
    for report in (e6.verify_theorem, e6.verify_inverse, derivation.verify_identities):
        report()
    assert calls == {"derived_constants": 4, "primed_generators": 4, "f_xy": 2, "f_xy_primed": 3}


def test_a_passing_report_formats_no_residual(monkeypatch):
    assert verify_all() == 0
    formatted = []
    to_text = QuotientElement.__str__

    def counting(self):
        formatted.append(self)
        return to_text(self)

    monkeypatch.setattr(QuotientElement, "__str__", counting)
    assert verify_all() == 0
    assert formatted == []
    # not vacuous: the two failing printed inverse formulas format theirs
    report = e6.verify_inverse("printed")
    assert [c.name for c in report.checks if c.residual] == [
        "a3 recovered from the printed formula",
        "a4 recovered from the printed formula",
    ]
    assert len(formatted) == 2


# -- the README's map from displays to check names -----------------------------------


def readme_map():
    """The check names of the README's display -> check table."""
    section = README.read_text(encoding="utf-8").split("### Displays and their checks", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    return [re.findall(r"`([^`]+)`", row.split(" | ")[-1]) for row in rows]


def test_readme_map_names_every_catalog_entry_and_only_checks_of_verify_all(capsys):
    names = [name for row in readme_map() for name in row]
    assert sorted(names) == sorted(name for _, name, *_ in CATALOG)
    assert cli.run(["verify", "all", "--json"]) == 0
    checks = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in names:
        pattern = re.escape(f"identities: {name}") + r"( \[step \d+\])?"
        assert any(re.fullmatch(pattern, check) for check in checks), name


def test_readme_theorem_table_is_the_theorem_texts():
    section = README.read_text(encoding="utf-8").split("## The theorem as text", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    table = [tuple(re.findall(r"`([^`]+)`", row)) for row in rows]
    assert table == list(zip(DEFORMED_RELATION_NAMES, e6.THEOREM_TEXTS, strict=True))


def test_the_catalog_and_the_inverse_formulas_leave_no_reference_cycle():
    """Every element a run builds is freed when the run returns, not when
    the garbage collector next runs: the evaluator's recursive closure and
    the catalog's definitions, which refer to the scope holding them,
    would otherwise keep a whole run's elements alive."""
    setup = SymbolicSetup()
    run_derivation_catalog(setup)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            run_derivation_catalog(setup)
            e6.verify_inverse("corrected", setup)
            evaluate(parse("(x + y)^2*x - 3*y"), build_re6().quiver)
        assert gc.collect() == 0
    finally:
        gc.enable()
