"""Tests for the derivation catalog: text in the reduce grammar, run in the
scope of ``e6.SymbolicSetup``."""

import gc
import json
import re
from functools import cache
from pathlib import Path

import pytest

from engine_helpers import verify_all
from preproj import cli, derivation, e6
from preproj.derivation import CATALOG, DEFINITIONS, parsed_catalog, run_derivation_catalog
from preproj.e6 import INVERSE_FORMULAS, SCOPE_NAMES, SymbolicSetup, build_pe6, build_re6
from preproj.expr import evaluate, format_element, parse, parse_element, to_element
from preproj.freealg import FreeElement
from preproj.polyring import Poly
from preproj.quotient import QuotientElement

README = Path(__file__).resolve().parents[1] / "README.md"
NAMES = SCOPE_NAMES | DEFINITIONS.keys()


def entry_text(entry):
    _, name, *text = entry
    return text[0] if text else name


def catalog_report(monkeypatch, entries, definitions=DEFINITIONS):
    """The catalog run on ``entries`` and ``definitions`` in place of the
    module's tables."""
    monkeypatch.setattr(derivation, "CATALOG", tuple(entries))
    monkeypatch.setattr(derivation, "DEFINITIONS", definitions)
    monkeypatch.setattr(derivation, "parsed_catalog", cache(parsed_catalog.__wrapped__))
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


def test_each_entry_is_parsed_once_per_process(monkeypatch):
    parsed_catalog()
    calls = []
    monkeypatch.setattr(derivation, "parse", lambda *args: calls.append(args))
    run_derivation_catalog(SymbolicSetup())
    assert calls == []


# -- every entry, definition and inverse formula prints and reads back -------------


def evaluated_sides():
    """(label, value, quiver) for every side of every entry and definition,
    evaluated in the scope of one set-up."""
    pe6, re6 = build_pe6(), build_re6()
    setup = SymbolicSetup()
    scope = setup.scope()
    definitions, entries = parsed_catalog()
    scope.update(
        (name, cache(lambda ast=ast: evaluate(ast, pe6.quiver, scope)))
        for name, ast in definitions.items()
    )
    for name in definitions:
        yield name, scope[name](), pe6.quiver
    for kind, name, sides in entries:
        for k, side in enumerate(sides):
            if kind == "re6":
                yield (name, k), to_element(side, re6.quiver), re6.quiver
            else:
                yield (name, k), evaluate(side, pe6.quiver, scope), pe6.quiver
    n = pe6.nilpotency_degree
    for mode, formulas in INVERSE_FORMULAS.items():
        for name, text in formulas.items():
            formula = parse(text, SCOPE_NAMES)
            yield (mode, name), to_element(formula, pe6.quiver, scope, n), pe6.quiver


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
    assert seen[Poly] >= 5 and seen[FreeElement] > 100


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
    calls = {"derived_constants": 0, "primed_generators": 0, "corner_embedding": 0}
    for name in calls:
        original = getattr(e6, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(e6, name, counting)
    assert verify_all() == 0
    assert calls == {"derived_constants": 1, "primed_generators": 1, "corner_embedding": 1}
    # a report run on its own builds its own
    for report in (e6.verify_theorem, e6.verify_inverse, derivation.verify_identities):
        report()
    assert calls == {"derived_constants": 4, "primed_generators": 3, "corner_embedding": 3}


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
