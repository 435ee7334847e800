"""Command-line front end: verification commands and machine-readable reports.

Subcommands:

    verify (lemma | theorem | identities | corner-iso | inverse | all)
    reduce --algebra (pe6|re6) "<expr>"
    admissible (--theta t1=v,... | "<f-expr in x,y>")
    basis --algebra (pe6|re6) [--corner <vertex>] [--constants FILE]
    sample --seed <n> --trials <m> [--field <p>]

Global flags ``--json`` (machine-readable report on stdout) and
``--quiet`` (suppress per-check lines).  Exit codes: 0 when every
requested check passes, 1 on a check failure, 2 on usage or parse errors
(including a ``--field`` that is not a prime below 2^31, a ``--corner``
that is not a vertex of the algebra, a ``--constants FILE`` that cannot
be opened for writing, which is reported before any constant is
computed, or that cannot be written, and an ``admissible`` f with a
coefficient that is not a number), 3 on an internal error: any other
exception raised while a command runs.

``run`` builds the argument parser on its first call and reuses it for
every later call in the process, so ``run(argv)`` may be called
repeatedly at no per-call parser cost.

Reports are deterministic: identical inputs produce byte-identical JSON
up to the timing fields (``ms``, ``total_ms``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .derivation import verify_identities
from .e6 import (
    VerificationReport,
    admissibility_residual,
    build_re6,
    check_field,
    get_algebra,
    lemma_coefficients,
    sample_check,
    verify_corner_iso,
    verify_inverse,
    verify_lemma,
    verify_theorem,
)
from .expr import MAX_COEFFICIENT_DIGITS, ExprError, format_element, parse_element, printable
from .oracle import THETA_MONOMIALS

JSON_REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "command", "algebra", "checks", "status"],
    "properties": {
        "version": {"type": "string"},
        "command": {"type": "string"},
        "algebra": {
            "type": "object",
            "required": ["name", "dimension", "nilpotency_degree"],
            "properties": {
                "name": {"type": "string"},
                "dimension": {"type": "integer"},
                "nilpotency_degree": {"type": "integer"},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "residual", "ms"],
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "residual": {"type": ["string", "null"]},
                    "ms": {"type": "number"},
                },
            },
        },
        "status": {"enum": ["pass", "fail"]},
    },
}


def _document(command: str, algebra: str, checks: list, status: str) -> dict:
    """The fields every JSON report starts with, in ``JSON_REPORT_SCHEMA``."""
    built = get_algebra(algebra)
    return {
        "version": __version__,
        "command": command,
        "algebra": {
            "name": algebra,
            "dimension": built.dimension(),
            "nilpotency_degree": built.nilpotency_degree,
        },
        "checks": checks,
        "status": status,
    }


def report_document(command: str, algebra: str, reports, total_ms: float) -> dict:
    checks = []
    prefix_titles = len(reports) > 1
    for rep in reports:
        for c in rep.checks:
            name = f"{rep.title}: {c.name}" if prefix_titles else c.name
            checks.append(
                {
                    "name": name,
                    "status": "pass" if c.passed else "fail",
                    "residual": c.residual,
                    "ms": round(c.ms, 3),
                }
            )
    status = "pass" if all(r.passed for r in reports) else "fail"
    document = _document(command, algebra, checks, status)
    document["total_ms"] = round(total_ms, 3)
    return document


def _emit(document: dict, reports, args) -> int:
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=False))
    elif not args.quiet:
        fp = document["algebra"]
        print(
            f"{document['command']}  [{fp['name']}: dim {fp['dimension']}, "
            f"nilpotency degree {fp['nilpotency_degree']}]"
        )
        for rep in reports:
            good, total = rep.counts()
            print(f"-- {rep.title}: {good}/{total} passed")
            for c in rep.checks:
                mark = "PASS" if c.passed else "FAIL"
                line = f"  [{mark}] {c.name} ({c.ms:.1f} ms)"
                print(line)
                if not c.passed and c.residual:
                    print(f"         residual: {c.residual}")
        print(f"overall: {document['status']} ({document['total_ms']:.0f} ms)")
    elif document["status"] != "pass":
        print("FAIL", file=sys.stderr)
    return 0 if document["status"] == "pass" else 1


def cmd_verify(args) -> int:
    start = time.perf_counter()
    target = args.target
    if target == "lemma":
        reports, algebra = [verify_lemma()], "re6"
    elif target == "theorem":
        reports, algebra = [verify_theorem()], "pe6"
    elif target == "identities":
        reports, algebra = [verify_identities()], "pe6"
    elif target == "corner-iso":
        reports, algebra = [verify_corner_iso()], "pe6"
    elif target == "inverse":
        reports, algebra = [verify_inverse(args.mode)], "pe6"
    else:  # all
        reports = [
            verify_lemma(),
            verify_theorem(),
            verify_identities(),
            verify_corner_iso(),
            verify_inverse("corrected"),
        ]
        algebra = "pe6"
    total_ms = (time.perf_counter() - start) * 1000.0
    command = f"verify {target}" + (
        f" --mode {args.mode}" if target == "inverse" else ""
    )
    return _emit(report_document(command, algebra, reports, total_ms), reports, args)


def cmd_reduce(args) -> int:
    algebra = get_algebra(args.algebra)
    element = parse_element(args.expr, algebra.quiver)
    lifted = algebra.normal_form(element).lift()
    # a product of powers under the scalar cap can still outgrow it
    for path, coeff in lifted.terms.items():
        if not printable(coeff):
            raise ExprError(
                f"the coefficient of {path} in the normal form has more than"
                f" {MAX_COEFFICIENT_DIGITS} digits",
                1,
                1,
            )
    text = format_element(lifted)
    if args.json:
        document = _document(f"reduce --algebra {args.algebra}", args.algebra, [], "pass")
        document["input"] = args.expr
        document["normal_form"] = text
        print(json.dumps(document, indent=2))
    else:
        print(text)
    return 0


# A theta value's numerator and denominator have at most this many digits.
# The residuals of ``admissible`` have degree at most 3 in the nine values
# with small integer coefficients, so a residual's denominator divides the
# product of the cubes of the nine denominators (below 10^2700) and its
# numerator stays below 10^3000 times a small integer: inside the
# interpreter's 4,300-digit limit for ``str``.
THETA_DIGITS = 100
_THETA_KEYS = {f"t{i}": i for i in range(1, 10)}
# A theta value in ASCII digits: an integer, n/d or a decimal.  Fraction
# alone would also read non-ASCII digits, "1_0" and exponents, and
# "1e100000000" would build 10**100000000, which does not finish.
_THETA_VALUE = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?)")


def _bounded_theta(value: Fraction, error: str) -> Fraction:
    bound = 10 ** THETA_DIGITS
    if abs(value.numerator) >= bound or value.denominator >= bound:
        raise ExprError(f"{error} (more than {THETA_DIGITS} digits)", 1, 1)
    return value


def _parse_theta(text: str) -> list[Fraction]:
    values = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ExprError(f"expected t<i>=<rational>, got {item!r}", 1, 1)
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _THETA_KEYS:
            raise ExprError(f"unknown theta key {key!r}", 1, 1)
        if _THETA_KEYS[key] in values:
            # even with the same value: a repeated key is most likely a mistyped index
            raise ExprError(f"theta key {key!r} given twice", 1, 1)
        raw = raw.strip()
        if not _THETA_VALUE.fullmatch(raw):
            raise ExprError(f"invalid rational {raw!r}", 1, 1)
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ExprError(f"invalid rational {raw!r}", 1, 1) from None
        values[_THETA_KEYS[key]] = _bounded_theta(value, f"invalid rational {raw!r}")
    return [values.get(i, Fraction(0)) for i in range(1, 10)]


def _theta_from_expression(text: str) -> list[Fraction]:
    """Read f given as an expression in x, y; must lie in rad^2 of re6."""
    algebra = build_re6()
    element = parse_element(text, algebra.quiver)
    normal = algebra.normal_form(element)
    words = {str(p).replace("*", ""): p for p in algebra.basis}
    coords = dict(normal.coords)
    values = []
    for word in THETA_MONOMIALS:
        poly = coords.pop(words[word], None)
        if poly is not None and not poly.is_rational():
            raise ExprError(f"coefficient of [{word}] in f is not a number", 1, 1)
        value = Fraction(0) if poly is None else poly.as_rational()
        values.append(_bounded_theta(value, f"coefficient of [{word}] in f"))
    if coords:
        leftover = ", ".join(str(p) for p in coords)
        raise ExprError(
            f"f must lie in rad^2 (unexpected support: {leftover})", 1, 1
        )
    return values


def cmd_admissible(args) -> int:
    start = time.perf_counter()
    if args.theta is not None:
        theta = _parse_theta(args.theta)
    else:
        theta = _theta_from_expression(args.f_expr)
    report = VerificationReport("admissible", "re6")
    c1, c2 = lemma_coefficients(theta)
    report.run("first condition: t1 + t2 - 2*t3 = 0", lambda: (c1 == 0, str(c1)))
    report.run(
        "second condition: 3*t4 - 2*t5 + t6 + t1^2 - t1*t2 + t2^2 - t3^2 = 0",
        lambda: (c2 == 0, str(c2)),
    )

    def direct_cube():
        residual = admissibility_residual(theta)
        return residual.is_zero(), str(residual)

    report.run("direct cube: (x + y + f)^3 = 0 in re6", direct_cube)
    total_ms = (time.perf_counter() - start) * 1000.0
    document = report_document("admissible", "re6", [report], total_ms)
    verdict = "admissible" if report.passed else "not admissible"
    if not args.json and not args.quiet:
        print(f"f is {verdict}")
    code = _emit(document, [report], args)
    return code


def cmd_basis(args) -> int:
    algebra = get_algebra(args.algebra)
    if args.corner is not None:
        lines = [
            f"deg={len(p)} {p.source}->{p.target} {p}"
            for p in algebra.corner_basis(args.corner)
        ]
    else:
        lines = algebra.basis_listing().splitlines()
    if args.constants:
        # the file is opened before any constant is computed
        try:
            with open(args.constants, "w") as handle:
                handle.write(algebra.structure_constants_csv() + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.constants}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    if args.json:
        document = _document(f"basis --algebra {args.algebra}", args.algebra, [], "pass")
        document["basis"] = lines
        print(json.dumps(document, indent=2))
    elif not args.quiet:
        print(f"# quiver {algebra.quiver.name}")
        for arrow_line in algebra.quiver.adjacency_listing().splitlines():
            print(f"# {arrow_line}")
        for line in lines:
            print(line)
    return 0


def cmd_sample(args) -> int:
    start = time.perf_counter()
    report = sample_check(seed=args.seed, trials=args.trials, field=args.field)
    total_ms = (time.perf_counter() - start) * 1000.0
    command = f"sample --seed {args.seed} --trials {args.trials}" + (
        f" --field {args.field}" if args.field else ""
    )
    return _emit(report_document(command, "pe6", [report], total_ms), [report], args)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def prime(text: str) -> int:
    """A field size accepted by ``check_field``: a prime below 2^31."""
    p = int(text)
    try:
        check_field(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preproj",
        description=(
            "Exact symbolic verification for the preprojective algebra of "
            "type E6 and its deformations."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--quiet", action="store_true", help="suppress per-check output")

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument(
        "target",
        choices=["lemma", "theorem", "identities", "corner-iso", "inverse", "all"],
    )
    p_verify.add_argument(
        "--mode",
        choices=["printed", "corrected"],
        default="corrected",
        help="inverse formulas: verbatim printed form or documented corrections",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_reduce = sub.add_parser(
        "reduce", parents=[common], help="normal form of an expression"
    )
    p_reduce.add_argument("--algebra", choices=["pe6", "re6"], required=True)
    p_reduce.add_argument("expr")
    p_reduce.set_defaults(func=cmd_reduce)

    p_adm = sub.add_parser(
        "admissible", parents=[common], help="decide admissibility of f"
    )
    group = p_adm.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", help="comma-separated t<i>=<rational> assignments")
    group.add_argument("f_expr", nargs="?", help="f as an expression in x and y")
    p_adm.set_defaults(func=cmd_admissible)

    p_basis = sub.add_parser(
        "basis", parents=[common], help="list the canonical basis"
    )
    p_basis.add_argument("--algebra", choices=["pe6", "re6"], required=True)
    p_basis.add_argument("--corner", type=int, help="restrict to loops at a vertex")
    p_basis.add_argument(
        "--constants", metavar="FILE", help="write structure constants as CSV"
    )
    p_basis.set_defaults(func=cmd_basis)

    p_sample = sub.add_parser(
        "sample", parents=[common], help="numeric cross-check of the theorem"
    )
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--trials", type=positive_int, required=True)
    p_sample.add_argument(
        "--field", type=prime, help="prime p < 2^31 for GF(p) arithmetic"
    )
    p_sample.set_defaults(func=cmd_sample)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``run``.

    Reusing it across ``run`` calls gives the same results as a fresh
    parser per call, because nothing of one parse survives into the next:

    * argparse keeps per-call state only in the ``Namespace`` that
      ``parse_args`` creates and returns;
    * no action has a mutable default that a command could change in
      place: every argument is ``store_true``, a ``choices`` string, a
      plain string, or goes through a pure ``type=`` callable
      (``int``, ``positive_int``, ``prime``);
    * ``set_defaults(func=cmd_*)`` binds functions that look up their
      collaborators (``verify_lemma``, ``parse_element``, ...) in this
      module's globals at call time, so a later ``setattr`` on the module
      still takes effect;
    * usage and help text are formatted when they are printed, not when
      the parser is built.

    ``tests/test_cli.py`` compares a mixed battery of calls on this parser
    with the same calls on fresh ones.  It is built lazily, not at import,
    so importing the module stays cheap.
    """
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        corner = getattr(args, "corner", None)
        if corner is not None and corner not in get_algebra(args.algebra).quiver.vertices:
            parser.error(f"argument --corner: {corner} is not a vertex of {args.algebra}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
