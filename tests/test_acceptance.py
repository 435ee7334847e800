"""Acceptance suite: every criterion at its stated tolerance and budget.

All tolerances are exact (symbolic identity over exact rationals or the
constrained polynomial ring); each criterion prints one pass/fail line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from engine_helpers import (
    corner_embedding,
    graded_dimensions,
    map_coefficients,
    printed_inverse_mismatches,
)
from preproj.derivation import verify_identities
from preproj.e6 import (
    FREE_THETA,
    admissibility_residual,
    build_pe6,
    build_re6,
    lemma_coefficients,
    sample_check,
    verify_corner_iso,
    verify_inverse,
    verify_lemma,
    verify_theorem,
)
from preproj.expr import format_element, parse_element
from preproj.freealg import FreeElement, generators
from preproj.polyring import Poly
from preproj.quiver import builtin_quiver
from preproj.quotient import build_quotient

L2 = builtin_quiver("L2")
GL = generators(L2)

# frozen regression values, computed once by the quotient-elimination engine
PE6_DIMENSION = 156
PE6_NILPOTENCY_DEGREE = 11
PE6_GRADED_DIMENSIONS = [6, 10, 14, 18, 20, 20, 20, 18, 14, 10, 6]
PRINTED_INVERSE_MISMATCHES = ["a3", "a4"]


def _report(number: int, ok: bool, elapsed: float, description: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} ({elapsed:6.2f} s) - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _budget(number: int, elapsed: float, budget: float):
    assert elapsed < budget, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s >= {budget}s"
    )


def test_criterion_01_re6_shape_and_basis(rational_rank):
    start = time.perf_counter()
    x, y = GL["x"], GL["y"]
    alg = build_quotient(L2, [x * x, y * y * y, (x + y) ** 3], name="re6-fresh")
    ok = alg.dimension() == 12 and alg.nilpotency_degree == 6
    words = ["", "x", "y", "xy", "yx", "yy", "xyx", "xyy", "yxy", "xyxy", "yxyy", "xyxyy"]
    vectors = []
    for word in words:
        e = FreeElement.from_path(L2.idempotent(0))
        for ch in word:
            e = e * GL[ch]
        vectors.append(alg.normal_form(e))
    rank = rational_rank(
        {p: c.as_rational() for p, c in v.coords.items()} for v in vectors
    )
    ok = ok and rank == 12
    elapsed = time.perf_counter() - start
    _report(1, ok, elapsed, "re6 has dimension 12, nilpotency degree 6; basis B independent")
    _budget(1, elapsed, 1.0)


def test_criterion_02_lemma():
    start = time.perf_counter()
    report = verify_lemma()
    ok = report.passed and len(report.checks) == 3
    # the exact two-term residual, asserted directly as well
    residual = admissibility_residual(FREE_THETA)
    alg = build_re6()
    x, y = GL["x"], GL["y"]
    c1, c2 = lemma_coefficients(FREE_THETA)
    expected = alg.normal_form((x * y * x * y).scale(c1) + (x * y * x * y * y).scale(c2))
    ok = ok and residual == expected
    elapsed = time.perf_counter() - start
    _report(2, ok, elapsed, "lemma 3/3: exact residual and vanishing under constraints")
    _budget(2, elapsed, 5.0)


def test_criterion_03_rewriting_identities():
    start = time.perf_counter()
    alg = build_re6()
    x, y = GL["x"], GL["y"]
    chains = [
        [y * y * x, y * y * x - (x + y) ** 3, -(x * y * x + x * y * y + y * x * y)],
        [y * x * y * x, -(x * y * y * x), x * y * x * y],
        [y * y * x * y, -(x * y * x * y + y * x * y * y)],
        [
            y * y * x * y * y,
            -(y * y * x * y * x),
            y * x * y * y * x,
            -(y * x * y * x * y),
            x * y * y * x * y,
            -(x * y * x * y * y),
        ],
    ]
    ok = all(
        alg.normal_form(chain[k] - chain[k + 1]).is_zero()
        for chain in chains
        for k in range(len(chain) - 1)
    )
    elapsed = time.perf_counter() - start
    _report(3, ok, elapsed, "the four rewriting chains reduce to 0 link by link")
    _budget(3, elapsed, 1.0)


def test_criterion_04_theorem():
    start = time.perf_counter()
    report = verify_theorem()
    relation_checks = report.checks[:7]
    ok = all(c.passed for c in relation_checks) and len(relation_checks) == 7
    ok = ok and report.checks[7].passed  # integer certificate flag
    elapsed = time.perf_counter() - start
    _report(4, ok, elapsed, "theorem 7/7 over the constrained polynomial ring")
    _budget(4, elapsed, 60.0)


def test_criterion_05_identities():
    start = time.perf_counter()
    report = verify_identities()
    ok = report.passed and len(report.checks) >= 25
    elapsed = time.perf_counter() - start
    _report(5, ok, elapsed, f"derivation catalog {report.counts()[0]}/{report.counts()[1]}")
    _budget(5, elapsed, 60.0)


def test_criterion_06_corner_iso():
    start = time.perf_counter()
    report = verify_corner_iso()
    ok = report.passed
    elapsed = time.perf_counter() - start
    _report(6, ok, elapsed, "corner of pe6 at the exceptional vertex is re6 (rank 12)")
    _budget(6, elapsed, 10.0)


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    ok = sample_check(seed=2024, trials=20).passed
    for p in (5, 7, 11):
        ok = ok and sample_check(seed=p, trials=10, field=p).passed
    elapsed = time.perf_counter() - start
    _report(7, ok, elapsed, "numeric pipeline: 20 rational + 10 trials each over GF(5,7,11)")
    _budget(7, elapsed, 30.0)


def _associativity_sweep(alg) -> bool:
    n = alg.dimension()
    # the rows hold every nonzero product; a pair they lack is an empty sum
    rows = [alg.structure_row(i) for i in range(n)]
    empty: list = []
    for i in range(n):
        for j in range(n):
            uv = rows[i].get(j, empty)
            for k in range(n):
                vw = rows[j].get(k, empty)
                if not uv and not vw:
                    continue  # both sides are empty sums
                lhs = {}
                for t, c in uv:
                    for m, d in rows[t].get(k, empty):
                        lhs[m] = lhs.get(m, 0) + c * d
                rhs = {}
                for t, c in vw:
                    for m, d in rows[i].get(t, empty):
                        rhs[m] = rhs.get(m, 0) + c * d
                if {m: c for m, c in lhs.items() if c} != {
                    m: c for m, c in rhs.items() if c
                }:
                    return False
    return True


def test_criterion_08_associativity_certificate():
    start = time.perf_counter()
    ok = _associativity_sweep(build_re6()) and _associativity_sweep(build_pe6())
    elapsed = time.perf_counter() - start
    _report(8, ok, elapsed, "all 12^3 re6 triples and all 156^3 pe6 triples associate")
    _budget(8, elapsed, 60.0)


def test_criterion_09_inverse():
    start = time.perf_counter()
    ok = verify_inverse("corrected").passed
    ok = ok and printed_inverse_mismatches() == PRINTED_INVERSE_MISMATCHES
    elapsed = time.perf_counter() - start
    _report(9, ok, elapsed, "inverse corrected 6/6; printed mismatch set is {a3, a4}")
    _budget(9, elapsed, 60.0)


def test_criterion_10_pe6_dimension_frozen():
    start = time.perf_counter()
    alg = build_pe6()
    ok = (
        alg.dimension() == PE6_DIMENSION
        and alg.nilpotency_degree == PE6_NILPOTENCY_DEGREE
        and graded_dimensions(alg) == PE6_GRADED_DIMENSIONS
    )
    elapsed = time.perf_counter() - start
    _report(10, ok, elapsed, f"dim pe6 = {PE6_DIMENSION} (frozen engine value)")


def _random_l2_element(rng, polynomial=True, max_len=4):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(0, max_len)
        path = rng.choice(L2.enumerate_paths(0, 0, length))
        if polynomial:
            coeff = Poly.const(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
            coeff = coeff * Poly.var(rng.randint(1, 9)) ** rng.randint(0, 2)
        else:
            coeff = Poly.const(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        terms[path] = terms.get(path, Poly.zero()) + coeff
    return FreeElement(L2, terms)


def test_criterion_11_property_suites():
    start = time.perf_counter()
    alg = build_re6()
    embed = corner_embedding()
    pe6 = build_pe6()
    rng = random.Random(99)
    ok = True
    for _ in range(200):  # normal-form idempotence and linearity
        a, b = _random_l2_element(rng), _random_l2_element(rng)
        p = Poly.var(rng.randint(1, 9)) * rng.randint(-3, 3)
        nf = alg.normal_form(a)
        ok = ok and alg.normal_form(nf.lift()) == nf
        ok = ok and alg.normal_form(a.scale(p) + b) == nf * p + alg.normal_form(b)
    for _ in range(200):  # evaluation commutes with reduction
        a = _random_l2_element(rng)
        sigma = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(1, 10)}
        ev = lambda poly: Poly.const(poly.evaluate(sigma))  # noqa: E731
        ok = ok and map_coefficients(alg.normal_form(a), ev) == alg.normal_form(
            map_coefficients(a, ev)
        )
    for _ in range(200):  # substitution is an algebra homomorphism
        a, b = _random_l2_element(rng, max_len=3), _random_l2_element(rng, max_len=3)
        ok = ok and embed(a * b) == embed(a) * embed(b)
        ok = ok and pe6.normal_form(embed(a * b)) == pe6.normal_form(embed(a)) * pe6.normal_form(embed(b))
    for _ in range(200):  # grammar round-trip
        a = _random_l2_element(rng)
        text = format_element(a)
        ok = ok and parse_element(text, L2) == a and format_element(parse_element(text, L2)) == text
    elapsed = time.perf_counter() - start
    _report(11, ok, elapsed, "four property suites, 200 randomized cases each")
