"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Each workload is a closed loop of *rounds*.  A round is the unit whose
wall time is a latency sample: one ``verify all`` call, one pair of
``sample`` calls (over Q, then over GF(11)), one ``reduce`` query, or one
from-scratch build of E6 and D8.  A round holds a fixed number of
*operations*, which ``check`` counts as passed or failed; an operation is
a check, a trial, a query or an algebra.

Inputs come only from the workload seed.  Checks run outside the timed
section and never share a code path with the call they check where the
workload has an independent reference (``build``: the Hilbert-series
recursion; ``reduce``: structure-constant products).

This module imports ``preproj``; the worker puts the checkout's ``src``
on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from preproj import cli, e6, quotient
from preproj.expr import parse_element
from preproj.freealg import FreeElement, generators
from preproj.quiver import Arrow, Quiver

# Nilpotency degree of the algebra each benchmark quiver carries, keyed by
# quiver name: h - 1 for the Dynkin preprojective algebras (Coxeter number
# h = 12 for E6, 14 for D8; the builtin E6 quiver carries pe6) and 6 for
# re6 on the two-loop quiver L2.  The tracer uses it to tell products that
# survive in the quotient from products that die there.
NILPOTENCY = {"E6": 11, "D8": 13, "L2": 6}


def _call(argv):
    """One closed-loop call into the CLI, with its report captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def verdict_failures(code, text, expected):
    """(failed, problem) for a report that must hold ``expected`` passing checks.

    The expected count comes from the workload, never from the report, so
    a vacuous or shortened report fails every check it should have had.
    A report whose exit code, status and checks disagree fails entirely.
    """
    try:
        doc = json.loads(text)
        checks = doc["checks"]
        status = doc["status"]
    except (ValueError, KeyError, TypeError):
        return expected, f"exit {code}: no JSON report"
    passes = sum(1 for c in checks if c.get("status") == "pass")
    if len(checks) != expected:
        return expected, f"{len(checks)} checks reported, {expected} expected"
    if not (code == 0) == (status == "pass") == (passes == expected):
        return expected, f"exit {code} and status {status!r} with {passes}/{expected} passing"
    if passes != expected:
        failing = [c["name"] for c in checks if c.get("status") != "pass"]
        return expected - passes, f"failing checks: {failing[:3]}"
    return 0, None


class Workload:
    """A closed loop: ``setup()`` once, then ``run(item)`` timed for each
    ``item`` of ``rounds(seed)``; ``operations(item)`` and
    ``check(item, summary) -> (failed, problem)`` count the outcome."""

    # rounds in the fixed unit a traced run executes once
    trace_rounds = 1

    def summarize(self, item, output):
        """What ``check`` needs of a round's output, taken outside the timing."""
        return output


# -- verify -------------------------------------------------------------------


class Verify(Workload):
    """``verify all``: the paper's headline, 106 exact checks."""

    expected_checks = 106

    def setup(self):
        e6.build_pe6()
        e6.build_re6()

    def rounds(self, seed):
        # the headline has no inputs; the seed changes nothing
        while True:
            yield ["verify", "all", "--json"]

    def run(self, argv):
        return _call(argv)

    def operations(self, argv):
        return self.expected_checks

    def check(self, argv, output):
        code, text, _ = output
        return verdict_failures(code, text, self.expected_checks)


# -- sample -------------------------------------------------------------------


class Sample(Workload):
    """The numeric oracle: ``sample`` over Q and over GF(11), seeded trials."""

    trials = 500
    field = 11

    def setup(self):
        e6.build_pe6()

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            base = ["sample", "--trials", str(self.trials), "--json"]
            yield [
                base + ["--seed", str(rng.randrange(1, 2**31))],
                base + ["--seed", str(rng.randrange(1, 2**31)), "--field", str(self.field)],
            ]

    def run(self, calls):
        return [_call(argv) for argv in calls]

    def operations(self, calls):
        return self.trials * len(calls)

    def check(self, calls, output):
        failed = 0
        problems = []
        for argv, (code, text, _) in zip(calls, output):
            bad, problem = verdict_failures(code, text, self.trials)
            failed += bad
            if problem:
                problems.append(f"{' '.join(argv)}: {problem}")
        return failed, "; ".join(problems) or None


# -- reduce -------------------------------------------------------------------

# The builtin E6 double quiver, arrow -> (source, target), as documented.
E6_ARROWS = {
    "a0": (0, 3), "b0": (3, 0), "a1": (1, 2), "b1": (2, 1), "a2": (2, 3),
    "b2": (3, 2), "a3": (3, 4), "b3": (4, 3), "a4": (4, 5), "b4": (5, 4),
}
_E6_OUT = {v: sorted(a for a, (s, _) in E6_ARROWS.items() if s == v) for v in range(6)}
_COEFFS = (1, 1, 1, 1, 1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
_SMALL_INTS = (1, 2, 3, -1, -2, -3)
# One query in eight is a power from the tail; three tail powers in four
# are on pe6.  The fixed shares keep p95 inside the pe6 tail on every seed.
_BLOCK = 8
_TAIL_ALGEBRAS = ("pe6", "pe6", "re6", "pe6")


def _word(rng, algebra, length):
    if algebra == "re6":
        return [rng.choice("xy") for _ in range(length)]
    v = rng.randrange(6)
    names = []
    for _ in range(length):
        name = rng.choice(_E6_OUT[v])
        names.append(name)
        v = E6_ARROWS[name][1]
    return names


def _random_sum(rng, algebra, terms, max_length):
    out = []
    for _ in range(terms):
        if rng.random() < 0.1:
            factors = ["e0" if algebra == "re6" else f"e{rng.randrange(6)}"]
        else:
            factors = _word(rng, algebra, rng.randint(1, max_length))
        out.append((Fraction(rng.choice(_COEFFS)), factors))
    return out


def _body_query(rng, algebra):
    kind = rng.randrange(4)
    if kind == 0:
        return _random_sum(rng, algebra, 1, 7)
    if kind == 1:
        return _random_sum(rng, algebra, rng.randint(2, 4), 6)
    if kind == 2:
        left = _random_sum(rng, algebra, 2, 3)
        right = _random_sum(rng, algebra, 2, 3)
        return [(Fraction(1), [(left, 1), (right, 1)])]
    return [(Fraction(1), [(_random_sum(rng, algebra, 2, 2), rng.choice((2, 3)))])]


def _tail_query(rng, algebra):
    if algebra == "re6":
        loops, exponent = [["x"], ["y"]], 12
    else:
        loops, exponent = [["b0", "a0"], ["b2", "a2"], ["a3", "b3"]], 8
    rng.shuffle(loops)
    inner = [(Fraction(rng.choice(_SMALL_INTS)), word) for word in loops]
    return [(Fraction(1), [(inner, exponent)])]


def expression_text(expr):
    """Surface syntax for a generated sum of coefficient * factor products."""
    parts = []
    for k, (coeff, factors) in enumerate(expr):
        body = "*".join(
            f if isinstance(f, str) else f"({expression_text(f[0])})" + (f"^{f[1]}" if f[1] != 1 else "")
            for f in factors
        )
        magnitude = abs(coeff)
        term = body if magnitude == 1 else f"{magnitude}*{body}"
        if k == 0:
            parts.append(f"-{term}" if coeff < 0 else term)
        else:
            parts.append(f"{'-' if coeff < 0 else '+'} {term}")
    return " ".join(parts)


def reduce_queries(seed):
    """The endless seeded query stream: (algebra, generated expression)."""
    rng = random.Random(seed)
    block = 0
    while True:
        for _ in range(_BLOCK - 1):
            algebra = rng.choice(("pe6", "re6"))
            yield algebra, _body_query(rng, algebra)
        algebra = _TAIL_ALGEBRAS[block % len(_TAIL_ALGEBRAS)]
        yield algebra, _tail_query(rng, algebra)
        block += 1


def reference_value(algebra, expr):
    """The expression's class through structure constants, no free expansion.

    Generators enter as normal forms of single paths; every product is
    ``QuotientAlgebra.multiply`` and every power repeats it.
    """
    quiver = algebra.quiver
    total = algebra.element({})
    for coeff, factors in expr:
        product = None
        for f in factors:
            if isinstance(f, str):
                if f.startswith("e"):
                    path = quiver.idempotent(int(f[1:]))
                else:
                    path = quiver.path(f)
                value = algebra.normal_form(FreeElement.from_path(path))
            else:
                value = reference_value(algebra, f[0]) ** f[1]
            product = value if product is None else algebra.multiply(product, value)
        total = total + product * coeff
    return total


def reduce_output_failure(algebra_name, expr, output):
    """None when the CLI's normal form equals the reference, else the problem."""
    code, text, err = output
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        doc = json.loads(text)
        normal = doc["normal_form"]
        status = doc["status"]
    except (ValueError, KeyError, TypeError):
        return "no JSON report"
    if status != "pass":
        return f"status {status!r}"
    algebra = e6.get_algebra(algebra_name)
    got = algebra.normal_form(parse_element(normal, algebra.quiver))
    if got != reference_value(algebra, expr):
        return f"{expression_text(expr)} reduced to {normal}"
    return None


class Reduce(Workload):
    """A seeded stream of ``reduce`` queries; the tail is long powers."""

    trace_rounds = 64

    def setup(self):
        e6.build_pe6()
        e6.build_re6()

    def rounds(self, seed):
        for algebra, expr in reduce_queries(seed):
            # "--" keeps a leading minus from reading as an option
            argv = ["reduce", "--algebra", algebra, "--json", "--", expression_text(expr)]
            yield algebra, expr, argv

    def run(self, query):
        return _call(query[2])

    def operations(self, query):
        return 1

    def check(self, query, output):
        problem = reduce_output_failure(query[0], query[1], output)
        return int(problem is not None), problem


# -- build --------------------------------------------------------------------

# (name, vertex count, edges, Coxeter number h)
DYNKIN = (
    ("E6", 6, ((0, 3), (1, 2), (2, 3), (3, 4), (4, 5)), 12),
    ("D8", 8, ((0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)), 14),
)


def dynkin_preprojective(name, n, edges):
    """Double quiver of a Dynkin diagram and its preprojective relations.

    Edge i becomes arrows ``a<i>: u -> v`` and ``b<i>: v -> u``; the
    relation at a vertex is the sum of the loops there through each
    incident edge (all signs +, which over a tree loses no generality).
    """
    arrows = []
    for i, (u, v) in enumerate(edges):
        arrows += [Arrow(f"a{i}", u, v), Arrow(f"b{i}", v, u)]
    quiver = Quiver(name, range(n), arrows)
    g = generators(quiver)
    relations = []
    for v in range(n):
        loops = [g[f"a{i}"] * g[f"b{i}"] for i, (s, _) in enumerate(edges) if s == v]
        loops += [g[f"b{i}"] * g[f"a{i}"] for i, (_, t) in enumerate(edges) if t == v]
        relation = loops[0]
        for loop in loops[1:]:
            relation = relation + loop
        relations.append(relation)
    return quiver, relations


def hilbert_oracle(n, edges):
    """Graded dimension matrices H_0 .. H_{N-1} of the preprojective algebra.

    H_0 = I, H_1 = C and H_d = C*H_{d-1} - H_{d-2} with C the adjacency
    matrix of the double quiver (Etingof-Eu); N is the first degree where
    H_d vanishes.  H_d[s][t] counts basis paths of length d from s to t.
    """
    adjacency = [[0] * n for _ in range(n)]
    for u, v in edges:
        adjacency[u][v] += 1
        adjacency[v][u] += 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    layers = [identity, adjacency]
    while any(any(row) for row in layers[-1]):
        prev, last = layers[-2], layers[-1]
        layers.append(
            [
                [sum(adjacency[i][k] * last[k][j] for k in range(n)) - prev[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
    return layers[:-1]


def algebra_shape(algebra):
    """Graded dimensions per (degree, source, target), nilpotency, dimension."""
    counts = {}
    for p in algebra.basis:
        key = (len(p), p.source, p.target)
        counts[key] = counts.get(key, 0) + 1
    return counts, algebra.nilpotency_degree, algebra.dimension()


def shape_failure(n, edges, h, shape):
    """None when a built algebra has exactly the oracle's basis, else the problem."""
    counts, nilpotency, dimension = shape
    layers = hilbert_oracle(n, edges)
    total = sum(sum(map(sum, layer)) for layer in layers)
    if len(layers) != h - 1 or total != n * h * (h + 1) // 6:
        return f"oracle: N={len(layers)}, dim={total}, expected h-1={h - 1}, n*h*(h+1)/6"
    if nilpotency != h - 1:
        return f"nilpotency {nilpotency}, expected {h - 1}"
    expected = {
        (d, s, t): layer[s][t]
        for d, layer in enumerate(layers)
        for s in range(n)
        for t in range(n)
        if layer[s][t]
    }
    if counts != expected:
        wrong = sorted(k for k in set(counts) | set(expected) if counts.get(k) != expected.get(k))
        return f"dim {dimension}; graded dims differ at (degree, source, target) {wrong[:3]}"
    return None


class Build(Workload):
    """From-scratch ``build_quotient`` of E6 and D8 on generic Dynkin quivers."""

    def setup(self):
        self.inputs = [
            (name, n, edges, h, *dynkin_preprojective(name, n, edges))
            for name, n, edges, h in DYNKIN
        ]

    def rounds(self, seed):
        # the algebras are fixed; the seed changes nothing
        while True:
            yield self.inputs

    def run(self, inputs):
        # looked up on the module at call time, so the tracer sees it
        return [
            quotient.build_quotient(quiver, relations, name=name)
            for name, _, _, _, quiver, relations in inputs
        ]

    def summarize(self, inputs, output):
        # the tables are large: keep only the shape, so a round's memory
        # is released before the next one starts
        return [algebra_shape(algebra) for algebra in output]

    def operations(self, inputs):
        return len(inputs)

    def check(self, inputs, shapes):
        problems = []
        for (name, n, edges, h, _, _), shape in zip(inputs, shapes):
            problem = shape_failure(n, edges, h, shape)
            if problem:
                problems.append(f"{name}: {problem}")
        return len(problems), "; ".join(problems) or None


WORKLOADS = {"verify": Verify, "sample": Sample, "reduce": Reduce, "build": Build}
