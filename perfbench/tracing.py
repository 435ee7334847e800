"""Spans and counters around calls into each ``preproj`` layer.

The tracer wraps public functions by assignment, at the name where the
caller looks them up: ``cli`` imports the ``verify_*`` functions and the
expression helpers by name, so those are wrapped on ``cli``; operators
and methods are wrapped on their class.  Nothing under ``src/`` changes.

Every timed call becomes a span (name, start, end, parent) kept in
memory and written out at the end.  A span's self time is its duration
minus the durations of the spans directly inside it.  Counters that
depend only on the work done (calls, paths, terms, table entries) repeat
exactly for the same inputs.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

from preproj import cli, derivation, e6, freealg, polyring, quiver, quotient

from workloads import NILPOTENCY


class Tracer:
    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time spent in child spans]
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._saved: list[tuple] = []

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` adds counters."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None and result is not NotImplemented:
                after(result, args)
            return result

        return wrapper

    def counted(self, name, fn):
        """Count calls only, for functions too hot and too small to time."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attribute, wrapper):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def write_spans(self, path):
        """Spans as ``[name, start, end, parent index]`` rows, parents first."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": list(self._name_ids),
                    "spans": [
                        [n, s, e, p]
                        for n, s, e, p in zip(
                            self.span_name, self.span_start, self.span_end, self.span_parent
                        )
                    ],
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the package."""
    counts = tracer.counts
    Poly = polyring.Poly
    FreeElement = freealg.FreeElement
    QuotientAlgebra = quotient.QuotientAlgebra

    def after_paths(result, args):
        counts["quiver.enumerate_paths.paths"] += len(result)

    def after_build(algebra, args):
        n = algebra.nilpotency_degree
        table = algebra.reduction
        counts["quotient.table_entries"] += len(table)
        counts["quotient.table_nonempty"] += sum(1 for row in table.values() if row)
        counts["quotient.table_dead"] += sum(1 for p in table if len(p) >= n)

    def after_poly_mul(result, args):
        counts["polyring.mul.terms_out"] += len(result.terms)

    def after_free_mul(result, args):
        if isinstance(args[1], FreeElement):
            n = NILPOTENCY[result.quiver.name]
            counts["freealg.mul.terms_out"] += len(result.terms)
            counts["freealg.mul.terms_ge_N"] += sum(1 for p in result.terms if len(p) >= n)

    def after_normal_form(result, args):
        algebra, element = args[0], args[1]
        n = algebra.nilpotency_degree
        counts["quotient.normal_form.terms_in"] += len(element.terms)
        counts["quotient.normal_form.terms_dropped"] += sum(
            1 for p in element.terms if len(p) >= n or not algebra.reduction.get(p)
        )

    build = tracer.timed("quotient.build_quotient", quotient.build_quotient, after_build)
    tracer.patch(quotient, "build_quotient", build)
    tracer.patch(e6, "build_quotient", build)
    tracer.patch(
        quiver.Quiver,
        "enumerate_paths",
        tracer.timed("quiver.enumerate_paths", quiver.Quiver.enumerate_paths, after_paths),
    )
    for attribute in ("__mul__", "__rmul__"):
        tracer.patch(
            Poly, attribute, tracer.timed("polyring.mul", getattr(Poly, attribute), after_poly_mul)
        )
    for attribute in ("__add__", "__radd__"):
        tracer.patch(Poly, attribute, tracer.timed("polyring.add", getattr(Poly, attribute)))
    for attribute in ("evaluate", "evaluate_mod"):
        tracer.patch(Poly, attribute, tracer.timed("polyring.evaluate", getattr(Poly, attribute)))
    tracer.patch(
        FreeElement,
        "__mul__",
        tracer.timed("freealg.mul", FreeElement.__mul__, after_free_mul),
    )
    tracer.patch(
        freealg.GeneratorMap,
        "__call__",
        tracer.timed("freealg.genmap", freealg.GeneratorMap.__call__),
    )
    tracer.patch(
        QuotientAlgebra,
        "normal_form",
        tracer.timed("quotient.normal_form", QuotientAlgebra.normal_form, after_normal_form),
    )
    tracer.patch(
        QuotientAlgebra,
        "structure_constant",
        tracer.counted("quotient.structure_constant", QuotientAlgebra.structure_constant),
    )
    for name in ("theorem_residuals", "numeric_relation_residuals"):
        tracer.patch(e6, name, tracer.timed(f"e6.{name}", getattr(e6, name)))
    for name in ("verify_lemma", "verify_theorem", "verify_corner_iso", "verify_inverse"):
        tracer.patch(cli, name, tracer.timed(f"e6.{name}", getattr(cli, name)))
    tracer.patch(
        derivation,
        "run_derivation_catalog",
        tracer.timed("derivation.run_derivation_catalog", derivation.run_derivation_catalog),
    )
    tracer.patch(cli, "parse_element", tracer.timed("expr.parse_element", cli.parse_element))
    tracer.patch(cli, "format_element", tracer.timed("expr.format_element", cli.format_element))
    tracer.patch(cli, "run", tracer.timed("cli.run", cli.run))


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    """The per-layer metrics, by the names ``BENCHMARK.json`` lists."""
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    terms_out = counts["freealg.mul.terms_out"]
    useful = terms_out - counts["freealg.mul.terms_ge_N"]
    return {
        "import.s": import_s,
        "quiver.enumerate_paths.calls": calls["quiver.enumerate_paths"],
        "quiver.enumerate_paths.paths": counts["quiver.enumerate_paths.paths"],
        "quiver.enumerate_paths.s": total["quiver.enumerate_paths"],
        "quotient.build_quotient.self_s": own["quotient.build_quotient"],
        "quotient.table_entries": counts["quotient.table_entries"],
        "quotient.table_nonempty": counts["quotient.table_nonempty"],
        "quotient.table_dead": counts["quotient.table_dead"],
        "polyring.mul.calls": calls["polyring.mul"],
        "polyring.mul.s": total["polyring.mul"],
        "polyring.mul.terms_out": counts["polyring.mul.terms_out"],
        "polyring.add.calls": calls["polyring.add"],
        "polyring.add.s": total["polyring.add"],
        "freealg.mul.calls": calls["freealg.mul"],
        "freealg.mul.self_s": own["freealg.mul"],
        "freealg.mul.terms_out": terms_out,
        "freealg.mul.terms_ge_N": counts["freealg.mul.terms_ge_N"],
        # with no products formed, nothing was wasted
        "freealg.useful_ratio": useful / terms_out if terms_out else 1.0,
        "freealg.genmap.calls": calls["freealg.genmap"],
        "freealg.genmap.self_s": own["freealg.genmap"],
        "quotient.normal_form.calls": calls["quotient.normal_form"],
        "quotient.normal_form.terms_in": counts["quotient.normal_form.terms_in"],
        "quotient.normal_form.terms_dropped": counts["quotient.normal_form.terms_dropped"],
        "quotient.normal_form.s": total["quotient.normal_form"],
        "e6.numeric_relation_residuals.calls": calls["e6.numeric_relation_residuals"],
        "e6.numeric_relation_residuals.s": total["e6.numeric_relation_residuals"],
        "polyring.evaluate.calls": calls["polyring.evaluate"],
        "polyring.evaluate.s": total["polyring.evaluate"],
        "quotient.structure_constant.calls": calls["quotient.structure_constant"],
        "e6.theorem_residuals.s": total["e6.theorem_residuals"],
        "e6.verify_lemma.s": total["e6.verify_lemma"],
        "e6.verify_theorem.s": total["e6.verify_theorem"],
        "e6.verify_corner_iso.s": total["e6.verify_corner_iso"],
        "e6.verify_inverse.s": total["e6.verify_inverse"],
        "derivation.run_derivation_catalog.s": total["derivation.run_derivation_catalog"],
        "cli.run.self_s": own["cli.run"],
        "expr.parse_element.self_s": own["expr.parse_element"],
        "expr.format_element.s": total["expr.format_element"],
    }
