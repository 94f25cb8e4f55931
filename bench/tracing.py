"""Outside-in tracing of loopschur's layer boundaries.

The package has no instrumentation of its own, so the benchmark wraps the
public entry points of each module where the calling module looks them up:
the verifiers as named in ``cli`` (and in ``verify``, for the grid), the
builders and maps as named in ``verify``, ``enumerate_ssyt`` as named in
``tableaux``, the family enumerators and counters as named in
``involutions``, and the ``Polynomial``/``Monomial``/``SignedTableau`` methods
on their classes.  Every wrapped call is a span; a span's self time is its
duration minus the time of the spans it encloses, so the self times of all
groups add up to the time of the outermost ``cli`` spans.  Generators are
timed per item they yield, and the items are counted.

Aggregates are updated as spans close.  Full span records are kept in memory
only for the coarse groups (a handful per operation), because the per-member
and per-term spans run into the millions.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

SPAN_FIELDS = ("trace", "span", "parent", "name", "start", "end")
# Span records are kept for calls in these groups (not for the items of a
# generator); the rest are aggregated only.
RECORDED = frozenset({
    "cli", "verify", "tableaux.builder", "involutions.signed_sum",
    "involutions.count", "shapes.strips",
})


class Tracer:
    """Span aggregates and coarse span records of one traced round."""

    def __init__(self) -> None:
        # Keyed by group: self time, calls, items yielded or measured, and
        # calls not nested in another call of the same group.
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.outer_calls: dict[str, int] = defaultdict(int)
        # Keyed by function name.
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.name_calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [start, child time, recorded span id or None]
        self._open_ids: list[int] = []
        self._ids = itertools.count()

    def enter(self, group: str, record: bool = True) -> None:
        if self._depth[group] == 0:
            self.outer_calls[group] += 1
        self._depth[group] += 1
        span_id = None
        if record and group in RECORDED:
            span_id = next(self._ids)
            self._open_ids.append(span_id)
        self._stack.append([time.perf_counter(), 0.0, span_id])

    def exit(self, group: str, name: str) -> None:
        end = time.perf_counter()
        start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[group] += duration - child
        self.calls[group] += 1
        self.inclusive_s[name] += duration
        self.name_calls[name] += 1
        self._depth[group] -= 1
        if self._stack:
            self._stack[-1][1] += duration
        if span_id is not None:
            self._open_ids.pop()
            parent = self._open_ids[-1] if self._open_ids else None
            self.spans.append((self.trace_id, span_id, parent, name, start, end))

    def wrap(self, fn, group: str, name: str, measure=None):
        """A traced stand-in for ``fn``; ``measure(args, result)`` adds to its item count."""
        def traced(*args, **kwargs):
            self.enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(group, name)
            if measure is not None:
                self.items[group] += measure(args, result)
            return result
        return traced

    def wrap_generator(self, fn, group: str, name: str):
        """A traced stand-in for a generator function: one span per yielded item."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self.enter(group, record=False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit(group, name)
                    self.items[group] += 1
                    yield item
            finally:
                inner.close()
        return traced


def install(tracer: Tracer):
    """Patch loopschur's layer boundaries; returns the traced ``cli.main``."""
    from loopschur import cli, involutions, polyring, tableaux, verify

    def patch(modules, attr, group, measure=None, generator=False):
        original = getattr(modules[0], attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{attr}"
        if generator:
            traced = tracer.wrap_generator(original, group, name)
        else:
            traced = tracer.wrap(original, group, name, measure)
        for module in modules:
            setattr(module, attr, traced)

    for attr in ("verify_murnaghan_nakayama", "verify_degree_bound", "verify_expansion",
                 "check_involution", "check_specialization", "run_grid"):
        patch((cli, verify), attr, "verify")
    for attr in ("loop_schur", "shifted_loop_schur", "loop_power_sum"):
        patch((cli, verify), attr, "tableaux.builder")
    patch((verify,), "staircase_monomial", "tableaux.builder")
    patch((tableaux,), "enumerate_ssyt", "tableaux.builder", generator=True)
    patch((cli, verify), "enumerate_border_strips", "shapes.strips",
          measure=lambda args, result: len(result))
    patch((cli,), "serialize", "polyring.serialize")
    for attr in ("enumerate_staircase_tableaux", "enumerate_augmented_tableaux"):
        patch((verify, involutions), attr, "involutions.enumerate", generator=True)
    for attr in ("count_staircase_tableaux", "count_augmented_tableaux"):
        patch((involutions,), attr, "involutions.count")
    for attr in ("sample_staircase_tableau", "sample_augmented_tableau"):
        patch((verify,), attr, "involutions.sample")
    for attr in ("staircase_signed_sum", "augmented_signed_sum"):
        patch((verify,), attr, "involutions.signed_sum")
    for attr in ("i1", "i2", "i3", "i4", "extract_power_sum_factor", "insert_power_sum_factor",
                 "slide_to_border_strip", "slide_from_border_strip", "i2_is_fixed",
                 "in_low_family", "is_column_strict", "staircase_entries_standard"):
        patch((verify,), attr, "involutions.map")

    Poly, Mono = polyring.Polynomial, polyring.Monomial
    Poly.__mul__ = tracer.wrap(Poly.__mul__, "polyring.mul", "Polynomial.__mul__",
                               measure=lambda args, result: len(args[0]) * len(args[1]))
    Poly.__add__ = tracer.wrap(Poly.__add__, "polyring.addsub", "Polynomial.__add__")
    Poly.__sub__ = tracer.wrap(Poly.__sub__, "polyring.addsub", "Polynomial.__sub__")
    for attr in ("from_variables", "from_exponents"):
        setattr(Mono, attr, staticmethod(
            tracer.wrap(getattr(Mono, attr), "polyring.monomial", f"Monomial.{attr}")))
    involutions.SignedTableau.monomial = tracer.wrap(
        involutions.SignedTableau.monomial, "tableaux.weight", "SignedTableau.monomial")

    return tracer.wrap(cli.main, "cli", "cli.main")
