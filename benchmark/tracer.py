"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``rauzy`` modules from outside the
package, so no source file changes.  A module that did ``from .x import f``
holds its own reference to ``f``; patching only ``rauzy.x.f`` would miss
every call made through that reference.  :meth:`Tracer.install` therefore
replaces every binding of each target function in every loaded ``rauzy``
module, which is the name each caller actually looks up.

Each call becomes one span ``(name, start, end, parent, item)``.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
time its direct child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  A target missing from the package is
# skipped, so a later refactor that removes a function reads as zero calls.
TARGETS = (
    ("rauzy.combinat", "is_irreducible", "combinat.is_irreducible"),
    ("rauzy.classes", "enumerate_irreducible", "combinat.enumerate"),
    ("rauzy.suspension", "has_suspension", "suspension.has_suspension"),
    ("rauzy.linprog", "feasible", "linprog.feasible"),
    ("rauzy.linprog", "solve", "linprog.solve"),
    ("rauzy.suspension", "find_suspension", "suspension.find"),
    ("rauzy.suspension", "build_polygon", "suspension.build_polygon"),
    ("rauzy.suspension", "geometric_profile", "suspension.geometric_profile"),
    ("rauzy.suspension", "random_suspension", "suspension.random"),
    ("rauzy.induction", "rv_step", "induction.rv_step"),
    ("rauzy.classes", "rauzy_class", "classes.bfs"),
    ("rauzy.invariants", "stratum", "invariants.stratum"),
    ("rauzy.invariants", "label_for_class", "invariants.label"),
    ("rauzy.invariants", "spin_parity", "invariants.spin"),
    ("rauzy.cli", "main", "cli.main"),
)


def _note_irreducible(counts, args, result):
    counts["combinat.irreducible"] += bool(result)


def _note_class(counts, args, result):
    counts["classes.vertices"] += len(result)
    counts["classes.edges"] += result.edge_count()


def _note_label(counts, args, result):
    counts["invariants.label_vertices"] += len(args[0])


NOTES = {
    "combinat.is_irreducible": _note_irreducible,
    "classes.bfs": _note_class,
    "invariants.label": _note_label,
}


class Tracer:
    """Records spans and counts for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        for modname, attr, name in TARGETS:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(name, original)
            for modname2, module in list(sys.modules.items()):
                if modname2 != "rauzy" and not modname2.startswith("rauzy."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        note = NOTES.get(name)

        def open_span() -> tuple[int, int]:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            return index, parent

        def close_span(index: int, parent: int, start: float) -> None:
            spans[index] = (name, start, perf_counter(), parent, self.item)
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the generator's own work between yields.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index, parent = open_span()
                    start = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(index, parent, start)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = open_span()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                close_span(index, parent, start)
            if note is not None:
                note(counts, args, result)
            return result

        return wrapper

    def totals(self) -> tuple[Counter, dict, dict]:
        """Calls, inclusive seconds and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[index]
        return calls, total, own

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, except ``trace.overhead_s``."""
        calls, total, own = self.totals()
        counts = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        irreducible_calls = calls["combinat.is_irreducible"]
        has_calls = calls["suspension.has_suspension"]
        bfs_self = own["classes.bfs"]
        return {
            "combinat.is_irreducible_calls": irreducible_calls,
            "combinat.is_irreducible_s": total["combinat.is_irreducible"],
            "combinat.irreducible_yield": ratio(
                counts["combinat.irreducible"], irreducible_calls
            ),
            "combinat.enumerate_self_s": own["combinat.enumerate"],
            "linprog.feasible_calls": calls["linprog.feasible"],
            "linprog.feasible_s": total["linprog.feasible"],
            "linprog.solve_calls": calls["linprog.solve"],
            "linprog.solve_s": total["linprog.solve"],
            "suspension.has_suspension_calls": has_calls,
            "suspension.lp_share": ratio(calls["linprog.feasible"], has_calls),
            "suspension.find_s": total["suspension.find"],
            "suspension.polygon_s": total["suspension.build_polygon"]
            + total["suspension.geometric_profile"],
            "suspension.random_s": total["suspension.random"],
            "induction.rv_steps": calls["induction.rv_step"]
            - sum(
                n
                for key, n in counts.items()
                if key.startswith("induction.rv_step.raised.")
            ),
            "induction.rv_step_s": total["induction.rv_step"],
            "induction.halts": counts["induction.rv_step.raised.InductionHalt"],
            "classes.bfs_calls": calls["classes.bfs"],
            "classes.bfs_vertices": counts["classes.vertices"],
            "classes.bfs_edges": counts["classes.edges"],
            "classes.bfs_s": bfs_self,
            "classes.bfs_vertices_per_s": ratio(counts["classes.vertices"], bfs_self),
            "invariants.stratum_calls": calls["invariants.stratum"],
            "invariants.stratum_s": total["invariants.stratum"],
            "invariants.label_calls": calls["invariants.label"],
            "invariants.label_vertices": counts["invariants.label_vertices"],
            "invariants.label_self_s": own["invariants.label"],
            "invariants.spin_calls": calls["invariants.spin"],
            "invariants.spin_s": total["invariants.spin"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": own["cli.main"],
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\titem\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
