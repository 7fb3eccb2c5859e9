"""Spans and counts at propcf's layer boundaries, applied from outside.

``Tracer.install()`` rebinds every function a propcf module calls into a
layer (its own public functions and the names it imports from the other
modules, e.g. ``propcf.cli.orbit`` and ``propcf.gauss2d.floor_exact``),
plus the operators and constructors of the exact-number types, with
wrappers that time each call.  ``uninstall()`` puts the originals back.
The program itself is not changed.

Each call is a span (name, start, end, parent span, operation id).  A
layer's self time is the span's duration minus the time of the spans
nested in it, accumulated as the spans close.  Spans are kept in memory
and written out at the end of a run; ``exactreal`` calls are too many to
keep one by one, so they count towards the metrics only, and at most
``MAX_SPANS`` of the others are kept.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "pcf", "candidates", "gauss2d", "exactreal")
MAX_SPANS = 100_000

# Spans timed together; a call nested in another of its group counts once.
GROUPS = {
    "cli.parse": ("cli._build_parser", "cli.parse_args", "cli._config_from"),
    "cli.compute": tuple(f"cli.cmd_{c}" for c in (
        "expand", "classify", "simulate", "growth", "yofx", "rational")),
    "cli.emit": ("cli._emit",),
    "gauss2d.orbit": ("gauss2d.orbit",),
    "gauss2d.growth": ("gauss2d.growth_exponent",),
    "candidates.sweep": ("candidates.sweep_rows", "candidates.realizable_as_q2",
                         "candidates.q2_cutoff_check",
                         "candidates.candidate_p_for_q"),
    "candidates.oracle": ("candidates.realizable_as_q2_oracle",),
    "pcf.enumerate": ("pcf.enumerate_rational_expansions",),
    "pcf.expand": ("pcf.expand",),
}

# private cli functions that mark the parse / emit boundary
_CLI_PRIVATE = ("_build_parser", "_config_from", "_emit")

_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__",
              "__pow__", "__lt__", "__le__", "__gt__", "__ge__", "floor",
              "frac")

# the per_layer metrics of BENCHMARK.json, with their units
LAYER_METRICS = {
    "cli.parse_s": "s", "cli.compute_s": "s", "cli.emit_s": "s",
    "cli.out_bytes": "bytes",
    "gauss2d.orbit_s": "s", "gauss2d.growth_s": "s", "gauss2d.steps": "count",
    "gauss2d.steps_per_s": "1/s", "gauss2d.q_bits": "bits",
    "candidates.sweep_s": "s", "candidates.oracle_s": "s",
    "candidates.rows_computed": "count", "candidates.rows_emitted": "count",
    "candidates.useful_ratio": "ratio", "candidates.witnesses": "count",
    "pcf.enumerate_s": "s", "pcf.expand_s": "s", "pcf.expansions": "count",
    "pcf.expansions_per_s": "1/s",
    "exactreal.calls": "count", "exactreal.self_s": "s",
    "exactreal.rational_new": "count", "exactreal.surd_new": "count",
    "exactreal.rational_bits": "bits",
    "trace.overhead": "ratio",
}


class Tracer:
    """Installs the layer wrappers and accumulates spans, times and counts."""

    def __init__(self):
        self.op = -1                    # id of the operation being run
        self.names: list[str] = []      # span name table
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start, end, parent, op]
        self.dropped = 0
        self.self_ns: Counter[str] = Counter()   # per layer
        self.group_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()
        self._group_start: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = self._count_hooks()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"propcf.{layer}")
                   for layer in LAYERS}
        wrapped: dict[tuple[int, str], object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                if home == layer and attr.startswith("_") and not (
                        layer == "cli" and attr in _CLI_PRIVATE):
                    continue
                key = (id(obj), attr)
                if key not in wrapped:
                    wrapped[key] = self.wrap(obj, f"{home}.{obj.__name__}")
                self._patch(module, attr, wrapped[key])

        exact = modules["exactreal"]
        for attr in _OPERATORS:
            self._patch_method(exact.ExactReal, attr)
        self._patch_method(exact.Rational, "__init__", "exactreal.Rational")
        self._patch_method(exact.Rational, "__eq__")
        self._patch_method(exact.Surd, "__eq__")
        new = exact.Surd.__dict__["__new__"]
        self._patch(exact.Surd, "__new__",
                    staticmethod(self.wrap(new.__func__, "exactreal.Surd")))
        self._patch_method(modules["pcf"].ConvergentSeq, "__init__",
                           "pcf.ConvergentSeq")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, name: str | None = None) -> None:
        layer = cls.__module__.rpartition(".")[2]
        fn = cls.__dict__[attr]
        self._patch(cls, attr,
                    self.wrap(fn, name or f"{layer}.{cls.__name__}.{attr}"))

    # -- spans ------------------------------------------------------------

    def wrap(self, fn, name: str):
        """``fn`` timed as a span called ``name`` (layer = first part)."""
        layer = name.partition(".")[0]
        calls = f"{layer}.calls"
        keep = layer != "exactreal"
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = self._hooks.get(name)
        enter, leave, counts = self._enter, self._leave, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name_id, layer, calls, groups, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _enter(self, name_id: int, layer: str, calls: str, groups,
               keep: bool) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        index, stored = parent, False
        if keep:
            if len(self.spans) < MAX_SPANS:
                index, stored = len(self.spans), True
                self.spans.append([name_id, 0, 0, parent, self.op])
            else:
                self.dropped += 1
        now = perf_counter_ns()
        for group in groups:
            if not self._depth[group]:
                self._group_start[group] = now
            self._depth[group] += 1
        if stored:
            self.spans[index][1] = now
        frame = [layer, now, 0, index, groups, stored, calls]
        stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        now = perf_counter_ns()
        layer, start, child_ns, index, groups, stored, calls = frame
        duration = now - start
        self.self_ns[layer] += duration - child_ns
        self.counts[calls] += 1
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += duration
        if stored:
            self.spans[index][2] = now
        for group in groups:
            self._depth[group] -= 1
            if not self._depth[group]:
                self.group_ns[group] += now - self._group_start[group]

    # -- counts -----------------------------------------------------------

    def _count_hooks(self) -> dict:
        def parser_built(counts, args, parser):
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")

        def emitted(counts, args, result):
            doc = args[0]
            if doc.get("command") == "classify":
                counts["candidates.rows_emitted"] += len(doc["rows"])

        def swept(counts, args, rows):
            counts["candidates.rows_computed"] += len(rows)

        def q_row(counts, args, result):
            counts["candidates.rows_computed"] += 1

        def witness(counts, args, result):
            if result is not None:
                counts["candidates.witnesses"] += 1

        def orbit(counts, args, record):
            counts["gauss2d.steps"] += record.steps
            counts["gauss2d.q_bits"] += record.convergents.last()[1].bit_length()

        def enumerated(counts, args, result):
            counts["pcf.expansions"] += len(result)

        def rational(counts, args, result):
            counts["exactreal.rational_new"] += 1
            counts["exactreal.rational_den_bits"] += args[0].den.bit_length()

        def surd(counts, args, result):
            if type(result) is args[0]:
                counts["exactreal.surd_new"] += 1

        return {
            "cli._build_parser": parser_built,
            "cli._emit": emitted,
            "candidates.sweep_rows": swept,
            "candidates.candidate_p_for_q": q_row,
            "candidates.realize_odd": witness,
            "candidates.realizable_as_q2": witness,
            "gauss2d.orbit": orbit,
            "pcf.enumerate_rational_expansions": enumerated,
            "exactreal.Rational": rational,
            "exactreal.Surd": surd,
        }

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Every per-layer metric, per pass over the workload's pool."""
        def per_pass(value):
            return value / passes

        def seconds(group):
            return per_pass(self.group_ns[group] / 1e9)

        def rate(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        c = self.counts
        orbit_s = seconds("gauss2d.orbit")
        enumerate_s = seconds("pcf.enumerate")
        return {
            "cli.parse_s": seconds("cli.parse"),
            "cli.compute_s": seconds("cli.compute"),
            "cli.emit_s": seconds("cli.emit"),
            "cli.out_bytes": per_pass(c["cli.out_bytes"]),
            "gauss2d.orbit_s": orbit_s,
            "gauss2d.growth_s": seconds("gauss2d.growth"),
            "gauss2d.steps": per_pass(c["gauss2d.steps"]),
            "gauss2d.steps_per_s": rate(per_pass(c["gauss2d.steps"]), orbit_s),
            "gauss2d.q_bits": per_pass(c["gauss2d.q_bits"]),
            "candidates.sweep_s": seconds("candidates.sweep"),
            "candidates.oracle_s": seconds("candidates.oracle"),
            "candidates.rows_computed": per_pass(c["candidates.rows_computed"]),
            "candidates.rows_emitted": per_pass(c["candidates.rows_emitted"]),
            "candidates.useful_ratio": rate(c["candidates.rows_emitted"],
                                            c["candidates.rows_computed"]),
            "candidates.witnesses": per_pass(c["candidates.witnesses"]),
            "pcf.enumerate_s": enumerate_s,
            "pcf.expand_s": seconds("pcf.expand"),
            "pcf.expansions": per_pass(c["pcf.expansions"]),
            "pcf.expansions_per_s": rate(per_pass(c["pcf.expansions"]),
                                         enumerate_s),
            "exactreal.calls": per_pass(c["exactreal.calls"]),
            "exactreal.self_s": per_pass(self.self_ns["exactreal"] / 1e9),
            "exactreal.rational_new": per_pass(c["exactreal.rational_new"]),
            "exactreal.surd_new": per_pass(c["exactreal.surd_new"]),
            "exactreal.rational_bits": rate(c["exactreal.rational_den_bits"],
                                            c["exactreal.rational_new"]),
            "trace.overhead": overhead,
        }

    def self_shares(self) -> dict[str, float]:
        """Each layer's share of the self time of all spans."""
        total = sum(self.self_ns.values()) or 1
        return {layer: self.self_ns[layer] / total for layer in LAYERS}

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON: a name table and one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names, "dropped": self.dropped,
                       "spans": self.spans}, fh, separators=(",", ":"))
