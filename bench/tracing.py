"""Spans and counters around the package's public functions, from outside.

``Tracer.install()`` replaces each public function of the layer modules by
a wrapper in every module namespace that binds it (``fan`` binds
``smith_normal_form`` through ``from .lattice import``, ``lattice`` calls it
as a module global), plus a fixed list of methods.  ``uninstall()`` puts
the originals back.  Spans are kept in memory; ``aggregate()`` folds one
pass into per-function calls, inclusive seconds and self seconds (duration
minus the time covered by child spans).
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "kummer_kulikov"
LAYERS = ("lattice", "degeneration", "fan", "complexes", "monodromy", "cli")

# Methods that get spans, by (module, class, method).
SPAN_METHODS = (
    ("fan", "PeriodicTriangulation", "with_lattice"),
    ("monodromy", "RationalOperator", "is_unipotent"),
    ("monodromy", "RationalOperator", "char_poly"),
)
# Called once per inner-loop step: a span each would cost more than the
# work it times, so these only count calls.  Their time stays in the
# caller's self time (a_value and pairing_matrix in validate.self_s).
COUNTED_FUNCTIONS = {"degeneration.a_value", "fan.hulls_intersect"}
COUNTED_METHODS = (
    ("lattice", "IntMatrix", "mul"),
    ("lattice", "IntMatrix", "det"),
    ("degeneration", "DegenerationData", "pairing_matrix"),
    ("monodromy", "RationalOperator", "__mul__"),
)
# The CLI's public surface is its entry point; the command handlers and
# argparse run inside cli.main's self time.
CLI_FUNCTIONS = ("main",)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                        for name in LAYERS}
        self.spans: list = []      # (name, item, start, end, parent index)
        self.stack: list[int] = []
        self.item = None
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._hooks = self._result_hooks()
        self._build_patches()

    # -- wrappers ------------------------------------------------------------------

    def _span(self, fn):
        name = _span_name(fn)
        spans, stack, errors = self.spans, self.stack, self.errors
        on_result = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, self.item, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        counts, key = self.counts, f"{_span_name(fn)}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _result_hooks(self):
        counts = self.counts

        def developed(tri):
            counts["fan.classes_developed"] += len(tri.simplices)

        def scaled(result):
            counts["fan.auto_scale.nu_tried"] += result[0]  # ν = 1, 2, ... tried in turn

        return {"fan.PeriodicTriangulation.with_lattice": developed,
                "fan.auto_scale": scaled}

    def _build_patches(self) -> None:
        wrapped: dict[int, object] = {}
        for layer, mod in self.modules.items():
            names = CLI_FUNCTIONS if layer == "cli" else [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__]
            for fn in (getattr(mod, n) for n in names):
                counted = _span_name(fn) in COUNTED_FUNCTIONS
                wrapped[id(fn)] = self._counter(fn) if counted else self._span(fn)
        # Every namespace that binds one of these functions gets the wrapper.
        for mod in [importlib.import_module(PACKAGE), *self.modules.values()]:
            for n, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, n, obj, wrapped[id(obj)]))
        for methods, make in ((SPAN_METHODS, self._span), (COUNTED_METHODS, self._counter)):
            for layer, cls_name, meth in methods:
                cls = getattr(self.modules[layer], cls_name)
                fn = vars(cls)[meth]
                self._patches.append((cls, meth, fn, make(fn)))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- aggregation ---------------------------------------------------------------

    def take_pass(self) -> tuple[list, Counter, Counter]:
        """Hand over the spans and counters of the pass just run and reset."""
        out = (self.spans[:], self.counts.copy(), self.errors.copy())
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()
        return out

    @staticmethod
    def aggregate(spans: list) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds, self seconds."""
        child = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, _, start, end, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[index]
        return dict(out)
