"""In-memory spans for the traced benchmark run.

A span is one row ``[kind, name, start, end, parent, pass_id, tag]``: kind is
``pass``, ``op`` (one operation the benchmark issues) or ``layer`` (one call
into a public function of a ``mitoclock`` module), parent is the row index of
the enclosing span (-1 at top level) and tag is an optional label, such as a
model family. Rows stay in memory and are written once, at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

KIND, NAME, START, END, PARENT, PASS, TAG = range(7)

# The package modules timed as layers; svg and errors do no work worth timing.
LAYERS = ("cli", "histogram", "growth", "imt_models", "fitter", "inversion", "spectral",
          "simulator")


class Tracer:
    """Span recorder plus the patching that puts spans around layer calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self.pass_id: int | None = None

    def open(self, kind: str, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([kind, name, time.perf_counter(), 0.0, parent, self.pass_id, tag])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(*args, **kwargs) if tagger is not None else None
            row = ["layer", name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, tag]
            spans.append(row)
            stack.append(len(spans) - 1)
            row[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()

        return traced

    def instrument(self, taggers: dict | None = None) -> None:
        """Wrap every public function of each layer where other code reaches it.

        A function defined in layer L is replaced in the ``mitoclock`` package
        namespace and in every other package module that imported it by name.
        It is replaced in L itself only when another module holds L as a
        module object (``spectral.solve_lambda(...)``), because only then do
        cross-layer calls go through L's own attribute. Calls inside a layer
        that are not reached that way stay untraced.
        """
        taggers = taggers or {}
        package = sys.modules["mitoclock"]
        modules = {name: importlib.import_module(f"mitoclock.{name}") for name in LAYERS}
        module_namespaces = [
            module.__dict__ for name, module in sorted(sys.modules.items())
            if name.startswith("mitoclock.")
        ]
        namespaces = [package.__dict__] + module_namespaces
        for layer, module in modules.items():
            held_as_module = any(
                ns.get(layer) is module for ns in module_namespaces if ns is not module.__dict__
            )
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, taggers.get(name))
                for ns in namespaces:
                    if ns.get(attr) is fn and (ns is not module.__dict__ or held_as_module):
                        self._patches.append((ns, attr, fn))
                        ns[attr] = wrapper

    def restore(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            ns[attr] = fn
        self._patches.clear()

    def write(self, path) -> None:
        payload = {"fields": ["kind", "name", "start", "end", "parent", "pass", "tag"],
                   "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class SpanIndex:
    """Read-only queries over finished spans: durations, children, self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for index, row in enumerate(spans):
            self.children.setdefault(row[PARENT], []).append(index)

    def duration(self, index: int) -> float:
        row = self.spans[index]
        return row[END] - row[START]

    def self_time(self, index: int) -> float:
        """Span time minus the time its child spans cover (one thread: children never overlap)."""
        return self.duration(index) - sum(self.duration(c) for c in self.children.get(index, ()))

    def select(self, kind: str, passes, name=None) -> list[int]:
        """Spans of one kind in the given passes, optionally of one name."""
        passes = set(passes)
        return [
            i for i, row in enumerate(self.spans)
            if row[KIND] == kind and row[PASS] in passes and (name is None or row[NAME] == name)
        ]

    def op_of(self, index: int) -> int | None:
        """Nearest enclosing op span, or None."""
        while index != -1:
            if self.spans[index][KIND] == "op":
                return index
            index = self.spans[index][PARENT]
        return None

    def unaccounted_frac(self, pass_index: int) -> float:
        """Share of a pass's wall time that no top-level span inside it covers."""
        covered = sum(self.duration(c) for c in self.children.get(pass_index, ()))
        return 1.0 - covered / self.duration(pass_index)
