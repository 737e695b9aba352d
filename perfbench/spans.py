"""Spans and work counters recorded from outside the program.

A `Tracer` replaces chosen public functions of the package by wrappers,
both in the module that defines them and in every module that imported
the name, so calls between layers are seen too.  Each wrapped call records
a span (name, start, end, parent span, op id, label); some also add to
counters.  Spans stay in memory until `write` saves them once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, label]
        self.counts: Counter = Counter()
        self.op = None  # op id given to spans opened from now on
        self._stack: list[int] = []
        self._counted_names: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn, count, label):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None, stack[-1] if stack else None,
                      self.op, None]
            stack.append(len(spans))
            spans.append(record)
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(result):
                    counts[key] += value
            if label is not None:
                record[5] = label(*args, **kwargs)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        calls = name + ".calls"
        self._counted_names.add(calls)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str, targets) -> None:
        """Wrap each target `(module, attr, kind, count, label)`.

        kind is "span" or "count"; `count(result)` yields (counter, amount)
        pairs and `label(*args, **kwargs)` names the span.  Every module of
        `package` that holds the original function gets the wrapper.
        """
        holders = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for module, attr, kind, count, label in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            if kind == "span":
                wrapper = self._spanned(name, original, count, label)
            else:
                wrapper = self._counted(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def overhead_s(self, probes: int = 50_000) -> float:
        """Time the wrappers added to the traced run: each recorded span and
        each counted call, times the measured extra cost of one wrapped call
        of a function that does nothing.  Subtracting two timed passes would
        bury this under run-to-run noise."""
        def nothing():
            return None

        probe = Tracer()
        cost = {}
        for kind, fn in (("plain", nothing), ("span", probe._spanned("probe", nothing, None, None)),
                         ("count", probe._counted("probe", nothing))):
            t0 = perf_counter()
            for _ in range(probes):
                fn()
            cost[kind] = (perf_counter() - t0) / probes
        counted = sum(self.counts[name] for name in self._counted_names)
        return (len(self.spans) * (cost["span"] - cost["plain"])
                + counted * (cost["count"] - cost["plain"]))

    def write(self, path, **extra) -> None:
        keys = ("name", "start", "end", "parent", "op", "label")
        doc = dict(extra, counts=dict(self.counts),
                   spans=[dict(zip(keys, s)) for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
