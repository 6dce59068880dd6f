"""Span tracer that times objectslam's layers from outside the package.

Hooks replace module attributes (functions) or class attributes (methods)
with wrappers that record a span per call: name, start, end and the index of
the enclosing span. A function is patched in every loaded ``objectslam``
module that holds it, so a call through any import of the name is seen.
Nothing in ``src/`` is edited; uninstalling restores the original objects.

A hook whose target no longer exists is recorded as absent rather than
raising, and the per-layer metrics that depend on it are left out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` ("pkg.module:function" or "pkg.module:Class.method") as ``span``.

    ``on_result(counts, args, result)`` may add to the tracer's counters.
    """

    span: str
    target: str
    on_result: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing hooks ----------------------------------------------------

    def install(self, hooks) -> None:
        for hook in hooks:
            if not self._install_one(hook):
                self.absent.add(hook.span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _install_one(self, hook: Hook) -> bool:
        module_name, _, path = hook.target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or attr not in owner.__dict__:
                return False
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(hook.span, raw.__func__, hook.on_result))
            else:
                new = self.wrap(hook.span, raw, hook.on_result)
            self._patch(owner, attr, new)
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = self.wrap(hook.span, original, hook.on_result)
        package = module_name.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)
        return True

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only), self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if not self._has_ancestor(parent, name):
                entry["s"] += end - start
        return dict(out)

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that ran inside an ``ancestor`` span."""
        return sum(1 for span_name, _, _, parent in self.spans
                   if span_name == name and self._has_ancestor(parent, ancestor))

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
