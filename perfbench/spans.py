"""Span tracing of biorth calls, installed from the benchmark's side.

`Patch` swaps a list of functions and methods of the biorth package for
wrappers that open a span on a `Recorder` around each call, and puts every
original back on exit. Nothing under `src/` knows about it. A module-level
function is replaced in every biorth module that holds it, because modules
import each other's functions by name (`from .linalg import svd`).

A span has a name, start, end and the index of the span that caused it.
A call into a span name that is already the innermost open span (for
example `PenaltyProblem.cost_grad` calling `NearestPairProblem.cost_grad`)
is folded into that span, so a layer's call count is the number of times
it was entered from outside.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

WRAPPED_FLAG = "_perfbench_original"
PACKAGE = "biorth"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into Recorder.spans, -1 at top level
    failed: bool = False
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (name, enclosing span name) -> calls
        self._stack: list[int] = []
        self._clock = clock

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def open(self, name: str) -> int | None:
        """Open a span; None when it folds into an enclosing span of that name."""
        if self.innermost() == name:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = self._clock()
        span.failed = failed

    def count(self, name: str) -> None:
        self.counts[(name, self.innermost())] += 1


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    failed: int = 0
    nbytes: int = 0


def totals(spans: list[Span]) -> dict[str, SpanTotals]:
    """Per span name: calls, summed self and inclusive time, failures, bytes."""
    out: dict[str, SpanTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, SpanTotals())
        t.calls += 1
        t.self_s += own
        t.total_s += span.duration
        t.failed += span.failed
        t.nbytes += span.nbytes
    return out


@dataclass(frozen=True)
class Target:
    """One function to wrap: `attr` is `func` or `Class.method` in `module`.

    kind "span" times the call; kind "count" only counts it, keyed by the
    enclosing span. `nbytes` names the positional argument holding a file
    path whose size is recorded on the span after the call.
    """

    name: str
    module: str
    attr: str
    kind: str = "span"
    nbytes: int | None = None


def _resolve(target: Target):
    module = importlib.import_module(target.module)
    owner = module
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if isinstance(owner, type):
        original = owner.__dict__.get(leaf)
    else:
        original = getattr(owner, leaf, None)
    if not callable(original):
        return None, None
    return owner, original


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _make_wrapper(fn, target: Target, rec: Recorder):
    name = target.name
    if target.kind == "count":
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.count(name)
            return fn(*args, **kwargs)
        setattr(counted, WRAPPED_FLAG, fn)
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        if idx is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, failed=True)
            raise
        rec.close(idx)
        if target.nbytes is not None and len(args) > target.nbytes:
            rec.spans[idx].nbytes = os.path.getsize(args[target.nbytes])
        return result

    setattr(traced, WRAPPED_FLAG, fn)
    return traced


class Patch:
    """Context manager that wraps `targets` on entry and restores them on exit.

    Targets that do not exist in the code under test are skipped and listed
    in `missing`, so the benchmark keeps running when a function is removed.
    """

    def __init__(self, recorder: Recorder, targets):
        self.recorder = recorder
        self.targets = tuple(targets)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self, target: Target):
        owner, original = _resolve(target)
        if original is None:
            self.missing.append(f"{target.module}.{target.attr}")
            return
        wrapper = _make_wrapper(original, target, self.recorder)
        leaf = target.attr.rsplit(".", 1)[-1]
        if isinstance(owner, type):
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def find_wrapped() -> list[str]:
    """Names of every attribute of the package's modules and classes that is
    still a benchmark wrapper; empty when all originals are back."""
    found = []
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if callable(value) and hasattr(value, WRAPPED_FLAG):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPED_FLAG):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found
