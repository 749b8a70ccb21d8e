"""Spans recorded from outside the program, and the arithmetic over them.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span and
step id. :class:`Patcher` swaps a function for a span-recording wrapper at
every place the program looks it up (module globals, including names
imported with ``from x import f``, and class attributes) and puts every
original back on :meth:`Patcher.restore`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

WRAPPED = "__perfbench_wrapped__"


class Tracer:
    """In-memory span recorder for one thread.

    Spans are appended when they open, so a parent's index is always lower
    than its children's. ``step`` is the closed-loop step the benchmark is
    in; the benchmark advances it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.steps: list = []
        self.stack: list = []
        self.step = 0
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.steps.append(self.step)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return mark(wrapper)

    def records(self) -> list:
        """Closed spans as (name, start, end, parent, step) tuples."""
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.steps))


def mark(fn):
    """Tag ``fn`` as a benchmark wrapper, for :func:`leftover_wrappers`."""
    setattr(fn, WRAPPED, True)
    return fn


def self_times(records) -> list:
    """Per-span self time: duration minus the durations of direct children.

    In one thread children nest inside their parent and do not overlap, so
    the children's summed durations are the part of the parent's interval
    that they cover.
    """
    durations = [end - start for _, start, end, _, _ in records]
    out = list(durations)
    for i, (_, _, _, parent, _) in enumerate(records):
        if parent >= 0:
            out[parent] -= durations[i]
    return out


def in_subtree(records, roots) -> list:
    """For each span: whether it, or one of its ancestors, is named in roots."""
    flags = []
    for name, _, _, parent, _ in records:
        flags.append(name in roots or (parent >= 0 and flags[parent]))
    return flags


def totals_by_name(records, values, mask=None) -> dict:
    """Sum ``values`` per span name, over the spans ``mask`` selects."""
    out: dict = defaultdict(float)
    for i, rec in enumerate(records):
        if mask is None or mask[i]:
            out[rec[0]] += values[i]
    return dict(out)


def package_modules(package: str) -> list:
    """(name, module) for every loaded module of ``package``, sorted."""
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == package or name.startswith(package + "."))]


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self):
        self.saved: list = []

    def replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, fn, new, package: str) -> int:
        """Rebind ``fn`` to ``new`` in every loaded module of ``package``.

        Returns how many bindings were replaced.
        """
        count = 0
        for _, module in package_modules(package):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, new)
                    count += 1
        return count

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def leftover_wrappers(package: str, classes=()) -> list:
    """Names in ``package``'s modules and in ``classes`` still bound to a
    span wrapper; empty once every patch is restored."""
    found = []
    owners = [(name, vars(mod)) for name, mod in package_modules(package)]
    owners += [(cls.__qualname__, vars(cls)) for cls in classes]
    for owner_name, namespace in owners:
        for attr, value in namespace.items():
            if getattr(value, WRAPPED, False):
                found.append(f"{owner_name}.{attr}")
    return found
