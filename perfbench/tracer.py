"""Outside-in span tracing of the anchorinv package.

The tracer does not edit the package.  It replaces a function with a timing
wrapper at every name a caller resolves it through: each ``anchorinv``
module binds names such as ``embed_batch`` or ``invert_set`` at import time,
so patching only the defining module would miss those calls.  Methods are
patched on their class.  ``uninstall`` restores every original binding.

Each span records its label, start, end, parent span and scope (an op index,
or a negative set-up index).  Spans stay in memory until the run ends; self
time is derived from them afterwards, so the wrappers only read the clock.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

_FIELDS = 6  # label, start, end, parent, scope, outermost-of-its-label
_ONE_NODE = {"autodiff.primitive.calls": 1}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "anchorinv" or name.startswith("anchorinv."))]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every module-level name in the package that is bound to
    ``original`` at ``replacement``; returns what to restore."""
    undo = []
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    if not undo:
        raise LookupError(f"{getattr(original, '__qualname__', original)!r} is bound "
                          f"nowhere in the package")
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    """A call argument by position or keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Capture:
    """Keeps the return values of one function at every call site, traced or
    not, so outputs the public API does not hand back (the replay sets made
    inside ``run_trials``) can still be checked."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.results: list = []
        self._undo: list = []

    def install(self) -> None:
        original = getattr(self.module, self.attr)
        results = self.results

        @functools.wraps(original)
        def keep(*args, **kwargs):
            out = original(*args, **kwargs)
            results.append(out)
            return out

        self._undo = rebind(original, keep)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def take(self) -> list:
        out = list(self.results)
        self.results.clear()
        return out


@dataclass
class Target:
    """One traced function: where it is defined, the span label (a string,
    or a function of the call arguments), and an optional function of
    (args, kwargs, result) returning counters to add to the scope."""

    owner: object
    attr: str
    label: object
    counters: Callable | None = None


class Tracer:
    """Records spans for ``targets`` while installed, and counts the graph
    nodes made through ``node_owner.node_attr``."""

    def __init__(self, targets: list[Target], node_owner=None, node_attr: str = ""):
        self.targets = targets
        self.node_owner, self.node_attr = node_owner, node_attr
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.spans = array("d")
        self.counters: dict[int, dict[str, float]] = {}
        self.scope: int | None = None
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        undo = []
        try:
            for target in self.targets:
                original = getattr(target.owner, target.attr)
                wrapper = self._wrap(original, target.label, target.counters)
                if isinstance(target.owner, type):
                    setattr(target.owner, target.attr, wrapper)
                    undo.append((target.owner, target.attr, original))
                else:
                    undo.extend(rebind(original, wrapper))
            if self.node_owner is not None:
                original = getattr(self.node_owner, self.node_attr)
                undo.extend(rebind(original, self._count_nodes(original)))
        except BaseException:
            restore(undo)
            raise
        self._undo = undo

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _wrap(self, fn, label, counters):
        tracer = self
        static = self.label_id(label) if isinstance(label, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            scope = tracer.scope
            if scope is None:
                return fn(*args, **kwargs)
            lid = static if static is not None else tracer.label_id(label(args, kwargs))
            idx = tracer.enter(lid, scope)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx, lid)
            if counters is not None:
                tracer.add(scope, counters(args, kwargs, result))
            return result

        return traced

    def _count_nodes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.scope is not None:
                tracer.add(tracer.scope, _ONE_NODE)
            return fn(*args, **kwargs)

        return counted

    # -- recording -----------------------------------------------------------

    def enter(self, lid: int, scope: int) -> int:
        depth = self._open.get(lid, 0)
        self._open[lid] = depth + 1
        idx = len(self.spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.extend((lid, time.perf_counter(), 0.0, parent, scope,
                           1.0 if depth == 0 else 0.0))
        return idx

    def leave(self, idx: int, lid: int) -> None:
        self.spans[idx * _FIELDS + 2] = time.perf_counter()
        self._stack.pop()
        self._open[lid] -= 1

    def add(self, scope: int, values: dict[str, float]) -> None:
        bucket = self.counters.setdefault(scope, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    @contextmanager
    def root(self, label: str, scope: int):
        """Record the body as the span that encloses one op or one set-up."""
        lid = self.label_id(label)
        self.scope = scope
        idx = self.enter(lid, scope)
        try:
            yield
        finally:
            self.leave(idx, lid)
            self.scope = None

    # -- analysis --------------------------------------------------------------

    def tables(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per scope and label: span count, inclusive seconds (outermost span
        of the label only, so recursion is not counted twice) and self
        seconds (duration minus the time covered by direct children)."""
        rows = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, _FIELDS)
        if rows.size == 0:
            return {}
        label, start, end, parent, scope, outer = rows.T
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent].astype(np.int64), weights=dur[has_parent],
                            minlength=len(rows))
        self_time = dur - child
        out: dict[int, dict[str, dict[str, float]]] = {}
        keys = np.stack([scope, label], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        calls = np.bincount(inverse, minlength=len(uniq))
        incl = np.bincount(inverse, weights=dur * outer, minlength=len(uniq))
        selfs = np.bincount(inverse, weights=self_time, minlength=len(uniq))
        for i, (s, lid) in enumerate(uniq):
            out.setdefault(int(s), {})[self.labels[int(lid)]] = {
                "calls": float(calls[i]), "incl_s": float(incl[i]), "self_s": float(selfs[i])}
        return out
