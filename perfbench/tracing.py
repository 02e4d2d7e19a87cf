"""In-memory span tracing installed from outside the program.

A :class:`Tracer` replaces selected public functions and methods of
``repro`` with wrappers that record one span per call: name, start, end,
parent span, trace id (the job the call belongs to), thread and a work
count.  Nothing in ``src/`` knows about it.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Each wrapper is installed where callers look the function up: a method on
its class, and a module-level function in its defining module *and* in
every loaded ``repro`` module that imported it by name (``from x import
f`` binds a second reference that patching ``x.f`` alone would miss).
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``where`` is ``"module"`` or ``"module:Class"``; ``attr`` the function
    or method name; ``span`` the recorded span name.  ``units`` maps
    ``(args, kwargs, result)`` to a work count for the span (default 1).
    """

    where: str
    attr: str
    span: str
    units: Callable | None = None


class Tracer:
    """Records spans from wrapped callables; thread-safe, in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace_id: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on a count is atomic
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, units=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        trace_id = self.trace_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        count = 1 if units is None else units(args, kwargs, result)
        self.spans.append({
            "id": span_id, "parent": parent, "name": name, "trace": trace_id,
            "thread": threading.get_ident(), "start": start, "end": end,
            "units": count,
        })
        return result

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _wrapper(self, original, target: Target):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(target.span, original, args, kwargs, target.units)

        self._wrapped[id(traced)] = (traced, original)
        return traced

    def install(self, targets) -> None:
        """Wrap every target where its callers look it up."""
        for target in targets:
            module_name, _, class_name = target.where.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[target.attr]
                self._patch(owner, target.attr, original, self._wrapper(original, target))
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrapper(original, target)
            for loaded in _repro_modules():
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object.

        A module imported while the wrappers were installed may have bound
        a wrapper by name; those references are found and restored too.
        """
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                wrapper, original = self._wrapped.get(id(value), (None, None))
                if value is wrapper:
                    setattr(module, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its children cover."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = {}
        for span in self.spans:
            covered = _union_length(
                (max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in children.get(span["id"], ())
            )
            out[span["id"]] = (span["end"] - span["start"]) - covered
        return out

    def busy(self, names, traces: tuple[str, ...] | None = None) -> tuple[float, int, int]:
        """(busy seconds, calls, units) of the spans called ``names``.

        ``names`` is one span name or a tuple of them; ``traces`` keeps only
        spans whose trace id starts with one of the given prefixes.  Busy
        time is the union of the spans' intervals per thread, so nested or
        re-entrant calls are not counted twice.
        """
        names = (names,) if isinstance(names, str) else tuple(names)
        selected = [
            s for s in self.spans
            if s["name"] in names
            and (traces is None or (s["trace"] or "").startswith(traces))
        ]
        by_thread: dict[int, list] = {}
        for span in selected:
            by_thread.setdefault(span["thread"], []).append((span["start"], span["end"]))
        seconds = sum(_union_length(iv) for iv in by_thread.values())
        return seconds, len(selected), sum(s["units"] for s in selected)

    def dump(self, path) -> None:
        """Write every span, with its self time, as one JSON document."""
        self_times = self.self_times()
        spans = [dict(s, self=self_times[s["id"]]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
