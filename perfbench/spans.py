"""Spans recorded around the public functions of each ``agres`` layer.

The benchmark wraps functions from its own code: each wrapped name is
rebound in every ``agres`` module that holds it, so calls made through a
``from .x import f`` binding (``solve_r -> eigen_solve``,
``approx -> network.trace``) are caught without editing the package.
Spans are kept in memory and reduced to self times when the round ends.
The workloads are single-threaded, so one span stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("exact", "geometry", "renorm", "network", "approx", "converge", "cli")

# Span names that differ from the wrapped function's own name.
ALIASES = {
    "renorm.enumerate_preserved_relations": "renorm.relations",
    "converge.convergence_report": "converge.report",
}
# Methods wrapped in place on their class, with their span names.
METHODS = (
    ("approx", "LevelGeometry", "__init__", "approx.level_geometry"),
    ("approx", "EdgeTraceTower", "refine", "approx.tower_refine"),
)
# Fine-grained calls inside one layer: counted, not spanned, so that their
# time stays in the calling geometry span.
COUNTED = {"geometry.point_in_attractor": "geometry.membership_tests"}
NO_HOOK = (None, None)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, number of spans).

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        acc = out[name]
        acc[0] += (end - start) - covered
        acc[1] += 1
    return {name: (acc[0], acc[1]) for name, acc in out.items()}


def _rebind(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "agres" or name.startswith("agres.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _spanned(tracer: Tracer, name: str, fn, hook):
    before, after = hook

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer.counters, args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counters, args, result)
        return result
    return wrapper


def _counted(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def public_functions():
    """(span name, module, attribute) for every function the package exports, plus cli.main."""
    import agres
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"agres.{layer}")
        names = ["main"] if layer == "cli" else sorted(
            n for n in dir(agres) if not n.startswith("_"))
        for attr in names:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                full = f"{layer}.{attr}"
                found.append((ALIASES.get(full, full), mod, attr))
    return found


def install(tracer: Tracer, hooks: dict, only=None) -> None:
    """Wrap the public functions (or just the span names in ``only``) of every layer.

    ``hooks`` maps a span name to ``(before, after)``: callables, or None,
    run as ``before(counters, args, kwargs)`` and ``after(counters, args,
    result)`` around the wrapped call.
    """
    for name, mod, attr in public_functions():
        if only is not None and name not in only:
            continue
        fn = getattr(mod, attr)
        if name in COUNTED:
            wrapped = _counted(tracer, COUNTED[name], fn)
        else:
            wrapped = _spanned(tracer, name, fn, hooks.get(name, NO_HOOK))
        _rebind(fn, wrapped)
    for layer, cls_name, meth, name in METHODS:
        if only is not None and name not in only:
            continue
        cls = getattr(importlib.import_module(f"agres.{layer}"), cls_name)
        setattr(cls, meth, _spanned(tracer, name, getattr(cls, meth), hooks.get(name, NO_HOOK)))
