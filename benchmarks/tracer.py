"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``gaussqfi`` modules from outside:
every binding of a target function object found in a ``gaussqfi.*`` module
namespace or in a class dictionary of those modules is replaced by a wrapper,
matched by object identity.  Calls that go through a module-level import
(``williamson`` inside ``dgamma_pseudoinverse_apply``, say) are therefore
seen, wherever a later refactor moves the import.  The package source is not
touched, and :meth:`Tracer.uninstall` restores every binding.

Each call records one span ``(id, parent id, name, start, end, exception
name, operation id, annotation)``.  Span stacks are kept per
thread, since ``sweep --jobs 2`` evaluates points on pool threads.  Spans
stay in memory; self time and call counts are derived from them once the
traced phase ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

PACKAGE = "gaussqfi"
# The layer modules, in the package's dependency order.
LAYERS = ("symplectic", "dgamma", "models", "estimation", "homodyne", "fock", "cli")


def _bound_arguments(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _build_state_note(fn: Callable, args: tuple, kwargs: dict) -> float:
    """Size in MB of one dense ``(cutoff + pad)^n`` square complex matrix."""
    a = _bound_arguments(fn, args, kwargs)
    side = (a["cutoff"] + a["pad"]) ** a["point"].n
    return side * side * 16 / 1e6


def _sweep_rows_note(fn: Callable, args: tuple, kwargs: dict) -> int:
    return int(_bound_arguments(fn, args, kwargs)["jobs"])


# Extra data recorded with a span, keyed by "layer.qualname".
ANNOTATIONS: dict[str, Callable] = {
    "fock.build_state": _build_state_note,
    "cli.sweep_rows": _sweep_rows_note,
}


def public_targets() -> dict[str, Callable]:
    """Every public function of each layer module, keyed ``layer.qualname``.

    Covers the functions a module lists in ``__all__`` and the public methods
    of the classes it lists there.
    """
    targets: dict[str, Callable] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets[f"{layer}.{name}"] = obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        targets[f"{layer}.{name}.{attr}"] = member
    return targets


class Tracer:
    """Records spans around the target functions while installed."""

    def __init__(self, targets: dict[str, Callable]):
        self.targets = targets
        self.spans: list[tuple] = []
        self.op_id = -1  # set by the benchmark loop before each operation
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = ANNOTATIONS.get(name)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            extra = note(fn, args, kwargs) if note is not None else None
            stack.append(sid)
            exc_name = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, exc_name, self.op_id, extra))

        return wrapper

    def install(self) -> None:
        """Replace every binding of every target by its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets.items()}
        originals = {id(fn): fn for fn in self.targets.values()}
        namespaces: list[object] = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespaces.append(mod)
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                    namespaces.append(obj)
        for ns in dict.fromkeys(namespaces):  # classes re-exported twice appear once
            for attr, value in list(vars(ns).items()):
                key = id(value)
                if key in wrappers and originals[key] is value:
                    setattr(ns, attr, wrappers[key])
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per-function call count, self seconds, exceptions, annotations.

    Self time is a span's duration minus the durations of its direct
    children on the same thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "raised": defaultdict(int), "notes": [],
                 "calls_by_op": defaultdict(int)}
    )
    for sid, _parent, name, start, end, exc, op, note in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += end - start - child_time.get(sid, 0.0)
        rec["calls_by_op"][op] += 1
        if exc is not None:
            rec["raised"][exc] += 1
        if note is not None:
            rec["notes"].append((op, note, end - start))
    return out
