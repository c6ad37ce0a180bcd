"""Span tracing of a package's modules, installed from outside the package.

Every public function and every public method (plus `__init__`) of the
classes a module defines is wrapped in a span recorder. A span records its
label, start, end and parent span. Wrappers are bound wherever the original
is bound in the package: on its module, and on every module that imported it
with `from ... import`. Spans stay in memory in flat arrays until the caller
writes them out.
"""

import functools
import inspect
import time
from array import array
from types import FunctionType

NO_PARENT = -1


class SpanRecorder:
    """Flat, append-only span table for one single-threaded process."""

    def __init__(self):
        self.labels = []  # label text per label id: "<module>.<qualname>"
        self.label_module = []  # module name per label id
        self._label_ids = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}  # module -> exceptions that escaped its calls to another module
        self._stack = [NO_PARENT]

    def __len__(self):
        return len(self.label)

    def label_id(self, label, module):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.label_module.append(module)
        return self._label_ids[label]

    def wrap(self, fn, label, module, hook=None):
        """A wrapper of `fn` that records one span per call.

        `hook(arguments, result)` runs after a successful call, outside the
        span, to record a count that depends on arguments or result;
        `arguments` maps parameter names to values, defaults applied.
        """
        lid = self.label_id(label, module)
        rec = self
        clock = time.perf_counter
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(rec.start)
            parent = rec._stack[-1]
            rec.label.append(lid)
            rec.parent.append(parent)
            rec.start.append(clock())
            rec.end.append(0.0)
            rec._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent == NO_PARENT or rec.label_module[rec.label[parent]] != module:
                    rec.errors[module] = rec.errors.get(module, 0) + 1
                raise
            finally:
                rec.end[sid] = clock()
                rec._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return traced


def _is_public(name):
    return not name.startswith("_")


def instrument(modules, recorder, hooks=None):
    """Wrap the public functions and methods of `modules` ({short name: module}).

    `hooks` maps a label such as "cli.write_csv" to a hook for `wrap`; a hook
    whose label names no public function is unused. Returns an undo list
    for `restore`.
    """
    hooks = hooks or {}
    undo = []
    wrapped = {}  # original function -> wrapper
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, FunctionType) and _is_public(name):
                label = f"{short}.{name}"
                wrapped[obj] = recorder.wrap(obj, label, short, hooks.get(label))
            elif isinstance(obj, type):
                for attr, fn in list(vars(obj).items()):
                    if isinstance(fn, FunctionType) and (_is_public(attr) or attr == "__init__"):
                        label = f"{short}.{obj.__name__}.{attr}"
                        setattr(obj, attr, recorder.wrap(fn, label, short, hooks.get(label)))
                        undo.append((obj, attr, fn))
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
                undo.append((mod, name, obj))
    return undo


def restore(undo):
    """Put back every original that `instrument` replaced."""
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def self_times(start, end, parent, first=0):
    """Self time of spans first..len-1: duration minus the union of child
    intervals, each clipped to the parent's interval.

    Spans must be listed in order of start time, as a recorder appends them.
    A parent outside the range counts as no parent.
    """
    n = len(start) - first
    self_s = [end[first + i] - start[first + i] for i in range(n)]
    covered_to = [None] * n  # latest covered instant, per parent
    for i in range(n):
        p = parent[first + i] - first
        if p < 0:
            continue
        lo = max(start[first + i], start[first + p])
        hi = min(end[first + i], end[first + p])
        if covered_to[p] is not None:
            lo = max(lo, covered_to[p])
        if hi > lo:
            self_s[p] -= hi - lo
            covered_to[p] = hi
    return self_s
