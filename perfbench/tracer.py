"""Spans around the calls into each cyclotope module, recorded from outside.

install() wraps the public functions of every layer module, and the
__init__ and public methods of its public classes, then replaces every
binding of the originals that any cyclotope module holds (module globals
and the dicts and tuples kept in them, such as cli._METHODS and
verification._SWEEPS).  uninstall() puts the originals back.

A span records its op id, its own id, its parent's id, name and layer, and
start and end times.  Spans stay in memory until the caller writes them out.
A layer's self time is the duration of its spans minus the part of that
interval their child spans cover.  Spans started on a worker thread of the
enumeration pool take the span open on the main thread as their parent, so
the main thread's wait for the pool counts as covered by its children.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

LAYERS = {
    "cli": ("cyclotope.cli",),
    "topes": ("cyclotope.topes",),
    "decomposition": ("cyclotope.decomposition",),
    "backend": ("cyclotope.backend", "cyclotope._kernels_py", "cyclotope._kernels"),
    "equinumerosity": ("cyclotope.equinumerosity",),
    "counting": ("cyclotope.counting",),
    "verification": ("cyclotope.verification",),
    "oracle": ("cyclotope.oracle",),
    "cycle": ("cyclotope.cycle",),
}

# Per-element helpers stay unwrapped: a span each would cost more than the
# call.  composition_count runs 16 times per (j, l) cell of a count table.
UNWRAPPED = {"Tope.sign", "gram_entry", "inverse_gram_entry", "cycle_vertex", "composition_count"}


def _masks(args, result):
    return "backend.tally.masks", args[2] - args[1]


def _signs_bytes(args, result):
    return "backend.spectrum_signs.bytes", 2 * args[0].shape[0]


def _cells(args, result):
    return "counting.cells", len(result)


# Work counters taken at the call boundary, keyed by qualified name.
COUNTERS = {
    "backend.tally_negpart_size": _masks,
    "backend.spectrum_signs": _signs_bytes,
    "counting.formula_table": _cells,
    "counting.enumerate_statistics": _cells,
}


class _Frame:
    __slots__ = ("span", "parent", "name", "layer", "start", "inner", "foreign", "thread")

    def __init__(self, span, parent, name, layer, start, thread):
        self.span = span
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.inner = 0.0  # summed durations of same-thread children
        self.foreign = []  # (start, end) of children on other threads
        self.thread = thread


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self, sweep_names=None):
        self.sweep_names = sweep_names or {}
        self.spans = []
        self.record = True
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.sweep_s = {}
        self.counts = {}
        self.op_id = None
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._restore = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name, layer):
        thread = threading.get_ident()
        stack = self._stacks.get(thread)
        if stack is None:
            stack = self._stacks[thread] = []
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and thread != self._main else None
        frame = _Frame(next(self._ids), parent, name, layer, perf_counter(), thread)
        stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stacks[frame.thread].pop()
        duration = end - frame.start
        covered = frame.inner + (_union_length(frame.foreign) if frame.foreign else 0.0)
        parent = frame.parent
        if parent is not None:
            if parent.thread == frame.thread:
                parent.inner += duration
            else:
                parent.foreign.append((frame.start, end))
        if frame.layer is None:
            return
        with self._lock:
            self.self_s[frame.layer] += duration - covered
            self.calls[frame.layer] += 1
            sweep = self.sweep_names.get(frame.name)
            if sweep is not None:
                self.sweep_s[sweep] = self.sweep_s.get(sweep, 0.0) + duration
            if self.record:
                self.spans.append((self.op_id, frame.span, parent.span if parent else None,
                                   frame.name, frame.layer, frame.start, end))

    def begin_op(self, op_id):
        """Open the root span of one op; layer spans inside it link to it."""
        self.op_id = op_id
        return self._enter("op", None)

    def end_op(self, frame):
        self._exit(frame)

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name, layer):
        counter = COUNTERS.get(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if counter is not None:
                key, n = counter(args, result)
                with self._lock:
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return traced

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            # vars(), not getattr(): a classmethod must go back as the descriptor.
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = sys.modules.get(modname)
                if module is None:
                    continue
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") or attr in UNWRAPPED:
                        continue
                    defined_in = getattr(obj, "__module__", None)
                    if defined_in not in modules:
                        continue
                    if isinstance(obj, type):
                        self._wrap_class(obj, layer)
                    elif callable(obj) and id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        self._rebind(wrapped)

    def _wrap_class(self, cls, layer):
        if issubclass(cls, BaseException):
            return
        for attr, member in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if (attr.startswith("_") and attr != "__init__") or qual in UNWRAPPED:
                continue
            name = f"{layer}.{qual}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, name, layer)))
            elif callable(member) and not isinstance(member, type):
                self._set(cls, attr, self._wrap(member, name, layer))

    def _rebind(self, wrapped):
        # Keys are ids of the originals, which stay alive through each
        # wrapper's __wrapped__, so an id match is the original itself.
        for module in list(sys.modules.values()):
            if not _is_cyclotope(module):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._set(obj, key, wrapped[id(value)])
                elif isinstance(obj, tuple) and obj:
                    swapped = _swap_tuple(obj, wrapped)
                    if swapped is not obj:
                        self._set(module, attr, swapped)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def _is_cyclotope(module):
    name = getattr(module, "__name__", "") or ""
    return name == "cyclotope" or name.startswith("cyclotope.")


def _swap_tuple(items, wrapped):
    out = []
    changed = False
    for item in items:
        if isinstance(item, tuple):
            new = _swap_tuple(item, wrapped)
        else:
            new = wrapped.get(id(item), item)
        changed = changed or new is not item
        out.append(new)
    return tuple(out) if changed else items
