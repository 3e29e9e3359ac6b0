"""In-memory spans around the public calls of each ucesim module.

The tracer rebinds every public function (and public method of a public
class) defined in a layer module to a wrapper that records one span:
name, start, end and the span that was open when it was called. Nothing in
the package is edited; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

# Private functions that mark a layer boundary worth a span of their own.
EXTRA_BOUNDARIES = {"runner": ("_run_chunk",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped to record a span; ``hook(*args, **kwargs)``
        runs before the span opens, for counting work at the boundary."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return wrapper

    def install(self, modules: dict, hooks: dict | None = None):
        """Wrap the public callables of each ``{layer: module}``.

        A function is rebound in every given module that holds it, so a
        name imported with ``from .x import f`` is traced too.
        """
        hooks = hooks or {}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (
                        not attr.startswith("_")
                        or attr in EXTRA_BOUNDARIES.get(layer, ())):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(obj, name, hooks.get(name))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            name = f"{layer}.{attr}.{meth}"
                            self._set(obj, meth,
                                      self.wrap(fn, name, hooks.get(name)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}}."""
        selfs = self_times(self.start, self.end, self.parent)
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return dict(out)

    def write(self, path):
        """Write every span as gzip CSV: name, start, end, parent."""
        base = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_s", "end_s", "parent"])
            for i, nid in enumerate(self.name_id):
                writer.writerow([self.names[nid], "%.9f" % (self.start[i] - base),
                                 "%.9f" % (self.end[i] - base), self.parent[i]])


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s0, e0 = start[i], end[i]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(start[c], s0), min(end[c], e0))
                           for c in children.get(i, ())):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e0 - s0) - covered)
    return out


def layer_self_s(summary: dict, layer: str) -> float:
    return sum(row["self_s"] for name, row in summary.items()
               if name.startswith(layer + "."))
