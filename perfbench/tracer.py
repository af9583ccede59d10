"""Span tracer that wraps the public functions of the program's modules.

A span records a name, a start, an end, the span that was open when it
started (its parent) and one number the wrapper measured (bytes, steps,
hit or miss). Spans are kept in flat arrays in memory and written out
once, when the run ends. Nothing here edits the program: the tracer
replaces module and class attributes for the length of a traced round and
puts the originals back afterwards.
"""

from __future__ import annotations

import inspect
import threading
import time
from array import array

import numpy as np

# one clock for every process of a run, so client and server spans line up
now = time.monotonic


class _ModuleProxy:
    """Stands in for a module a layer imports (``scipy.signal``, ``json``),
    with some of its functions replaced by traced ones."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def traced(self, fn, name: str, value=None, name_of=None):
        """Return a wrapper of ``fn`` that records one span per call.

        ``value(args, kwargs, result)`` gives the span's number;
        ``name_of(args, kwargs)`` picks the span name per call.
        """
        fixed_id = self._id(name)
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            nid = self._id(name_of(args, kwargs)) if name_of else fixed_id
            with self._lock:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.value.append(0.0)
                self.end.append(0.0)
                self.start.append(now())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = now()
            if value is not None:
                self.value[idx] = value(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, **kw) -> None:
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, **kw))

    def proxy(self, owner, attr: str, prefix: str, functions: dict) -> None:
        """Replace the module ``owner.attr`` by a proxy whose listed functions
        are traced; ``functions`` maps function name to ``value`` callback."""
        module = getattr(owner, attr)
        replaced = {fname: self.traced(getattr(module, fname), f"{prefix}.{fname}",
                                       value=value)
                    for fname, value in functions.items()}
        self.patch(owner, attr, _ModuleProxy(module, replaced))

    def wrap_module(self, module, layer: str, values: dict | None = None) -> None:
        """Trace every public function defined in ``module``."""
        values = values or {}
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            self.wrap(module, name, f"{layer}.{name}", value=values.get(name))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "value": np.frombuffer(self.value, dtype=np.float64).copy()}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class Spans:
    """Read-side view of one process's spans: totals, self times, values."""

    def __init__(self, data: dict):
        self.names = [str(n) for n in data["names"]]
        self.name_id = np.asarray(data["name_id"], dtype=np.int64)
        self.parent = np.asarray(data["parent"], dtype=np.int64)
        self.value = np.asarray(data["value"], dtype=np.float64)
        self.dur = np.asarray(data["end"]) - np.asarray(data["start"])
        child_time = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_time

    @classmethod
    def empty(cls) -> "Spans":
        return cls(Tracer().arrays())

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls({k: data[k] for k in data.files})

    def _mask(self, pred) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if pred(n)]
        return np.isin(self.name_id, ids)

    def select(self, name: str) -> np.ndarray:
        return self._mask(lambda n: n == name)

    def calls(self, name: str) -> int:
        return int(self.select(name).sum())

    def seconds(self, name: str) -> float:
        return float(self.dur[self.select(name)].sum())

    def self_seconds(self, prefix: str) -> float:
        return float(self.self_time[self._mask(lambda n: n.startswith(prefix))].sum())

    def total_value(self, name: str) -> float:
        return float(self.value[self.select(name)].sum())

    def prefixed(self, prefix: str) -> np.ndarray:
        return self._mask(lambda n: n.startswith(prefix))

    def under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        if ancestor not in self.names:
            return 0
        anc = self.names.index(ancestor)
        count = 0
        for idx in np.flatnonzero(self.select(name)):
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != anc:
                p = self.parent[p]
            count += p >= 0
        return count
