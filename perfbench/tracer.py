"""Outside-in tracer for the traced benchmark run.

The program carries no instrumentation of its own, so this module wraps it
from outside: every public function of every ``qthermo`` module, each
re-binding of such a function in another module (``from .x import f``
binds the same object under a second name that must be wrapped too), the
``j`` methods of the spectral-density classes, and the scipy callables
bound inside qthermo modules (``clm.quad``, ``mapping.eigh``, ...).

A wrapped qthermo function is named after its home module
(``spectral.susceptibility_abs_sq`` whether clm or spectral calls it); a
scipy callable after the module that binds it (``clm.quad`` and
``spectral.quad`` are different layers' use of one routine).

Every call of a wrapped function is a span: id, parent id, name, start and
end, kept in flat arrays in memory and written out at exit.  Leaves called
once per quadrature node (the ``j`` methods and the scalar ``coth`` and
``csch2``) get aggregated counts and time only.  A span's self time is its
duration minus the time of the wrapped calls directly beneath it; summed
over all spans it equals the time spent under the outermost spans.
``uninstall`` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import itertools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "qthermo"
LEAF_METHODS = ("j",)
LEAF_FUNCTIONS = frozenset({"gaussian.coth", "gaussian.csch2"})
SPAN_CAP = 1_000_000


class Stat:
    __slots__ = ("calls", "self_s", "bytes_in")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.bytes_in = 0


def _eigh_bytes(a, *args, **kwargs) -> int:
    """Computed, not measured: 8 n^2 bytes of the float64 input matrix."""
    n = np.shape(a)[0]
    return 8 * n * n


BYTES_IN = {"mapping.eigh": _eigh_bytes}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        # frame = [span id, time of wrapped calls directly beneath]
        self.root = [-1, 0.0]
        self.stack = [self.root]
        self.ids = itertools.count()
        self.cols = {
            "id": array("q"),
            "parent": array("q"),
            "name": array("H"),
            "start": array("d"),
            "end": array("d"),
        }
        self.dropped = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
            self.names.append(name)
        return self.stats[name]

    def _span(self, name: str, fn):
        stat = self._stat(name)
        index = self.names.index(name)
        stack, ids, cols = self.stack, self.ids, self.cols
        c_id, c_parent, c_name = cols["id"], cols["parent"], cols["name"]
        c_start, c_end = cols["start"], cols["end"]
        measure = BYTES_IN.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if measure is not None:
                stat.bytes_in += measure(*args, **kwargs)
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if len(c_id) < SPAN_CAP:
                    c_id.append(frame[0])
                    c_parent.append(parent[0])
                    c_name.append(index)
                    c_start.append(t0)
                    c_end.append(t1)
                else:
                    tracer.dropped += 1

        return wrapper

    def _leaf(self, name: str, fn):
        stat = self._stat(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack[-1][1] += dur
                stat.calls += 1
                stat.self_s += dur

        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}
        home: dict[int, str] = {}
        for m in modules:
            for attr, obj in vars(m).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == m.__name__
                ):
                    home[id(obj)] = f"{short[m.__name__]}.{attr}"
        wrappers: dict[int, object] = {}
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in home:
                    name = home[id(obj)]
                    if id(obj) not in wrappers:
                        make = self._leaf if name in LEAF_FUNCTIONS else self._span
                        wrappers[id(obj)] = make(name, obj)
                    self._patch(m, attr, wrappers[id(obj)])
                elif callable(obj) and not isinstance(obj, type) and getattr(
                    obj, "__module__", ""
                ).startswith("scipy"):
                    self._patch(m, attr, self._span(f"{short[m.__name__]}.{attr}", obj))
                elif isinstance(obj, type) and obj.__module__ == m.__name__:
                    for method in LEAF_METHODS:
                        fn = vars(obj).get(method)
                        if isinstance(fn, types.FunctionType):
                            self._patch(obj, method, self._leaf(f"{short[m.__name__]}.{method}", fn))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Forget counts and spans, e.g. between traced passes."""
        for stat in self.stats.values():
            stat.calls, stat.self_s, stat.bytes_in = 0, 0.0, 0
        self.root[1] = 0.0
        for col in self.cols.values():
            del col[:]
        self.dropped = 0

    def calls(self) -> dict[str, int]:
        return {name: s.calls for name, s in self.stats.items()}

    @property
    def traced_s(self) -> float:
        """Time spent under the outermost spans (= sum of all self times)."""
        return self.root[1]

    def write_spans(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            dropped=np.asarray(self.dropped),
            **{key: np.frombuffer(col, dtype=col.typecode) for key, col in self.cols.items()},
        )
