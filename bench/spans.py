"""Span tracing of the cpslie layers from outside the package.

`Tracer.install` wraps the public functions of each layer module at the
defining module and at every `from ... import` binding site inside the
package, plus the hot methods that only exist on classes.  Each wrapped
call records a span (name, start, end, parent, command id) in memory;
`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("linalg", "lie", "salamon", "structures", "connection", "hypercomplex", "catalog", "cli")

# Per-entry vector and scalar helpers.  They run millions of times per pass,
# so a span on each would cost more than the work it measures; their time is
# counted in the self time of the layer function that calls them.
ELEMENT_HELPERS = frozenset(
    {"q", "qstr", "vec", "vec_add", "vec_sub", "vec_scale", "vec_neg", "vec_is_zero", "zero_vec", "basis_vec"}
)

# (layer, class name, method) wrapped on the class itself.
METHODS = (
    ("linalg", "QMatrix", "__matmul__"),
    ("linalg", "QMatrix", "apply"),
    ("linalg", "QMatrix", "inverse"),
    ("linalg", "Subspace", "from_spanning"),
    ("lie", "LieAlgebra", "bracket"),
)

# Spans whose distinct inputs are counted, for the useful-work ratios.
DISTINCT_INPUTS = frozenset({"structures.validate_cps", "connection.cp_connection", "connection.curvature"})

RK4 = "connection.integrate_geodesics"


def value_key(obj):
    """A hashable key equal for equal values, also for slotted objects without __eq__."""
    if type(obj).__hash__ is object.__hash__ and hasattr(type(obj), "__slots__"):
        return (type(obj).__name__,) + tuple(value_key(getattr(obj, s)) for s in type(obj).__slots__)
    return obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.commands: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.command = -1
        self.distinct: dict[str, set] = defaultdict(set)
        self.rk4_madds = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        names, parents, commands, starts, ends, stack = (
            self.names, self.parents, self.commands, self.starts, self.ends, self._stack,
        )
        clock = time.perf_counter
        distinct = self.distinct[name] if name in DISTINCT_INPUTS else None
        rk4 = name == RK4

        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add(tuple(value_key(a) for a in args))
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            commands.append(self.command)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if rk4:
                # values has shape (steps + 1, initial conditions, n); each
                # step makes 4 evaluations of an n^3 contraction per condition
                steps, batch, n = result[1].shape
                self.rk4_madds += (steps - 1) * 4 * batch * n**3
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced callable; `uninstall` restores the originals."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cpslie.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in ELEMENT_HELPERS
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "cpslie" and not name.startswith("cpslie."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"cpslie.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def totals(self, kinds: dict[int, str] | None = None) -> dict:
        """{span name: [calls, self seconds]}, or per command kind if `kinds` maps ids to kinds."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for name, cmd, own in zip(self.names, self.commands, self.self_times()):
            key = name if kinds is None else (kinds[cmd], name)
            out[key][0] += 1
            out[key][1] += own
        return out

    def write(self, path: Path):
        """Spans as CSV: name, start, end, parent index, command id."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,command\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.commands):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)
