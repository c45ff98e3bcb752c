"""Span tracer for the benchmark's traced runs.

The tracer lives entirely on the benchmark side.  It wraps every public
function of the ``fscontract`` package at every module attribute bound to
it (modules import names directly, so one function can be reachable from
several modules) and records one span per call: function, start, end and
the enclosing span.  Spans stay in memory in compact arrays and are written
out when the run ends; summaries are computed from them afterwards.

A span's layer is the module that defines the function, so per-layer totals
are keyed by ``scenario``, ``failure``, ``costs``, ``learning``,
``pricing``, ``report`` and ``cli``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "fscontract"


def _lf_iterations(args, kwargs, result):
    return result.iterations


def _emitted_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[2]
    return os.path.getsize(path)


#: Numbers recorded with a span: golden-section iterations of one lf search
#: and the size of one emitted report.
PROBES = {
    "pricing.optimize_lf": _lf_iterations,
    "report.emit_report": _emitted_bytes,
}


def package_modules() -> list:
    """The imported package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def qualified_name(fn) -> str:
    """``<layer>.<function>`` for a function defined in the package."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def public_functions(modules) -> dict[str, list[tuple[object, str]]]:
    """Every public package function and the (module, attribute) bindings
    through which it can be reached."""
    found: dict[str, list[tuple[object, str]]] = defaultdict(list)
    for module in modules:
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not value.__name__.startswith("_")
                    and value.__module__.startswith(PACKAGE + ".")):
                found[qualified_name(value)].append((module, attr))
    return found


class SpanLog:
    """Spans in parallel arrays; index order is call (start) order."""

    def __init__(self, names: list[str] | None = None):
        self.names: list[str] = list(names or [])
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: span index -> number returned by the function's probe
        self.values: dict[int, float] = {}

    def to_json(self) -> dict:
        return {"names": self.names, "fn": list(self.fn), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end),
                "values": {str(k): v for k, v in self.values.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "SpanLog":
        log = cls(data["names"])
        log.fn.extend(data["fn"])
        log.parent.extend(data["parent"])
        log.start.extend(data["start"])
        log.end.extend(data["end"])
        log.values = {int(k): v for k, v in data["values"].items()}
        return log

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json()), encoding="utf-8")

    @classmethod
    def read(cls, path: str | Path) -> "SpanLog":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


class Tracer:
    """Installs span-recording wrappers on the package and removes them.

    ``probes`` maps a qualified function name to ``f(args, kwargs, result)``
    returning a number stored with the span (an iteration count, a file
    size); a probe runs after the span has ended.
    """

    def __init__(self, probes: dict | None = None):
        self.log = SpanLog()
        self.probes = probes or {}
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        log, probes = self.log, self.probes
        stack = [-1]
        clock = time.perf_counter

        def wrap(fn, fn_id, probe):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(log.fn)
                log.fn.append(fn_id)
                log.parent.append(stack[-1])
                log.end.append(0.0)
                stack.append(idx)
                log.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    log.end[idx] = clock()
                    stack.pop()
                if probe is not None:
                    try:
                        log.values[idx] = probe(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, OSError):
                        pass  # the probed field is gone; the metric reads as absent
                return result
            return traced

        for name, bindings in sorted(public_functions(modules).items()):
            fn = getattr(*bindings[0])
            wrapper = wrap(fn, len(log.names), probes.get(name))
            log.names.append(name)
            for module, attr in bindings:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap one another; their union is clipped to the
    parent's interval before it is subtracted.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the covered union so far, per parent
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Summary:
    """Additive per-function totals of one or more span logs.

    ``nested`` counts calls of ``inner`` made anywhere below a call of
    ``outer`` (for example objective evaluations inside one lf search).
    """

    def __init__(self, nested: tuple[tuple[str, str], ...] = ()):
        self.nested_pairs = nested
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.value_sum: Counter = Counter()
        self.nested: Counter = Counter()

    def add(self, log: SpanLog) -> None:
        names = [log.names[f] for f in log.fn]
        selfs = self_times(log.start, log.end, log.parent)
        for i, name in enumerate(names):
            self.calls[name] += 1
            self.total_s[name] += log.end[i] - log.start[i]
            self.self_s[name] += selfs[i]
        for i, v in log.values.items():
            self.value_sum[names[i]] += v
        for inner, outer in self.nested_pairs:
            inside = [False] * len(names)  # parents precede their children
            for i, name in enumerate(names):
                p = log.parent[i]
                inside[i] = p >= 0 and (inside[p] or names[p] == outer)
                if inside[i] and name == inner:
                    self.nested[(inner, outer)] += 1

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.split(".")[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".")[0] == layer)
