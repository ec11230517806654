"""Spans around calls into shotdp's layers, recorded from outside the package.

`Tracer.install()` replaces every public function of the layer modules
(`states`, `shots`, `budget`, `audit`, `cli`) with a recording wrapper,
wherever the package binds it: in its own module, in the modules that
imported it by name, and in `shotdp` itself. Calls between layers therefore
nest as child spans; `uninstall()` puts the originals back. Classes are not
wrapped.

Each span has a name, start, end and parent. Spans are kept in memory in
flat arrays and written out by `dump()` when the run ends. A span's self
time is its duration minus the time its child spans cover; it is summed per
name while the run goes, so the per-layer figures need no second pass.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("states", "shots", "budget", "audit", "cli")
# Budget formulas: one call is one budget point.
BUDGET_POINT_FUNCTIONS = {
    "epsilon_noiseless", "epsilon_depolarizing", "epsilon_delta_noiseless", "epsilon_delta_depolarizing",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: list[list] = []
        self.count = defaultdict(int)
        self.self_time = defaultdict(float)
        self.outcomes = 0
        self.output_bytes = 0
        self._ids: dict[str, int] = {}
        self._wrappers: dict | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int):
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        frame = [idx, 0.0]
        self.stack.append(frame)
        return frame

    def finish(self, frame) -> float:
        t1 = perf_counter()
        idx = frame[0]
        self.stack.pop()
        self.end[idx] = t1
        duration = t1 - self.start[idx]
        nid = self.name[idx]
        self.count[nid] += 1
        self.self_time[nid] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        return duration

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself (an operation root)."""
        return _Span(self, self._name_id(name))

    def _wrap(self, layer: str, fname: str, fn):
        nid = self._name_id(f"{layer}.{fname}")
        takes_n = layer == "audit" and "n" in inspect.signature(fn).parameters
        signature = inspect.signature(fn) if takes_n else None
        returns_text = layer == "cli"
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(frame)
            if takes_n and not (tracer.stack and tracer.names[tracer.name[tracer.stack[-1][0]]].startswith("audit.")):
                tracer.outcomes += int(signature.bind(*args, **kwargs).arguments["n"]) + 1
            if returns_text:
                text = result[0] if isinstance(result, tuple) else result
                if isinstance(text, str):
                    tracer.output_bytes += len(text.encode())
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            return
        import importlib

        modules = {layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS}
        holders = [importlib.import_module(self.package), *modules.values()]
        if self._wrappers is None:
            self._wrappers = {}
            for layer, module in modules.items():
                for fname, fn in vars(module).items():
                    if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                        continue
                    self._wrappers[fn] = self._wrap(layer, fname, fn)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict:
        """Per-layer call counts, self time (ms) and budget points."""
        totals = {layer: {"calls": 0, "busy_ms": 0.0} for layer in LAYERS}
        points = 0
        for nid, calls in self.count.items():
            layer, _, fname = self.names[nid].partition(".")
            if layer in totals:
                totals[layer]["calls"] += calls
                totals[layer]["busy_ms"] += self.self_time[nid] * 1e3
                if layer == "budget" and fname in BUDGET_POINT_FUNCTIONS:
                    points += calls
        totals["budget"]["points"] = points
        totals["audit"]["outcomes"] = self.outcomes
        totals["cli"]["output_bytes"] = self.output_bytes
        return totals

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the flat arrays as raw doubles/ints."""
        header = {"names": self.names, "spans": len(self.start), "layout": ["start:f8", "end:f8", "name:i4", "parent:i4"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.start, self.end, self.name, self.parent):
                column.tofile(fh)


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.frame = self.tracer.begin(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.finish(self.frame)
        return False
