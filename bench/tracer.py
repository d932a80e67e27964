"""In-memory span tracer that wraps the public functions of rmtdetect.

The tracer patches every public function defined in one of the layer
modules, in every rmtdetect module namespace that holds it: a function
imported with ``from .rmm import ring_product`` is reached through
``detect.ring_product`` and ``les.ring_product`` as well as
``rmm.ring_product``, and each of those names is replaced by the same
wrapper. Code inside the package looks those names up at call time, so the
wrappers see every call without any change to ``src/``.

A span is ``(name, start_ns, end_ns, parent)``, where ``name`` is
``<module>.<function>`` of the defining module and ``parent`` is the index
of the enclosing span or -1. Spans stay in memory until the caller writes
them out. Self time is a span's duration minus the durations of its direct
children; integer nanoseconds keep it exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

PACKAGE = "rmtdetect"

# Modules that do measurable work. rng and errors only derive seeds and
# define exception types, so their time stays with the caller.
LAYERS = ("ingest", "rmm", "spectral", "les", "detect", "synth", "pca", "mapgen", "cli")

# Every namespace that may hold an imported layer function.
NAMESPACES = ("",) + LAYERS + ("rng", "errors")


def namespaces():
    return [importlib.import_module(PACKAGE + (f".{m}" if m else "")) for m in NAMESPACES]


def layer_functions() -> Dict[str, object]:
    """Span name -> original function, for every public layer function."""
    out = {}
    for mod in namespaces():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith(PACKAGE + ".") and home in LAYERS:
                out[f"{home}.{obj.__name__}"] = obj
    return out


class Tracer:
    """Records nested spans around calls into the layer functions.

    The span stack is per thread, so a call made on a worker thread opens a
    root span there instead of nesting under a span of another thread.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer: already installed")
        originals = {id(fn): name for name, fn in layer_functions().items()}
        wrappers = {}
        for mod in namespaces():
            for attr, obj in list(vars(mod).items()):
                name = originals.get(id(obj)) if not attr.startswith("_") else None
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                setattr(mod, attr, wrappers[id(obj)])
                self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self, start: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-name calls and times of the spans recorded from index ``start`` on."""
        return summarize(self.spans[start:], offset=start)


def summarize(spans, offset: int = 0) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total_s and self_s over the given spans.

    ``offset`` is the index of ``spans[0]`` in the full list, so parent
    indices can be resolved in a slice; parents outside the slice are
    treated as roots.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        parent = s[3] - offset
        if 0 <= parent < len(spans):
            child_ns[parent] += s[2] - s[1]
    out: Dict[str, Dict[str, float]] = {}
    for s, inner in zip(spans, child_ns):
        rec = out.setdefault(s[0], {"calls": 0, "total_ns": 0, "self_ns": 0})
        rec["calls"] += 1
        rec["total_ns"] += s[2] - s[1]
        rec["self_ns"] += s[2] - s[1] - inner
    return {
        name: {"calls": r["calls"], "total_s": r["total_ns"] * 1e-9, "self_s": r["self_ns"] * 1e-9}
        for name, r in out.items()
    }


def merge(*summaries: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for summ in summaries:
        for name, rec in summ.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
    return out


def write_spans(spans, path) -> None:
    """Spans as JSON: a name table plus [name_index, start_ns, end_ns, parent] rows."""
    names: Dict[str, int] = {}
    rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3]] for s in spans]
    Path(path).write_text(
        json.dumps({"names": list(names), "spans": rows}, separators=(",", ":")),
        encoding="utf-8",
    )
