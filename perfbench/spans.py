"""In-memory spans recorded from outside the program.

The traced run wraps the public functions each layer is entered
through; every call becomes a span (name, trace id, start, end, parent
on the same thread). Spans stay in memory and are written out when the
run ends. A layer's self time is its spans' durations minus the parts
their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import harness

class Recorder:
    """Thread-safe span sink; ``trace_id`` is read from the program's
    ambient trace context when the program has one."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._trace_id = (harness.optional_attr("repro.obs.trace",
                                                "current_trace_id")
                          or (lambda: None))

    def wrap(self, name: str, fn: Callable,
             note: Callable[..., dict] | None = None) -> Callable:
        """``fn`` recording one span per call; ``note(result, *args,
        **kwargs)`` adds fields to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._tls, "stack", None)
            if stack is None:
                stack = self._tls.stack = []
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "parent": parent, "name": name,
                        "trace": self._trace_id(), "start": start,
                        "end": end}
                if note is not None:
                    span.update(note(result, *args, **kwargs))
                with self._lock:
                    self.spans.append(span)

        return wrapper

    def dump(self, path: Path) -> None:
        with self._lock:
            spans = list(self.spans)
        path.write_text("".join(json.dumps(s) + "\n" for s in spans))


def load(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def wrap_everywhere(rec: Recorder, module: str, attr: str,
                    name: str, note=None) -> bool:
    """Replace ``module.attr`` and every other module-level binding of the
    same function object with one span-recording wrapper. Returns False
    when the function does not exist (the layer is absent)."""
    import importlib
    try:
        target = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return False
    wrapped = rec.wrap(name, target, note)
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is target:
                setattr(mod, key, wrapped)
    return True


class CacheProxy:
    """Times the cache protocol the engine uses (``get``/``put``)."""

    def __init__(self, cache, rec: Recorder) -> None:
        self._cache = cache
        self.get = rec.wrap("cache.get", cache.get,
                            lambda r, *a, **kw: {"hit": r is not None})
        self.put = rec.wrap("cache.put", cache.put)

    def __len__(self) -> int:
        return len(self._cache)

    def __getattr__(self, name: str):
        return getattr(self._cache, name)


class StoreProxy:
    """Times every public store call; ``claim_next`` spans note whether
    the claim found a job."""

    def __init__(self, store, rec: Recorder) -> None:
        self._store = store
        self._rec = rec
        self._wrapped: dict[str, Callable] = {}
        cache = getattr(store, "cache", None)
        self.cache = CacheProxy(cache, rec) if cache is not None else None

    def __getattr__(self, name: str):
        value = getattr(self._store, name)
        if name.startswith("_") or not callable(value):
            return value
        fn = self._wrapped.get(name)
        if fn is None:
            note = ((lambda r, *a, **kw: {"empty": r is None})
                    if name == "claim_next" else None)
            fn = self._wrapped[name] = self._rec.wrap(f"store.{name}",
                                                      value, note)
        return fn


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #

def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time (s) per span name: duration minus the time its
    direct children cover (children run nested on the same thread)."""
    child: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += max(0.0, s["end"] - s["start"] - child[s["id"]])
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_name(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def mean_ms(spans: list[dict]) -> float:
    return (sum(s["end"] - s["start"] for s in spans) / len(spans) * 1e3
            if spans else 0.0)
