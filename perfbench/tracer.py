"""Span tracer for the benchmark's traced pass.

`install` wraps every public function of every loaded ``cubeflags.*`` module
and rebinds the wrapper in every ``cubeflags`` namespace that holds the
function object, because modules import names directly
(``from .qlinalg import span``) and a call through such a binding would
otherwise escape the trace.  Each call records a span (id, parent, name,
start, end, detail); `summarize` turns the spans into per-function call
counts, self times and details.

Self time is a span's duration minus the part of it covered by its child
spans.  Parents are tracked per thread, so work a thread pool does is not
subtracted from the caller that blocks on the pool: the caller's self time
is its waiting time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

PACKAGE = "cubeflags"


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span of its thread
    name: str  # "<module>.<function>", module without the package prefix
    start: float
    end: float
    detail: object  # int size, str tag or None; see DETAILS


def _workers_arg(args, kwargs) -> int:
    return args[2] if len(args) > 2 else kwargs.get("workers", 1)


# What a call records beyond its timing: an int is summed into the function's
# size, a str is counted as a tag.  Called with (args, kwargs, result).
DETAILS: dict[str, Callable] = {
    "flags.cells_at_level": lambda a, kw, r: len(r),
    "flags.level_universe": lambda a, kw, r: len(r),
    "flags.enumerate_subflags": lambda a, kw, r: len(r),
    "simlab.max_subset_sum_multiplicity": lambda a, kw, r: "exact" if r.exact else "randomized",
    "simlab.equal_sums_trial": lambda a, kw, r: "exact" if r[1] else "randomized",
    "simlab.run_indexed": lambda a, kw, r: "pool" if _workers_arg(a, kw) > 1 else "inline",
}


class Tracer:
    """Keeps spans in memory; `spans` is read once the traced work is over."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             detail: Optional[Callable] = None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        start = self._clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = self._clock()
            stack.pop()
            info = detail(args, kwargs, result) if detail and result is not None else None
            self.spans.append(Span(sid, parent, name, start, end, info))


def _traced(tracer: Tracer, name: str, fn: Callable) -> Callable:
    detail = DETAILS.get(name)
    if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn)):
        # Drain inside the span so it covers the generator's work; every
        # caller in the package drains these generators at once.
        def drained(*args, **kwargs):
            return list(fn(*args, **kwargs))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return iter(tracer.call(name, drained, args, kwargs, detail))
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, detail)

    return wrapper


def _modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def public_functions() -> dict[int, tuple[str, Callable]]:
    """id(function) -> (span name, function) for each public function
    defined in a loaded ``cubeflags`` module (``lru_cache`` wrappers
    included)."""
    found = {}
    for mod in _modules():
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            inner = getattr(obj, "__wrapped__", obj)
            if (not attr.startswith("_") and inspect.isfunction(inner)
                    and inner.__module__ == mod.__name__):
                found[id(obj)] = (f"{short}.{attr}", obj)
    return found


def install(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Wrap every public function and rebind it in every namespace that holds
    it.  Returns the (module, attribute, original) patches for `uninstall`."""
    wrappers = {key: _traced(tracer, name, fn)
                for key, (name, fn) in public_functions().items()}
    patches = []
    for mod in _modules():
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
    return patches


def uninstall(patches: list[tuple[object, str, Callable]]) -> None:
    for mod, attr, original in patches:
        setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def count_within(spans: list[Span], inner: str, outer: str) -> int:
    """Number of `inner` spans that have an `outer` span among their ancestors."""
    by_id = {s.id: s for s in spans}
    n = 0
    for s in spans:
        if s.name != inner:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != outer:
            p = by_id.get(p.parent)
        n += p is not None
    return n


def summarize(spans: list[Span]) -> dict:
    """Per function: calls, self_s, sizes (int details in call order) and
    tags (str detail -> count); plus `span_in_universe`, the span calls made
    inside flags.level_universe, and `pool_wait_s`, the self time of
    run_indexed calls that dispatch to a pool."""
    st = self_times(spans)
    funcs: dict[str, dict] = {}
    pool_wait = 0.0
    for s in sorted(spans, key=lambda s: s.start):
        f = funcs.setdefault(s.name, {"calls": 0, "self_s": 0.0, "sizes": [], "tags": {}})
        f["calls"] += 1
        f["self_s"] += st[s.id]
        if isinstance(s.detail, str):
            f["tags"][s.detail] = f["tags"].get(s.detail, 0) + 1
        elif s.detail is not None:
            f["sizes"].append(s.detail)
        if s.name == "simlab.run_indexed" and s.detail == "pool":
            pool_wait += st[s.id]
    return {
        "functions": funcs,
        "span_in_universe": count_within(spans, "qlinalg.span", "flags.level_universe"),
        "pool_wait_s": pool_wait,
    }
