"""Span tracing of the tscbench layers, applied from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
module with wrappers that record one span per call in a per-thread buffer:
name, depth, start and duration (the depth and the closing order give the
parent). Nothing inside `src/` changes. Spans stay in memory until
`analyse()` turns them into per-span-name totals and self times, and
`write()` saves them with their parents.

Self time. Within one thread a span's self time is its duration minus the
part its child spans cover. When several threads are inside spans at the
same instant (the multi-actor fabric), each instant is shared equally among
the threads that are working there, so self times of all layers add up to
at most the traced wall time. Waiting spans (queue get/put, thread join)
count as idle: they get no self time and are reported as wait times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import queue as _queue
import threading
import time
from array import array

import numpy as np

LAYERS = ("network", "simulation", "control", "classic", "nn", "agents",
          "fabric", "experiments")

# Public callables left unwrapped because the wrapper would cost more than
# the call. Their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "simulation.vehicle_delay",             # once per vehicle per second
    "control.sequencer_advance",            # same-layer helper of advance()
    "control.IntersectionView.count",       # pass-through to count_within
    "control.IntersectionView.observe",     # pass-through to observe()
    "control.IntersectionView.reward_raw",  # pass-through to raw_reward()
    "control.IntersectionView.cycle_next",  # pass-through to cycle_next_phase()
    "control.Controller.tick",              # no-op hooks
    "control.Controller.begin_episode",
    "control.Controller.end_episode",
    "control.SignalUnit.after_step",
})

# Private classes wrapped anyway because a per-layer count needs them.
PRIVATE_WRAPPED = frozenset({"fabric._Mailbox"})


class _ThreadBuffer:
    """Spans of one thread, in the order they closed.

    `depth` is the number of spans open in the thread.
    """
    __slots__ = ("depth", "names", "depths", "starts", "durs", "counters")

    def __init__(self):
        self.depth = 0
        self.names = array("H")
        self.depths = array("B")
        self.starts = array("d")
        self.durs = array("f")
        self.counters = {}

    def close(self, nid, t0, t1) -> None:
        self.depth -= 1
        self.names.append(nid)
        self.depths.append(self.depth)
        self.starts.append(t0)
        self.durs.append(t1 - t0)


class Tracer:
    """Collects spans for the calls into the tscbench layers."""

    def __init__(self):
        self.names = []          # span name id -> "layer.qualname"
        self.layers = []         # span name id -> layer
        self.waits = set()       # name ids of waiting spans
        self._ids = {}
        self._tls = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str, wait: bool = False) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
            if wait:
                self.waits.add(nid)
        return nid

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._tls.buf
        except AttributeError:
            buf = self._tls.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def wrap(self, fn, name: str, after=None):
        """Return `fn` wrapped to record a span; `after(buf, result, args)`
        runs once the span is closed."""
        nid = self.name_id(name)
        get_buf = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buf()
            buf.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.close(nid, t0, clock())
            if after is not None:
                after(buf, result, args)
            return result

        return traced

    def span(self, name: str):
        """Context manager recording one span, for the harness's own steps."""
        return _Span(self, self.name_id(name))

    # -- installing ------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        replaced = {}  # original function -> wrapper, for re-exported names
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_") \
                        and f"{layer}.{attr}" not in UNWRAPPED:
                    replaced[obj] = self.wrap(obj, f"{layer}.{attr}",
                                              after=_AFTER.get(f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and (not attr.startswith("_")
                             or f"{layer}.{attr}" in PRIVATE_WRAPPED):
                    self._wrap_class(layer, obj)
        for mod in [package] + [importlib.import_module(n)
                                for n in _package_modules(package)]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
        fabric = modules["fabric"]
        self._set(fabric, "queue", _QueueShim(self))
        self._set(fabric, "threading", _ThreadingShim(self))

    def _wrap_class(self, layer, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNWRAPPED:
                continue
            self._set(cls, attr, self.wrap(obj, name, after=_AFTER.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------------

    def counters(self) -> dict:
        out = {}
        for buf in self._buffers:
            for k, v in buf.counters.items():
                out[k] = out.get(k, 0) + v
        return out

    def n_spans(self) -> int:
        return sum(len(buf.names) for buf in self._buffers)

    def analyse(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        n_names = len(self.names)
        calls = np.zeros(n_names)
        incl = np.zeros(n_names)
        selfs = np.zeros(n_names)
        waits = np.array(sorted(self.waits), dtype=np.int64)
        views = [_views(buf) for buf in self._buffers]
        share = _ThreadShare(views, waits)
        for v in views:
            own = share.self_times(v)
            for lo in range(0, len(v["name"]), _CHUNK):
                sl = slice(lo, lo + _CHUNK)
                nm = v["name"][sl].astype(np.intp)
                calls += np.bincount(nm, minlength=n_names)
                incl += np.bincount(nm, weights=v["dur"][sl], minlength=n_names)
                selfs += np.bincount(nm, weights=own[sl], minlength=n_names)
        return {nm: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                     "self_s": float(selfs[i]), "layer": self.layers[i]}
                for i, nm in enumerate(self.names)}

    def write(self, path) -> None:
        """Save every span: thread, name, depth, start, duration, parent.

        Spans are in closing order within a thread; `parent` indexes the
        same thread's spans, -1 for a root.
        """
        arrays = {"names": np.array(self.names)}
        for tid, buf in enumerate(self._buffers):
            v = _views(buf)
            arrays.update({f"t{tid}_{k}": v[k]
                           for k in ("name", "depth", "start", "dur")})
            arrays[f"t{tid}_parent"] = _parents(v["depth"])
        np.savez_compressed(path, **arrays)


_CHUNK = 1 << 20


def _views(buf) -> dict:
    """Zero-copy numpy views of one thread's span arrays."""
    return {"name": np.frombuffer(buf.names, dtype=np.uint16),
            "depth": np.frombuffer(buf.depths, dtype=np.uint8),
            "start": np.frombuffer(buf.starts, dtype=np.float64),
            "dur": np.frombuffer(buf.durs, dtype=np.float32)}


class _Span:
    __slots__ = ("tracer", "nid", "t0", "buf")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.buf = self.tracer._buffer()
        self.buf.depth += 1
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.buf.close(self.nid, self.t0, time.perf_counter())
        return False


def _package_modules(package):
    return [f"{package.__name__}.{m.name}"
            for m in pkgutil.iter_modules(package.__path__)]


def _parents(depth: np.ndarray) -> np.ndarray:
    """Parent index of each span of one thread, spans in closing order.

    A span's parent closes after it, so it is the first later span one
    level up.
    """
    n = len(depth)
    parent = np.full(n, -1, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)
    for d in range(1, int(depth.max()) + 1 if n else 1):
        up = np.where(depth == d - 1, idx, np.int32(n))
        up[::-1] = np.minimum.accumulate(up[::-1])
        sel = (depth == d) & (up < n)
        parent[sel] = up[sel]
    return parent


class _ThreadShare:
    """Self time when several threads are inside spans at once.

    Each instant is split equally among the k threads working at it (inside
    a root span and not inside a waiting span). A span's share G is the
    integral of 1/k over its interval, and its self time is G minus its
    children's G, so self times add up to at most the wall time.
    """

    def __init__(self, views, waits):
        ts, steps = [], []
        for v in views:
            root = v["depth"] == 0
            wait = np.isin(v["name"], waits)
            end = v["start"] + v["dur"]
            ts += [v["start"][root], end[root], v["start"][wait], end[wait]]
            steps += [np.ones(root.sum()), -np.ones(root.sum()),
                      -np.ones(wait.sum()), np.ones(wait.sum())]
        t = np.concatenate(ts)
        order = np.argsort(t, kind="stable")
        self.t = t[order]
        k = np.cumsum(np.concatenate(steps)[order])
        self.rate = np.where(k > 0, 1.0 / np.maximum(k, 1), 0.0)
        self.F = np.concatenate([[0.0],
                                 np.cumsum(np.diff(self.t) * self.rate[:-1])])
        self.waits = waits

    def _at(self, x):
        j = np.clip(np.searchsorted(self.t, x, side="right") - 1, 0,
                    len(self.t) - 1)
        return self.F[j] + (x - self.t[j]) * self.rate[j]

    def self_times(self, v) -> np.ndarray:
        start = v["start"]
        g = self._at(start + v["dur"]) - self._at(start)
        parent = _parents(v["depth"])
        has = parent >= 0
        child = np.bincount(parent[has], weights=g[has], minlength=len(g))
        own = np.maximum(g - child, 0.0)
        own[np.isin(v["name"], self.waits)] = 0.0
        return own


# -- hooks that count work at a span boundary ---------------------------------

def _after_step(buf, _result, args):
    c = buf.counters
    c["vehicle_s"] = c.get("vehicle_s", 0) + sum(
        len(v) for v in args[0].lane_vehicles.values())


_AFTER = {"simulation.Simulation.step": _after_step}


# -- fabric's queue and thread module attributes ----------------------------------

class _QueueShim:
    """Stands in for the `queue` module inside tscbench.fabric."""

    def __init__(self, tracer):
        get = tracer.name_id("fabric.queue_get", wait=True)
        put = tracer.name_id("fabric.queue_put", wait=True)
        t = tracer

        class Queue(_queue.Queue):
            def get(self, *a, **kw):
                with _Span(t, get):
                    return super().get(*a, **kw)

            def put(self, *a, **kw):
                with _Span(t, put):
                    return super().put(*a, **kw)

        self.Queue = Queue

    def __getattr__(self, attr):
        return getattr(_queue, attr)


class _ThreadingShim:
    """Stands in for the `threading` module inside tscbench.fabric: each
    worker thread runs inside a root span named after its target."""

    def __init__(self, tracer):
        join = tracer.name_id("fabric.thread_join", wait=True)
        t = tracer

        class Thread(threading.Thread):
            def __init__(self, *a, target=None, **kw):
                if target is not None:
                    target = t.wrap(target, f"fabric.{target.__name__}")
                super().__init__(*a, target=target, **kw)

            def join(self, *a, **kw):
                with _Span(t, join):
                    return super().join(*a, **kw)

        self.Thread = Thread

    def __getattr__(self, attr):
        return getattr(threading, attr)
