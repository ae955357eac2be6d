"""Span recording around the public functions of each layer.

The traced run wraps the functions listed in :data:`TARGETS` inside every
process that runs them: the load generator, the cluster router and each
advisor node.  A wrapper records one span (name, start, end, parent) per
call into an in-memory :class:`Recorder`; the spans are written out when
the process ends and folded into per-layer self times by
:func:`layers.layer_metrics`.  A span's self time is its duration minus the
durations of its children.

Nothing here is imported by an untraced run, and nothing is changed in
the program's source: wrapping happens on the loaded modules.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pkgutil
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, attribute path, span name).  An attribute path ``A.b`` wraps
#: method ``b`` of class ``A``; a bare name wraps a module function and
#: every module-level alias of it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.server", "AdvisorHTTPServer.handle_rpc", "api.server.handle_rpc"),
    ("repro.api.server", "AdvisorHTTPServer.get_plain", "obs.scrape_render"),
    ("repro.api.server", "AdvisorHTTPServer.get_document", "api.server.get"),
    ("repro.api.client", "RemoteAdvisor.forward", "api.client.forward"),
    ("repro.api.client", "RemoteAdvisor.rpc", "api.client.rpc"),
    ("repro.api.codec", "to_wire", "api.codec.encode"),
    ("repro.api.codec", "from_wire", "api.codec.decode"),
    ("repro.cluster.router", "ClusterRouter.handle_wire", "cluster.router"),
    ("repro.cluster.router", "ClusterRouter._handle_replicated", "cluster.router.broadcast"),
    ("repro.cluster.router", "RouterHTTPServer.get_plain", "obs.scrape_render"),
    ("repro.cluster.router", "RouterHTTPServer.get_document", "api.server.get"),
    ("repro.service.service", "AdvisorService.submit", "service.submit"),
    ("repro.service.batching", "BatchCoordinator.counts", "service.batching"),
    ("repro.core.session", "ExplorationSession.advise", "core.session"),
    ("repro.core.session", "ExplorationSession.drill", "core.session"),
    ("repro.core.session", "ExplorationSession.refine", "core.session"),
    ("repro.core.session", "_RefinementTask._run", "core.refinement"),
    ("repro.core.hbcuts", "HBCuts.run", "core.hbcuts"),
    ("repro.core.cut", "cut_query", "core.cut"),
    ("repro.core.product", "product", "core.product"),
    ("repro.core.compose", "compose", "core.compose"),
    ("repro.core.ranking", "Ranker.rank", "core.ranking"),
    ("repro.backends.approx", "ApproxEngine.count", "backends.approx"),
    ("repro.backends.approx", "ApproxEngine.median", "backends.approx"),
    ("repro.backends.approx", "ApproxEngine.value_frequencies", "backends.approx"),
    ("repro.backends.approx", "ApproxEngine.count_batch", "backends.approx"),
    ("repro.storage.engine", "QueryEngine.count", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.count_batch", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.median", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.median_batch", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.value_frequencies", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.minmax", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.distinct_count", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.evaluate", "storage.engine"),
    ("repro.storage.engine", "QueryEngine.ingest", "storage.engine"),
    ("repro.storage.expression", "query_mask", "storage.expression.mask"),
    ("repro.storage.expression", "query_masks", "storage.expression.mask"),
    ("repro.storage.column", "NumericColumn.mask_set", "storage.column.mask_set"),
    ("repro.storage.column", "StringColumn.mask_set", "storage.column.mask_set"),
    ("repro.storage.column", "NumericColumn.mask_range", "storage.column.mask_range"),
    ("repro.storage.column", "StringColumn.mask_range", "storage.column.mask_range"),
    ("repro.storage.column", "NumericColumn.median", "storage.column.median"),
    ("repro.storage.column", "StringColumn.median", "storage.column.median"),
    ("repro.storage.sketches", "TableSketches.quantile_sketch", "storage.sketches.build"),
    ("repro.storage.sketches", "TableSketches.nominal_sketch", "storage.sketches.build"),
    ("repro.storage.sketches", "TableSketches.shard_stats", "storage.sketches.build"),
    ("repro.storage.table", "Table.from_dict", "storage.table.build"),
    ("repro.storage.types", "infer_collection_type", "storage.types.infer"),
    ("repro.sdl.formatter", "query_signature", "sdl.query_signature"),
    ("repro.live.versioned", "VersionedTable.append_batch", "live.append"),
    ("repro.live.versioned", "VersionedTable.partitioned", "live.reshard"),
    ("repro.live.profile", "IncrementalTableProfile.absorb_append", "live.profile"),
)

#: Spans whose path argument decides their name (GET endpoints).
_PATH_NAMES = {
    "/v1/metrics": "obs.scrape_render",
    "/v1/metrics.json": "obs.scrape_render",
    "/v1/health": "api.server.health",
    "/v1/stats": "api.server.stats",
    "/v1/cluster": "api.server.stats",
}


class Recorder:
    """In-memory span store for one process.

    Spans are appended as parallel arrays under a lock, so concurrent
    server threads never interleave half-written rows.  The ambient
    parent is kept per thread.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.span_id = array("q")
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.event_name = array("i")
        self.event_time = array("d")
        self.event_value = array("d")

    def name_index(self, name: str) -> int:
        with self._lock:
            index = self._name_ids.get(name)
            if index is None:
                index = len(self.names)
                self._name_ids[name] = index
                self.names.append(name)
            return index

    def active(self) -> bool:
        return bool(getattr(self._local, "stack", None))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Record a timestamped counter increment."""
        index = self.name_index(name)
        now = time.perf_counter()
        with self._lock:
            self.event_name.append(index)
            self.event_time.append(now)
            self.event_value.append(amount)

    def call(self, name_index: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else -1
        span = next(self._ids)
        stack.append(span)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
            with self._lock:
                self.span_id.append(span)
                self.name_id.append(name_index)
                self.parent.append(parent)
                self.start.append(started)
                self.end.append(ended)

    def dump(self, path: str, role: str) -> None:
        """Write every span and counter to ``path`` (NumPy ``.npz``)."""
        with self._lock:
            np.savez(
                path,
                role=np.array(role),
                names=np.array(self.names if self.names else [""]),
                span_id=np.frombuffer(self.span_id, dtype=np.int64),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                event_name=np.frombuffer(self.event_name, dtype=np.int32),
                event_time=np.frombuffer(self.event_time, dtype=np.float64),
                event_value=np.frombuffer(self.event_value, dtype=np.float64),
            )


def _wrap(recorder: Recorder, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    index = recorder.name_index(name)
    call = recorder.call

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return call(index, fn, *args, **kwargs)

    return wrapper


def _wrap_outermost(recorder: Recorder, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    """Wrap a recursive function, recording only its outermost call."""
    index = recorder.name_index(name)
    local = threading.local()

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if getattr(local, "inside", False):
            return fn(*args, **kwargs)
        local.inside = True
        try:
            return recorder.call(index, fn, *args, **kwargs)
        finally:
            local.inside = False

    return wrapper


def _wrap_by_path(recorder: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    indices = {path: recorder.name_index(name) for path, name in _PATH_NAMES.items()}
    other = recorder.name_index("api.server.get")

    @functools.wraps(fn)
    def wrapper(self: Any, path: str) -> Any:
        return recorder.call(indices.get(path, other), fn, self, path)

    return wrapper


def _wrap_hbcuts_run(recorder: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    index = recorder.name_index("core.hbcuts")

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = recorder.call(index, fn, *args, **kwargs)
        trace = result.trace
        recorder.count("core.hbcuts.pair_evaluations", trace.pair_evaluations)
        recorder.count("core.hbcuts.pair_cache_hits", trace.pair_cache_hits)
        return result

    return wrapper


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.startswith("repro.analysis"):
            continue
        importlib.import_module(info.name)


def install(recorder: Recorder) -> None:
    """Wrap every target in the loaded ``repro`` modules.

    Module functions are also replaced wherever another ``repro`` module
    imported them by name, so call sites that bound the function at
    import time are traced too.
    """
    import sys

    _import_all()
    modules = [module for name, module in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for module_name, path, name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            if isinstance(original, classmethod):
                setattr(owner, method, classmethod(_wrap(recorder, original.__func__, name)))
                continue
            if method in ("get_plain", "get_document"):
                wrapped = _wrap_by_path(recorder, original)
            elif path == "HBCuts.run":
                wrapped = _wrap_hbcuts_run(recorder, original)
            else:
                wrapped = _wrap(recorder, original, name)
            setattr(owner, method, wrapped)
            continue
        original = getattr(module, path)
        if name.startswith("api.codec"):
            wrapped = _wrap_outermost(recorder, original, name)
        else:
            wrapped = _wrap(recorder, original, name)
        for other in modules:
            for attribute, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attribute, wrapped)
    _count_connections(recorder)


def _count_connections(recorder: Recorder) -> None:
    """Count TCP connects and reply bytes made on behalf of a traced span."""
    import http.client

    connect = http.client.HTTPConnection.connect
    read = http.client.HTTPResponse.read

    def counted_connect(self: Any) -> Any:
        if recorder.active():
            recorder.count("api.connections")
        return connect(self)

    def counted_read(self: Any, amt: Optional[int] = None) -> Any:
        data = read(self, amt)
        if recorder.active():
            recorder.count("api.reply_bytes", len(data))
        return data

    http.client.HTTPConnection.connect = counted_connect  # type: ignore[method-assign]
    http.client.HTTPResponse.read = counted_read  # type: ignore[method-assign]


# -- reading the spans back ---------------------------------------------------

class SpanFile:
    """The spans one process wrote, with self times computed."""

    def __init__(self, path: str) -> None:
        with np.load(path) as data:
            self.role = str(data["role"])
            self.names = [str(n) for n in data["names"]]
            span_id = data["span_id"]
            self.name_id = data["name_id"]
            parent = data["parent"]
            self.start = data["start"]
            self.end = data["end"]
            self.event_name = data["event_name"]
            self.event_time = data["event_time"]
            self.event_value = data["event_value"]
        self.duration = self.end - self.start
        position = np.full(int(span_id.max()) + 1 if len(span_id) else 1, -1, dtype=np.int64)
        position[span_id] = np.arange(len(span_id))
        has_parent = parent >= 0
        parent_pos = np.full(len(parent), -1, dtype=np.int64)
        parent_pos[has_parent] = position[parent[has_parent]]
        children = np.zeros(len(span_id))
        linked = parent_pos >= 0
        np.add.at(children, parent_pos[linked], self.duration[linked])
        self.self_time = self.duration - children
        # Each span's root ancestor, to tell request work from background work.
        root = np.arange(len(span_id))
        for _ in range(64):
            up = parent_pos[root]
            moved = up >= 0
            if not moved.any():
                break
            root = np.where(moved, up, root)
        self.root_name = np.array(self.names)[self.name_id[root]] if len(root) else np.array([])
        self.is_root = ~linked

    def select(self, window: Tuple[float, float]) -> np.ndarray:
        low, high = window
        return (self.start >= low) & (self.start <= high)

    def counter(self, name: str, window: Tuple[float, float]) -> float:
        if name not in self.names:
            return 0.0
        low, high = window
        chosen = ((self.event_name == self.names.index(name))
                  & (self.event_time >= low) & (self.event_time <= high))
        return float(self.event_value[chosen].sum())


def load_spans(directory: str) -> List[SpanFile]:
    return [SpanFile(os.path.join(directory, name))
            for name in sorted(os.listdir(directory)) if name.endswith(".npz")]
