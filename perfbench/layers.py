"""Per-layer metrics of a traced run, from spans and public counters.

Times are self times per workload operation, in milliseconds, taken from
spans that started inside the timed window and belong to a request
(background refinement and health probes are kept apart).  Counters come
from the spans' timestamped events and from each node's ``/v1/stats``
document, read before and after the timed window.

Cross-process hops have no span of their own, so two layers are
residuals: ``api.transport_ms`` is the client's wall time minus its codec
work and the front process's handling time, and
``cluster.router.forward_ms`` is the router's forwarding time minus the
nodes' handling time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from tracing import SpanFile

#: Root spans that are not part of any client request.
BACKGROUND_ROOTS = frozenset({"core.refinement", "api.server.health", "api.server.stats"})

#: (metric, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("api.client.wall_ms", "ms/op", "lower"),
    ("api.transport_ms", "ms/op", "lower"),
    ("api.connections_per_op", "count/op", "lower"),
    ("api.codec.encode_ms", "ms/op", "lower"),
    ("api.codec.decode_ms", "ms/op", "lower"),
    ("api.reply_bytes", "bytes/op", "lower"),
    ("cluster.router.self_ms", "ms/op", "lower"),
    ("cluster.router.forward_ms", "ms/op", "lower"),
    ("cluster.router.forwards_per_op", "count/op", "lower"),
    ("cluster.router.broadcast_ms", "ms/op", "lower"),
    ("service.submit_self_ms", "ms/op", "lower"),
    ("service.advice_cache.hit_ratio", "ratio", "higher"),
    ("service.advice_cache.hits", "count", "higher"),
    ("service.advice_cache.lookups", "count", "lower"),
    ("service.advice_cache.invalidations_per_ingest", "count/op", "lower"),
    ("service.batching.queries_per_pass", "count", "higher"),
    ("service.batching.dedup_ratio", "ratio", "higher"),
    ("service.batching.wait_ms", "ms/op", "lower"),
    ("core.session.self_ms", "ms/op", "lower"),
    ("core.hbcuts.self_ms", "ms/op", "lower"),
    ("core.cut_ms", "ms/op", "lower"),
    ("core.product_ms", "ms/op", "lower"),
    ("core.compose_ms", "ms/op", "lower"),
    ("core.ranking_ms", "ms/op", "lower"),
    ("core.hbcuts.pair_evaluations", "count/op", "lower"),
    ("core.hbcuts.pair_reuse_ratio", "ratio", "higher"),
    ("core.refinement_ms", "ms/op", "lower"),
    ("backends.approx_ms", "ms/op", "lower"),
    ("storage.sketches.build_ms", "ms/op", "lower"),
    ("storage.engine.self_ms", "ms/op", "lower"),
    ("storage.engine.evaluations", "count/op", "lower"),
    ("storage.cache.mask_hit_ratio", "ratio", "higher"),
    ("storage.expression.mask_ms", "ms/op", "lower"),
    ("storage.column.mask_set_ms", "ms/op", "lower"),
    ("storage.column.mask_range_ms", "ms/op", "lower"),
    ("storage.column.median_ms", "ms/op", "lower"),
    ("storage.table.build_s", "s", "lower"),
    ("storage.types.infer_s", "s", "lower"),
    ("sdl.query_signature_ms", "ms/op", "lower"),
    ("sdl.query_signature_calls", "count/op", "lower"),
    ("live.append_ms", "ms/op", "lower"),
    ("live.reshard_ms", "ms/op", "lower"),
    ("live.profile_ms", "ms/op", "lower"),
    ("obs.scrape_render_ms", "ms/op", "lower"),
    ("bench.layer_coverage", "ratio", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
)

#: Self-time metrics that partition the client's wall time; their sum over
#: the wall is ``bench.layer_coverage``.
_SELF_TIME_SPANS = {
    "api.codec.encode_ms": "api.codec.encode",
    "api.codec.decode_ms": "api.codec.decode",
    "cluster.router.self_ms": "cluster.router",
    "cluster.router.broadcast_ms": "cluster.router.broadcast",
    "service.submit_self_ms": "service.submit",
    "service.batching.wait_ms": "service.batching",
    "core.session.self_ms": "core.session",
    "core.hbcuts.self_ms": "core.hbcuts",
    "core.cut_ms": "core.cut",
    "core.product_ms": "core.product",
    "core.compose_ms": "core.compose",
    "core.ranking_ms": "core.ranking",
    "backends.approx_ms": "backends.approx",
    "storage.sketches.build_ms": "storage.sketches.build",
    "storage.engine.self_ms": "storage.engine",
    "storage.expression.mask_ms": "storage.expression.mask",
    "storage.column.mask_set_ms": "storage.column.mask_set",
    "storage.column.mask_range_ms": "storage.column.mask_range",
    "storage.column.median_ms": "storage.column.median",
    "sdl.query_signature_ms": "sdl.query_signature",
    "live.append_ms": "live.append",
    "live.reshard_ms": "live.reshard",
    "live.profile_ms": "live.profile",
    "obs.scrape_render_ms": "obs.scrape_render",
}


class _Selection:
    """The spans of one process that count for the timed window."""

    def __init__(self, spans: SpanFile, window: Tuple[float, float]) -> None:
        self.spans = spans
        in_window = spans.select(window)
        background = np.isin(spans.root_name, list(BACKGROUND_ROOTS))
        self.request = in_window & ~background
        self.window = window
        self.names = np.array(spans.names)[spans.name_id] if len(spans.name_id) else np.array([])

    def of(self, name: str, request: bool = True) -> np.ndarray:
        chosen = self.names == name
        if request:
            chosen &= self.request
        else:
            chosen &= self.spans.select(self.window)
        return chosen

    def self_time(self, name: str) -> float:
        return float(self.spans.self_time[self.of(name)].sum())

    def duration(self, name: str, request: bool = True, roots: bool = False) -> float:
        chosen = self.of(name, request)
        if roots:
            chosen &= self.spans.is_root
        return float(self.spans.duration[chosen].sum())

    def calls(self, name: str) -> int:
        return int(self.of(name).sum())

    def counter(self, name: str) -> float:
        return self.spans.counter(name, self.window)


def _stat_delta(before: Sequence[Dict[str, Any]], after: Sequence[Dict[str, Any]],
                section: str, field: str) -> float:
    total = 0.0
    for old, new in zip(before, after):
        for table, runtime in new["tables"].items():
            total += runtime[section][field] - old["tables"][table][section][field]
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(files: Sequence[SpanFile], window: Tuple[float, float], ops: int,
                  ingests: int, stats_before: Sequence[Dict[str, Any]],
                  stats_after: Sequence[Dict[str, Any]], overhead_pct: float
                  ) -> Tuple[Dict[str, float], List[Tuple[str, str, float, float]]]:
    """Per-layer metrics and the full (role, span, self ms/op, calls/op) table."""
    selections = [_Selection(spans, window) for spans in files]
    by_role: Dict[str, List[_Selection]] = {}
    for selection in selections:
        by_role.setdefault(selection.spans.role, []).append(selection)
    clients = by_role.get("client", [])
    routers = by_role.get("router", [])
    nodes = by_role.get("node", [])
    fronts = routers or nodes

    def total(group: Sequence[_Selection], fn: str, *args: Any, **kwargs: Any) -> float:
        return float(sum(getattr(s, fn)(*args, **kwargs) for s in group))

    per_op = 1000.0 / ops
    wall = total(clients, "duration", "bench.op")
    client_codec = (total(clients, "duration", "api.codec.encode")
                    + total(clients, "duration", "api.codec.decode"))
    front_top = sum(
        total(fronts, "duration", name, roots=True)
        for name in ("api.server.handle_rpc", "cluster.router", "obs.scrape_render")
    )
    metrics: Dict[str, float] = {
        "api.client.wall_ms": wall * per_op,
        "api.transport_ms": (wall - client_codec - front_top) * per_op,
        "api.connections_per_op": total(clients + routers, "counter", "api.connections") / ops,
        "api.reply_bytes": total(clients, "counter", "api.reply_bytes") / ops,
        "cluster.router.forward_ms": (
            (total(routers, "duration", "api.client.forward")
             - total(nodes, "duration", "api.server.handle_rpc", roots=True)) * per_op
            if routers else 0.0
        ),
        "cluster.router.forwards_per_op": total(routers, "calls", "api.client.forward") / ops,
    }
    for metric, span in _SELF_TIME_SPANS.items():
        metrics[metric] = total(selections, "self_time", span) * per_op

    lookups = (_stat_delta(stats_before, stats_after, "advice_cache", "hits")
               + _stat_delta(stats_before, stats_after, "advice_cache", "misses"))
    hits = _stat_delta(stats_before, stats_after, "advice_cache", "hits")
    metrics["service.advice_cache.hit_ratio"] = _ratio(hits, lookups)
    metrics["service.advice_cache.hits"] = hits
    metrics["service.advice_cache.lookups"] = lookups
    metrics["service.advice_cache.invalidations_per_ingest"] = _ratio(
        _stat_delta(stats_before, stats_after, "advice_cache", "invalidations"), ingests)
    passes = _stat_delta(stats_before, stats_after, "batching", "passes")
    queries = _stat_delta(stats_before, stats_after, "batching", "queries")
    unique = _stat_delta(stats_before, stats_after, "batching", "unique_queries")
    metrics["service.batching.queries_per_pass"] = _ratio(queries, passes)
    metrics["service.batching.dedup_ratio"] = 1.0 - _ratio(unique, queries) if queries else 0.0
    mask_hits = _stat_delta(stats_before, stats_after, "result_cache", "hits")
    mask_lookups = mask_hits + _stat_delta(stats_before, stats_after, "result_cache", "misses")
    metrics["storage.cache.mask_hit_ratio"] = _ratio(mask_hits, mask_lookups)

    evaluations = total(nodes, "counter", "core.hbcuts.pair_evaluations")
    reused = total(nodes, "counter", "core.hbcuts.pair_cache_hits")
    metrics["core.hbcuts.pair_evaluations"] = evaluations / ops
    metrics["core.hbcuts.pair_reuse_ratio"] = _ratio(reused, reused + evaluations)
    metrics["core.refinement_ms"] = total(nodes, "duration", "core.refinement",
                                          request=False, roots=True) * per_op
    metrics["storage.engine.evaluations"] = total(nodes, "calls", "storage.expression.mask") / ops
    metrics["sdl.query_signature_calls"] = total(selections, "calls", "sdl.query_signature") / ops

    # Table builds happen at start-up, before the window: whole-life sums
    # per node process.
    builds = [spans for spans in files if spans.role == "node"]
    build_s = infer_s = 0.0
    for spans in builds:
        names = np.array(spans.names)[spans.name_id]
        build_s += float(spans.duration[(names == "storage.table.build") & spans.is_root].sum())
        infer_s += float(spans.duration[names == "storage.types.infer"].sum())
    metrics["storage.table.build_s"] = build_s / max(1, len(builds))
    metrics["storage.types.infer_s"] = infer_s / max(1, len(builds))

    layered = sum(metrics[m] for m in _SELF_TIME_SPANS) + metrics["api.transport_ms"] \
        + metrics["cluster.router.forward_ms"]
    metrics["bench.layer_coverage"] = _ratio(layered, metrics["api.client.wall_ms"])
    metrics["bench.trace_overhead_pct"] = overhead_pct

    table: List[Tuple[str, str, float, float]] = []
    for selection in selections:
        role = selection.spans.role
        for name in sorted(set(selection.names[selection.request].tolist())):
            table.append((role, name, selection.self_time(name) * per_op,
                          selection.calls(name) / ops))
    merged: Dict[Tuple[str, str], List[float]] = {}
    for role, name, self_ms, calls in table:
        entry = merged.setdefault((role, name), [0.0, 0.0])
        entry[0] += self_ms
        entry[1] += calls
    rows = [(role, name, values[0], values[1]) for (role, name), values in sorted(merged.items())]
    return {name: metrics[name] for name, _, _ in PER_LAYER}, rows
