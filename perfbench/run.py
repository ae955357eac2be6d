"""End-to-end benchmark of the Charles advisor.

    python3 perfbench/run.py --workload explore-drill --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The run starts real server
processes (``charles serve --http`` or ``charles cluster serve``), drives
them from closed-loop client threads for ``--seconds`` seconds, checks
every reply against an independent recomputation, prints a report, and
ends with one JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, first plainly and then with every layer wrapped in
spans, and reports the per-layer metrics (see ``layers.py``).  The
workloads are described in ``workloads.py`` and ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

#: Deployments per run timed for ``setup_s`` (the median is reported).
SETUPS = 3

#: (metric, unit, op kinds) of the end-to-end latency medians.
LATENCY_METRICS = (
    ("advise_ms_p50", ("advise", "refresh")),
    ("count_ms_p50", ("count",)),
    ("first_advice_ms_p50", ("first_advice",)),
    ("scrape_ms_p50", ("scrape",)),
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def node_stats(urls: Sequence[str]) -> List[Dict[str, Any]]:
    """Each node's service statistics from its public ``/v1/stats``."""
    documents = []
    for url in urls:
        with urllib.request.urlopen(f"{url}/v1/stats", timeout=30) as reply:
            documents.append(json.loads(reply.read().decode("utf-8"))["stats"])
    return documents


def deploy(workload: Any, trace_dir: Optional[str] = None) -> Tuple[Any, float]:
    """Start the workload's servers and warm them up; returns (servers, seconds)."""
    from harness import Servers

    workload.reset()
    servers = Servers(workload.cli_args(), trace_dir=trace_dir)
    started = time.perf_counter()
    servers.start()
    try:
        workload.warm_up(servers.url, servers.node_urls)
    except BaseException:
        servers.stop()
        raise
    return servers, time.perf_counter() - started


def drive(workload: Any, servers: Any, seconds: float, tracer: Any = None
          ) -> Tuple[List[Any], Tuple[float, float], float, List[Dict[str, Any]],
                     List[Dict[str, Any]]]:
    """The timed phase: returns per-thread logs, window, peak RSS and stats."""
    from harness import OpLog, run_threads

    try:
        before = node_stats(servers.node_urls)
        logs = [OpLog(tracer) for _ in range(workload.clients)]
        deadline = time.perf_counter() + seconds
        # The load generator keeps every decoded reply for the checks; a
        # cyclic collection over that growing heap would stall whichever
        # operation it lands in, so collection waits until the end.
        gc.disable()
        try:
            window = run_threads(workload.bodies(servers.url, deadline, logs))
        finally:
            gc.enable()
        rss = servers.peak_rss_mb()
        after = node_stats(servers.node_urls)
    finally:
        servers.stop()
    return logs, window, rss, before, after


def op_table(records: Sequence[Any], failed_by_op: Dict[str, int]) -> List[str]:
    """Per-operation counts and latencies, with a tail where samples allow."""
    from harness import median, percentile

    lines = [f"  {'op':<13}{'attempted':>10}{'failed':>8}{'p50 ms':>10}{'p90 ms':>10}"]
    kinds: Dict[str, List[float]] = {}
    for record in records:
        kinds.setdefault(record.op, []).append(record.seconds * 1000.0)
    for op in sorted(kinds):
        values = kinds[op]
        tail = f"{percentile(values, 0.9):10.2f}" if len(values) >= 100 else f"{'-':>10}"
        lines.append(f"  {op:<13}{len(values):>10}{failed_by_op.get(op, 0):>8}"
                     f"{median(values):10.2f}{tail}")
    return lines


def check(workload: Any, records: Sequence[Any]) -> Tuple[int, List[str]]:
    from workloads import check_records

    return check_records(records, workload.ref, workload.fault_counted)


def measured_run(workload: Any, seconds: float) -> Tuple[Dict[str, Any], List[str]]:
    from harness import median
    from workloads import KNOWN_FAULT

    setups = []
    servers = None
    for attempt in range(SETUPS):
        servers, took = deploy(workload)
        setups.append(took)
        if attempt < SETUPS - 1:
            servers.stop()
    logs, window, rss, _, _ = drive(workload, servers, seconds)
    records = [record for log in logs for record in log.records]
    checked = time.perf_counter()
    failed, notes = check(workload, records)
    checked = time.perf_counter() - checked
    elapsed = window[1] - window[0]
    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (median(setups), "s"),
        "throughput_ops_s": (len(records) / elapsed, "ops/s"),
    }
    for name, kinds in LATENCY_METRICS:
        values = [r.seconds * 1000.0 for r in records if r.op in kinds]
        metrics[name] = (median(values), "ms")
    metrics["server_rss_mb"] = (rss, "MB")
    report = [
        f"workload {workload.name}: {len(records)} operations in {elapsed:.2f}s "
        f"from {workload.clients} closed-loop client(s); setups "
        + ", ".join(f"{s:.2f}s" for s in setups) + f"; checks took {checked:.2f}s",
        *op_table(records, {"first_advice": failed} if failed else {}),
    ]
    if failed:
        report.append(f"  failed: {failed} interactive advise(s) hit the known fault: "
                      f"{KNOWN_FAULT} (segmentations on {sorted(set(notes))})")
    report += [f"  {name} = {value:.4f} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": True,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, report


def _prefix_overhead(untraced: Sequence[Any], traced: Sequence[Any]) -> float:
    """Traced over untraced client wall on the operations both runs completed."""
    plain = with_spans = 0.0
    for first, second in zip(untraced, traced):
        common = min(len(first.records), len(second.records))
        plain += sum(r.seconds for r in first.records[:common])
        with_spans += sum(r.seconds for r in second.records[:common])
    return (with_spans / plain - 1.0) * 100.0 if plain else 0.0


def traced_run(workload: Any, seconds: float) -> Tuple[Dict[str, Any], List[str]]:
    from layers import PER_LAYER, layer_metrics
    from tracing import Recorder, install, load_spans

    servers, _ = deploy(workload)
    untraced, _, _, _, _ = drive(workload, servers, seconds)
    first_records = [record for log in untraced for record in log.records]
    check(workload, first_records)

    recorder = Recorder()
    install(recorder)
    trace_dir = os.path.join(os.getcwd(), ".perfbench", f"trace-{os.getpid()}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    try:
        servers, _ = deploy(workload, trace_dir=trace_dir)
        logs, window, _, before, after = drive(workload, servers, seconds, tracer=recorder)
        recorder.dump(os.path.join(trace_dir, f"client-{os.getpid()}.npz"), "client")
        files = load_spans(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    records = [record for log in logs for record in log.records]
    failed, _ = check(workload, records)
    ingests = sum(1 for record in records if record.op == "ingest")
    metrics, rows = layer_metrics(files, window, len(records), ingests, before, after,
                                  _prefix_overhead(untraced, logs))
    units = {name: unit for name, unit, _ in PER_LAYER}
    report = [
        f"workload {workload.name} (traced): {len(records)} operations in "
        f"{window[1] - window[0]:.2f}s; span self time per operation by process role",
        f"  {'role':<8}{'span':<30}{'self ms/op':>12}{'calls/op':>10}",
        *[f"  {role:<8}{name:<30}{self_ms:12.4f}{calls:10.3f}"
          for role, name, self_ms, calls in rows],
        *[f"  {name} = {value:.4f} {units[name]}" for name, value in metrics.items()],
    ]
    result = {
        "correct": True,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from reference import CheckFailed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            result, report = traced_run(workload, args.seconds)
        else:
            result, report = measured_run(workload, args.seconds)
    except CheckFailed as exc:
        print(f"incorrect output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
