"""Server processes, the closed-loop client, and latency statistics.

Servers are started the way users deploy them: ``charles serve --http``
for one advisor node and ``charles cluster serve`` for a router in front
of node processes.  A traced run starts the same commands through
``perfbench/traced_server.py``, which wraps the layers before handing
over to the same CLI entry point.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    """The benchmark could not run (as opposed to an incorrect output)."""


def server_env(trace_dir: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


class Servers:
    """One deployment: a ``serve --http`` node or a ``cluster serve`` router.

    ``cli_args`` are the ``charles`` arguments; the port is always 0 (the
    server prints the URL it bound).  :meth:`stop` interrupts the front
    process the way an operator's Ctrl-C does, waits for it, and then for
    every node process it had spawned.
    """

    def __init__(self, cli_args: Sequence[str], trace_dir: Optional[str] = None) -> None:
        self.cli_args = list(cli_args)
        self.trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.url = ""
        self.node_pids: List[int] = []
        self.node_urls: List[str] = []

    @property
    def clustered(self) -> bool:
        return self.cli_args[0] == "cluster"

    def start(self, timeout: float = 120.0) -> str:
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *self.cli_args]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_server.py"), *self.cli_args]
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=server_env(self.trace_dir),
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise BenchError(f"server did not come up within {timeout:.0f}s")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.process.stdout.readline()
            if not line:
                code = self.process.wait()
                raise BenchError(f"server exited with code {code} before listening")
            if "listening on" in line:
                self.url = line.split()[-1]
                break
        if self.clustered:
            from repro.api.client import RemoteAdvisor

            document = RemoteAdvisor(self.url).cluster()
            nodes = [document["nodes"][key] for key in sorted(document["nodes"], key=int)]
            self.node_pids = [int(node["pid"]) for node in nodes]
            self.node_urls = [str(node["url"]) for node in nodes]
        else:
            self.node_urls = [self.url]
        return self.url

    def pids(self) -> List[int]:
        assert self.process is not None
        return [self.process.pid, *self.node_pids]

    def peak_rss_mb(self) -> float:
        """Peak resident set summed over the server processes (``VmHWM``)."""
        total_kb = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Stop the front process and every node it spawned, and reap them.

        A traced deployment is interrupted (Ctrl-C) so that each process
        shuts down through its own code and writes its spans.  A plain
        one is terminated, nodes first: the cluster front's graceful
        shutdown can sit out a 5 s thread-join timeout, which would only
        lengthen the run.
        """
        process = self.process
        if process is None:
            return
        self.process = None
        if self.trace_dir is None:
            for pid in self.node_pids:
                _signal(pid, signal.SIGTERM)
        if process.poll() is None:
            process.send_signal(signal.SIGTERM if self.trace_dir is None else signal.SIGINT)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        if process.stdout is not None:
            process.stdout.close()
        for pid in self.node_pids:
            _wait_gone(pid)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("State:"):
                    return "Z" not in line.split()[1]
    except OSError:
        return False
    return True


def _wait_gone(pid: int, timeout: float = 30.0) -> None:
    """Wait for a node process the front spawned; kill it if it lingers."""
    deadline = time.monotonic() + timeout
    while _alive(pid):
        if time.monotonic() > deadline:
            _signal(pid, signal.SIGKILL)
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


# -- the closed-loop client ---------------------------------------------------

class Record:
    """One completed operation: its kind, timing, reply and what to check."""

    __slots__ = ("op", "started", "seconds", "result", "check")

    def __init__(self, op: str, started: float, seconds: float, result: Any, check: Any) -> None:
        self.op = op
        self.started = started
        self.seconds = seconds
        self.result = result
        self.check = check


class OpLog:
    """Times every operation of one client thread, send to decoded reply.

    With a tracer attached each operation also opens the client's root
    span, under which the client-side codec and connection counters land.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.records: List[Record] = []
        self._tracer = tracer
        self._span = tracer.name_index("bench.op") if tracer is not None else 0

    def run(self, op: str, fn: Callable[..., Any], *args: Any, check: Any = None,
            **kwargs: Any) -> Any:
        tracer = self._tracer
        started = time.perf_counter()
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(self._span, fn, *args, **kwargs)
        seconds = time.perf_counter() - started
        self.records.append(Record(op, started, seconds, result, check))
        return result


def run_threads(bodies: Sequence[Callable[[], None]]) -> Tuple[float, float]:
    """Run client bodies on their own threads; returns the timed window."""
    errors: List[BaseException] = []

    def guarded(body: Callable[[], None]) -> None:
        try:
            body()
        except BaseException as exc:  # reported by the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(body,), name=f"client-{i}")
               for i, body in enumerate(bodies)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    if errors:
        raise errors[0]
    return started, ended


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
