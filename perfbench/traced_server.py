"""Start a ``charles`` server process with the layers wrapped in spans.

    python perfbench/traced_server.py serve --http 0 --dataset voc ...
    python perfbench/traced_server.py cluster serve --http 0 --nodes 2 ...

Takes the same arguments as ``python -m repro.cli`` and runs the same
entry point after :func:`tracing.install` has wrapped every traced
function.  Spans go to ``$PERFBENCH_TRACE_DIR/<role>-<pid>.npz`` when the
process ends: on Ctrl-C for the front process, on SIGTERM for a cluster
node, which the router's supervisor sends at shutdown.  Cluster nodes are
spawned processes that import this file as ``__mp_main__``, which is how
their wrappers get installed before the node starts serving.
"""

from __future__ import annotations

import os
import signal
import sys

from tracing import Recorder, install


def _recorder(role: str):
    recorder = Recorder()
    install(recorder)
    path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"], f"{role}-{os.getpid()}.npz")
    return recorder, path


if __name__ == "__mp_main__":
    _NODE_RECORDER, _NODE_PATH = _recorder("node")

    def _dump_and_exit(signum, frame):
        _NODE_RECORDER.dump(_NODE_PATH, "node")
        os._exit(0)

    signal.signal(signal.SIGTERM, _dump_and_exit)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    role = "router" if arguments[:1] == ["cluster"] else "node"
    recorder, path = _recorder(role)
    from repro.cli import main

    try:
        code = main(arguments)
    finally:
        recorder.dump(path, role)
    sys.exit(code)
