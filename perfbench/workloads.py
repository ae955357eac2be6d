"""The three workloads: their deployments, inputs, client scripts and checks.

Each workload is a closed loop: a client thread sends its next request
only after the previous reply has been decoded.  Inputs come from the
run's ``--seed``; the served tables do not (they are fixed, so that a
seed changes what is asked, not what the data is).  Every reply is kept
and checked after the timed phase against :mod:`reference`.

* ``explore-drill`` — cold advice: unique contexts on one node.
* ``hot-dashboard`` — warm advice: a few shared contexts on two nodes
  behind the router, every session operation an advice-cache hit.
* ``live-wide`` — writes beside reads: ingest, whole-table interactive
  and exact advice on two nodes behind the router.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import OpLog
from reference import (
    CheckFailed,
    Clause,
    ReferenceTable,
    check_context,
    check_exact_advice,
    check_interactive_advice,
    check_same_query,
    context_key,
    where_text,
)

#: The one known fault that is counted instead of aborting the run.
KNOWN_FAULT = (
    "interactive CUT on a nominal attribute with more distinct values than "
    "its NominalCountSketch retains covers only the retained values "
    "(ApproxEngine.value_frequencies -> core.median._nominal_split)"
)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([abs(int(k)) for k in key])


# -- context generation ------------------------------------------------------

def _numeric_clause(rng: np.random.Generator, attribute: str,
                    sorted_values: np.ndarray) -> Clause:
    width = rng.uniform(0.35, 0.85)
    start = rng.uniform(0.0, 1.0 - width)
    low = sorted_values[int(start * (len(sorted_values) - 1))]
    high = sorted_values[int((start + width) * (len(sorted_values) - 1))]
    return Clause(attribute, "range", low=int(low), high=int(high))


def _set_clause(rng: np.random.Generator, attribute: str, categories: Sequence[str]) -> Clause:
    size = int(rng.integers(max(1, len(categories) // 2), len(categories)))
    chosen = rng.choice(len(categories), size=size, replace=False)
    return Clause(attribute, "set", values=[categories[int(i)] for i in chosen])


class ContextMaker:
    """Seeded WHERE contexts over the low-cardinality attributes of a table.

    Contexts are unique across every session of a run (a shared registry
    under a lock) and select at least ``min_rows`` rows.
    """

    def __init__(self, ref: ReferenceTable, attributes: Sequence[str], min_rows: int) -> None:
        self.ref = ref
        self.attributes = list(attributes)
        self.min_rows = min_rows
        self._sorted: Dict[str, np.ndarray] = {}
        self._categories: Dict[str, List[str]] = {}
        for attribute in self.attributes:
            values = ref.values(attribute)
            if ref.is_string(attribute):
                self._categories[attribute] = sorted(set(values))
            else:
                self._sorted[attribute] = np.sort(np.asarray(values))
        self._seen: set = set()
        self._lock = threading.Lock()

    def clause(self, rng: np.random.Generator, attribute: str) -> Clause:
        if attribute in self._categories:
            return _set_clause(rng, attribute, self._categories[attribute])
        return _numeric_clause(rng, attribute, self._sorted[attribute])

    def make(self, rng: np.random.Generator, low: int = 0, high: int = 0,
             attributes: Sequence[str] = ()) -> List[Clause]:
        """A fresh context over ``attributes``, or over ``low`` to ``high``
        attributes (both inclusive) drawn at random."""
        for _ in range(200):
            if attributes:
                chosen_names = list(attributes)
            else:
                count = int(rng.integers(low, high + 1))
                chosen = rng.choice(len(self.attributes), size=count, replace=False)
                chosen_names = [self.attributes[int(i)] for i in sorted(chosen)]
            clauses = [self.clause(rng, name) for name in chosen_names]
            if int(self.ref.clauses_mask(clauses).sum()) < self.min_rows:
                continue
            key = context_key(clauses)
            with self._lock:
                if key in self._seen:
                    continue
                self._seen.add(key)
            return clauses
        raise CheckFailed("could not draw a fresh non-empty context in 200 tries")


# -- the shared session navigator ---------------------------------------------

class Navigator:
    """Drives one remote session and records what each reply must satisfy.

    The ``check`` tuples stored with each record are resolved after the
    timed phase by :func:`check_records`; ``rows`` is the reference row
    count the reply was computed against.
    """

    def __init__(self, log: OpLog, session: Any, rows: int) -> None:
        self.log = log
        self.session = session
        self.rows = rows
        self.stack: List[Any] = []

    def advise(self, clauses: Optional[List[Clause]], interactive: bool) -> Any:
        context = where_text(clauses) if clauses else None
        if interactive:
            advice = self.log.run("first_advice", self.session.advise, context,
                                  mode="interactive",
                                  check=("interactive", clauses, self.rows))
            advice = self.log.run("refine", self.session.refine,
                                  check=("exact", clauses, self.rows))
        else:
            advice = self.log.run("advise", self.session.advise, context,
                                  check=("exact", clauses, self.rows))
        self.stack = [advice]
        return advice

    def drill(self, answer: int, segment: int) -> bool:
        advice = self.stack[-1]
        if not advice.answers:
            return False
        answer %= len(advice.answers)
        segments = advice.answers[answer].segmentation.segments
        segment %= len(segments)
        chosen = segments[segment].query
        advice = self.log.run("drill", self.session.drill, answer, segment,
                              check=("drill", chosen, self.rows))
        self.stack.append(advice)
        return True

    def back(self) -> None:
        expected = self.stack[-2].context
        self.log.run("back", self.session.back, check=("back", expected, self.rows))
        self.stack.pop()


def check_records(records: Sequence[Any], ref: ReferenceTable,
                  fault_counted: bool) -> Tuple[int, List[str]]:
    """Check every recorded reply; returns (failed operations, fault notes).

    With ``fault_counted``, an interactive advice showing the known fault
    is a failed operation; any other disagreement raises
    :class:`CheckFailed`.
    """
    failed = 0
    notes: List[str] = []
    for record in records:
        check = record.check
        if check is None:
            continue
        kind = check[0]
        try:
            if kind in ("exact", "interactive"):
                _, clauses, rows = check
                mask = ref.clauses_mask(clauses or [], rows)
                check_context(record.result, mask, ref, rows)
                if kind == "exact":
                    check_exact_advice(record.result, mask, ref, rows)
                else:
                    faulty = check_interactive_advice(record.result, mask, ref, rows)
                    if faulty and not fault_counted:
                        raise CheckFailed(f"known fault outside live-wide on {faulty}")
                    if faulty:
                        failed += 1
                        notes.append(",".join(faulty))
            elif kind == "drill":
                _, chosen, rows = check
                check_same_query(record.result.context, chosen, "drill")
                mask = ref.query_mask(chosen, rows)
                check_exact_advice(record.result, mask, ref, rows)
            elif kind == "back":
                _, expected, rows = check
                check_same_query(record.result.context, expected, "back")
            elif kind == "count":
                _, clauses, rows = check
                recount = int(ref.clauses_mask(clauses, rows).sum())
                if record.result != recount:
                    raise CheckFailed(f"count {record.result} != recount {recount}")
            elif kind == "ingest":
                _, rows, version = check
                reply = record.result
                if reply["rows"] != rows or reply["data_version"] != version:
                    raise CheckFailed(
                        f"ingest reply rows={reply['rows']} version={reply['data_version']}, "
                        f"expected rows={rows} version={version}"
                    )
            elif kind == "describe":
                _, depth = check
                if record.result["depth"] != depth:
                    raise CheckFailed(f"describe depth {record.result['depth']} != {depth}")
            elif kind == "scrape":
                if "# TYPE" not in record.result:
                    raise CheckFailed("metrics exposition has no metric families")
        except CheckFailed as exc:
            raise CheckFailed(f"{record.op}: {exc}") from None
    return failed, notes


# -- workloads ---------------------------------------------------------------

class Workload:
    """Common shape: deployment arguments, warm-up and client bodies."""

    name = ""
    clients = 1
    dataset = ""
    rows = 0
    table_seed = 0
    nodes = 1
    scrape_every = 0
    #: whether the known fault is expected here (counted as failed)
    fault_counted = False

    def __init__(self, seed: int) -> None:
        from repro.workloads import generate_voc, generate_weblog

        self.seed = seed
        generator = {"voc": generate_voc, "weblog": generate_weblog}[self.dataset]
        self.base_columns = generator(rows=self.rows, seed=self.table_seed).to_dict()
        self.ref = ReferenceTable(self.base_columns)

    def cli_args(self) -> List[str]:
        source = ["--dataset", self.dataset, "--rows", str(self.rows),
                  "--seed", str(self.table_seed)]
        if self.nodes == 1:
            return ["serve", "--http", "0", *source]
        return ["cluster", "serve", "--http", "0", "--nodes", str(self.nodes), *source]

    def reset(self) -> None:
        """Forget run state so a second deployment replays the same inputs."""

    def warm_up(self, url: str, node_urls: Sequence[str]) -> None:
        raise NotImplementedError

    def bodies(self, url: str, deadline: float, logs: Sequence[OpLog]) -> List[Callable[[], None]]:
        raise NotImplementedError

    def _scrape(self, log: OpLog, advisor: Any) -> None:
        if self.scrape_every and (len(log.records) + 1) % self.scrape_every == 0:
            log.run("scrape", advisor.metrics_text, check=("scrape",))


#: The low-cardinality VOC attributes contexts are drawn over (never ``trip``).
VOC_ATTRIBUTES = ("tonnage", "built", "departure_date", "type_of_boat",
                  "departure_harbour", "yard", "master")

#: Every VOC attribute subset of 3 to 5 attributes, by width, in one fixed
#: shuffled order.
_VOC_SUBSETS = {
    width: [combos[int(i)] for i in _rng(width).permutation(len(combos))]
    for width, combos in (
        (w, list(itertools.combinations(VOC_ATTRIBUTES, w))) for w in (3, 4, 5)
    )
}


class ExploreDrill(Workload):
    """Cold advice and drill-down: every advise misses the advice cache."""

    name = "explore-drill"
    clients = 1
    dataset = "voc"
    rows = 20000
    table_seed = 42
    nodes = 1
    scrape_every = 20
    attributes = VOC_ATTRIBUTES
    #: drill (D) and back (B) moves of every session
    path = "DB"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.reset()

    def reset(self) -> None:
        self.contexts = ContextMaker(self.ref, self.attributes, min_rows=300)

    def subset(self, stream: int, index: int) -> Tuple[str, ...]:
        """The attributes of a stream's ``index``-th context.

        Widths cycle 3, 4, 5 and, within a width, the attribute subsets
        come in one fixed order for every seed: the seed draws the
        clauses' values, while every run mixes the same context shapes,
        which set most of an advise's cost.
        """
        width = 3 + index % 3
        combos = _VOC_SUBSETS[width]
        return combos[(index // 3 + 7 * stream) % len(combos)]

    def warm_up(self, url: str, node_urls: Sequence[str]) -> None:
        from repro.api.client import RemoteAdvisor

        advisor = RemoteAdvisor(url)
        session = advisor.open_session("warm-up")
        session.advise(list(self.attributes), mode="interactive")
        session.refine()
        advisor.count("type_of_boat IN ('fluit')")
        advisor.close_session("warm-up")

    def bodies(self, url: str, deadline: float, logs: Sequence[OpLog]) -> List[Callable[[], None]]:
        return [self._body(url, deadline, thread, log) for thread, log in enumerate(logs)]

    def _body(self, url: str, deadline: float, thread: int, log: OpLog) -> Callable[[], None]:
        from repro.api.client import RemoteAdvisor

        advisor = RemoteAdvisor(url)
        rows = self.ref.num_rows

        def body() -> None:
            index = 0
            while time.perf_counter() < deadline:
                rng = _rng(self.seed, thread, index)
                name = f"ed-{thread}-{index}"
                session = log.run("open", advisor.open_session, name)
                navigator = Navigator(log, session, rows)
                interactive = index % 4 == 3
                if interactive:
                    attributes = self.subset(2 * thread + 1, index // 4)
                else:
                    attributes = self.subset(2 * thread, index - index // 4)
                navigator.advise(self.contexts.make(rng, attributes=attributes),
                                 interactive=interactive)
                neighbour = self.contexts.make(rng, 2, 2)
                log.run("count", advisor.count, where_text(neighbour),
                        check=("count", neighbour, rows))
                for move in self.path:
                    if move == "D":
                        navigator.drill(int(rng.integers(1 << 30)), int(rng.integers(1 << 30)))
                    elif len(navigator.stack) > 1:
                        navigator.back()
                    self._scrape(log, advisor)
                log.run("close", advisor.close_session, name)
                index += 1

        return body


class HotDashboard(Workload):
    """Warm advice through the router: transport, codec and caches."""

    name = "hot-dashboard"
    clients = 2
    dataset = "voc"
    rows = 5000
    table_seed = 42
    nodes = 2
    scrape_every = 25
    paths_per_context = 3
    count_clauses = 4
    attributes = VOC_ATTRIBUTES
    #: the hot contexts' attributes; the seed draws their clauses' values
    shapes = (
        ("tonnage", "type_of_boat", "departure_harbour"),
        ("built", "departure_date", "type_of_boat", "yard"),
        ("tonnage", "departure_harbour", "yard", "master"),
        ("tonnage", "built", "departure_date", "type_of_boat", "yard"),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        maker = ContextMaker(self.ref, self.attributes, min_rows=300)
        rng = _rng(seed, 1 << 20)
        self.contexts = [maker.make(rng, attributes=shape) for shape in self.shapes]
        self.paths = [[(int(rng.integers(1 << 30)), int(rng.integers(1 << 30)))
                       for _ in range(self.paths_per_context)]
                      for _ in self.shapes]
        self.counts = [maker.make(rng, 1, 2) for _ in range(self.count_clauses)]

    def warm_up(self, url: str, node_urls: Sequence[str]) -> None:
        """Replay every context, path and count directly on every node."""
        from harness import run_threads

        run_threads([lambda node_url=node_url: self._warm_node(node_url)
                     for node_url in node_urls])

    def _warm_node(self, node_url: str) -> None:
        from repro.api.client import RemoteAdvisor

        advisor = RemoteAdvisor(node_url)
        for clauses in self.counts:
            advisor.count(where_text(clauses))
        for h, clauses in enumerate(self.contexts):
            for interactive in (False, True):
                session = advisor.open_session(f"warm-{h}")
                navigator = Navigator(OpLog(), session, self.ref.num_rows)
                navigator.advise(clauses, interactive)
                for answer, segment in self.paths[h]:
                    if navigator.drill(answer, segment):
                        navigator.back()
                advisor.close_session(f"warm-{h}")

    def bodies(self, url: str, deadline: float, logs: Sequence[OpLog]) -> List[Callable[[], None]]:
        return [self._body(url, deadline, thread, log) for thread, log in enumerate(logs)]

    def _body(self, url: str, deadline: float, thread: int, log: OpLog) -> Callable[[], None]:
        from repro.api.client import RemoteAdvisor

        advisor = RemoteAdvisor(url)
        rows = self.ref.num_rows

        def body() -> None:
            index = 0
            while time.perf_counter() < deadline:
                rng = _rng(self.seed, thread, index)
                h = int(rng.integers(len(self.contexts)))
                answer, segment = self.paths[h][int(rng.integers(self.paths_per_context))]
                counted = self.counts[int(rng.integers(self.count_clauses))]
                name = f"hd-{thread}-{index}"
                session = log.run("open", advisor.open_session, name)
                navigator = Navigator(log, session, rows)
                navigator.advise(self.contexts[h], interactive=index % 4 == 3)
                self._scrape(log, advisor)
                drilled = navigator.drill(answer, segment)
                log.run("describe", advisor.call, "describe", session=name,
                        check=("describe", 1 if drilled else 0))
                if drilled:
                    navigator.back()
                log.run("count", advisor.count, where_text(counted),
                        check=("count", counted, rows))
                self._scrape(log, advisor)
                log.run("close", advisor.close_session, name)
                index += 1

        return body


class LiveWide(Workload):
    """Writes beside reads: whole-table advice over a growing weblog."""

    name = "live-wide"
    clients = 1
    dataset = "weblog"
    rows = 10000
    table_seed = 13
    nodes = 2
    batch_rows = 200
    counts_per_round = 8
    fault_counted = True
    count_attributes = ("url_category", "status_code", "country", "hour")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.base_rows = self.ref.num_rows
        self.reset()

    def reset(self) -> None:
        self.ref = ReferenceTable(self.base_columns)
        self.counts = ContextMaker(self.ref, self.count_attributes, min_rows=1)
        self.sessions: Tuple[str, str] = ("", "")

    def batch(self, round_index: int) -> List[Dict[str, Any]]:
        """Complete rows resampled column-wise from the base table."""
        rng = _rng(self.seed, 1 << 21, round_index)
        rows = []
        for j in range(self.batch_rows):
            row = {name: values[int(rng.integers(self.base_rows))]
                   for name, values in self.base_columns.items()}
            row["request_id"] = f"bench-{self.seed}-{round_index:04d}-{j:04d}"
            rows.append(row)
        return rows

    def warm_up(self, url: str, node_urls: Sequence[str]) -> None:
        """Open the two sessions on different nodes, then count once."""
        from repro.api.client import RemoteAdvisor

        advisor = RemoteAdvisor(url)
        placed: Dict[int, str] = {}
        for index in range(64):
            name = f"lw-{index}"
            advisor.open_session(name)
            node = advisor.cluster()["sessions"][name]
            if node in placed:
                advisor.close_session(name)
            else:
                placed[node] = name
            if len(placed) == 2:
                break
        if len(placed) != 2:
            raise CheckFailed("could not place the two live-wide sessions on two nodes")
        self.sessions = (placed[min(placed)], placed[max(placed)])
        advisor.count("status_code IN ('500')")

    def bodies(self, url: str, deadline: float, logs: Sequence[OpLog]) -> List[Callable[[], None]]:
        from repro.api.client import RemoteAdvisor

        advisor = RemoteAdvisor(url, timeout=120.0)
        log = logs[0]
        interactive = advisor.session(self.sessions[0])
        exact = advisor.session(self.sessions[1])

        def scrape() -> None:
            log.run("scrape", advisor.metrics_text, check=("scrape",))

        def body() -> None:
            version = 1
            round_index = 0
            while time.perf_counter() < deadline:
                rows = self.batch(round_index)
                self.ref.append(rows)
                version += 1
                total = self.ref.num_rows
                log.run("ingest", advisor.ingest, rows=rows,
                        check=("ingest", total, version))
                scrape()
                Navigator(log, interactive, total).advise(None, interactive=True)
                scrape()
                log.run("refresh", exact.advise, refresh=True,
                        check=("exact", None, total))
                scrape()
                count_rng = _rng(self.seed, 1 << 22, round_index)
                for _ in range(self.counts_per_round):
                    clauses = self.counts.make(count_rng, 1, 2)
                    log.run("count", advisor.count, where_text(clauses),
                            check=("count", clauses, total))
                scrape()
                round_index += 1

        return [body]


WORKLOADS = {cls.name: cls for cls in (ExploreDrill, HotDashboard, LiveWide)}
