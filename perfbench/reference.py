"""An independent copy of a served table, and the checks run against it.

The benchmark never trusts the advisor to grade itself.  It rebuilds the
served table from the same generator and seed, keeps its columns as plain
NumPy arrays, appends every row it ingests, and evaluates each returned
query's predicates with the code below.  The predicate *objects* come from
the decoded replies; how they select rows is decided here, from their
documented semantics (``[low, high]`` bounds with inclusive flags, value
sets, exclusion sets, missing values never matching a constraint).

Every check raises :class:`CheckFailed`; the caller decides whether a
failure is the one known fault (see :func:`is_retained_values_fault`) or
an incorrect output that aborts the run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

ENTROPY_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """A reply disagrees with the independent recomputation."""


# -- contexts the benchmark builds itself ------------------------------------

class Clause:
    """One constraint of a context the benchmark generates.

    ``kind`` is ``"range"`` (closed interval ``[low, high]``) or ``"set"``
    (membership).  Clauses render to SQL WHERE text for the wire and are
    evaluated here without going through the program's parser.
    """

    __slots__ = ("attribute", "kind", "low", "high", "values")

    def __init__(self, attribute: str, kind: str, low: Any = None, high: Any = None,
                 values: Sequence[Any] = ()) -> None:
        self.attribute = attribute
        self.kind = kind
        self.low = low
        self.high = high
        self.values = tuple(sorted(values))

    def to_sql(self) -> str:
        if self.kind == "range":
            return f"{self.attribute} BETWEEN {self.low} AND {self.high}"
        rendered = ", ".join("'" + str(v).replace("'", "''") + "'" for v in self.values)
        return f"{self.attribute} IN ({rendered})"

    def key(self) -> Tuple[Any, ...]:
        return (self.attribute, self.kind, self.low, self.high, self.values)


def where_text(clauses: Sequence[Clause]) -> str:
    return " AND ".join(clause.to_sql() for clause in clauses)


def context_key(clauses: Sequence[Clause]) -> Tuple[Any, ...]:
    return tuple(sorted(clause.key() for clause in clauses))


# -- the reference table -----------------------------------------------------

class _StringColumn:
    """Dictionary-coded strings: codes index into ``categories``."""

    def __init__(self, values: Sequence[str]) -> None:
        self.categories: List[str] = []
        self._codes_of: Dict[str, int] = {}
        self.codes = np.empty(0, dtype=np.int64)
        self.append(values)

    def append(self, values: Sequence[str]) -> None:
        new = np.empty(len(values), dtype=np.int64)
        for index, value in enumerate(values):
            if not isinstance(value, str):
                raise CheckFailed(f"reference copy expects strings, got {value!r}")
            code = self._codes_of.get(value)
            if code is None:
                code = len(self.categories)
                self._codes_of[value] = code
                self.categories.append(value)
            new[index] = code
        self.codes = np.concatenate([self.codes, new])

    def lookup(self, accept) -> np.ndarray:
        """A per-code boolean table for a per-value predicate."""
        return np.fromiter((bool(accept(v)) for v in self.categories), dtype=bool,
                           count=len(self.categories))


class ReferenceTable:
    """Plain-array copy of a served table that grows by appends only.

    Because the served tables only ever grow (ingest appends), the table
    at any earlier moment is a prefix of the rows; every evaluation takes
    the row count the reply was computed against.
    """

    def __init__(self, columns: Mapping[str, Sequence[Any]]) -> None:
        self.names = list(columns)
        self._strings: Dict[str, _StringColumn] = {}
        self._numbers: Dict[str, np.ndarray] = {}
        for name, values in columns.items():
            self._add_column(name, list(values))
        self.num_rows = len(next(iter(columns.values())))
        self._masks: Dict[Tuple[int, Any], np.ndarray] = {}

    def _add_column(self, name: str, values: List[Any]) -> None:
        if any(value is None for value in values):
            raise CheckFailed(f"column {name!r} has missing values; not modelled")
        if all(isinstance(value, str) for value in values):
            self._strings[name] = _StringColumn(values)
        elif all(isinstance(value, (int, float)) and not isinstance(value, bool)
                 for value in values):
            self._numbers[name] = np.asarray(values, dtype=np.float64)
        else:
            raise CheckFailed(f"column {name!r} mixes value types; not modelled")

    @classmethod
    def from_table(cls, table: Any) -> "ReferenceTable":
        """Copy the decoded values of a generated table."""
        return cls(table.to_dict())

    def append(self, rows: Sequence[Mapping[str, Any]]) -> None:
        for name in self.names:
            values = [row[name] for row in rows]
            if name in self._strings:
                self._strings[name].append(values)
            else:
                self._numbers[name] = np.concatenate(
                    [self._numbers[name], np.asarray(values, dtype=np.float64)]
                )
        self.num_rows += len(rows)

    def is_string(self, attribute: str) -> bool:
        return attribute in self._strings

    def distinct_values(self, attribute: str, mask: np.ndarray) -> set:
        if attribute in self._strings:
            column = self._strings[attribute]
            codes = np.unique(column.codes[: len(mask)][mask])
            return {column.categories[int(code)] for code in codes}
        return set(np.unique(self._numbers[attribute][: len(mask)][mask]).tolist())

    def values(self, attribute: str, rows: Optional[int] = None) -> List[Any]:
        rows = self.num_rows if rows is None else rows
        if attribute in self._strings:
            column = self._strings[attribute]
            return [column.categories[int(c)] for c in column.codes[:rows]]
        return self._numbers[attribute][:rows].tolist()

    # -- predicate evaluation ------------------------------------------------

    def _accept(self, predicate: Any):
        kind = type(predicate).__name__
        if kind == "RangePredicate":
            low, high = predicate.low, predicate.high
            inc_low, inc_high = predicate.include_low, predicate.include_high

            def accept(value: Any) -> bool:
                above = value >= low if inc_low else value > low
                below = value <= high if inc_high else value < high
                return above and below
            return accept
        if kind == "SetPredicate":
            allowed = set(predicate.values)
            return lambda value: value in allowed
        if kind == "ExclusionPredicate":
            excluded = set(predicate.values)
            return lambda value: value not in excluded
        raise CheckFailed(f"unknown predicate type {kind}")

    def predicate_mask(self, predicate: Any, rows: int) -> np.ndarray:
        attribute = predicate.attribute
        if attribute not in self._strings and attribute not in self._numbers:
            raise CheckFailed(f"reply names unknown attribute {attribute!r}")
        if type(predicate).__name__ == "NoConstraint":
            return np.ones(rows, dtype=bool)
        cache_key = (rows, predicate)
        cached = self._masks.get(cache_key)
        if cached is not None:
            return cached
        if attribute in self._strings:
            column = self._strings[attribute]
            mask = column.lookup(self._accept(predicate))[column.codes[:rows]]
        else:
            data = self._numbers[attribute][:rows]
            kind = type(predicate).__name__
            if kind == "RangePredicate":
                low = data >= predicate.low if predicate.include_low else data > predicate.low
                high = data <= predicate.high if predicate.include_high else data < predicate.high
                mask = low & high
            else:
                member = np.isin(data, np.asarray(list(predicate.values), dtype=np.float64))
                mask = member if kind == "SetPredicate" else ~member
        if len(self._masks) > 4096:
            self._masks.clear()
        self._masks[cache_key] = mask
        return mask

    def query_mask(self, query: Any, rows: int) -> np.ndarray:
        mask = np.ones(rows, dtype=bool)
        for predicate in query.predicates:
            mask &= self.predicate_mask(predicate, rows)
        return mask

    def clauses_mask(self, clauses: Sequence[Clause], rows: Optional[int] = None) -> np.ndarray:
        rows = self.num_rows if rows is None else rows
        mask = np.ones(rows, dtype=bool)
        for clause in clauses:
            if clause.attribute in self._strings:
                column = self._strings[clause.attribute]
                allowed = set(clause.values)
                mask &= column.lookup(lambda v: v in allowed)[column.codes[:rows]]
            else:
                data = self._numbers[clause.attribute][:rows]
                mask &= (data >= clause.low) & (data <= clause.high)
        return mask


# -- checks on replies -------------------------------------------------------

def check_context(advice: Any, expected: np.ndarray, ref: ReferenceTable, rows: int) -> None:
    """The advice answers the context that was asked for."""
    got = ref.query_mask(advice.context, rows)
    if not np.array_equal(got, expected):
        raise CheckFailed(
            f"advice context {advice.context.to_sdl()} selects {int(got.sum())} rows, "
            f"the requested context selects {int(expected.sum())}"
        )


def _segment_masks(segmentation: Any, ref: ReferenceTable, rows: int) -> List[np.ndarray]:
    return [ref.query_mask(segment.query, rows) for segment in segmentation.segments]


def check_partition(segmentation: Any, context_mask: np.ndarray, ref: ReferenceTable,
                    rows: int) -> None:
    """Segments are pairwise disjoint and together cover the context rows."""
    masks = _segment_masks(segmentation, ref, rows)
    hits = np.zeros(rows, dtype=np.int64)
    for mask in masks:
        if (mask & ~context_mask).any():
            raise CheckFailed(f"a segment of {segmentation.attributes} leaves the context")
        hits += mask
    if (hits > 1).any():
        raise CheckFailed(f"segments of {segmentation.attributes} overlap")
    covered = int((hits == 1).sum())
    wanted = int(context_mask.sum())
    if covered != wanted:
        raise CheckFailed(
            f"segmentation on {segmentation.attributes} covers {covered} of "
            f"{wanted} context rows"
        )


def check_exact_advice(advice: Any, context_mask: np.ndarray, ref: ReferenceTable,
                       rows: int) -> None:
    """Counts, partition, entropy and ranking order of exact advice."""
    if advice.approximate:
        raise CheckFailed("exact advice came back flagged approximate")
    total = int(context_mask.sum())
    previous = math.inf
    for answer in advice.answers:
        segmentation = answer.segmentation
        masks = _segment_masks(segmentation, ref, rows)
        counts = []
        for segment, mask in zip(segmentation.segments, masks):
            recount = int(mask.sum())
            if recount != segment.count:
                raise CheckFailed(
                    f"segment {segment.query.to_sdl()} reports {segment.count} rows, "
                    f"recount gives {recount}"
                )
            counts.append(recount)
        check_partition(segmentation, context_mask, ref, rows)
        expected = -sum((c / total) * math.log(c / total) for c in counts if c > 0)
        if abs(expected - answer.scores.entropy) > ENTROPY_TOLERANCE:
            raise CheckFailed(
                f"answer #{answer.rank} entropy {answer.scores.entropy!r}, "
                f"recomputed {expected!r}"
            )
        if answer.score > previous:
            raise CheckFailed(f"answer #{answer.rank} outranks a higher-scored answer")
        previous = answer.score


def is_retained_values_fault(segmentation: Any, context_mask: np.ndarray,
                             ref: ReferenceTable, rows: int) -> bool:
    """Whether a non-covering interactive CUT is the known nominal-split fault.

    The fault: sketch-backed value frequencies return only the values a
    capped nominal sketch retained, and the nominal split builds both
    halves from those values alone.  Its signature is a nominal cut
    attribute whose set predicates, over all segments, name fewer values
    than the context holds.
    """
    for attribute in segmentation.cut_attributes or segmentation.attributes:
        if not ref.is_string(attribute):
            continue
        named: set = set()
        for segment in segmentation.segments:
            predicate = segment.query.predicate_for(attribute)
            if type(predicate).__name__ == "SetPredicate":
                named |= set(predicate.values)
        present = ref.distinct_values(attribute, context_mask)
        if named and named < present:
            return True
    return False


def check_interactive_advice(advice: Any, context_mask: np.ndarray, ref: ReferenceTable,
                             rows: int) -> List[str]:
    """Partition and single-predicate bounds of approximate advice.

    Returns the attributes of segmentations that fail to cover the
    context because of the known nominal-split fault; any other failure
    raises.  Rankings are not compared with exact ones.
    """
    if not advice.approximate or advice.error_bound is None:
        raise CheckFailed("interactive advice came back without its error bound")
    slack = advice.error_bound * rows + 1
    faulty = []
    for answer in advice.answers:
        segmentation = answer.segmentation
        try:
            check_partition(segmentation, context_mask, ref, rows)
        except CheckFailed:
            if not is_retained_values_fault(segmentation, context_mask, ref, rows):
                raise
            faulty.append("x".join(segmentation.attributes))
            continue
        for segment in segmentation.segments:
            if segment.query.n_constraints != 1:
                continue
            recount = int((ref.query_mask(segment.query, rows) & context_mask).sum())
            if abs(segment.count - recount) > slack:
                raise CheckFailed(
                    f"estimate {segment.count} for {segment.query.to_sdl()} is off "
                    f"the recount {recount} by more than {slack:.1f}"
                )
    return faulty


def check_same_query(got: Any, expected: Any, what: str) -> None:
    if got != expected:
        raise CheckFailed(f"{what}: context {got.to_sdl()} != {expected.to_sdl()}")
