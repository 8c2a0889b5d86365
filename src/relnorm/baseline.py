"""Two-sequence baseline representation and the comparison harness.

The baseline keeps one sequence of attributes and a second sequence of
dependencies, so classification has to re-derive each attribute's
determiners by scanning the dependency list — the lookup cost the
single-sequence design avoids by storing determiner slots in the nodes.

Memory is compared under a fixed abstract cell model read off the node
layout: name cells of 50 bytes, flag cells of 1, id and link cells of 4,
and ``MAX_DETERMINERS`` slots of ``MAX_LHS`` ids per node.  Absolute byte
counts from any concrete runtime are not reproduced; the model makes the
size comparison explicit and checkable.

Timing compares the classification-plus-synthesis pass of both
representations from prebuilt inputs.  The shared preprocessing
(flattening, splitting, cover computation) is identical for both engines
and excluded from both sides.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import LhsTooLarge, UnknownAttribute
from .normalizer import (
    Classification,
    PipelineState,
    RawSchema,
    bucket_determiners,
    classify,
    decompose_2nf,
    decompose_3nf,
    prepare,
)
from .schema_model import MAX_DETERMINERS, MAX_LHS, SchemaList


@dataclass(frozen=True)
class TwoListAttribute:
    name: str
    is_key: bool = False


@dataclass(frozen=True)
class TwoListFd:
    lhs: tuple[str, ...]
    rhs: str


@dataclass(frozen=True)
class TwoListSchema:
    """One attribute sequence plus one dependency sequence."""

    relation_name: str
    attribute_list: tuple[TwoListAttribute, ...]
    fd_list: tuple[TwoListFd, ...]

    def __post_init__(self) -> None:
        known = {a.name for a in self.attribute_list}
        for fd in self.fd_list:
            if len(fd.lhs) > MAX_LHS:
                raise LhsTooLarge(
                    f"relation {self.relation_name!r}: dependency {', '.join(fd.lhs)} -> {fd.rhs}: "
                    f"left-hand side of size {len(fd.lhs)} exceeds MAX_LHS = {MAX_LHS}"
                )
            missing = (set(fd.lhs) | {fd.rhs}) - known
            if missing:
                raise UnknownAttribute(f"dependency mentions unknown attributes: {sorted(missing)}")


# byte costs of the cell model
NAME_CELL = 50
FLAG_CELL = 1
ID_CELL = 4
LINK_CELL = 4


def memory_cells_single(schema_list: SchemaList) -> int:
    """Bytes for the single-sequence layout: N times the ten-field node.

    The cell model describes the paper's node, which keeps an attribute
    type byte.  ``AttributeNode`` stores no kind, since every node is
    atomic after 1NF flattening, but the byte is still counted so the
    figures stay those of the paper's layout.
    """
    per_node = (
        NAME_CELL            # attribute name
        + 2 * FLAG_CELL      # attribute type, determiner flag
        + ID_CELL            # node id
        + MAX_DETERMINERS * MAX_LHS * ID_CELL
        + FLAG_CELL          # key flag
        + LINK_CELL          # successor link
    )
    return len(schema_list.nodes) * per_node


def memory_cells_double(schema: TwoListSchema) -> int:
    """Bytes for the two-sequence layout: attribute nodes plus dependency nodes."""
    attr_node = NAME_CELL + 2 * FLAG_CELL + LINK_CELL
    fd_node = MAX_LHS * NAME_CELL + NAME_CELL + LINK_CELL
    return len(schema.attribute_list) * attr_node + len(schema.fd_list) * fd_node


def two_list_from_state(state: PipelineState, *, use_cover: bool) -> TwoListSchema:
    """Build the baseline representation from a pipeline run.

    ``use_cover`` selects the canonical cover (what the classification
    pass consumes) instead of the dependencies as entered (what the
    memory comparison uses).  Attribute order matches the single list.
    """
    attrs = tuple(
        TwoListAttribute(node.attribute_name, node.is_key_attribute)
        for node in state.schema_list.nodes
    )
    source = state.cover if use_cover else state.split
    position = {a.name: i for i, a in enumerate(attrs)}
    fds = tuple(
        TwoListFd(tuple(sorted(fd.lhs, key=position.__getitem__)), fd.rhs)
        for fd in source
    )
    return TwoListSchema(state.schema_list.relation_name, attrs, fds)


def classify_two_list(schema: TwoListSchema) -> Classification:
    """Classification over the two-sequence layout.

    Each non-key attribute's determiners are recovered by scanning the
    dependency list, with attribute positions standing in for node ids;
    the bucketing is the single-sequence one.  Produces an identical
    result for matching inputs.
    """
    position = {a.name: i for i, a in enumerate(schema.attribute_list, 1)}

    def determiners(name: str) -> list[frozenset[int]]:
        return [frozenset(map(position.__getitem__, fd.lhs)) for fd in schema.fd_list if fd.rhs == name]

    return bucket_determiners(
        schema.relation_name,
        [
            (position[a.name], a.name, a.is_key, () if a.is_key else determiners(a.name))
            for a in schema.attribute_list
        ],
    )


CSV_HEADER = (
    "relation,attrs,fds,single_bytes,double_bytes,mem_ratio,"
    "t2nf_single_us,t2nf_double_us,t3nf_single_us,t3nf_double_us"
)


@dataclass(frozen=True)
class BenchRow:
    relation: str
    attrs: int
    fds: int
    single_bytes: int
    double_bytes: int
    mem_ratio: float
    t2nf_single_us: float
    t2nf_double_us: float
    t3nf_single_us: float
    t3nf_double_us: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    repetitions: int

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.relation},{r.attrs},{r.fds},{r.single_bytes},{r.double_bytes},"
                f"{r.mem_ratio:.4f},{r.t2nf_single_us:.2f},{r.t2nf_double_us:.2f},"
                f"{r.t3nf_single_us:.2f},{r.t3nf_double_us:.2f}"
            )
        return "\n".join(lines) + "\n"

    def average_double_over_single_memory(self) -> float:
        return statistics.mean(r.double_bytes / r.single_bytes for r in self.rows)

    def to_text(self) -> str:
        header = (
            f"{'relation':<26}{'attrs':>6}{'fds':>5}{'single_B':>10}{'double_B':>10}"
            f"{'dbl/sgl':>9}{'2nf_s_us':>10}{'2nf_d_us':>10}{'3nf_s_us':>10}{'3nf_d_us':>10}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.relation:<26}{r.attrs:>6}{r.fds:>5}{r.single_bytes:>10}{r.double_bytes:>10}"
                f"{r.double_bytes / r.single_bytes:>9.3f}{r.t2nf_single_us:>10.2f}"
                f"{r.t2nf_double_us:>10.2f}{r.t3nf_single_us:>10.2f}{r.t3nf_double_us:>10.2f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"repetitions per timing: {self.repetitions}; "
            f"corpus average double/single memory: "
            f"{self.average_double_over_single_memory():.3f}"
        )
        lines.append(
            "timings cover the classification+synthesis pass per representation; "
            "shared preprocessing is excluded from both sides"
        )
        return "\n".join(lines) + "\n"


def _median_us(pass_fn: Callable[[], object], repetitions: int) -> float:
    """Median microseconds per call over batches sized to take about 2 ms."""

    def batch_ns(inner: int) -> int:
        start = time.perf_counter_ns()
        for _ in range(inner):
            pass_fn()
        return time.perf_counter_ns() - start

    inner = 1
    while batch_ns(inner) < 2_000_000:
        inner *= 2
    return statistics.median([batch_ns(inner) / inner / 1000.0 for _ in range(repetitions)])


def bench(corpus: Sequence[RawSchema], repetitions: int = 5) -> BenchReport:
    """Compare both representations over a corpus of relations.

    For every relation: memory bytes under the cell model for both
    layouts (the two-sequence layout holding the dependencies as
    entered), plus median wall-clock for the classification+synthesis
    pass of each layout at both normal forms.
    """
    if not corpus:
        raise ValueError("benchmark requires at least one relation")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rows: list[BenchRow] = []
    for raw in corpus:
        state = prepare(raw)
        entered = two_list_from_state(state, use_cover=False)
        covered = two_list_from_state(state, use_cover=True)
        single_bytes = memory_cells_single(state.schema_list)
        double_bytes = memory_cells_double(entered)
        schema_list = state.schema_list

        t2nf_single = _median_us(lambda: decompose_2nf(classify(schema_list)), repetitions)
        t2nf_double = _median_us(lambda: decompose_2nf(classify_two_list(covered)), repetitions)
        t3nf_single = _median_us(lambda: decompose_3nf(classify(schema_list)), repetitions)
        t3nf_double = _median_us(lambda: decompose_3nf(classify_two_list(covered)), repetitions)

        rows.append(
            BenchRow(
                relation=raw.relation_name,
                attrs=len(state.flat.attributes),
                fds=len(state.split),
                single_bytes=single_bytes,
                double_bytes=double_bytes,
                mem_ratio=single_bytes / double_bytes,
                t2nf_single_us=t2nf_single,
                t2nf_double_us=t2nf_double,
                t3nf_single_us=t3nf_single,
                t3nf_double_us=t3nf_double,
            )
        )
    return BenchReport(tuple(rows), repetitions)
