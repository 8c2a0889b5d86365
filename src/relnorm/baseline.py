"""Two-sequence baseline representation and the comparison harness.

The baseline keeps one sequence of attributes and a second sequence of
dependencies, so classification has to re-derive each attribute's
determiners by scanning the dependency list — the lookup cost the
single-sequence design avoids by storing determiner slots in the nodes.
Both sequences hold the pipeline's own records.  Memory is compared under
the cell model of :mod:`relnorm.schema_model`, beside the node layout.
The baseline's own records sit on the same base as the pipeline's,
:class:`relnorm.schema_model._Frozen`.

Timing compares the classification-plus-synthesis pass of both
representations from prebuilt inputs.  The shared preprocessing
(flattening, splitting, cover computation) is identical for both engines
and excluded from both sides.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Sequence

from .errors import UnknownAttribute
from .normalizer import (
    Classification,
    PipelineState,
    RawAttribute,
    RawSchema,
    bucket_determiners,
    classify,
    decompose_2nf,
    decompose_3nf,
    prepare,
)
from .schema_model import MAX_LHS, FunctionalDependency, _Frozen, _lhs_too_large, _setfield
from .schema_model import memory_cells_double, memory_cells_single


class TwoListSchema(_Frozen):
    """One attribute sequence plus one dependency sequence."""

    __slots__ = _fields = ("relation_name", "attribute_list", "fd_list")

    def __init__(
        self, relation_name: str, attribute_list: tuple[RawAttribute, ...], fd_list: tuple[FunctionalDependency, ...]
    ) -> None:
        known = {a.name for a in attribute_list}
        for fd in fd_list:
            if len(fd.lhs) > MAX_LHS:
                raise _lhs_too_large(relation_name, fd)
            missing = (fd.lhs | {fd.rhs}) - known
            if missing:
                raise UnknownAttribute(f"dependency mentions unknown attributes: {sorted(missing)}")
        _setfield(self, "relation_name", relation_name)
        _setfield(self, "attribute_list", attribute_list)
        _setfield(self, "fd_list", fd_list)


def two_list_from_state(state: PipelineState, *, use_cover: bool) -> TwoListSchema:
    """Build the baseline representation from a pipeline run.

    ``use_cover`` selects the canonical cover (what the classification
    pass consumes) instead of the dependencies as entered (what the
    memory comparison uses); ``fd_list`` is that set's own tuple, not a
    copy.  Attribute order matches the single list.
    """
    attrs = tuple(RawAttribute(node.attribute_name, node.is_key_attribute) for node in state.schema_list.nodes)
    return TwoListSchema(state.schema_list.relation_name, attrs, (state.cover if use_cover else state.split).fds)


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


class BenchRow(_Frozen):
    __slots__ = _fields = (
        "relation", "attrs", "fds", "single_bytes", "double_bytes", "mem_ratio",
        "t2nf_single_us", "t2nf_double_us", "t3nf_single_us", "t3nf_double_us",
    )


# one CSV column per BenchRow field, named after it and written with its spec
CSV_HEADER = ",".join(BenchRow._fields)
_CSV_SPECS = ("", "", "", "", "", ".4f", ".2f", ".2f", ".2f", ".2f")


class BenchReport(_Frozen):
    __slots__ = _fields = ("rows", "repetitions")

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([format(value, spec) for value, spec in zip(r._values(), _CSV_SPECS, strict=True)]))
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
        covered = two_list_from_state(state, use_cover=True)
        single_bytes = memory_cells_single(state.schema_list)
        double_bytes = memory_cells_double(two_list_from_state(state, use_cover=False))
        layouts = (("single", classify, state.schema_list), ("double", classify_two_list, covered))
        # keyed by BenchRow field; each pass is timed before the loop rebinds what it reads
        timings = {
            f"t{nf}nf_{side}_us": _median_us(lambda: decompose(classify_layout(layout)), repetitions)
            for nf, decompose in ((2, decompose_2nf), (3, decompose_3nf))
            for side, classify_layout, layout in layouts
        }
        sizes = (len(state.flat.attributes), len(state.split), single_bytes, double_bytes)
        rows.append(BenchRow(raw.relation_name, *sizes, single_bytes / double_bytes, **timings))
    return BenchReport(tuple(rows), repetitions)
