"""The operations the benchmark times, driven through relnorm's public functions.

A normalize op is what ``relnorm normalize --ddl`` does, at both normal
forms; a verify op is what ``relnorm verify`` does with that op's tables.
Each op makes its calls into relnorm through ``call(name, fn, *args)``:
:func:`direct` when untraced, a :class:`Tracer`'s span recorder when traced,
so the traced op is the timed op.  The traced run also re-issues the stages
that only run inside ``prepare`` so their cost can be attributed; the
re-issued products must equal ``prepare``'s.
"""

from __future__ import annotations

import statistics
import time

from relnorm import (
    FdSet,
    classify,
    decompose_2nf,
    decompose_3nf,
    emit_ddl,
    is_lossless,
    memory_cells_double,
    memory_cells_single,
    minimal_cover,
    parse_schema_file,
    prepare,
    preserves_dependencies,
    scan_violations,
    split_rhs,
    to_first_normal_form,
)
from relnorm.baseline import classify_two_list, two_list_from_state
from relnorm.errors import NormalizationError
from relnorm.normalizer import build_schema_list


def direct(name: str, fn, *args):
    """The untraced ``call``: just the call."""
    return fn(*args)


class Tracer:
    """Spans kept in memory until the run ends.

    A span is (span id, parent span id, op id, name, start ns, end ns).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self.op = 0
        self._next = 0

    def open(self) -> int:
        self._next += 1
        return self._next

    def caller(self, parent: int):
        """A ``call`` that records each call as a span under ``parent``."""
        spans, op = self.spans, self.op

        def call(name: str, fn, *args):
            sid = self.open()
            start = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                spans.append((sid, parent, op, name, start, time.perf_counter_ns()))

        return call

    def record(self, sid: int, parent: int | None, name: str, start: int, end: int) -> None:
        self.spans.append((sid, parent, self.op, name, start, end))


# --------------------------------------------------------------------------- ops

def normalize_op(text: str, call=direct):
    raw = call("schema_file.parse", parse_schema_file, text)
    state = call("normalizer.prepare", prepare, raw)
    t2 = call("normalizer.decompose_2nf", decompose_2nf, state.classification)
    t3 = call("normalizer.decompose_3nf", decompose_3nf, state.classification)
    d2 = call("ddl.emit", emit_ddl, t2)
    d3 = call("ddl.emit", emit_ddl, t3)
    return raw, state, t2, t3, d2.text, d3.text


def verify_op(state, t2, t3, full: bool, call=direct):
    """Oracles on both decompositions; ``full`` false runs only the scan."""
    universe = state.flat.attribute_names()
    out = []
    for tables, mode in ((t2, "2nf"), (t3, "3nf")):
        lossless = call("verifier.lossless", is_lossless, universe, state.cover, tables) if full else None
        preserved = call("verifier.preserve", preserves_dependencies, state.cover, tables) if full else None
        violations = tuple(
            v for t in tables for v in call("verifier.scan", scan_violations, t, state.cover, mode)
        )
        out.append((lossless, preserved, violations))
    return tuple(out)


def restage(raw, state, call) -> list[str]:
    """Re-issue prepare's stages in prepare's order, each through ``call``,
    and return the names of the products that differ from ``prepare``'s."""
    flat = call("normalizer.flatten", to_first_normal_form, raw)
    universe = flat.attribute_names()
    split = call("fd_engine.split_rhs", split_rhs, flat.declared_fds, universe)
    keys = set(flat.key_names())
    ordered = [fd for fd in split if not fd.lhs <= keys] + [fd for fd in split if fd.lhs <= keys]
    cover = call("fd_engine.minimal_cover", minimal_cover, FdSet(tuple(ordered), universe))
    schema_list = call("schema_model.build", build_schema_list, flat, cover)
    classification = call("normalizer.classify", classify, schema_list)
    products = {
        "flat": (flat, state.flat),
        "split": (split, state.split),
        "cover": (cover, state.cover),
        "node sequence": (schema_list, state.schema_list),
        "classification": (classification, state.classification),
    }
    return [name for name, (mine, theirs) in products.items() if mine != theirs]


# --------------------------------------------------------------------------- outcomes

def run_normalize(text: str, call=direct):
    """One normalize op: (result or None, outcome signature)."""
    try:
        result = normalize_op(text, call)
    except NormalizationError as exc:
        return None, ("rejected", type(exc).__name__, str(exc))
    except Exception as exc:  # a failed op is measured, not fatal
        return None, ("error", type(exc).__name__, str(exc))
    return result, ("ok", result[4], result[5])


def run_verify(result, full: bool, call=direct):
    _, state, t2, t3, _, _ = result
    try:
        return verify_op(state, t2, t3, full, call)
    except Exception as exc:  # a failed op is measured, not fatal
        return ("error", type(exc).__name__, str(exc))


def plain_tables(tables) -> list[tuple[str, frozenset[str], frozenset[str]]]:
    return [(t.name, frozenset(t.attributes), frozenset(t.primary_key)) for t in tables]


def plain_cover(state) -> list[tuple[frozenset[str], str]]:
    return [(fd.lhs, fd.rhs) for fd in state.cover]


def plain_verdict(verdict) -> object:
    if verdict and verdict[0] == "error":
        return verdict
    return tuple(
        (lossless, preserved, {(v.table, v.kind.value, v.dependent, v.determiner) for v in violations})
        for lossless, preserved, violations in verdict
    )


def parse_rejects(text: str) -> bool:
    try:
        parse_schema_file(text)
    except NormalizationError:
        return True
    return False


def counts(result) -> dict[str, float]:
    """Sizes of the intermediate representation for one accepted input."""
    _, state, t2, t3, ddl2, ddl3 = result
    return {
        "normalizer.flat_attrs": len(state.flat.attributes),
        "normalizer.tables_2nf": len(t2),
        "normalizer.tables_3nf": len(t3),
        "fd_engine.split_fds": len(state.split),
        "fd_engine.cover_fds": len(state.cover),
        "schema_model.nodes": len(state.schema_list.nodes),
        "schema_model.slots": sum(len(n.determiner_slots) for n in state.schema_list.nodes),
        "ddl.statements": ddl2.count("CREATE TABLE") + ddl3.count("CREATE TABLE"),
        "ddl.bytes": len(ddl2.encode()) + len(ddl3.encode()),
        "max_width_2nf": max(len(t.attributes) for t in t2),
        "max_width_3nf": max(len(t.attributes) for t in t3),
    }


# --------------------------------------------------------------------------- paper row

def _per_pass_ms(fn, min_ns: int = 2_000_000, samples: int = 5) -> float:
    inner = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        if time.perf_counter_ns() - start >= min_ns:
            break
        inner *= 2
    runs = []
    for _ in range(samples):
        start = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        runs.append((time.perf_counter_ns() - start) / inner / 1e6)
    return statistics.median(runs)


def baseline_row(state) -> tuple[float, float, float, bool]:
    """The paper's comparison for one relation: (double/single memory,
    two-list classify+synthesis ms, single-list ms, same classification)."""
    entered = two_list_from_state(state, use_cover=False)
    covered = two_list_from_state(state, use_cover=True)
    ratio = memory_cells_double(entered) / memory_cells_single(state.schema_list)
    schema_list = state.schema_list

    def two_list():
        c = classify_two_list(covered)
        return decompose_2nf(c), decompose_3nf(c)

    def single_list():
        c = classify(schema_list)
        return decompose_2nf(c), decompose_3nf(c)

    same = classify_two_list(covered) == classify(schema_list)
    return ratio, _per_pass_ms(two_list), _per_pass_ms(single_list), same
