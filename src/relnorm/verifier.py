"""Decomposition-quality oracles, independent of the synthesis path.

Lossless join is decided by the chase: one tableau row per table, rows
equated under the dependencies until either some row becomes fully
distinguished or nothing changes.  Dependency preservation is decided by
the restricted-closure test of Beeri and Honeyman: the closure of a
left-hand side under the union of the per-table projections is grown
table by table, through the closure of what each table already sees,
without ever computing a projection.  A dependency embedded in one table
(its left- and right-hand attributes all inside it) is preserved without
a closure; the others share one closure kernel built once per call.  Both
tests are exact and polynomial; no heuristic projection is used, so the
verdicts here are trustworthy for auditing the normalizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import AttributeOutsideUniverse
from .fd_engine import FdSet, _Kernel
from .normalizer import TableStructure


class ViolationKind(Enum):
    PARTIAL = "partial"
    TRANSITIVE = "transitive"


@dataclass(frozen=True)
class Violation:
    table: str
    kind: ViolationKind
    dependent: str
    determiner: frozenset[str]


def _check_within_universe(tables: Sequence[TableStructure], universe: Sequence[str]) -> None:
    known = set(universe)
    for table in tables:
        outside = set(table.attributes) - known
        if outside:
            raise AttributeOutsideUniverse(
                f"table {table.name!r} mentions attributes outside the universe: {sorted(outside)}"
            )


def is_lossless(
    universe: Sequence[str], fds: FdSet, tables: Sequence[TableStructure]
) -> bool:
    """Chase test for the lossless-join property.

    Builds one row per table with distinguished symbols on the table's own
    attributes, chases to a fixpoint, and reports whether some row became
    distinguished everywhere.
    """
    _check_within_universe(tables, universe)
    columns = list(universe)
    rows: list[dict[str, tuple]] = []
    for i, table in enumerate(tables):
        owned = set(table.attributes)
        rows.append(
            {a: ("d", a) if a in owned else ("n", i, a) for a in columns}
        )
    # Every productive pass merges at least one symbol pair, so the pass
    # count is bounded by the number of subscripted symbols.
    max_passes = len(tables) * len(columns) * max(1, len(fds)) + 2
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        if passes > max_passes:
            raise RuntimeError("chase failed to reach a fixpoint within its bound")
        for fd in fds:
            lhs = sorted(fd.lhs)
            groups: dict[tuple, list[dict[str, tuple]]] = {}
            for row in rows:
                groups.setdefault(tuple(row[a] for a in lhs), []).append(row)
            for members in groups.values():
                if len(members) < 2:
                    continue
                symbols = {row[fd.rhs] for row in members}
                if len(symbols) == 1:
                    continue
                distinguished = ("d", fd.rhs)
                target = distinguished if distinguished in symbols else members[0][fd.rhs]
                for row in rows:
                    if row[fd.rhs] in symbols and row[fd.rhs] != target:
                        row[fd.rhs] = target
                        changed = True
    return any(all(row[a] == ("d", a) for a in columns) for row in rows)


def preserves_dependencies(fds: FdSet, tables: Sequence[TableStructure]) -> bool:
    """True iff every dependency follows from the per-table projections.

    A dependency ``X -> A`` with X and A inside one table is preserved
    outright.  For any other, Z starts at X and grows by closure(Z ∩ T) ∩ T
    for every table T until it stops growing or holds A; A is then implied
    by the projections iff it lies in Z (Beeri & Honeyman, SIAM J. Comput.
    1981).  A table T with Z ∩ T empty or equal to T adds nothing and is
    skipped.  One closure kernel serves every closure of the call.
    """
    _check_within_universe(tables, fds.universe)
    kernel = _Kernel(fds)
    parts = [frozenset(table.attributes) for table in tables]
    holders: dict[str, list[frozenset[str]]] = {}
    for part in parts:
        for name in part:
            holders.setdefault(name, []).append(part)
    for fd in fds:
        if any(fd.lhs <= part for part in holders.get(fd.rhs, ())):
            continue
        reach, seen = set(fd.lhs), 0
        while seen < len(reach) and fd.rhs not in reach:
            seen = len(reach)
            for part in parts:
                inside = reach & part
                if inside and len(inside) < len(part):
                    reach |= kernel.close(inside) & part
        if fd.rhs not in reach:
            return False
    return True


def scan_violations(
    table: TableStructure, fds: FdSet, mode: str = "3nf"
) -> list[Violation]:
    """Scan one table for partial (and, in ``3nf`` mode, transitive)
    dependencies against its declared primary key.

    A partial violation is a non-key attribute determined by a proper
    subset of the key; a transitive violation is a non-key attribute
    determined, inside the table, by a set that is not contained in the
    key and touches a non-key attribute.
    """
    if mode not in ("2nf", "3nf"):
        raise ValueError(f"mode must be '2nf' or '3nf', got {mode!r}")
    pk = set(table.primary_key)
    attrs = set(table.attributes)
    found: list[Violation] = []
    for fd in fds:
        if fd.rhs not in attrs or fd.rhs in pk:
            continue
        if fd.lhs < pk:
            found.append(Violation(table.name, ViolationKind.PARTIAL, fd.rhs, fd.lhs))
        elif (
            mode == "3nf"
            and fd.lhs <= attrs
            and not fd.lhs <= pk
            and fd.lhs & (attrs - pk)
        ):
            found.append(Violation(table.name, ViolationKind.TRANSITIVE, fd.rhs, fd.lhs))
    return found
