"""Decomposition-quality oracles, independent of the synthesis path.

Lossless join is decided by the chase (Aho, Beeri & Ullman, TODS 1979),
run as a worklist over integer symbols in the manner of Downey, Sethi &
Tarjan (JACM 1980): one tableau row per table, each column keeping the
classes of rows that share a symbol, a dependency applied again only after
a column of its left-hand side merged, and a stop as soon as some row is
fully distinguished.  Dependency preservation is decided by
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

from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
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

    The tableau has one row per table and one column per attribute of the
    universe.  Symbols are integers: 0 is distinguished, and row ``r``
    starts with 0 on its table's attributes and its own symbol ``r + 1``
    everywhere else.  Each column keeps its classes, symbol -> rows; a row
    still holding its own symbol is in no class.  A dependency X -> A is
    applied to the classes of X's first column alone, since a row outside
    them agrees with no other row on X; each class is split by the symbols
    of the rest of X, and every group of two or more rows has its A-classes
    merged: the distinguished class wins, otherwise the largest class
    absorbs the others.  Every dependency is queued once, and again only
    when a column of its X merged: no other merge changes which rows agree
    on X, and A already agrees within every group.

    The chase terminates: a dependency re-enters the queue only after a
    firing that changed something, and every such firing lowers the
    number of distinct symbols in one column, which starts at no more than
    the number of rows.  It returns True as soon as a row's last
    non-distinguished cell becomes distinguished, and False when the queue
    runs dry first.
    """
    _check_within_universe(tables, universe)
    column = {name: c for c, name in enumerate(dict.fromkeys(universe))}
    width = len(column)
    rows = []
    classes: list[dict[int, list[int]]] = [{} for _ in column]
    missing = []  # per row, the cells not yet distinguished
    for r, table in enumerate(tables):
        row = [r + 1] * width
        owned = {column[name] for name in table.attributes}
        for c in owned:
            row[c] = 0
            classes[c].setdefault(0, []).append(r)
        rows.append(row)
        missing.append(width - len(owned))
    if not all(missing):
        return True

    # rule i: (first column of X, the rest of X read off a row, A)
    rules = []
    users: list[list[int]] = [[] for _ in column]  # per column, the rules with it in X
    for i, fd in enumerate(fds):
        lhs = sorted([column[name] for name in fd.lhs])
        for c in lhs:
            users[c].append(i)
        rules.append((lhs[0], itemgetter(*lhs[1:]) if len(lhs) > 1 else None, column[fd.rhs]))
    queue = deque(range(len(rules)))
    queued = [True] * len(rules)
    while queue:
        i = queue.popleft()
        queued[i] = False
        first, key, a = rules[i]
        held = classes[a]
        merged = False
        for members in classes[first].values():
            if len(members) < 2:
                continue
            if key:
                by: dict[object, list[int]] = {}
                for r in members:
                    by.setdefault(key(rows[r]), []).append(r)
                groups = by.values()
            else:
                groups = (members,)
            for group in groups:
                seen = {rows[r][a] for r in group}
                if len(seen) < 2:
                    continue
                merged = True
                winner = 0 if 0 in seen else max(seen, key=lambda s: len(held.get(s, ())))
                seen.remove(winner)
                # a symbol with no class is the own symbol of one row
                into = held.setdefault(winner, [winner - 1])
                for s in seen:
                    moved = held.pop(s, None) or [s - 1]
                    into += moved
                    for r in moved:
                        rows[r][a] = winner
                        if not winner:
                            missing[r] -= 1
                            if not missing[r]:
                                return True
        if merged:
            for j in users[a]:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    return False


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
