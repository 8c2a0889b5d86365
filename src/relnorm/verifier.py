"""Decomposition-quality oracles, independent of the synthesis path.

Lossless join is decided first by a walk: the closure of the first table
under the cover dependencies that some table embeds (its left- and
right-hand attributes all inside one table).  Every firing is a step of
the chase for the first table's row, so a walk that reaches the universe
proves the join lossless.  It does whenever every cover dependency is
embedded and the first table holds a key, as in every bundled 2NF and 3NF
decomposition: such a decomposition preserves the dependencies and has a
superkey table (Biskup, Dayal & Bernstein, SIGMOD 1979).  Otherwise the
chase decides (Aho, Beeri & Ullman, TODS 1979), run as a worklist over
integer symbols in the manner of Downey, Sethi & Tarjan (JACM 1980): one
row per table, each column keeping only the classes of rows that share a
symbol, a dependency applied again only after a column of its left-hand
side merged, and a stop as soon as some row is fully distinguished.
Dependency preservation is decided by the restricted-closure test of
Beeri and Honeyman: the closure of a left-hand side under the union of the
per-table projections is grown table by table, through the closure of
what each table already sees, without ever computing a projection.  An
embedded dependency is preserved without a closure.  Both tests are exact
and polynomial; no heuristic projection is used, so the verdicts here are
trustworthy for auditing the normalizer.

Every oracle reads the cover through the closure kernel it keeps
(``_kernel``, shared with :func:`~relnorm.fd_engine.closure`): a cover
from :func:`~relnorm.fd_engine.minimal_cover` carries the kernel that
computed it, and any other ``FdSet`` builds one at its first use, in time
linear in the universe plus the dependencies.  With the kernel built,
the costs are:

- ``scan_violations``: the table's width plus the kernel's pairs, dead or
  live, whose right-hand side is a non-key attribute of the table, so
  scanning every table of a decomposition is linear in the tables plus
  the kernel's pairs.  It builds the key's set, the table's set only for
  a 3NF transitive candidate, and a result only for a table it finds
  violations in;
- ``preserves_dependencies``: the tables' widths, to build the host index
  :func:`~relnorm.normalizer._holders` (name -> its tables, as int bits),
  plus one bit AND per name of each dependency, embedded iff the AND is
  nonzero, at a machine word per 30 tables;
  a dependency no table embeds then takes rounds of one closure per
  table, and only such a dependency reads the kernel and builds the
  tables' sets;
- ``is_lossless``: the universe's set, the same index, one subset test of
  the cover's universe, plus one walk of the kernel from the first table,
  linear in the pairs it touches; each pair the walk would fire is first
  tested for a table that embeds it, by the same ANDs.  Only when the
  walk falls short does the chase run: the universe's columns, the
  tables' widths plus the cells it merges, and the firings of the
  kernel's live pairs, each a pass over the classes of one column.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence, Set
from enum import Enum

from .errors import UnknownAttribute
from .fd_engine import FdSet
from .normalizer import TableStructure, _holders
from .schema_model import _Frozen


class ViolationKind(Enum):
    PARTIAL = "partial"
    TRANSITIVE = "transitive"


class Violation(_Frozen):
    __slots__ = _fields = ("table", "kind", "dependent", "determiner")


def _index(tables: Sequence[TableStructure], known: Set[str]) -> dict[str, int]:
    """The host index of ``tables``, once each is checked to lie inside ``known``."""
    holders = _holders(tables)
    if not holders.keys() <= known:
        for table in tables:
            outside = set(table.attributes) - known
            if outside:
                raise UnknownAttribute(
                    f"table {table.name!r} mentions attributes outside the universe: {sorted(outside)}"
                )
    return holders


def is_lossless(
    universe: Sequence[str], fds: FdSet, tables: Sequence[TableStructure]
) -> bool:
    """Chase test for the lossless-join property, tried first by a walk.

    The walk closes the first table's attributes on the cover's kernel,
    firing only the dependencies X -> A that some table T embeds (X ∪ {A}
    inside T).  Each firing is a sound chase step: the first row and T's
    row are both distinguished on X, and T's row is distinguished on A, so
    the first row's A becomes distinguished too.  A walk that reaches the
    universe therefore returns True.  It always does when every cover
    dependency is embedded and the first table holds a key, since the walk
    is then the key's full closure.  A name outside the cover's universe
    is produced by no dependency, so the walk counts it only when the
    first table holds it.  The chase decides the rest: when the walk falls
    short and when ``tables`` is empty.

    The chase has one row per table and one column per attribute of the
    universe, and stores no tableau.  Symbols are integers: 0 is
    distinguished, and row ``r`` starts with 0 on its table's attributes
    and its own symbol ``r + 1`` everywhere else.  Each column keeps its
    classes, symbol -> rows, and the symbols it has set, row -> symbol; a
    row with no symbol set holds its own, and no cell stores it.  Memory
    is thus the tables' widths plus the cells that merges set, and row
    ``r`` is distinguished exactly in the columns that store 0 for it.
    The dependencies are the live pairs of the cover's kernel.  One
    X -> A is applied to the classes of one column of X alone, since a row
    outside them agrees with no other row on X; each class is split by the
    symbols of the rest of X (one group when X has one name), and every
    group of two or more rows has its A-classes merged: the distinguished
    class wins, otherwise the largest class absorbs the others.  Every
    dependency is queued once, and again, from the kernel's users of the
    column's name, only when a column of its X merged: no other merge
    changes which rows agree on X, and A already agrees within every
    group.

    The chase terminates: a dependency re-enters the queue only after a
    firing that changed something, and every such firing lowers the
    number of distinct symbols in one column, which starts at no more than
    the number of rows.  It returns True as soon as a row's last
    non-distinguished cell becomes distinguished, and False when the queue
    runs dry first.

    Every table and every attribute of the cover's universe must lie in
    ``universe``; otherwise :class:`~relnorm.errors.UnknownAttribute` is raised.
    """
    known = set(universe)
    holders = _index(tables, known)
    if not known.issuperset(fds.universe):
        raise UnknownAttribute(
            "the dependencies' universe holds attributes outside the universe: "
            f"{sorted(set(fds.universe) - known)}"
        )
    if tables:
        kernel = fds._kernel
        lhs, rhs = kernel.lhs, kernel.rhs

        def embedded(i: int) -> bool:
            hosts = holders.get(rhs[i], 0)
            for name in lhs[i]:
                hosts &= holders.get(name, 0)
            return hosts != 0

        if len(kernel.close(tables[0].attributes, admit=embedded)) == len(known):
            return True
    return _chase(universe, fds, tables)


def _chase(universe: Sequence[str], fds: FdSet, tables: Sequence[TableStructure]) -> bool:
    """The chase of :func:`is_lossless`: a column per name of ``universe``, a row per table."""
    classes: dict[str, dict[int, list[int]]] = {name: {} for name in universe}  # symbol -> its rows
    symbol: dict[str, dict[int, int]] = {name: {} for name in classes}  # row -> the symbol set for it
    missing = []  # per row, the cells not yet distinguished
    for r, table in enumerate(tables):
        owned = frozenset(table.attributes)
        for name in owned:
            classes[name].setdefault(0, []).append(r)
            symbol[name][r] = 0
        missing.append(len(classes) - len(owned))
    if not all(missing):
        return True

    kernel = fds._kernel
    live = kernel.live
    queue = deque(i for i in range(len(live)) if live[i])
    queued = set(queue)
    while queue:
        i = queue.popleft()
        queued.remove(i)
        first, *rest = kernel.lhs[i]
        a = kernel.rhs[i]
        others = [symbol[name] for name in rest]
        held, cells = classes[a], symbol[a]
        merged = False
        for members in classes[first].values():
            if len(members) < 2:
                continue
            # a row with no symbol set in a column holds its own, r + 1
            groups: dict[tuple[int, ...], list[int]] = {}
            for r in members:
                groups.setdefault(tuple([other.get(r, r + 1) for other in others]), []).append(r)
            for group in groups.values():
                seen = {cells.get(r, r + 1) for r in group}
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
                        cells[r] = winner
                        if not winner:
                            missing[r] -= 1
                            if not missing[r]:
                                return True
        if merged:
            for j in kernel.users.get(a, ()):
                if live[j] and j not in queued:
                    queued.add(j)
                    queue.append(j)
    return False


def preserves_dependencies(fds: FdSet, tables: Sequence[TableStructure]) -> bool:
    """True iff every dependency follows from the per-table projections.

    A dependency ``X -> A`` with X and A inside one table is preserved
    outright.  For any other, Z starts at X and grows by closure(Z ∩ T) ∩ T
    for every table T until it stops growing or holds A; A is then implied
    by the projections iff it lies in Z (Beeri & Honeyman, SIAM J. Comput.
    1981).  A table T with Z ∩ T empty or equal to T adds nothing and is
    skipped.  Every closure runs on the cover's kernel, which is built
    only when some dependency is not embedded.
    """
    holders = _index(tables, set(fds.universe))
    parts = None  # each table's attributes as a set, built at the first dependency no table embeds
    for fd in fds:
        # embedded iff the AND of its names' table bits is nonzero
        hosts = holders.get(fd.rhs, 0)
        for name in fd.lhs:
            hosts &= holders.get(name, 0)
        if hosts:
            continue
        parts = parts or [frozenset(table.attributes) for table in tables]
        kernel = fds._kernel
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

    The scan judges the stored cover: the live pairs of the cover's
    kernel, not the dependencies the cover only implies.  Only the pairs
    whose right-hand side is a non-key attribute of the table are read;
    violations come out once each, in cover order, which is the order of
    the live pairs.  The cost is the table's width plus those candidate
    pairs.  The key becomes one set; the table's own attribute set is
    built only for a 3NF transitive candidate, a pair whose left-hand side
    is neither inside nor a proper subset of the key.
    """
    if mode not in ("2nf", "3nf"):
        raise ValueError(f"mode must be '2nf' or '3nf', got {mode!r}")
    kernel = fds._kernel
    makers, lhs_of, live, prior = kernel.last_maker, kernel.lhs, kernel.live, kernel.prior_maker
    pk = frozenset(table.primary_key)
    transitive = mode == "3nf"
    attrs = None  # the table's names as a set, built for the first transitive candidate
    hits = []
    for name in table.attributes:
        if name in pk:
            continue
        i = makers.get(name, -1)
        while i >= 0:
            if live[i]:
                lhs = lhs_of[i]
                if lhs < pk:
                    hits.append((i, ViolationKind.PARTIAL, name, lhs))
                # not inside the key but inside the table, X touches a non-key attribute
                elif transitive and not lhs <= pk:
                    if attrs is None:
                        attrs = set(table.attributes)
                    if lhs <= attrs:
                        hits.append((i, ViolationKind.TRANSITIVE, name, lhs))
            i = prior[i]
    if not hits:
        return hits
    # a repeated attribute repeats its hits; after the set, pair indices are
    # distinct, so the sort orders by them alone
    return [Violation(table.name, kind, name, lhs) for _, kind, name, lhs in sorted(set(hits))]
