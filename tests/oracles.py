"""Brute-force reference implementations used to cross-check the engine.

Attribute sets are encoded as integer bitmasks over a fixed universe, so
these oracles share no code or representation with the engine they audit.
The closure oracle runs a fixed number of full passes (one more than the
universe size) with no early exit or bookkeeping.
"""

from __future__ import annotations

from relnorm.fd_engine import FdSet


def compile_rules(fds, universe: tuple[str, ...]) -> list[tuple[int, int]]:
    index = {name: i for i, name in enumerate(universe)}
    rules = []
    for fd in fds:
        lhs_mask = 0
        for name in fd.lhs:
            lhs_mask |= 1 << index[name]
        rules.append((lhs_mask, 1 << index[fd.rhs]))
    return rules


def mask_closure(mask: int, rules: list[tuple[int, int]], width: int) -> int:
    for _ in range(width + 1):
        for lhs_mask, rhs_bit in rules:
            if mask & lhs_mask == lhs_mask:
                mask |= rhs_bit
    return mask


def brute_closure(attrs, fds: FdSet) -> frozenset[str]:
    universe = fds.universe
    index = {name: i for i, name in enumerate(universe)}
    rules = compile_rules(fds, universe)
    mask = 0
    for name in attrs:
        mask |= 1 << index[name]
    result = mask_closure(mask, rules, len(universe))
    return frozenset(name for name in universe if result & (1 << index[name]))


def equivalent_on_all_subsets(f: FdSet, g: FdSet) -> bool:
    """Exhaustive closure comparison of two dependency sets."""
    assert f.universe == g.universe
    width = len(f.universe)
    rules_f = compile_rules(f, f.universe)
    rules_g = compile_rules(g, g.universe)
    for mask in range(1 << width):
        if mask_closure(mask, rules_f, width) != mask_closure(mask, rules_g, width):
            return False
    return True


def has_redundant_fd(fds: FdSet) -> bool:
    width = len(fds.universe)
    rules = compile_rules(fds, fds.universe)
    index = {name: i for i, name in enumerate(fds.universe)}
    for skip, fd in enumerate(fds):
        rest = [r for i, r in enumerate(rules) if i != skip]
        lhs_mask = 0
        for name in fd.lhs:
            lhs_mask |= 1 << index[name]
        if mask_closure(lhs_mask, rest, width) & (1 << index[fd.rhs]):
            return True
    return False


def has_extraneous_lhs_attribute(fds: FdSet) -> bool:
    width = len(fds.universe)
    rules = compile_rules(fds, fds.universe)
    index = {name: i for i, name in enumerate(fds.universe)}
    for fd in fds:
        if len(fd.lhs) < 2:
            continue
        for attr in fd.lhs:
            reduced = 0
            for name in fd.lhs:
                if name != attr:
                    reduced |= 1 << index[name]
            if mask_closure(reduced, rules, width) & (1 << index[fd.rhs]):
                return True
    return False


def brute_preserves(fds: FdSet, tables) -> bool:
    """Exhaustive dependency-preservation test.

    ``tables`` holds one collection of attribute names per table.  Each
    table's projection is built by closing every non-empty subset of its
    attributes; every dependency must then follow from the union of the
    projections.
    """
    width = len(fds.universe)
    index = {name: i for i, name in enumerate(fds.universe)}
    rules = compile_rules(fds, fds.universe)
    projected = []
    for attrs in tables:
        table_mask = 0
        for name in attrs:
            table_mask |= 1 << index[name]
        subset = table_mask
        while subset:
            gained = mask_closure(subset, rules, width) & table_mask & ~subset
            for bit in range(width):
                if gained & (1 << bit):
                    projected.append((subset, 1 << bit))
            subset = (subset - 1) & table_mask
    return all(
        mask_closure(lhs_mask, projected, width) & rhs_bit == rhs_bit
        for lhs_mask, rhs_bit in rules
    )


def brute_lossless(fds: FdSet, tables) -> bool:
    """Naive chase over plain integer rows.

    ``tables`` holds one collection of attribute names per table.  Row i
    holds 0 (distinguished) on table i's attributes and a symbol of its own
    on every other column.  Each pass tries every dependency on every pair
    of rows; rows agreeing on the left-hand side have the larger of their
    right-hand symbols replaced by the smaller throughout the column.
    Passes repeat until one changes nothing; the decomposition is lossless
    iff some row is then all zeros.
    """
    universe = fds.universe
    width = len(universe)
    index = {name: i for i, name in enumerate(universe)}
    rows = []
    for r, attrs in enumerate(tables):
        owned = {index[name] for name in attrs}
        rows.append([0 if c in owned else 1 + r * width + c for c in range(width)])
    rules = [([index[name] for name in fd.lhs], index[fd.rhs]) for fd in fds]
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            for row in rows:
                for other in rows:
                    if row[rhs] != other[rhs] and all(row[c] == other[c] for c in lhs):
                        keep, drop = sorted((row[rhs], other[rhs]))
                        for each in rows:
                            if each[rhs] == drop:
                                each[rhs] = keep
                        changed = True
    return any(not any(row) for row in rows)


def full_scan_violations(attributes, primary_key, fds: FdSet, mode: str) -> list[tuple[str, str, frozenset[str]]]:
    """Violations of one table by a scan of every dependency, in order.

    A dependency X -> A with A a non-key attribute of the table is partial
    when X is a proper subset of the key; in ``3nf`` mode it is otherwise
    transitive when X lies inside the table, is not inside the key and
    holds a non-key attribute.  Returns ``(kind, A, X)`` triples, kind
    being ``"partial"`` or ``"transitive"``.
    """
    attrs, key = set(attributes), set(primary_key)
    nonkey = attrs - key
    found = []
    for fd in fds:
        if fd.rhs not in nonkey:
            continue
        if fd.lhs < key:
            found.append(("partial", fd.rhs, fd.lhs))
        elif mode == "3nf" and fd.lhs <= attrs and not fd.lhs <= key and fd.lhs & nonkey:
            found.append(("transitive", fd.rhs, fd.lhs))
    return found


def reference_cover(fds: FdSet) -> tuple[tuple[frozenset[str], str], ...]:
    """Canonical cover by the pop/insert algorithm, over bitmask closures.

    Left-reduction scans dependencies in order and left-hand attributes in
    universe order, closing under the current list; exact duplicates then
    go, keeping the first; the redundancy pass pops each dependency, closes
    its left-hand side under the rest and re-inserts it if its right-hand
    attribute is not reached.  Returns the survivors as ``(lhs, rhs)``
    pairs, in order.
    """
    universe = fds.universe
    width = len(universe)
    work = compile_rules(fds, universe)
    for idx in range(len(work)):
        lhs_mask, rhs_bit = work[idx]
        for bit in range(width):
            if bin(lhs_mask).count("1") < 2:
                break
            if lhs_mask & (1 << bit):
                reduced = lhs_mask & ~(1 << bit)
                if mask_closure(reduced, work, width) & rhs_bit:
                    lhs_mask = reduced
                    work[idx] = (lhs_mask, rhs_bit)
    work = list(dict.fromkeys(work))
    idx = 0
    while idx < len(work):
        lhs_mask, rhs_bit = work.pop(idx)
        if not mask_closure(lhs_mask, work, width) & rhs_bit:
            work.insert(idx, (lhs_mask, rhs_bit))
            idx += 1
    return tuple(
        (
            frozenset(name for i, name in enumerate(universe) if lhs_mask & (1 << i)),
            universe[rhs_bit.bit_length() - 1],
        )
        for lhs_mask, rhs_bit in work
    )


def wave_order(tables) -> tuple[list, str | None]:
    """Referenced-first table order, built in waves.

    Each wave takes, in input order, every remaining table all of whose
    foreign keys name a table already taken in an earlier wave.  Returns
    ``(order, None)``, or ``(taken so far, message)`` when a wave takes
    nothing, the message naming the remaining tables in input order.
    """
    order: list = []
    done: set[str] = set()
    remaining = list(tables)
    while remaining:
        ready = [t for t in remaining if all(fk.references in done for fk in t.foreign_keys)]
        if not ready:
            names = ", ".join(t.name for t in remaining)
            return order, f"foreign keys form a cycle among: {names}"
        order += ready
        done.update(t.name for t in ready)
        remaining = [t for t in remaining if t not in ready]
    return order, None


def fixpoint_2nf(c) -> tuple[list, int, int]:
    """Second-normal-form tables, by rounds run to a fixpoint.

    ``c`` is a classification: ``relation_name``, ``a1``, ``a2`` and ``a3``
    (groups with a ``determiner`` and ``dependents``) and
    ``prime_attributes``.  The main table holds ``a1``, keyed by the prime
    attributes; each partial group gets a table holding its determiner
    and then its dependents, keyed by the determiner.  Each round then
    tries every pending transitive group in order: the first table holding
    its whole determiner takes the dependents it lacks.  Rounds repeat
    until one places nothing, and the groups left go into the main table,
    determiner then dependents, in order.  A repeated table name gets
    ``_2``, ``_3`` and so on.

    Returns ``(tables, rounds, unplaced)``: each table as ``(name,
    columns, primary key, [])``, the number of rounds that placed a group,
    and the number of groups that fell back into the main table.
    """

    def add(columns, names):
        for name in names:
            if name not in columns:
                columns.append(name)

    tables = [[f"{c.relation_name}_main", [], list(c.prime_attributes)]]
    add(tables[0][1], c.a1)
    for group in c.a2:
        tables.append(["_".join(group.determiner), [], list(group.determiner)])
        add(tables[-1][1], (*group.determiner, *group.dependents))
    pending, rounds = list(c.a3), 0
    while pending:
        waiting = []
        for group in pending:
            hosts = [columns for _, columns, _ in tables if set(group.determiner) <= set(columns)]
            if hosts:
                add(hosts[0], group.dependents)
            else:
                waiting.append(group)
        if len(waiting) == len(pending):
            break
        pending, rounds = waiting, rounds + 1
    for group in pending:
        add(tables[0][1], (*group.determiner, *group.dependents))
    seen: set[str] = set()
    for table in tables:
        name, suffix = table[0], 2
        while name in seen:
            name, suffix = f"{table[0]}_{suffix}", suffix + 1
        table[0] = name
        seen.add(name)
    return [(name, columns, key, []) for name, columns, key in tables], rounds, len(pending)
