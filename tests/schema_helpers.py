"""Builders and checks on the node sequence that only the tests use, and
schema documents that more than one test module or the CI workflow reads.

The checks read a :class:`~relnorm.schema_model.SchemaList`'s fields
directly, so the model keeps no API that nothing but the tests reaches.
Each document has one generator here, and the workflow writes its files
by calling it, so CI runs the text the tests parse.
"""

import random

from relnorm.schema_model import (
    MAX_ATTRIBUTES,
    MAX_DETERMINERS,
    MAX_LHS,
    AttributeNode,
    FunctionalDependency,
    SchemaList,
)


def FD(lhs, rhs: str) -> FunctionalDependency:
    """``lhs -> rhs`` from any iterable of names, such as ``"ab"``."""
    return FunctionalDependency(frozenset(lhs), rhs)


def find_node(sl: SchemaList, name: str) -> AttributeNode | None:
    """The node named ``name``, through the list's name index."""
    return sl._by_name.get(name)


def stored_fds(sl: SchemaList) -> list[FunctionalDependency]:
    """Reconstruct the dependencies held in the slots, in storage order."""
    by_id = {node.node_id: node.attribute_name for node in sl.nodes}
    out: list[FunctionalDependency] = []
    for node in sl.nodes:
        for slot in node.determiner_slots:
            out.append(FunctionalDependency(frozenset(by_id[i] for i in slot), node.attribute_name))
    return out


def check_invariants(sl: SchemaList) -> None:
    """Raise AssertionError if any structural invariant is broken.

    The entry order (key attributes, then non-key determiners, then the
    rest) is checked against the final determiner flags; lists whose
    determiner flags were declared accurately at entry (the loader's
    lists) satisfy it.
    """
    names = [n.attribute_name for n in sl.nodes]
    assert len(names) == len(set(names)), "duplicate attribute names"
    assert sl._by_name == {n.attribute_name: n for n in sl.nodes}, "stale name index"
    ids = [n.node_id for n in sl.nodes]
    assert ids == list(range(1, len(ids) + 1)), "node ids not 1..n in entry order"
    assert len(sl.nodes) <= MAX_ATTRIBUTES
    id_set = set(ids)
    referenced: set[int] = set()
    for node in sl.nodes:
        assert len(node.determiner_slots) <= MAX_DETERMINERS
        assert len(set(node.determiner_slots)) == len(node.determiner_slots), "duplicate slots"
        for slot in node.determiner_slots:
            assert slot, "empty determiner slot"
            assert len(slot) <= MAX_LHS
            assert slot <= id_set, "slot references a missing node"
            referenced |= slot
    for node in sl.nodes:
        assert node.is_determiner == (node.node_id in referenced), (
            f"determiner flag inconsistent for {node.attribute_name!r}"
        )
    ranks = [0 if n.is_key_attribute else 1 if n.is_determiner else 2 for n in sl.nodes]
    assert all(a <= b for a, b in zip(ranks, ranks[1:])), "entry order violated"


def wide_line_text(n: int) -> str:
    """Key ``k``; ``k -> a, b``; ``a -> p0 -> ... -> p(n-1)``;
    ``b -> q0 -> ... -> q(n-1)``; and one line ``fd a, b -> x0, ..., x(n-1)``,
    whose seeds ``{a}`` and ``{b}`` each have a closure of n + 1 names."""
    p, q, x = ([f"{c}{i}" for i in range(n)] for c in "pqx")
    lines = ["relation WideLine", "attr k key", "attr a", "attr b", *(f"attr {name}" for name in (*p, *q, *x))]
    lines += ["fd k -> a, b", f"fd a -> {p[0]}", f"fd b -> {q[0]}"]
    lines += [f"fd {chain[i]} -> {chain[i + 1]}" for chain in (p, q) for i in range(n - 1)]
    lines.append(f"fd a, b -> {', '.join(x)}")
    return "\n".join(lines) + "\n"


def shortcut_chain_text(n: int, seed: int) -> str:
    """a0 -> a1 -> ... -> a(n-1) plus every a_i -> a_(i+2), key a0, lines shuffled."""
    rng = random.Random(seed)
    attrs = ["attr a0 key", *(f"attr a{i}" for i in range(1, n))]
    fds = [f"fd a{i} -> a{i + step}" for step in (1, 2) for i in range(n - step)]
    rng.shuffle(attrs)
    rng.shuffle(fds)
    return "\n".join(["relation ShortcutChain", *attrs, *fds]) + "\n"


def lossy_pairs_text(n: int) -> str:
    """Key ``k`` plus n pairs ``x_i <-> y_i``: the key determines nothing,
    so no 3NF table joins the key's table to the pairs losslessly."""
    lines = ["relation LossyPairs", "attr k key"]
    lines += [f"attr {c}{i}" for i in range(n) for c in "xy"]
    lines += [line for i in range(n) for line in (f"fd x{i} -> y{i}", f"fd y{i} -> x{i}")]
    return "\n".join(lines) + "\n"


# a valid relation whose 3NF tables reference each other in a cycle, which
# emit_ddl rejects only after the tables are built
FK_CYCLE_TEXT = (
    "relation R\nattr x0\nattr x1\nattr x2 key\nattr x3 key\n"
    "fd x3 -> x0\nfd x2, x0 -> x1\nfd x2, x1 -> x0\n"
)
