"""Builders and checks on the node sequence that only the tests use.

They read a :class:`~relnorm.schema_model.SchemaList`'s fields directly,
so the model keeps no API that nothing but the tests reaches.
"""

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
