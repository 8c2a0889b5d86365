"""Single-sequence representation of one relation and its dependencies.

A relation is stored as one ordered sequence of attribute nodes.  Each node
carries the attribute's flags plus up to ``MAX_DETERMINERS`` determiner
slots, where a slot is the set of at most ``MAX_LHS`` node ids forming one
left-hand side that determines this attribute.  Attribute list and
dependency structure therefore live in a single container; no separate
dependency list exists.

Entry order is constrained: all key attributes first, then non-key
attributes that act as determiners, then everything else.  The order is
checked against the flags declared at insertion time, so callers that know
the dependencies up front (see ``normalizer.build_schema_list``) get a list
whose final flags also satisfy the ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    CapacityExceeded,
    DeterminerSlotsExhausted,
    DuplicateAttribute,
    EntryOrderViolation,
    InvalidFd,
    InvalidName,
    LhsTooLarge,
    UnknownAttribute,
)

# The node layout: four determiner slots of up to four ids each.
MAX_DETERMINERS = 4
MAX_LHS = 4
MAX_NAME_LEN = 100
MAX_ATTRIBUTES = 9000


def _is_identifier(name: str) -> bool:
    """The name grammar, ``[A-Za-z_][A-Za-z0-9_]*``; the length cap is
    checked apart, so that each fault gets its own message."""
    return name.isascii() and name.isidentifier()


def _unchecked(cls, **fields):
    """The dataclass ``cls`` holding ``fields``, built without
    ``__post_init__``, for a value whose checks have been made."""
    out = object.__new__(cls)
    for name, value in fields.items():
        # as a frozen dataclass's __init__ sets them, so the instance keeps
        # the compact layout that __init__ gives it
        object.__setattr__(out, name, value)
    return out


@dataclass(frozen=True)
class FunctionalDependency:
    """One dependency in singleton right-hand-side form: ``lhs -> rhs``."""

    lhs: frozenset[str]
    rhs: str

    def __post_init__(self) -> None:
        if not self.lhs:
            raise InvalidFd("left-hand side must not be empty")
        if self.rhs in self.lhs:
            raise InvalidFd(f"trivial dependency: {self.rhs!r} appears on both sides")

    def __repr__(self) -> str:
        left = ", ".join(sorted(self.lhs))
        return f"{{{left}}} -> {self.rhs}"


@dataclass
class AttributeNode:
    """One attribute of the relation, with its determiner slots.

    ``determiner_slots`` holds one frozenset of node ids per stored
    left-hand side, in insertion order.  Slot order carries no meaning;
    the slots of a node form a set of id-sets.  Nodes are built only by
    ``SchemaList.add_attribute``, after 1NF flattening, so every node is
    atomic and no attribute kind is stored.
    """

    attribute_name: str
    is_determiner: bool
    node_id: int
    determiner_slots: list[frozenset[int]]
    is_key_attribute: bool


def _entry_rank(is_key: bool, is_det: bool) -> int:
    # key attributes < non-key determiners < the rest
    if is_key:
        return 0
    return 1 if is_det else 2


@dataclass
class SchemaList:
    """Ordered attribute-node sequence for one relation.

    Built only by appends: a new list is empty, and ``add_attribute`` and
    ``add_fd`` enter the relation.  Mutable while the relation is being
    entered; treated as an immutable value afterwards.
    """

    relation_name: str
    nodes: list[AttributeNode] = field(default_factory=list, init=False)
    # name -> node, kept up to date by add_attribute; not part of the value
    _by_name: dict[str, AttributeNode] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add_attribute(self, name: str, *, is_key: bool = False, is_det: bool = False) -> int:
        """Append one attribute at the tail and return its node id.

        Ids run 1..n in entry order; a rejected append takes no id.  The
        append is rejected when the declared flags would place the node
        before an earlier entry class, and for an empty, malformed or
        over-long name.
        """
        nodes = self.nodes
        if len(nodes) >= MAX_ATTRIBUTES:
            raise CapacityExceeded(
                f"relation {self.relation_name!r} already holds {MAX_ATTRIBUTES} attributes"
            )
        if name in self._by_name:
            raise DuplicateAttribute(f"attribute {name!r} already present in {self.relation_name!r}")
        if nodes:
            last = nodes[-1]
            if _entry_rank(is_key, is_det) < _entry_rank(last.is_key_attribute, last.is_determiner):
                raise EntryOrderViolation(
                    f"cannot append {name!r}: key attributes, then non-key determiners, "
                    "then remaining attributes"
                )
        if not name or not _is_identifier(name):
            raise InvalidName(f"not a valid attribute name: {name!r}")
        if len(name) > MAX_NAME_LEN:
            raise InvalidName(f"attribute name longer than {MAX_NAME_LEN} characters: {name[:20]!r}...")
        node = AttributeNode(
            attribute_name=name,
            is_determiner=is_det,
            node_id=len(nodes) + 1,
            determiner_slots=[],
            is_key_attribute=is_key,
        )
        nodes.append(node)
        self._by_name[name] = node
        return node.node_id

    def add_fd(self, fd: FunctionalDependency) -> None:
        """Store one dependency into the dependent node's first free slot.

        Re-adding an identical dependency is a no-op.  A fifth distinct
        determiner for one attribute is rejected, as is a left-hand side
        wider than ``MAX_LHS``.
        """
        by_name = self._by_name
        target = by_name.get(fd.rhs)
        if target is None:
            raise UnknownAttribute(f"dependent attribute {fd.rhs!r} not in relation")
        if len(fd.lhs) > MAX_LHS:
            raise LhsTooLarge(
                f"relation {self.relation_name!r}: dependency {', '.join(sorted(fd.lhs))} -> {fd.rhs}: "
                f"left-hand side of size {len(fd.lhs)} exceeds MAX_LHS = {MAX_LHS}"
            )
        determiners = []
        for name in fd.lhs:
            node = by_name.get(name)
            if node is None:
                raise UnknownAttribute(f"determiner attribute {name!r} not in relation")
            determiners.append(node)
        slot = frozenset(node.node_id for node in determiners)
        if slot in target.determiner_slots:
            return
        if len(target.determiner_slots) >= MAX_DETERMINERS:
            raise DeterminerSlotsExhausted(
                f"relation {self.relation_name!r}: "
                f"attribute {fd.rhs!r} already has {MAX_DETERMINERS} determiners"
            )
        target.determiner_slots.append(slot)
        for node in determiners:
            node.is_determiner = True
