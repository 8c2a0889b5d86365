"""First-normal-form flattening, dependency classification, table synthesis.

The pipeline runs: flatten composite/multivalued attributes, split declared
dependencies to singleton right-hand sides, compute a canonical cover,
enter everything into a :class:`~relnorm.schema_model.SchemaList`, classify
each stored determiner slot as full / partial / transitive against the
declared key, and assemble second- or third-normal-form table structures
from the classification buckets.

Classification is per slot: an attribute with several determiners
contributes to several buckets.  A slot equal to the key id-set is a full
dependency; a proper subset of the key is partial; anything else (any
non-key id present) is transitive.  Key attributes are never classified as
dependents; dependencies onto them stay in the cover, where they influence
redundancy elimination, but produce no tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush

from .errors import (
    CapacityExceeded,
    DeterminerSlotsExhausted,
    DuplicateAttribute,
    InvalidName,
    NoKeyDeclared,
    UnknownAttribute,
)
from .fd_engine import FdSet, RawFd, _split, minimal_cover
from .schema_model import (
    MAX_ATTRIBUTES,
    MAX_DETERMINERS,
    MAX_LHS,
    MAX_NAME_LEN,
    AttributeNode,
    SchemaList,
    _Frozen,
    _Record,
    _lhs_too_large,
    _setfield,
    _unchecked,
)


class RawAttribute(_Frozen):
    """One declared attribute; it is composite exactly when it has components."""

    __slots__ = _fields = ("name", "is_key", "multivalued", "components")

    def __init__(
        self, name: str, is_key: bool = False, multivalued: bool = False, components: tuple[str, ...] = ()
    ) -> None:
        if multivalued and components:
            raise ValueError("an attribute cannot be both multivalued and composite")
        _setfield(self, "name", name)
        _setfield(self, "is_key", is_key)
        _setfield(self, "multivalued", multivalued)
        _setfield(self, "components", components)

    def flat_names(self) -> tuple[str, ...]:
        """The names 1NF flattening gives this attribute: a composite's
        components, ``<name>_ID`` for a multivalued one, else the name."""
        if self.components:
            return self.components
        if self.multivalued:
            return (f"{self.name}_ID",)
        return (self.name,)


class RawSchema(_Frozen):
    """A relation as declared: attributes with kinds plus raw dependencies.

    Construction checks that attribute and component names, taken
    together, hold no repeat, that some attribute is a key, and that
    dependencies name only declared attributes.  The parser makes these
    checks line by line and builds its value without repeating them.
    """

    __slots__ = _fields = ("relation_name", "attributes", "declared_fds")

    def __init__(
        self, relation_name: str, attributes: tuple[RawAttribute, ...], declared_fds: tuple[RawFd, ...] = ()
    ) -> None:
        _setfield(self, "relation_name", relation_name)
        _setfield(self, "attributes", attributes)
        _setfield(self, "declared_fds", declared_fds)
        known = _distinct(relation_name, [name for a in attributes for name in (a.name, *a.components)])
        _require_key(self)
        for fd in declared_fds:
            for name in (*fd.lhs, *fd.rhs):
                if name not in known:
                    raise UnknownAttribute(f"dependency mentions undeclared attribute {name!r}")

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def key_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_key)


def _distinct(relation_name: str, names: list[str]) -> set[str]:
    """The set of ``names``; raises DuplicateAttribute when one repeats."""
    known = set(names)
    if len(known) != len(names):
        seen: set[str] = set()
        dupes: set[str] = set()
        for name in names:
            if name in seen:
                dupes.add(name)
            seen.add(name)
        raise DuplicateAttribute(f"duplicate attribute names in {relation_name!r}: {sorted(dupes)}")
    return known


def _require_key(raw: RawSchema) -> None:
    if not any(a.is_key for a in raw.attributes):
        raise NoKeyDeclared(f"relation {raw.relation_name!r} declares no key attribute")


def to_first_normal_form(raw: RawSchema) -> RawSchema:
    """Flatten to atomic attributes.

    Composite attributes are replaced in place by their components, which
    inherit the key flag.  Multivalued attributes become ``<name>_ID`` and
    atomic.  Dependencies follow the rewriting: a composite mentioned in a
    dependency is replaced by all of its components on either side.  A
    repeated flattened name is rejected.  A name repeated on one side of a
    dependency is kept; the split to singleton right-hand sides drops it.

    A relation with only atomic attributes is already flat and is returned
    as it is.  Otherwise the flat relation is built without
    :class:`RawSchema`'s checks, which ``raw`` has passed and which
    flattening preserves, save the one for repeats.
    """
    replacement = {a.name: a.flat_names() for a in raw.attributes if a.multivalued or a.components}
    if not replacement:
        return raw
    flat: list[RawAttribute] = []
    for a in raw.attributes:
        if a.name in replacement:
            flat.extend(RawAttribute(name, a.is_key) for name in replacement[a.name])
        else:
            flat.append(a)
    _distinct(raw.relation_name, [a.name for a in flat])

    def expand(names: tuple[str, ...]) -> tuple[str, ...]:
        out: list[str] = []
        for name in names:
            out.extend(replacement.get(name, (name,)))
        return tuple(out)

    rewritten = tuple(RawFd(expand(fd.lhs), expand(fd.rhs)) for fd in raw.declared_fds)
    return _unchecked(RawSchema, relation_name=raw.relation_name, attributes=tuple(flat), declared_fds=rewritten)


class DependencyGroup(_Frozen):
    """One determiner with every dependent attribute it was stored for."""

    __slots__ = _fields = ("determiner", "dependents")


class Classification(_Frozen):
    """The full / partial / transitive buckets for one relation.

    ``a1`` lists the key attributes followed by every attribute that
    depends on exactly the whole key (or on nothing).  ``a2`` and ``a3``
    group partial and transitive dependents under their determiners, one
    group per distinct determiner, in first-seen order.
    """

    __slots__ = _fields = ("relation_name", "a1", "a2", "a3", "prime_attributes")


class ForeignKey(_Frozen):
    __slots__ = _fields = ("columns", "references")


class TableStructure(_Record):
    """A synthesized table: attribute list, primary key, foreign keys
    (a new empty list when none is given)."""

    __slots__ = _fields = ("name", "attributes", "primary_key", "foreign_keys")

    def __init__(
        self,
        name: str,
        attributes: list[str],
        primary_key: list[str],
        foreign_keys: list[ForeignKey] | None = None,
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.primary_key = primary_key
        self.foreign_keys = [] if foreign_keys is None else foreign_keys


def bucket_determiners(
    relation_name: str, attributes: Sequence[tuple[int, str, bool, Sequence[frozenset[int]]]]
) -> Classification:
    """Bucket every determiner of every non-key attribute.

    ``attributes`` holds ``(id, name, is_key, determiners)`` in list
    order, each determiner being the id-set of one left-hand side.  A
    determiner equal to the key id-set feeds ``a1``; a proper subset feeds
    ``a2``; any other feeds ``a3``.  Determiner-less attributes also land
    in ``a1``.  Groups merge on determiner equality and keep creation
    order; dependents keep traversal order.  Raises NoKeyDeclared when no
    attribute is a key.
    """
    name_of: dict[int, str] = {}
    primes: list[str] = []
    prime_id_list: list[int] = []
    for attr_id, name, is_key, _ in attributes:
        name_of[attr_id] = name
        if is_key:
            primes.append(name)
            prime_id_list.append(attr_id)
    if not primes:
        raise NoKeyDeclared(f"relation {relation_name!r} has no key attribute")
    prime_ids = frozenset(prime_id_list)

    a1: list[str] = list(primes)
    # determiner -> dependents, both in first-seen order
    a2: dict[frozenset[int], dict[str, None]] = {}
    a3: dict[frozenset[int], dict[str, None]] = {}

    for _, name, is_key, determiners in attributes:
        if is_key:
            continue
        if not determiners:
            a1.append(name)
        for det in determiners:
            if det == prime_ids:
                a1.append(name)
            elif det < prime_ids:
                a2.setdefault(det, {})[name] = None
            else:
                a3.setdefault(det, {})[name] = None

    def freeze(groups: dict[frozenset[int], dict[str, None]]) -> tuple[DependencyGroup, ...]:
        return tuple(
            DependencyGroup(tuple(name_of[i] for i in sorted(det)), tuple(deps))
            for det, deps in groups.items()
        )

    return Classification(
        relation_name=relation_name,
        a1=tuple(a1),
        a2=freeze(a2),
        a3=freeze(a3),
        prime_attributes=tuple(primes),
    )


def classify(schema_list: SchemaList) -> Classification:
    """Bucket the stored determiner slots of a list holding a canonical cover.

    The slots are read straight from the nodes; node ids name the
    determiners.
    """
    return bucket_determiners(
        schema_list.relation_name,
        [
            (node.node_id, node.attribute_name, node.is_key_attribute, node.determiner_slots)
            for node in schema_list.nodes
        ],
    )


def _group_table(group: DependencyGroup) -> TableStructure:
    """A table keyed by the group's determiner: the determiner, then each
    dependent not yet in it."""
    attributes = list(dict.fromkeys((*group.determiner, *group.dependents)))
    return TableStructure("_".join(group.determiner), attributes, list(group.determiner))


def _unique_names(tables: list[TableStructure]) -> list[TableStructure]:
    seen: set[str] = set()
    for table in tables:
        name = table.name
        suffix = 2
        while name in seen:
            name = f"{table.name}_{suffix}"
            suffix += 1
        table.name = name
        seen.add(name)
    return tables


def _base_tables(c: Classification) -> list[TableStructure]:
    main = TableStructure(f"{c.relation_name}_main", list(dict.fromkeys(c.a1)), list(c.prime_attributes))
    return [main] + [_group_table(group) for group in c.a2]


def _holders(tables: Sequence[TableStructure]) -> dict[str, int]:
    """The host index: each name -> the positions of its tables, as bits.
    The verifier's oracles read the same index of the tables they test."""
    holders: dict[str, int] = {}
    for pos, table in enumerate(tables):
        bit = 1 << pos
        for name in table.attributes:
            holders[name] = holders.get(name, 0) | bit
    return holders


def _host(holders: dict[str, int], det: Sequence[str], skip: int | None = None) -> int | None:
    """The earliest table other than ``skip`` holding all of ``det``."""
    hosts = -1 if skip is None else ~(1 << skip)
    for name in det:
        hosts &= holders.get(name, 0)
    return (hosts & -hosts).bit_length() - 1 if hosts else None  # the lowest bit


def _take(tables: list[TableStructure], holders: dict[str, int], pos: int, names: Sequence[str]) -> None:
    """Table ``pos`` takes the names it lacks, in order; the index records them."""
    bit = 1 << pos
    for name in names:
        held = holders.get(name, 0)
        if not held & bit:
            holders[name] = held | bit
            tables[pos].attributes.append(name)


def decompose_2nf(c: Classification) -> list[TableStructure]:
    """Second-normal-form synthesis.

    The main table carries the key plus all full dependents; one table per
    partial-dependency group.  Transitive groups then attach in rounds: at
    its turn, by round and then ``a3`` position, a group joins the earliest
    table holding its whole determiner.  Rounds end when one places nothing;
    groups never placed fall into the main table, determiner included.  A
    group with no host waits until a placed group brings one of its
    determiner names, then retries this round if still ahead, else the next:
    a heap step per turn and per wake-up, not a pass per round.
    """
    tables = _base_tables(c)
    groups, n = c.a3, len(c.a3)
    holders = _holders(tables)
    turns = list(range(n))  # round * n + position; sorted, so a heap
    waits = [False] * n  # no host at its last turn
    waiting: dict[str, list[int]] = {}
    while turns:
        turn = heappop(turns)
        j = turn % n
        host = _host(holders, groups[j].determiner)
        if host is None:
            waits[j] = True
            for name in groups[j].determiner:
                waiting.setdefault(name, []).append(j)
            continue
        _take(tables, holders, host, groups[j].dependents)
        for name in groups[j].dependents:
            for k in waiting.pop(name, ()):
                if waits[k]:
                    waits[k] = False
                    heappush(turns, turn - j + k + (n if k < j else 0))
    for group, left in zip(groups, waits):
        if left:
            _take(tables, holders, 0, (*group.determiner, *group.dependents))
    return _unique_names(tables)


def decompose_3nf(c: Classification) -> list[TableStructure]:
    """Third-normal-form synthesis.

    The main table carries the key plus full dependents; one table per
    partial group; one table per transitive group, keyed by its
    determiner.  Each transitive table is then linked by a foreign key
    recorded on the earliest other table containing its determiner; when
    no such table exists, the determiner attributes are appended to the
    main table and the foreign key is recorded there.
    """
    tables = _base_tables(c)
    first = len(tables)
    tables += [_group_table(group) for group in c.a3]
    _unique_names(tables)
    holders = _holders(tables)
    for pos, table in enumerate(tables[first:], first):
        host = _host(holders, table.primary_key, pos)
        if host is None:  # the main table, which takes the names it lacks
            host = 0
            _take(tables, holders, 0, table.primary_key)
        tables[host].foreign_keys.append(ForeignKey(tuple(table.primary_key), table.name))
    return tables


def build_schema_list(flat: RawSchema, cover: FdSet) -> SchemaList:
    """Enter a flattened relation and its cover into a fresh node sequence.

    The nodes come in entry order: key attributes, then non-key attributes
    acting as determiners in the cover, then the rest, each class in
    declared order, with ids 1..n.  Then each dependency, in cover order,
    stores the ids of its left-hand side as a slot of its dependent; a slot
    the dependent already holds is not stored again.

    The first fault met in that order is raised.  A node is rejected past
    ``MAX_ATTRIBUTES`` (:class:`CapacityExceeded`), then for a name outside
    the grammar and then for one longer than ``MAX_NAME_LEN``
    (:class:`InvalidName`).  A dependency is rejected for a dependent
    outside the relation (:class:`UnknownAttribute`), then for a left-hand
    side wider than ``MAX_LHS`` (:class:`LhsTooLarge`), then for a
    determiner outside the relation (the first such name in sorted order),
    and, unless its slot is held already, for a fifth slot
    (:class:`DeterminerSlotsExhausted`).  ``flat`` repeats no name, since
    :class:`RawSchema` rejects one.
    """
    relation = flat.relation_name
    determiner_names = set().union(*[fd.lhs for fd in cover])
    keys: list[RawAttribute] = []
    determiners: list[RawAttribute] = []
    rest: list[RawAttribute] = []
    for attr in flat.attributes:
        if attr.is_key:
            keys.append(attr)
        elif attr.name in determiner_names:
            determiners.append(attr)
        else:
            rest.append(attr)
    nodes: list[AttributeNode] = []
    by_name: dict[str, AttributeNode] = {}
    for node_id, attr in enumerate((*keys, *determiners, *rest), 1):
        name = attr.name
        if node_id > MAX_ATTRIBUTES:
            raise CapacityExceeded(f"relation {relation!r} already holds {MAX_ATTRIBUTES} attributes")
        if not (name.isascii() and name.isidentifier()):
            raise InvalidName(f"not a valid attribute name: {name!r}")
        if len(name) > MAX_NAME_LEN:
            raise InvalidName(f"attribute name longer than {MAX_NAME_LEN} characters: {name[:20]!r}...")
        node = by_name[name] = AttributeNode(name, name in determiner_names, node_id, [], attr.is_key)
        nodes.append(node)
    slots: dict[frozenset[str], frozenset[int]] = {}  # left-hand side -> its node ids
    for fd in cover:
        target = by_name.get(fd.rhs)
        if target is None:
            raise UnknownAttribute(f"dependent attribute {fd.rhs!r} not in relation")
        lhs = fd.lhs
        slot = slots.get(lhs)
        if slot is None:
            if len(lhs) > MAX_LHS:
                raise _lhs_too_large(relation, fd)
            try:
                slot = slots[lhs] = frozenset([by_name[name].node_id for name in lhs])
            except KeyError:
                missing = min(name for name in lhs if name not in by_name)
                raise UnknownAttribute(f"determiner attribute {missing!r} not in relation") from None
        held = target.determiner_slots
        if slot not in held:
            if len(held) >= MAX_DETERMINERS:
                raise DeterminerSlotsExhausted(
                    f"relation {relation!r}: attribute {fd.rhs!r} already has {MAX_DETERMINERS} determiners"
                )
            held.append(slot)
    return SchemaList(relation, nodes)


class PipelineState(_Frozen):
    """Intermediate products of one normalization run.  Hashing one
    raises ``TypeError``: its node sequence is mutable."""

    __slots__ = _fields = ("flat", "split", "cover", "schema_list", "classification")


def prepare(raw: RawSchema) -> PipelineState:
    """Run every stage up to (and including) classification.

    Before the cover is computed, the split dependencies are stably
    reordered so that dependencies whose left-hand side contains a
    non-key attribute are examined for redundancy first; this keeps the
    key-rooted dependencies in the cover whenever a choice exists.

    ``flat`` has passed :class:`RawSchema`'s checks, so the split and its
    reordered copy skip :class:`FdSet`'s; each equals what ``split_rhs``
    and ``FdSet`` build from the same values.
    """
    flat = to_first_normal_form(raw)
    universe = flat.attribute_names()
    split = _unchecked(FdSet, fds=_split(flat.declared_fds), universe=universe)
    primes = set(flat.key_names())
    prioritized = [fd for fd in split if not fd.lhs <= primes]
    prioritized += [fd for fd in split if fd.lhs <= primes]
    cover = minimal_cover(_unchecked(FdSet, fds=tuple(prioritized), universe=universe))
    schema_list = build_schema_list(flat, cover)
    classification = classify(schema_list)
    return PipelineState(
        flat=flat,
        split=split,
        cover=cover,
        schema_list=schema_list,
        classification=classification,
    )
