"""Single-sequence representation of one relation and its dependencies.

A relation is stored as one ordered sequence of attribute nodes.  Each node
carries the attribute's flags plus up to ``MAX_DETERMINERS`` determiner
slots, where a slot is the set of at most ``MAX_LHS`` node ids forming one
left-hand side that determines this attribute.  Attribute list and
dependency structure therefore live in a single container; no separate
dependency list exists.

Entry order is fixed: all key attributes first, then non-key attributes
that act as determiners, then everything else, and node ids run 1..n in
that order.  ``normalizer.build_schema_list`` is the only builder: it
enters a relation and its cover in that order and raises the first fault
against the layout caps and the name grammar.  This module holds the
caps, the records and the cell model.

Every record of the package, the pipeline's and the baseline's alike, is
a plain class with ``__slots__`` on the small base defined here,
:class:`_Record` (mutable) or :class:`_Frozen`.  A record declares its
fields once, in ``_fields``, and writes an ``__init__`` only to check
values or fill in defaults; :func:`_unchecked` skips those checks.

Memory is compared with the two-sequence baseline under a fixed abstract
cell model read off this layout (:func:`memory_cells_single`,
:func:`memory_cells_double`); it reproduces no runtime's byte counts.
"""

from __future__ import annotations

from .errors import InvalidFd, LhsTooLarge

# The node layout: four determiner slots of up to four ids each.
MAX_DETERMINERS = 4
MAX_LHS = 4
MAX_NAME_LEN = 100
MAX_ATTRIBUTES = 9000

# byte costs of the cell model; a node also has MAX_DETERMINERS slots of MAX_LHS ids
NAME_CELL = 50
FLAG_CELL = 1
ID_CELL = 4
LINK_CELL = 4


# how a frozen record's __init__ and _unchecked set a field past the
# record's own __setattr__, read once rather than per field
_setfield = object.__setattr__


def _unchecked(cls, **fields):
    """The record ``cls`` holding ``fields``, built without the checks
    its ``__init__`` makes, for a value whose checks have been made."""
    out = object.__new__(cls)
    for name, value in fields.items():
        _setfield(out, name, value)
    return out


class _Record:
    """A plain record: the base of the pipeline's value types.

    A subclass lists its fields, in constructor order, in ``_fields`` and
    stores them in ``__slots__``; it writes an ``__init__`` only to check
    values or fill in defaults, and is otherwise given one that takes and
    stores its fields in that order.  Two records are equal when they are
    of the same type and their fields are equal, so a record equals no tuple
    and no record of another type.  The repr is ``Type(field=value, ...)``
    over ``_fields``; a slot outside ``_fields`` is not part of the value.
    A plain record is mutable and unhashable; a :class:`_Frozen` one is
    neither.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        # the __init__ one would write: a parameter per field, each stored by
        # assignment, or with _setfield past a frozen record's __setattr__; the
        # source holds only the names in _fields, and a subclass that inherits
        # _fields inherits its parent's __init__
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            store = "self.{0} = {0}" if cls.__setattr__ is _setfield else "_setfield(self, {0!r}, {0})"
            body = "".join([f"\n    {store.format(name)}" for name in cls._fields])
            scope = {"__name__": cls.__module__, "_setfield": _setfield}
            exec(f"def __init__(self, {', '.join(cls._fields)}):{body}", scope)
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """An immutable record, hashed by its fields.  Its ``__init__`` sets
    each field with ``_setfield``; afterwards assigning or deleting any
    attribute raises ``AttributeError``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild the record through its constructor, since
        # they would otherwise assign its fields one by one
        return type(self), self._values()


class FunctionalDependency(_Frozen):
    """One dependency in singleton right-hand-side form: ``lhs -> rhs``."""

    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: frozenset[str], rhs: str) -> None:
        if not lhs:
            raise InvalidFd("left-hand side must not be empty")
        if rhs in lhs:
            raise InvalidFd(f"trivial dependency: {rhs!r} appears on both sides")
        _setfield(self, "lhs", lhs)
        _setfield(self, "rhs", rhs)

    def __repr__(self) -> str:
        left = ", ".join(sorted(self.lhs))
        return f"{{{left}}} -> {self.rhs}"


class AttributeNode(_Record):
    """One attribute of the relation, with its determiner slots.

    ``determiner_slots`` holds one frozenset of node ids per stored
    left-hand side, in insertion order.  Slot order carries no meaning;
    the slots of a node form a set of id-sets.  Nodes are built by
    ``normalizer.build_schema_list``, after 1NF flattening, so every node
    is atomic and no attribute kind is stored.
    """

    __slots__ = _fields = ("attribute_name", "is_determiner", "node_id", "determiner_slots", "is_key_attribute")


def _lhs_too_large(relation_name: str, fd: FunctionalDependency) -> LhsTooLarge:
    """Both layouts' error for ``fd``, wider than ``MAX_LHS``; the names are sorted."""
    return LhsTooLarge(
        f"relation {relation_name!r}: dependency {', '.join(sorted(fd.lhs))} -> {fd.rhs}: "
        f"left-hand side of size {len(fd.lhs)} exceeds MAX_LHS = {MAX_LHS}"
    )


class SchemaList(_Record):
    """Ordered attribute-node sequence for one relation.

    ``normalizer.build_schema_list`` builds it from a relation and its
    cover, and checks the layout caps as it does.  Treated as an immutable
    value once built.
    """

    __slots__ = _fields = ("relation_name", "nodes")


def memory_cells_single(schema_list: SchemaList) -> int:
    """Bytes for the single-sequence layout: N times the ten-field node.

    The cell model describes the paper's node, which keeps an attribute
    type byte.  ``AttributeNode`` stores no kind, since every node is
    atomic after 1NF flattening, but the byte is still counted so the
    figures stay those of the paper's layout.
    """
    per_node = (
        NAME_CELL            # attribute name
        + 2 * FLAG_CELL      # attribute type, determiner flag
        + ID_CELL            # node id
        + MAX_DETERMINERS * MAX_LHS * ID_CELL
        + FLAG_CELL          # key flag
        + LINK_CELL          # successor link
    )
    return len(schema_list.nodes) * per_node


def memory_cells_double(schema: TwoListSchema) -> int:
    """Bytes for the two-sequence layout (``relnorm.baseline.TwoListSchema``):
    attribute nodes plus dependency nodes; only the two lists' lengths are read."""
    attr_node = NAME_CELL + 2 * FLAG_CELL + LINK_CELL
    fd_node = MAX_LHS * NAME_CELL + NAME_CELL + LINK_CELL
    return len(schema.attribute_list) * attr_node + len(schema.fd_list) * fd_node
