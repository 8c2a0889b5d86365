"""The contract of the pipeline's record types: equality by exact type and
fields, field hashes for the frozen ones, ``Type(field=value, ...)`` reprs,
copies and pickles, and the checks each constructor makes."""

import copy
import pickle
import re

import pytest

from relnorm import baseline, ddl, fd_engine, normalizer, schema_model, verifier
from relnorm.baseline import BenchReport, BenchRow, TwoListSchema
from relnorm.ddl import DdlScript
from relnorm.errors import DuplicateAttribute, InvalidFd, NoKeyDeclared, UnknownAttribute
from relnorm.fd_engine import FdSet, RawFd
from relnorm.normalizer import (
    Classification,
    DependencyGroup,
    ForeignKey,
    PipelineState,
    RawAttribute,
    RawSchema,
    TableStructure,
    prepare,
)
from relnorm.schema_file import parse_schema_file
from relnorm.schema_model import AttributeNode, FunctionalDependency, SchemaList, _Record, _unchecked
from relnorm.verifier import Violation, ViolationKind
from schema_helpers import FD, build_list


def schema_list() -> SchemaList:
    return build_list("a", "b", [FD("a", "b")])


def state(text: str) -> PipelineState:
    return prepare(parse_schema_file(text))


def bench_row() -> BenchRow:
    return BenchRow("R", 2, 1, 250, 366, 250 / 366, 1.5, 2.5, 3.5, 4.5)


R_TEXT = "relation R\nattr a key\nattr b\nattr c\nfd a -> b\nfd b -> c\n"
S_TEXT = "relation S\nattr x key\nattr y\nfd x -> y\n"
S_STATE = state(S_TEXT)

# type -> (a builder of one record from public constructors, a different
# value for each field, in the type's field order)
CASES = {
    RawFd: (lambda: RawFd(("a",), ("b", "c")), {"lhs": ("x",), "rhs": ("y",)}),
    FdSet: (
        lambda: FdSet((FD("a", "b"),), ("a", "b")),
        {"fds": (FD("b", "a"),), "universe": ("a", "b", "c")},
    ),
    FunctionalDependency: (lambda: FD("ab", "c"), {"lhs": frozenset("a"), "rhs": "d"}),
    AttributeNode: (
        lambda: AttributeNode("a", False, 1, [frozenset({2})], True),
        {
            "attribute_name": "b",
            "is_determiner": True,
            "node_id": 2,
            "determiner_slots": [],
            "is_key_attribute": False,
        },
    ),
    SchemaList: (schema_list, {"relation_name": "S", "nodes": []}),
    RawAttribute: (
        lambda: RawAttribute("m", True, multivalued=True),
        {"name": "n", "is_key": False, "multivalued": False, "components": ("x",)},
    ),
    RawSchema: (
        lambda: RawSchema("R", (RawAttribute("a", True), RawAttribute("b")), (RawFd(("a",), ("b",)),)),
        {"relation_name": "S", "attributes": (RawAttribute("a", True),), "declared_fds": ()},
    ),
    DependencyGroup: (lambda: DependencyGroup(("a",), ("b", "c")), {"determiner": ("b",), "dependents": ("c",)}),
    Classification: (
        lambda: Classification("R", ("a", "b"), (DependencyGroup(("a",), ("c",)),), (), ("a",)),
        {"relation_name": "S", "a1": ("a",), "a2": (), "a3": (DependencyGroup(("b",), ("c",)),), "prime_attributes": ()},
    ),
    ForeignKey: (lambda: ForeignKey(("a",), "T"), {"columns": ("b",), "references": "U"}),
    TableStructure: (
        lambda: TableStructure("T", ["a", "b"], ["a"], [ForeignKey(("b",), "U")]),
        {"name": "V", "attributes": ["a"], "primary_key": ["b"], "foreign_keys": []},
    ),
    PipelineState: (
        lambda: state(R_TEXT),
        {name: getattr(S_STATE, name) for name in ("flat", "split", "cover", "schema_list", "classification")},
    ),
    Violation: (
        lambda: Violation("T", ViolationKind.PARTIAL, "b", frozenset("a")),
        {"table": "U", "kind": ViolationKind.TRANSITIVE, "dependent": "c", "determiner": frozenset("b")},
    ),
    DdlScript: (lambda: DdlScript(("CREATE TABLE T ();",)), {"statements": ()}),
    TwoListSchema: (
        lambda: TwoListSchema("R", (RawAttribute("a", True), RawAttribute("b")), (FD("a", "b"),)),
        {"relation_name": "S", "attribute_list": (RawAttribute("x", True),), "fd_list": ()},
    ),
    BenchRow: (
        bench_row,
        {
            "relation": "S",
            "attrs": 3,
            "fds": 2,
            "single_bytes": 375,
            "double_bytes": 676,
            "mem_ratio": 375 / 676,
            "t2nf_single_us": 5.5,
            "t2nf_double_us": 6.5,
            "t3nf_single_us": 7.5,
            "t3nf_double_us": 8.5,
        },
    ),
    BenchReport: (lambda: BenchReport((bench_row(),), 3), {"rows": (), "repetitions": 1}),
}
MUTABLE = {AttributeNode, SchemaList, TableStructure}
records = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def test_every_record_type_is_covered():
    modules = (baseline, ddl, fd_engine, normalizer, schema_model, verifier)
    found = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, _Record) and not value.__name__.startswith("_")
    }
    assert found == set(CASES)


def fields_of(record) -> dict:
    return {name: getattr(record, name) for name in CASES[type(record)][1]}


@records
def test_equal_only_on_type_and_fields(cls):
    build, alt = CASES[cls]
    one, two = build(), build()
    assert type(one) is cls and one is not two
    assert one == two and not one != two
    assert tuple(alt) == cls._fields
    for name, value in alt.items():
        other = _unchecked(cls, **{**fields_of(one), name: value})
        assert one != other and other != one, name


@records
def test_constructor_takes_the_fields_in_order(cls):
    one = CASES[cls][0]()
    assert cls(**fields_of(one)) == one
    assert cls(*fields_of(one).values()) == one


@records
def test_constructor_names_itself_when_a_field_is_missing(cls):
    # the first field, since some constructors give the last ones defaults
    fields = fields_of(CASES[cls][0]())
    first = cls._fields[0]
    del fields[first]
    with pytest.raises(TypeError) as caught:
        cls(**fields)
    assert str(caught.value) == f"{cls.__name__}.__init__() missing 1 required positional argument: '{first}'"


def test_subclass_keeps_its_parents_checks():
    # a subclass that declares no _fields keeps the parent's __init__
    with pytest.raises(DuplicateAttribute, match="universe contains duplicate names"):
        type("Twin", (FdSet,), {"__slots__": ()})((), ("a", "a"))


@records
def test_not_equal_to_its_fields_or_another_type(cls):
    one = CASES[cls][0]()
    twin = type("Twin", (cls,), {"__slots__": ()})
    assert one != tuple(fields_of(one).values())
    assert one != _unchecked(twin, **fields_of(one))
    assert _unchecked(twin, **fields_of(one)) != one


@records
@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["copy", "deepcopy", "pickle"]
)
def test_copy_and_pickle(cls, duplicate):
    one = CASES[cls][0]()
    assert duplicate(one) == one


def test_records_with_one_layout_differ_by_type():
    assert _unchecked(RawFd, lhs=frozenset("a"), rhs="b") != FD("a", "b")


@records
def test_hash(cls):
    build = CASES[cls][0]
    one, two = build(), build()
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(one)
    elif cls is PipelineState:
        # frozen, but it holds a mutable node sequence
        with pytest.raises(TypeError, match="unhashable type: 'SchemaList'"):
            hash(one)
    else:
        assert hash(one) == hash(two)
        assert len({one, two}) == 1


@records
def test_frozen_fields(cls):
    build, alt = CASES[cls]
    one = build()
    before = fields_of(one)
    for name, value in alt.items():
        if cls in MUTABLE:
            setattr(one, name, value)
            assert getattr(one, name) is value
            continue
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(one, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(one, name)
        assert fields_of(one) == before


@records
def test_repr(cls):
    one = CASES[cls][0]()
    if cls is FunctionalDependency:
        assert repr(one) == "{a, b} -> c"
        return
    shown = ", ".join(f"{name}={value!r}" for name, value in fields_of(one).items())
    assert repr(one) == f"{cls.__name__}({shown})"


def test_table_gets_a_fresh_foreign_key_list():
    one, two = TableStructure("T", ["a"], ["a"]), TableStructure("T", ["a"], ["a"])
    assert one.foreign_keys == [] and one.foreign_keys is not two.foreign_keys


A, B = RawAttribute("a", True), RawAttribute("b")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FD("", "a"), InvalidFd, "left-hand side must not be empty"),
        (lambda: FD("ab", "a"), InvalidFd, "trivial dependency: 'a' appears on both sides"),
        (
            lambda: RawAttribute("a", multivalued=True, components=("x",)),
            ValueError,
            "an attribute cannot be both multivalued and composite",
        ),
        (lambda: FdSet((), ("a", "a")), DuplicateAttribute, "universe contains duplicate names"),
        (lambda: FdSet((FD("a", "c"),), ("a", "b")), UnknownAttribute, "attributes outside universe: ['c']"),
        # the universe is checked before any dependency
        (lambda: FdSet((FD("a", "c"),), ("a", "a")), DuplicateAttribute, "universe contains duplicate names"),
        (lambda: RawSchema("R", (A, RawAttribute("a"))), DuplicateAttribute, "duplicate attribute names in 'R': ['a']"),
        (
            lambda: RawSchema("R", (A, RawAttribute("c", components=("a", "d")))),
            DuplicateAttribute,
            "duplicate attribute names in 'R': ['a']",
        ),
        (lambda: RawSchema("R", (B,)), NoKeyDeclared, "relation 'R' declares no key attribute"),
        (
            lambda: RawSchema("R", (A, B), (RawFd(("a",), ("c",)),)),
            UnknownAttribute,
            "dependency mentions undeclared attribute 'c'",
        ),
        # repeats, then the key, then the dependencies
        (lambda: RawSchema("R", (B, B), (RawFd(("c",), ("b",)),)), DuplicateAttribute, "duplicate attribute names"),
        (lambda: RawSchema("R", (B,), (RawFd(("c",), ("b",)),)), NoKeyDeclared, "declares no key attribute"),
    ],
    ids=[
        "fd-empty-lhs",
        "fd-trivial",
        "multivalued-with-components",
        "fdset-duplicate-universe",
        "fdset-outside-name",
        "fdset-universe-first",
        "schema-repeat",
        "schema-component-repeat",
        "schema-no-key",
        "schema-undeclared",
        "schema-repeat-first",
        "schema-key-before-dependencies",
    ],
)
def test_constructor_checks(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()
