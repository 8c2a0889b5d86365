import re

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from oracles import fixpoint_2nf
from relnorm.ddl import emit_ddl
from relnorm.errors import (
    CapacityExceeded,
    DeterminerSlotsExhausted,
    DuplicateAttribute,
    InvalidFd,
    InvalidName,
    LhsTooLarge,
    NoKeyDeclared,
    NormalizationError,
    UnknownAttribute,
)
from relnorm.fd_engine import FdSet, RawFd, minimal_cover, split_rhs
from relnorm.normalizer import (
    Classification,
    DependencyGroup,
    RawAttribute,
    RawSchema,
    build_schema_list,
    classify,
    decompose_2nf,
    decompose_3nf,
    prepare,
    to_first_normal_form,
)
from relnorm.schema_file import parse_schema_file
from relnorm.schema_model import (
    MAX_ATTRIBUTES,
    MAX_DETERMINERS,
    MAX_LHS,
    MAX_NAME_LEN,
    AttributeNode,
    FunctionalDependency,
    SchemaList,
)
from schema_helpers import FD, build_list, check_invariants, star_text


def table_sets(tables):
    return {(frozenset(t.attributes), frozenset(t.primary_key)) for t in tables}


def groups(classification_groups):
    return {(frozenset(g.determiner), frozenset(g.dependents)) for g in classification_groups}


def layout(tables):
    """Every table as ``(name, columns, primary key, foreign keys)``, in order."""
    return [
        (t.name, t.attributes, t.primary_key, [(list(fk.columns), fk.references) for fk in t.foreign_keys])
        for t in tables
    ]


def by_hand(a1, a2, a3, primes=("k1", "k2")):
    """A classification of relation R; groups are ``(determiner, dependents)`` strings."""

    def group_of(det, deps):
        return DependencyGroup(tuple(det.split()), tuple(deps.split()))

    a2 = tuple(group_of(*g) for g in a2)
    a3 = tuple(group_of(*g) for g in a3)
    return Classification("R", tuple(a1.split()), a2, a3, primes)


# a transitive chain x -> y -> z -> w listed backwards, so each round of the
# 2NF fixpoint attaches one more link, plus p -> q onto the partial group k1 -> p
THREE_ROUNDS = by_hand("k1 k2 x", [("k1", "p")], [("z", "w"), ("y", "z"), ("x", "y"), ("p", "q")])
# at the turn of y -> z, y is held only by k1, where p -> y just put it;
# x -> y puts it in R_main later in the same round, so z goes to k1
EARLIEST_AT_TURN = by_hand("k1 k2 x", [("k1", "p")], [("p", "y"), ("y", "z"), ("x", "y")])


def classified(c):
    """Every attribute some bucket of ``c`` holds."""
    return set(c.a1) | {name for g in c.a2 + c.a3 for name in g.dependents}


class TestFirstNormalForm:
    def test_multivalued_renamed(self):
        raw = RawSchema(
            "R",
            (
                RawAttribute("k", is_key=True),
                RawAttribute("phone", multivalued=True),
            ),
            (RawFd(("k",), ("phone",)),),
        )
        flat = to_first_normal_form(raw)
        assert flat.attribute_names() == ("k", "phone_ID")
        assert flat.declared_fds == (RawFd(("k",), ("phone_ID",)),)

    def test_flat_schema_unchanged(self):
        raw = RawSchema(
            "R",
            (RawAttribute("k", is_key=True), RawAttribute("x")),
            (RawFd(("k",), ("x",)),),
        )
        assert to_first_normal_form(raw) == raw

    def test_repeated_name_on_a_side_is_left_to_the_split(self):
        attributes = (RawAttribute("k", is_key=True), RawAttribute("a"))
        raw = RawSchema("R", attributes, (RawFd(("k", "k"), ("a", "a")),))
        assert to_first_normal_form(raw) is raw
        once = RawSchema("R", attributes, (RawFd(("k",), ("a",)),))
        assert prepare(raw).split == prepare(once).split

    def test_composite_expands_in_fds(self):
        raw = RawSchema(
            "R",
            (
                RawAttribute("name", is_key=True, components=("first", "last")),
                RawAttribute("x"),
            ),
            (RawFd(("name",), ("x",)),),
        )
        flat = to_first_normal_form(raw)
        assert flat.attribute_names() == ("first", "last", "x")
        assert all(a.is_key for a in flat.attributes[:2])
        assert flat.declared_fds == (RawFd(("first", "last"), ("x",)),)

    def test_component_collision(self):
        with pytest.raises(DuplicateAttribute):
            RawSchema(
                "R",
                (
                    RawAttribute("k", is_key=True, components=("x",)),
                    RawAttribute("x"),
                ),
            )

    def test_repeats_named_once_each_in_sorted_order(self):
        # one pass over 9000 names, not a count per name
        others = [*(f"a{i}" for i in range(8997)), "a5", "a17"]
        attributes = (RawAttribute("k", True), *map(RawAttribute, others))
        with pytest.raises(DuplicateAttribute) as caught:
            RawSchema("R", attributes)
        assert str(caught.value) == "duplicate attribute names in 'R': ['a17', 'a5']"

    def test_multivalued_rename_collision(self):
        raw = RawSchema(
            "R",
            (
                RawAttribute("k", is_key=True),
                RawAttribute("phone", multivalued=True),
                RawAttribute("phone_ID"),
            ),
        )
        with pytest.raises(DuplicateAttribute):
            to_first_normal_form(raw)

    def test_undeclared_fd_attribute(self):
        with pytest.raises(UnknownAttribute, match="undeclared attribute 'z'"):
            RawSchema("R", (RawAttribute("k", is_key=True), RawAttribute("x")), (RawFd(("k",), ("z",)),))

    # an attribute with components is composite, so only a multivalued one
    # can hold components it may not have
    @pytest.mark.parametrize("multivalued, components", [(True, ("a",))], ids=["multivalued-with-components"])
    def test_components_exactly_for_composites(self, multivalued, components):
        with pytest.raises(ValueError, match="an attribute cannot be both multivalued and composite"):
            RawAttribute("n", multivalued=multivalued, components=components)

    @pytest.mark.parametrize(
        "attribute, flat",
        [
            (RawAttribute("n"), ("n",)),
            (RawAttribute("n", multivalued=True), ("n_ID",)),
            (RawAttribute("n", components=("a", "b")), ("a", "b")),
        ],
        ids=["atomic", "multivalued", "components-make-composite"],
    )
    def test_flat_names(self, attribute, flat):
        assert attribute.flat_names() == flat


class TestAttributeInfo:
    def test_trace(self, trace_schema):
        c = classify(prepare(trace_schema).schema_list)
        assert c.prime_attributes == ("a", "b")
        assert classified(c) == set("abcdefg")

    def test_employee(self, employee_schema):
        c = classify(prepare(employee_schema).schema_list)
        assert c.prime_attributes == ("e_id",)
        assert classified(c) == {"e_id", "e_s_name", "j_class", "CHPH"}

    def test_all_key_relation(self):
        c = classify(build_list("ab"))
        assert c.a1 == ("a", "b")
        assert c.a2 == c.a3 == ()
        assert c.prime_attributes == ("a", "b")

    def test_no_key(self):
        # a relation without a key cannot be built, so this list is made by hand
        sl = SchemaList("R", [AttributeNode("a", False, 1, [], False)])
        with pytest.raises(NoKeyDeclared):
            classify(sl)


class TestClassify:
    def test_trace_buckets(self, trace_schema):
        c = prepare(trace_schema).classification
        assert set(c.a1) == set("abcd")
        assert groups(c.a2) == {(frozenset("b"), frozenset("e"))}
        assert groups(c.a3) == {(frozenset("d"), frozenset("fg"))}

    def test_employee_buckets(self, employee_schema):
        c = prepare(employee_schema).classification
        # cover drops e_id -> CHPH, so CHPH is transitive under j_class
        assert set(c.a1) == {"e_id", "e_s_name", "j_class"}
        assert c.a2 == ()
        assert groups(c.a3) == {(frozenset({"j_class"}), frozenset({"CHPH"}))}

    def test_gh_buckets(self, corpus_schemas):
        c = prepare(corpus_schemas["GH_Relation"]).classification
        assert set(c.a1) == {"G", "H", "F", "I"}
        assert groups(c.a2) == {(frozenset("G"), frozenset("EJ"))}
        assert groups(c.a3) == {
            (frozenset("J"), frozenset("K")),
            (frozenset("K"), frozenset("AL")),
            (frozenset("E"), frozenset("AD")),
            (frozenset("A"), frozenset("BC")),
        }

    def test_fd_install_order_does_not_change_membership(self, corpus_schemas):
        state = prepare(corpus_schemas["AB_Relation"])
        flat, cover = state.flat, state.cover
        reordered = FdSet(tuple(reversed(cover.fds)), cover.universe)
        base = classify(build_schema_list(flat, cover))
        flipped = classify(build_schema_list(flat, reordered))
        assert set(base.a1) == set(flipped.a1)
        assert groups(base.a2) == groups(flipped.a2)
        assert groups(base.a3) == groups(flipped.a3)

    def test_attribute_order_within_class_only_moves_columns(self, corpus_schemas):
        raw = corpus_schemas["Invoice"]
        shuffled = RawSchema(
            raw.relation_name,
            tuple(sorted(raw.attributes, key=lambda a: (not a.is_key, a.name))),
            raw.declared_fds,
        )
        base = prepare(raw).classification
        moved = prepare(shuffled).classification
        assert set(base.a1) == set(moved.a1)
        assert groups(base.a2) == groups(moved.a2)
        assert groups(base.a3) == groups(moved.a3)
        for decompose in (decompose_2nf, decompose_3nf):
            assert table_sets(decompose(base)) == table_sets(decompose(moved))


class TestDecompose2nf:
    def test_trace(self, trace_schema):
        tables = decompose_2nf(prepare(trace_schema).classification)
        assert table_sets(tables) == {
            (frozenset("abcdfg"), frozenset("ab")),
            (frozenset("be"), frozenset("b")),
        }

    def test_beer(self, corpus_schemas):
        tables = decompose_2nf(prepare(corpus_schemas["Beer_Relation"]).classification)
        assert table_sets(tables) == {
            (frozenset({"beer", "warehouse", "quantity"}), frozenset({"beer", "warehouse"})),
            (frozenset({"beer", "brewery", "strength", "city", "region"}), frozenset({"beer"})),
        }

    def test_gh(self, corpus_schemas):
        tables = decompose_2nf(prepare(corpus_schemas["GH_Relation"]).classification)
        assert table_sets(tables) == {
            (frozenset("GHFI"), frozenset("GH")),
            (frozenset("GABCDEJKL"), frozenset("G")),
        }

    def test_orphan_transitive_group_falls_back_to_main(self):
        # determiner appears in no built table, so the group lands in the
        # main table together with its determiner attributes
        from relnorm.normalizer import DependencyGroup

        c = Classification(
            relation_name="R",
            a1=("k",),
            a2=(),
            a3=(DependencyGroup(("x", "z"), ("y",)),),
            prime_attributes=("k",),
        )
        tables = decompose_2nf(c)
        assert table_sets(tables) == {(frozenset({"k", "x", "z", "y"}), frozenset({"k"}))}

    def test_one_link_attaches_per_round(self):
        assert layout(decompose_2nf(THREE_ROUNDS)) == [
            ("R_main", ["k1", "k2", "x", "y", "z", "w"], ["k1", "k2"], []),
            ("k1", ["k1", "p", "q"], ["k1"], []),
        ]

    def test_group_joins_the_earliest_holder_at_its_turn(self):
        assert layout(decompose_2nf(EARLIEST_AT_TURN)) == [
            ("R_main", ["k1", "k2", "x", "y"], ["k1", "k2"], []),
            ("k1", ["k1", "p", "y", "z"], ["k1"], []),
        ]

    def test_unplaced_groups_fall_back_in_turn_order(self):
        c = by_hand("k", [], [("x", "y"), ("k x", "z"), ("y", "w")], primes=("k",))
        assert layout(decompose_2nf(c)) == [("R_main", ["k", "x", "y", "z", "w"], ["k"], [])]


@st.composite
def classifications(draw):
    """Hand-built classifications over ten names.  The transitive groups
    are a tree of one-name links grown from a prime attribute, which needs
    a round per link listed before the link it hangs from, shuffled among
    up to four free groups, which may share a determiner, name a key
    attribute or fall back into the main table.  Up to three partial
    groups hang from the key."""
    names = st.sampled_from("abcdefghij")
    order = draw(st.permutations("abcdefghij"))
    primes = order[: draw(st.integers(1, 2))]
    a1 = primes + draw(st.lists(names, max_size=2, unique=True))
    tree = order[len(primes) - 1 : len(primes) + draw(st.integers(0, 8))]
    links = [DependencyGroup((tree[draw(st.integers(0, i - 1))],), (tree[i],)) for i in range(1, len(tree))]

    def groups(pool, most):
        one_or_two = st.lists(pool, min_size=1, max_size=2, unique=True).map(tuple)
        return st.lists(st.builds(DependencyGroup, one_or_two, one_or_two), max_size=most)

    a3 = draw(st.permutations(links + draw(groups(names, 4))))
    a2 = draw(groups(st.sampled_from(primes), 3))
    return Classification("R", tuple(a1), tuple(a2), tuple(a3), tuple(primes))


@settings(max_examples=300)
@given(classifications())
def test_2nf_matches_the_fixpoint_reference(c):
    expected, rounds, unplaced = fixpoint_2nf(c)
    event(f"rounds placing a group: {rounds if rounds < 3 else '3+'}")
    event(f"partial tables: {'some' if c.a2 else 'none'}")
    event(f"fallback into main: {'some' if unplaced else 'none'}")
    assert layout(decompose_2nf(c)) == expected


class TestDecompose3nf:
    def test_trace(self, trace_schema):
        tables = decompose_3nf(prepare(trace_schema).classification)
        assert table_sets(tables) == {
            (frozenset("abcd"), frozenset("ab")),
            (frozenset("be"), frozenset("b")),
            (frozenset("dfg"), frozenset("d")),
        }
        main = next(t for t in tables if frozenset(t.primary_key) == frozenset("ab"))
        third = next(t for t in tables if frozenset(t.primary_key) == frozenset("d"))
        # the transitive determiner is already in the main table: linked, not copied
        assert main.foreign_keys[0].references == third.name
        assert main.foreign_keys[0].columns == ("d",)

    def test_beer(self, corpus_schemas):
        tables = decompose_3nf(prepare(corpus_schemas["Beer_Relation"]).classification)
        assert table_sets(tables) == {
            (frozenset({"beer", "warehouse", "quantity"}), frozenset({"beer", "warehouse"})),
            (frozenset({"beer", "brewery", "strength"}), frozenset({"beer"})),
            (frozenset({"brewery", "city"}), frozenset({"brewery"})),
            (frozenset({"city", "region"}), frozenset({"city"})),
        }
        brewery_host = next(t for t in tables if frozenset(t.attributes) == frozenset({"beer", "brewery", "strength"}))
        assert [fk.columns for fk in brewery_host.foreign_keys] == [("brewery",)]

    def test_client_rental(self, corpus_schemas):
        tables = decompose_3nf(prepare(corpus_schemas["ClientRental"]).classification)
        assert table_sets(tables) == {
            (frozenset({"clientNo", "cName"}), frozenset({"clientNo"})),
            (
                frozenset({"clientNo", "propertyNo", "rentStart", "rentFinish"}),
                frozenset({"clientNo", "propertyNo"}),
            ),
            (frozenset({"propertyNo", "pAddress", "rent", "ownerNo"}), frozenset({"propertyNo"})),
            (frozenset({"ownerNo", "oName"}), frozenset({"ownerNo"})),
        }

    def test_orphan_determiner_joins_main_with_foreign_key(self):
        from relnorm.normalizer import DependencyGroup

        c = Classification(
            relation_name="R",
            a1=("k",),
            a2=(),
            a3=(DependencyGroup(("x",), ("y",)),),
            prime_attributes=("k",),
        )
        tables = decompose_3nf(c)
        main = next(t for t in tables if "k" in t.attributes)
        assert set(main.attributes) == {"k", "x"}
        assert main.foreign_keys[0].columns == ("x",)

    def test_each_determiner_linked_from_its_earliest_holder(self):
        assert layout(decompose_3nf(THREE_ROUNDS)) == [
            ("R_main", ["k1", "k2", "x"], ["k1", "k2"], [(["x"], "x")]),
            ("k1", ["k1", "p"], ["k1"], [(["p"], "p")]),
            ("z", ["z", "w"], ["z"], []),
            ("y", ["y", "z"], ["y"], [(["z"], "z")]),
            ("x", ["x", "y"], ["x"], [(["y"], "y")]),
            ("p", ["p", "q"], ["p"], []),
        ]
        assert layout(decompose_3nf(EARLIEST_AT_TURN)) == [
            ("R_main", ["k1", "k2", "x"], ["k1", "k2"], [(["x"], "x")]),
            ("k1", ["k1", "p"], ["k1"], [(["p"], "p")]),
            ("p", ["p", "y"], ["p"], [(["y"], "y")]),
            ("y", ["y", "z"], ["y"], []),
            ("x", ["x", "y"], ["x"], []),
        ]

    def test_host_may_come_after_the_table_and_main_gains_a_determiner(self):
        # x is first held by the later table k_x; k_x's determiner is held
        # whole by no other table, so x joins the main table, which links it
        c = by_hand("k", [], [("x", "y"), ("k x", "z"), ("y", "w")], primes=("k",))
        assert layout(decompose_3nf(c)) == [
            ("R_main", ["k", "x"], ["k"], [(["k", "x"], "k_x")]),
            ("x", ["x", "y"], ["x"], [(["y"], "y")]),
            ("k_x", ["k", "x", "z"], ["k", "x"], [(["x"], "x")]),
            ("y", ["y", "w"], ["y"], []),
        ]


class TestNormalize:
    def test_trace_flag_off_gives_two_tables(self, trace_schema):
        assert len(decompose_2nf(prepare(trace_schema).classification)) == 2

    def test_trace_flag_on_gives_three_tables(self, trace_schema):
        assert len(decompose_3nf(prepare(trace_schema).classification)) == 3

    def test_key_only_relation(self):
        c = prepare(RawSchema("R", (RawAttribute("k", is_key=True),))).classification
        for decompose in (decompose_2nf, decompose_3nf):
            assert table_sets(decompose(c)) == {(frozenset({"k"}), frozenset({"k"}))}

    def test_attribute_no_dependency_mentions_lands_in_main(self):
        attributes = (RawAttribute("k", is_key=True), RawAttribute("a"), RawAttribute("u"))
        raw = RawSchema("R", attributes, (RawFd(("k",), ("a",)),))
        c = prepare(raw).classification
        assert c.a1 == ("k", "a", "u")
        for decompose in (decompose_2nf, decompose_3nf):
            assert layout(decompose(c)) == [("R_main", ["k", "a", "u"], ["k"], [])]

    def test_colliding_table_names_get_a_suffix(self):
        # the tables of determiners {a, b} and {a_b} are both named a_b at first
        names = ("k", "a", "b", "a_b", "c", "d")
        fds = (RawFd(("k",), ("a", "b", "a_b")), RawFd(("a", "b"), ("c",)), RawFd(("a_b",), ("d",)))
        raw = RawSchema("R", tuple(RawAttribute(n, n == "k") for n in names), fds)
        tables = decompose_3nf(prepare(raw).classification)
        assert layout(tables) == [
            ("R_main", ["k", "a", "b", "a_b"], ["k"], [(["a", "b"], "a_b"), (["a_b"], "a_b_2")]),
            ("a_b", ["a", "b", "c"], ["a", "b"], []),
            ("a_b_2", ["a_b", "d"], ["a_b"], []),
        ]
        assert "FOREIGN KEY (a_b) REFERENCES a_b_2 (a_b)" in emit_ddl(tables).text


def relation_of(*names, fds=()):
    """Relation R keyed on k, plus atomic ``names`` and ``(lhs, rhs)`` strings."""
    attributes = (RawAttribute("k", is_key=True), *(RawAttribute(n) for n in names))
    return RawSchema("R", attributes, tuple(RawFd(tuple(lhs.split()), tuple(rhs.split())) for lhs, rhs in fds))


class TestPrepareChecksValuesBuiltInCode:
    """A relation built as ``RawSchema(...)`` skips the parser's checks;
    ``prepare`` must still reject it, with the same error as ever."""

    @pytest.mark.parametrize(
        "raw, error, message",
        [
            (relation_of("a-b"), InvalidName, "not a valid attribute name: 'a-b'"),
            (relation_of("café"), InvalidName, "not a valid attribute name: 'café'"),
            (
                relation_of("a" * 101),
                InvalidName,
                f"attribute name longer than 100 characters: {'a' * 20!r}...",
            ),
            (
                RawSchema("R", (RawAttribute("k", True), RawAttribute("m" * 98, multivalued=True))),
                InvalidName,
                f"attribute name longer than 100 characters: {'m' * 20!r}...",
            ),
            (
                RawSchema(
                    "R",
                    (RawAttribute("k", True), RawAttribute("phone", multivalued=True), RawAttribute("phone_ID")),
                ),
                DuplicateAttribute,
                "duplicate attribute names in 'R': ['phone_ID']",
            ),
            (
                relation_of(*"abcdef", fds=[("a b c d e", "f")]),
                LhsTooLarge,
                "relation 'R': dependency a, b, c, d, e -> f: left-hand side of size 5 exceeds MAX_LHS = 4",
            ),
            (
                relation_of(*"abcdef", fds=[(n, "f") for n in "abcde"]),
                DeterminerSlotsExhausted,
                "relation 'R': attribute 'f' already has 4 determiners",
            ),
            (
                RawSchema("R", (RawAttribute("k", True), RawAttribute("a")), (RawFd((), ("a",)),)),
                InvalidFd,
                "left-hand side must not be empty",
            ),
        ],
        ids=["invalid-name", "non-ascii-name", "long-name", "long-flattened-name", "repeated-flattened-name",
             "five-name-lhs", "fifth-determiner", "empty-lhs"],
    )
    def test_rejected_in_prepare(self, raw, error, message):
        with pytest.raises(error) as caught:
            prepare(raw)
        assert str(caught.value) == message

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stages_equal_the_public_checking_builders(self, data):
        raw = data.draw(raw_relations())
        flat = to_first_normal_form(raw)
        universe = flat.attribute_names()
        split = split_rhs(flat.declared_fds, universe)
        keys = set(flat.key_names())
        ordered = [fd for fd in split if not fd.lhs <= keys] + [fd for fd in split if fd.lhs <= keys]
        cover = minimal_cover(FdSet(tuple(ordered), universe))
        try:
            state = prepare(raw)
        except NormalizationError as exc:
            # past the cover, only the node sequence can reject
            event("rejected")
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                build_schema_list(flat, cover)
            return
        event("flat as declared" if flat is raw else "flattened")
        assert (state.flat, state.split, state.cover) == (flat, split, cover)
        assert state.schema_list == build_schema_list(flat, cover)
        # a name repeated on a side changes nothing past the split
        once = RawSchema(
            raw.relation_name,
            raw.attributes,
            tuple(RawFd(tuple(dict.fromkeys(fd.lhs)), tuple(dict.fromkeys(fd.rhs))) for fd in raw.declared_fds),
        )
        twin = prepare(once)
        assert (twin.split, twin.cover, twin.schema_list, twin.classification) == (
            state.split,
            state.cover,
            state.schema_list,
            state.classification,
        )
        for decompose in (decompose_2nf, decompose_3nf):
            assert layout(decompose(twin.classification)) == layout(decompose(state.classification))


@st.composite
def raw_relations(draw):
    """A declared relation of every attribute kind, its dependencies free to
    repeat a name on one side, to name the same attribute on both, and to
    leave the right-hand side empty."""
    attributes = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        multivalued = draw(st.booleans())
        width = 0 if multivalued else draw(st.integers(min_value=0, max_value=2))
        components = tuple(f"a{i}_{j}" for j in range(width))
        attributes.append(RawAttribute(f"a{i}", i == 0 or draw(st.booleans()), multivalued, components))
    if draw(st.booleans()):  # most relations stay atomic
        attributes = [RawAttribute(a.name, a.is_key) for a in attributes]
    declared = [name for a in attributes for name in (a.name, *a.components)]
    side = st.lists(st.sampled_from(declared), max_size=3)
    fds = [
        RawFd(tuple(draw(side.filter(bool))), tuple(draw(side)))
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]
    return RawSchema("R", tuple(attributes), tuple(fds))


class TestCorpusInvariants:
    def test_attribute_and_key_preservation(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            universe = set(state.flat.attribute_names())
            primes = set(state.flat.key_names())
            for tables in (
                decompose_2nf(state.classification),
                decompose_3nf(state.classification),
            ):
                union = set().union(*(t.attributes for t in tables))
                assert union == universe, raw.relation_name
                assert any(primes <= frozenset(t.attributes) for t in tables), raw.relation_name

    def test_3nf_refines_2nf(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            two = decompose_2nf(state.classification)
            three = decompose_3nf(state.classification)
            for table in three:
                assert any(
                    frozenset(table.attributes) <= frozenset(other.attributes) for other in two
                ), (raw.relation_name, table.name)

    def test_no_duplicate_columns_and_pk_inside(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            for tables in (
                decompose_2nf(state.classification),
                decompose_3nf(state.classification),
            ):
                for t in tables:
                    assert len(t.attributes) == len(set(t.attributes))
                    assert set(t.primary_key) <= set(t.attributes)
                    for fk in t.foreign_keys:
                        assert set(fk.columns) <= set(t.attributes)


@st.composite
def flat_relations(draw):
    """An atomic relation with at least one key, plus a cover over it that
    fits the node layout (LHS of at most 3, at most MAX_DETERMINERS
    determiners per attribute)."""
    names = [f"n{i}" for i in range(draw(st.integers(min_value=1, max_value=12)))]
    keys = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    keys[draw(st.integers(min_value=0, max_value=len(names) - 1))] = True
    flat = RawSchema("R", tuple(RawAttribute(n, k) for n, k in zip(names, keys)))
    fds: list[FunctionalDependency] = []
    if len(names) > 1:
        for rhs in draw(st.lists(st.sampled_from(names), max_size=16)):
            if sum(fd.rhs == rhs for fd in fds) == MAX_DETERMINERS:
                continue
            others = [n for n in names if n != rhs]
            lhs = draw(st.sets(st.sampled_from(others), min_size=1, max_size=min(3, len(others))))
            fds.append(FunctionalDependency(frozenset(lhs), rhs))
    return flat, FdSet(tuple(fds), tuple(names))


# the faults faulty_relations may inject, each one the node sequence rejects
FAULTS = ("invalid name", "long name", "wide side", "fifth determiner", "unknown name")


@st.composite
def faulty_relations(draw):
    """An atomic relation and an ``FdSet`` over it, with up to two faults
    injected: an invalid name and a 101-character one, valid or not, each
    at a drawn place in declared order; a five-name left-hand side at a
    drawn place in cover order; five single-name determiners of one name,
    spread through the cover; ``ghost``, a name of the cover's universe
    outside the relation, as the dependent or a determiner of one
    dependency the other fault added, or else of a new one.  A faulty name
    may be a key or a determiner, so which fault is met first depends on
    entry order as well as on declared order."""
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))
    wide = "wide side" in faults or "fifth determiner" in faults
    names = [f"n{i}" for i in range(draw(st.integers(min_value=6 if wide else 1, max_value=10)))]
    # one long name is off the grammar too, so that the two name checks meet
    long_name = draw(st.sampled_from(["n" * 101, "-" * 101]))
    for fault, name in (("invalid name", "a-b"), ("long name", long_name)):
        if fault in faults:
            names.insert(draw(st.integers(min_value=0, max_value=len(names))), name)
    keys = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    keys[draw(st.integers(min_value=0, max_value=len(names) - 1))] = True
    fds: list[FunctionalDependency] = []
    if len(names) > 1:
        for rhs in draw(st.lists(st.sampled_from(names), max_size=12)):
            if sum(fd.rhs == rhs for fd in fds) < MAX_DETERMINERS:
                others = [n for n in names if n != rhs]
                lhs = draw(st.sets(st.sampled_from(others), min_size=1, max_size=min(3, len(others))))
                fds.append(FunctionalDependency(frozenset(lhs), rhs))
    added: list[FunctionalDependency] = []
    if "wide side" in faults:
        rhs, *lhs = draw(st.lists(st.sampled_from(names), min_size=6, max_size=6, unique=True))
        added.append(FunctionalDependency(frozenset(lhs), rhs))
    if "fifth determiner" in faults:
        rhs, *lhs = draw(st.lists(st.sampled_from(names), min_size=6, max_size=6, unique=True))
        added += [FunctionalDependency(frozenset([name]), rhs) for name in lhs]
    if "unknown name" in faults:
        # ghost in place of a name of a dependency the other fault added, so
        # that two faults meet in one dependency, else in a new one
        if added:
            i = draw(st.integers(min_value=0, max_value=len(added) - 1))
            lhs, rhs = sorted(added[i].lhs), added[i].rhs
            if draw(st.booleans()):
                rhs = "ghost"
            else:
                lhs[draw(st.integers(min_value=0, max_value=len(lhs) - 1))] = "ghost"
            added[i] = FunctionalDependency(frozenset(lhs), rhs)
        else:
            other = draw(st.sampled_from(names))
            pair = (FunctionalDependency(frozenset([other]), "ghost"), FunctionalDependency(frozenset(["ghost"]), other))
            added.append(draw(st.sampled_from(pair)))
    for fd in added:
        fds.insert(draw(st.integers(min_value=0, max_value=len(fds))), fd)
    flat = RawSchema("R", tuple(RawAttribute(n, k) for n, k in zip(names, keys)))
    universe = (*names, "ghost") if "unknown name" in faults else tuple(names)
    return flat, FdSet(tuple(fds), universe)


def entered_one_fact_at_a_time(flat, cover):
    """The node sequence, or the first fault as ``(type, message)``, of a
    sequential model of the layout: each attribute in entry order (keys,
    then non-key determiners, then the rest, each in declared order) is
    checked and appended, then each dependency in cover order."""
    relation = flat.relation_name
    determiners = set().union(*(fd.lhs for fd in cover))
    entry = sorted(flat.attributes, key=lambda a: 0 if a.is_key else 1 if a.name in determiners else 2)
    nodes: dict[str, AttributeNode] = {}
    for attr in entry:
        name = attr.name
        if len(nodes) == MAX_ATTRIBUTES:
            return CapacityExceeded, f"relation {relation!r} already holds {MAX_ATTRIBUTES} attributes"
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            return InvalidName, f"not a valid attribute name: {name!r}"
        if len(name) > MAX_NAME_LEN:
            return InvalidName, f"attribute name longer than {MAX_NAME_LEN} characters: {name[:20]!r}..."
        nodes[name] = AttributeNode(name, name in determiners, len(nodes) + 1, [], attr.is_key)
    for fd in cover:
        if fd.rhs not in nodes:
            return UnknownAttribute, f"dependent attribute {fd.rhs!r} not in relation"
        if len(fd.lhs) > MAX_LHS:
            return LhsTooLarge, (
                f"relation {relation!r}: dependency {', '.join(sorted(fd.lhs))} -> {fd.rhs}: "
                f"left-hand side of size {len(fd.lhs)} exceeds MAX_LHS = {MAX_LHS}"
            )
        for name in sorted(fd.lhs):
            if name not in nodes:
                return UnknownAttribute, f"determiner attribute {name!r} not in relation"
        slot = frozenset(nodes[name].node_id for name in fd.lhs)
        held = nodes[fd.rhs].determiner_slots
        if slot in held:
            continue
        if len(held) == MAX_DETERMINERS:
            return DeterminerSlotsExhausted, (
                f"relation {relation!r}: attribute {fd.rhs!r} already has {MAX_DETERMINERS} determiners"
            )
        held.append(slot)
    return SchemaList(relation, list(nodes.values()))


class TestBuildSchemaList:
    @given(flat_relations())
    def test_nodes_in_entry_rank_then_declared_order(self, relation):
        flat, cover = relation
        determiners = set().union(*(fd.lhs for fd in cover))

        def rank(attr):
            if attr.is_key:
                return 0
            return 1 if attr.name in determiners else 2

        position = {a.name: i for i, a in enumerate(flat.attributes)}
        expected = sorted(flat.attributes, key=lambda a: (rank(a), position[a.name]))
        schema_list = build_schema_list(flat, cover)
        assert [n.attribute_name for n in schema_list.nodes] == [a.name for a in expected]
        assert [n.node_id for n in schema_list.nodes] == list(range(1, len(expected) + 1))
        check_invariants(schema_list)

    @settings(max_examples=300, deadline=None)
    @given(faulty_relations())
    def test_raises_the_first_fault_in_entry_then_cover_order(self, relation):
        flat, cover = relation
        expected = entered_one_fact_at_a_time(flat, cover)
        if isinstance(expected, SchemaList):
            event("built")
            schema_list = build_schema_list(flat, cover)
            assert schema_list == expected
            check_invariants(schema_list)
            return
        error, message = expected
        event(error.__name__)
        with pytest.raises(error) as caught:
            build_schema_list(flat, cover)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize(
        "others, fds, error, message",
        [
            (["-" * 101], [], InvalidName, f"not a valid attribute name: {'-' * 101!r}"),
            (list("abcd"), [FD("kabcd", "ghost")], UnknownAttribute, "dependent attribute 'ghost' not in relation"),
            (
                list("abcd"),
                [FD(["ghost", *"abcd"], "k")],
                LhsTooLarge,
                "relation 'R': dependency a, b, c, d, ghost -> k: left-hand side of size 5 exceeds MAX_LHS = 4",
            ),
            (
                list("abcde"),
                [*(FD(n, "e") for n in "kabc"), FD(["ghost"], "e")],
                UnknownAttribute,
                "determiner attribute 'ghost' not in relation",
            ),
        ],
        ids=["grammar-before-length", "dependent-before-width", "width-before-determiner", "determiner-before-cap"],
    )
    def test_two_faults_in_one_fact(self, others, fds, error, message):
        with pytest.raises(error) as caught:
            build_list("k", others, fds)
        assert str(caught.value) == message

    def test_capacity_is_checked_in_prepare(self):
        def star(n):  # star_text(n), built in code
            rest = tuple(f"a{i}" for i in range(1, n))
            return RawSchema("R", (RawAttribute("k", True), *map(RawAttribute, rest)), (RawFd(("k",), rest),))

        over = star(MAX_ATTRIBUTES + 1)
        assert over == parse_schema_file(star_text(MAX_ATTRIBUTES + 1))
        assert len(prepare(star(MAX_ATTRIBUTES)).schema_list.nodes) == MAX_ATTRIBUTES
        with pytest.raises(CapacityExceeded) as caught:
            prepare(over)
        assert str(caught.value) == "relation 'R' already holds 9000 attributes"
