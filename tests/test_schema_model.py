import pytest

from relnorm.errors import (
    CapacityExceeded,
    DeterminerSlotsExhausted,
    DuplicateAttribute,
    InvalidFd,
    InvalidName,
    LhsTooLarge,
    UnknownAttribute,
)
from relnorm.fd_engine import FdSet
from relnorm.normalizer import RawAttribute, RawSchema, build_schema_list
from relnorm.schema_model import (
    MAX_ATTRIBUTES,
    SchemaList,
    _unchecked,
)
from schema_helpers import FD, build_list, check_invariants, find_node, stored_fds

EMPLOYEE = (["e_id"], ["e_s_name", "j_class", "CHPH"])


def employee(*fds) -> SchemaList:
    # e_id, e_s_name, j_class, CHPH as declared; a non-key that determines
    # something in ``fds`` moves ahead of the other non-keys
    return build_list(*EMPLOYEE, fds, relation_name="Employee")


def build_repeating(keys, others, fds) -> SchemaList:
    """The build over a cover that holds each of ``fds`` twice, which only
    an ``FdSet`` built without its checks can: ``FdSet`` drops a repeat."""
    attributes = (*(RawAttribute(name, True) for name in keys), *map(RawAttribute, others))
    twice = tuple(fd for fd in fds for _ in range(2))
    universe = tuple(attr.name for attr in attributes)
    return build_schema_list(RawSchema("R", attributes), _unchecked(FdSet, fds=twice, universe=universe))


class TestCreateNode:
    # nodes are made only by build_schema_list; these check the nodes it builds
    def test_first_key_node(self):
        sl = build_list(["e_id"], ["x"], [FD(["e_id"], "x")])
        node = sl.nodes[0]
        assert node.attribute_name == "e_id"
        assert node.is_determiner is True
        assert node.node_id == 1
        assert node.determiner_slots == []
        assert node.is_key_attribute is True

    def test_plain_node_defaults(self):
        node = build_list(["k"], ["x"]).nodes[1]
        assert node.is_key_attribute is False
        assert node.is_determiner is False
        assert node.determiner_slots == []

    def test_name_too_long(self):
        with pytest.raises(InvalidName, match="longer than 100 characters"):
            build_list(["k"], ["a" * 101])
        # exactly at the limit is fine
        assert build_list(["k"], ["a" * 100]).nodes[1].attribute_name == "a" * 100

    @pytest.mark.parametrize("bad", ["", "1abc", "a-b", "a b", "a.b"])
    def test_illegal_names(self, bad):
        with pytest.raises(InvalidName, match="not a valid attribute name"):
            build_list(["k"], [bad])


class TestAddAttribute:
    # attributes entered by build_schema_list
    def test_ids_run_from_one(self):
        sl = build_list("ab", "cdefg")
        assert [n.node_id for n in sl.nodes] == [1, 2, 3, 4, 5, 6, 7]

    def test_append_to_empty_list(self):
        sl = build_list(["head"])
        assert sl.nodes[0].attribute_name == "head"

    def test_duplicate_name_rejected(self):
        # a relation cannot hold a repeated name, so no node sequence meets one
        with pytest.raises(DuplicateAttribute):
            build_list(["a"], ["a"])

    def test_capacity(self):
        others = [f"a{i}" for i in range(1, MAX_ATTRIBUTES + 1)]
        sl = build_list(["k"], others[:-1])
        assert len(sl.nodes) == MAX_ATTRIBUTES == 9000
        with pytest.raises(CapacityExceeded) as caught:
            build_list(["k"], others)
        assert str(caught.value) == "relation 'R' already holds 9000 attributes"


class TestAddFd:
    # dependencies stored by build_schema_list
    def test_multi_determiner_slots(self):
        # A..G as determiners of H, ids 1..7.
        sl = build_list("A", "BCDEFGH", [FD("ABCD", "H"), FD("EF", "H"), FD("G", "H")], relation_name="demo")
        h = find_node(sl, "H")
        assert h.determiner_slots == [
            frozenset({1, 2, 3, 4}),
            frozenset({5, 6}),
            frozenset({7}),
        ]

    def test_employee_first_fd(self):
        sl = employee(FD(["e_id"], "e_s_name"))
        assert find_node(sl, "e_s_name").determiner_slots == [frozenset({1})]

    def test_employee_all_fds(self):
        sl = employee(*(FD(["e_id"], rhs) for rhs in ("e_s_name", "j_class", "CHPH")), FD(["j_class"], "CHPH"))
        j_class = find_node(sl, "j_class")
        assert j_class.node_id == 2  # the one non-key determiner, entered ahead of e_s_name
        assert find_node(sl, "CHPH").determiner_slots == [frozenset({1}), frozenset({2})]
        assert j_class.is_determiner is True

    def test_fifth_determiner_rejected(self):
        with pytest.raises(DeterminerSlotsExhausted) as caught:
            build_list("a", "bcdez", [FD([name], "z") for name in "abcde"])
        assert str(caught.value) == "relation 'R': attribute 'z' already has 4 determiners"

    def test_duplicate_fd_is_noop(self):
        sl = build_repeating(*EMPLOYEE, [FD(["e_id"], "e_s_name")])
        assert find_node(sl, "e_s_name").determiner_slots == [frozenset({1})]
        # a repeat of a held slot is no fifth determiner
        sl = build_repeating("a", "bcdz", [FD([name], "z") for name in "abcd"])
        assert find_node(sl, "z").determiner_slots == [frozenset({i}) for i in range(1, 5)]

    def test_wide_lhs_rejected(self):
        with pytest.raises(LhsTooLarge) as caught:
            build_list("a", "bcdez", [FD("abcde", "z")])
        assert str(caught.value) == (
            "relation 'R': dependency a, b, c, d, e -> z: left-hand side of size 5 exceeds MAX_LHS = 4"
        )

    def test_unknown_names_rejected(self):
        with pytest.raises(UnknownAttribute, match="^determiner attribute 'nope' not in relation$"):
            employee(FD(["nope"], "CHPH"))
        with pytest.raises(UnknownAttribute, match="^dependent attribute 'nope' not in relation$"):
            employee(FD(["e_id"], "nope"))


class TestFindNode:
    def test_finds_by_name(self):
        node = find_node(employee(), "j_class")
        assert node is not None and node.node_id == 3

    def test_absent_on_empty(self):
        assert find_node(SchemaList("R", []), "x") is None

    def test_matches_positional_scan(self):
        sl = build_list("k", "uvwxyz")
        for node in sl.nodes:
            assert find_node(sl, node.attribute_name) is node


class TestInvariants:
    def test_stored_fds_reconstruct_input(self):
        fds = [FD("ab", "c"), FD("ab", "d"), FD("b", "e"), FD("d", "f"), FD("d", "g")]
        sl = build_repeating("ab", "cdefg", fds)  # a repeated slot is stored once
        assert sorted(map(repr, stored_fds(sl))) == sorted(map(repr, fds))
        check_invariants(sl)

    def test_trivial_fd_rejected_by_type(self):
        with pytest.raises(InvalidFd):
            FD("ab", "a")
        with pytest.raises(InvalidFd):
            FD([], "a")

    def test_counter_is_per_list(self):
        build_list("a", relation_name="R1")
        assert build_list("a", relation_name="R2").nodes[0].node_id == 1
