import pytest

from relnorm.errors import (
    CapacityExceeded,
    DeterminerSlotsExhausted,
    DuplicateAttribute,
    EntryOrderViolation,
    InvalidFd,
    InvalidName,
    LhsTooLarge,
    UnknownAttribute,
)
from relnorm.schema_model import (
    MAX_ATTRIBUTES,
    SchemaList,
)
from schema_helpers import FD, check_invariants, find_node, stored_fds


def employee_list_in_source_order() -> SchemaList:
    # e_id, e_s_name, j_class, CHPH entered as declared; determiner flags
    # start false for the non-keys and are set by the dependency adds.
    sl = SchemaList("Employee")
    sl.add_attribute("e_id", is_key=True, is_det=True)
    sl.add_attribute("e_s_name")
    sl.add_attribute("j_class")
    sl.add_attribute("CHPH")
    return sl


class TestCreateNode:
    # nodes are made only by appends; these check the node add_attribute builds
    def test_first_key_node(self):
        sl = SchemaList("R")
        sl.add_attribute("e_id", is_key=True, is_det=True)
        node = sl.nodes[0]
        assert node.attribute_name == "e_id"
        assert node.is_determiner is True
        assert node.node_id == 1
        assert node.determiner_slots == []
        assert node.is_key_attribute is True

    def test_plain_node_defaults(self):
        sl = SchemaList("R")
        sl.add_attribute("x")
        node = sl.nodes[0]
        assert node.is_key_attribute is False
        assert node.is_determiner is False
        assert node.determiner_slots == []

    def test_name_too_long(self):
        sl = SchemaList("R")
        with pytest.raises(InvalidName, match="longer than 100 characters"):
            sl.add_attribute("a" * 101)
        assert sl.nodes == []
        # exactly at the limit is fine
        sl.add_attribute("a" * 100)

    @pytest.mark.parametrize("bad", ["", "1abc", "a-b", "a b", "a.b"])
    def test_illegal_names(self, bad):
        sl = SchemaList("R")
        with pytest.raises(InvalidName, match="not a valid attribute name"):
            sl.add_attribute(bad)
        assert sl.nodes == []


class TestAddAttribute:
    def test_ids_run_from_one(self):
        sl = SchemaList("R")
        sl.add_attribute("a", is_key=True)
        sl.add_attribute("b", is_key=True)
        for name in "cdefg":
            sl.add_attribute(name)
        assert [n.node_id for n in sl.nodes] == [1, 2, 3, 4, 5, 6, 7]

    def test_rejected_append_takes_no_id(self):
        sl = SchemaList("R")
        assert sl.add_attribute("k", is_key=True) == 1
        with pytest.raises(DuplicateAttribute):
            sl.add_attribute("k")
        assert sl.add_attribute("x") == 2
        with pytest.raises(EntryOrderViolation):
            sl.add_attribute("k2", is_key=True)
        with pytest.raises(InvalidName):
            sl.add_attribute("no-dash")
        assert sl.add_attribute("y") == 3
        assert [n.node_id for n in sl.nodes] == [1, 2, 3]
        check_invariants(sl)

    def test_nodes_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SchemaList("R", nodes=[])
        with pytest.raises(TypeError):
            SchemaList("R", node_id_counter=100)

    def test_append_to_empty_list(self):
        sl = SchemaList("R")
        sl.add_attribute("head", is_key=True)
        assert sl.nodes[0].attribute_name == "head"

    def test_key_after_non_key_rejected(self):
        sl = SchemaList("R")
        sl.add_attribute("k", is_key=True)
        sl.add_attribute("x")
        with pytest.raises(EntryOrderViolation):
            sl.add_attribute("k2", is_key=True)

    def test_determiner_after_plain_rejected(self):
        sl = SchemaList("R")
        sl.add_attribute("k", is_key=True)
        sl.add_attribute("plain")
        with pytest.raises(EntryOrderViolation):
            sl.add_attribute("det", is_det=True)

    def test_duplicate_name_rejected(self):
        sl = SchemaList("R")
        sl.add_attribute("a", is_key=True)
        with pytest.raises(DuplicateAttribute):
            sl.add_attribute("a")

    def test_capacity(self):
        sl = SchemaList("R")
        sl.add_attribute("k", is_key=True)
        for i in range(1, MAX_ATTRIBUTES):
            sl.add_attribute(f"a{i}")
        assert len(sl.nodes) == MAX_ATTRIBUTES == 9000
        with pytest.raises(CapacityExceeded, match="already holds 9000 attributes"):
            sl.add_attribute("z")


class TestAddFd:
    def test_multi_determiner_slots(self):
        # A..G as determiners of H, ids 1..7.
        sl = SchemaList("demo")
        for name in "ABCDEFG":
            sl.add_attribute(name, is_det=True)
        sl.add_attribute("H")
        sl.add_fd(FD("ABCD", "H"))
        sl.add_fd(FD("EF", "H"))
        sl.add_fd(FD("G", "H"))
        h = find_node(sl, "H")
        assert h.determiner_slots == [
            frozenset({1, 2, 3, 4}),
            frozenset({5, 6}),
            frozenset({7}),
        ]

    def test_employee_first_fd(self):
        sl = employee_list_in_source_order()
        sl.add_fd(FD(["e_id"], "e_s_name"))
        assert find_node(sl, "e_s_name").determiner_slots == [frozenset({1})]

    def test_employee_all_fds(self):
        sl = employee_list_in_source_order()
        for rhs in ("e_s_name", "j_class", "CHPH"):
            sl.add_fd(FD(["e_id"], rhs))
        sl.add_fd(FD(["j_class"], "CHPH"))
        assert find_node(sl, "CHPH").determiner_slots == [frozenset({1}), frozenset({3})]
        assert find_node(sl, "j_class").is_determiner is True

    def test_fifth_determiner_rejected(self):
        sl = SchemaList("R")
        for name in "abcde":
            sl.add_attribute(name, is_det=True)
        sl.add_attribute("z")
        for name in "abcd":
            sl.add_fd(FD([name], "z"))
        with pytest.raises(DeterminerSlotsExhausted):
            sl.add_fd(FD(["e"], "z"))

    def test_duplicate_fd_is_noop(self):
        sl = employee_list_in_source_order()
        sl.add_fd(FD(["e_id"], "e_s_name"))
        sl.add_fd(FD(["e_id"], "e_s_name"))
        assert find_node(sl, "e_s_name").determiner_slots == [frozenset({1})]

    def test_wide_lhs_rejected(self):
        sl = SchemaList("R")
        for name in "abcde":
            sl.add_attribute(name, is_det=True)
        sl.add_attribute("z")
        with pytest.raises(LhsTooLarge):
            sl.add_fd(FD("abcde", "z"))

    def test_unknown_names_rejected(self):
        sl = employee_list_in_source_order()
        with pytest.raises(UnknownAttribute):
            sl.add_fd(FD(["nope"], "CHPH"))
        with pytest.raises(UnknownAttribute):
            sl.add_fd(FD(["e_id"], "nope"))


class TestFindNode:
    def test_finds_by_name(self):
        sl = employee_list_in_source_order()
        node = find_node(sl, "j_class")
        assert node is not None and node.node_id == 3

    def test_absent_on_empty(self):
        assert find_node(SchemaList("R"), "x") is None

    def test_matches_positional_scan(self):
        sl = SchemaList("R")
        sl.add_attribute("k", is_key=True)
        for name in "uvwxyz":
            sl.add_attribute(name)
        for node in sl.nodes:
            assert find_node(sl, node.attribute_name) is node

    def test_index_is_not_part_of_the_value(self):
        sl = SchemaList("R")
        sl.add_attribute("k", is_key=True)
        bare = SchemaList("R")
        bare.nodes.extend(sl.nodes)  # the same nodes behind an empty index
        assert bare == sl
        assert repr(bare) == repr(sl)
        assert "_by_name" not in repr(sl)

    def test_invariants_catch_a_node_added_behind_the_index(self):
        sl = SchemaList("R")
        sl.add_attribute("k", is_key=True)
        other = SchemaList("S")
        other.add_attribute("k", is_key=True)
        other.add_attribute("v")
        sl.nodes.append(other.nodes[1])
        with pytest.raises(AssertionError, match="name index"):
            check_invariants(sl)


class TestInvariants:
    def test_stored_fds_reconstruct_input(self):
        sl = SchemaList("R")
        sl.add_attribute("a", is_key=True)
        sl.add_attribute("b", is_key=True)
        sl.add_attribute("d", is_det=True)
        for name in "cefg":
            sl.add_attribute(name)
        fds = [FD("ab", "c"), FD("ab", "d"), FD("b", "e"), FD("d", "f"), FD("d", "g")]
        for fd in fds:
            sl.add_fd(fd)
            sl.add_fd(fd)  # dedup keeps the multiset equal
        assert sorted(map(repr, stored_fds(sl))) == sorted(map(repr, fds))
        check_invariants(sl)

    def test_trivial_fd_rejected_by_type(self):
        with pytest.raises(InvalidFd):
            FD("ab", "a")
        with pytest.raises(InvalidFd):
            FD([], "a")

    def test_counter_is_per_list(self):
        first = SchemaList("R1")
        first.add_attribute("a", is_key=True)
        second = SchemaList("R2")
        assert second.add_attribute("a", is_key=True) == 1
