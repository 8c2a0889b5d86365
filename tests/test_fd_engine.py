import re

import pytest

from oracles import brute_closure, equivalent_on_all_subsets
from relnorm import fd_engine
from relnorm.errors import DuplicateAttribute, UnknownAttribute
from relnorm.fd_engine import FdSet, RawFd, closure, implies, minimal_cover, split_rhs
from relnorm.normalizer import TableStructure
from relnorm.verifier import is_lossless, preserves_dependencies, scan_violations
from schema_helpers import FD


BEER_UNIVERSE = ("beer", "brewery", "strength", "city", "region", "warehouse", "quantity")
BEER_FDS = FdSet(
    (
        FD(["beer"], "brewery"),
        FD(["beer"], "strength"),
        FD(["brewery"], "city"),
        FD(["city"], "region"),
        FD(["beer", "warehouse"], "quantity"),
    ),
    BEER_UNIVERSE,
)

TRACE_UNIVERSE = tuple("abcdefg")
TRACE_FDS = FdSet(
    (FD("ab", "c"), FD("ab", "d"), FD("b", "e"), FD("d", "f"), FD("d", "g")),
    TRACE_UNIVERSE,
)


class TestSplitRhs:
    def test_employee_splits_to_four(self):
        raw = [
            RawFd(("e_id",), ("e_s_name", "j_class", "CHPH")),
            RawFd(("j_class",), ("CHPH",)),
        ]
        out = split_rhs(raw, ("e_id", "e_s_name", "j_class", "CHPH"))
        assert [repr(fd) for fd in out] == [
            "{e_id} -> e_s_name",
            "{e_id} -> j_class",
            "{e_id} -> CHPH",
            "{j_class} -> CHPH",
        ]

    def test_singleton_passthrough(self):
        out = split_rhs([RawFd(("a",), ("b",))], ("a", "b"))
        assert len(out) == 1

    def test_rhs_attribute_on_the_left_is_dropped(self):
        out = split_rhs([RawFd(("a", "b"), ("b", "c"))], ("a", "b", "c"))
        assert [repr(fd) for fd in out] == ["{a, b} -> c"]

    def test_count_preserved(self):
        out = split_rhs([RawFd(("G",), ("A", "E", "J", "K"))], tuple("AEGJK"))
        assert len(out) == 4


class TestClosure:
    def test_beer_key_attribute(self):
        got = closure({"beer"}, BEER_FDS)
        assert got == frozenset({"beer", "brewery", "strength", "city", "region"})
        assert got == brute_closure({"beer"}, BEER_FDS)

    def test_no_fds(self):
        assert closure({"x"}, FdSet((), ("x",))) == frozenset({"x"})

    def test_trace_key_reaches_everything(self):
        got = closure({"a", "b"}, TRACE_FDS)
        assert got == frozenset(TRACE_UNIVERSE)
        assert got == brute_closure({"a", "b"}, TRACE_FDS)

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            closure({"nope"}, BEER_FDS)


class TestImplies:
    def test_transitive_chain(self):
        assert implies(BEER_FDS, FD(["beer"], "region")) is True

    def test_reverse_direction(self):
        assert implies(BEER_FDS, FD(["city"], "beer")) is False
        assert closure({"city"}, BEER_FDS) == frozenset({"city", "region"})

    def test_empty_fd_set(self):
        assert implies(FdSet((), ("a", "b")), FD(["a"], "b")) is False

    def test_unknown_attribute(self):
        for candidate in (FD("a", "z"), FD("az", "b")):
            with pytest.raises(UnknownAttribute, match="'z'"):
                implies(TRACE_FDS, candidate)


class TestMinimalCover:
    def test_employee_drops_transitive_duplicate(self):
        universe = ("e_id", "e_s_name", "j_class", "CHPH")
        fds = FdSet(
            (
                FD(["e_id"], "e_s_name"),
                FD(["e_id"], "j_class"),
                FD(["e_id"], "CHPH"),
                FD(["j_class"], "CHPH"),
            ),
            universe,
        )
        cover = minimal_cover(fds)
        assert len(cover) == 3
        assert FD(["e_id"], "CHPH") not in cover.fds
        assert equivalent_on_all_subsets(fds, cover)

    def test_trace_already_minimal(self):
        cover = minimal_cover(TRACE_FDS)
        assert cover.fds == TRACE_FDS.fds

    def test_gh_drops_two(self):
        universe = tuple("ABCDEFGHIJKL")
        raw = [
            RawFd(("A",), ("B", "C")),
            RawFd(("E",), ("A", "D")),
            RawFd(("G",), ("A", "E", "J", "K")),
            RawFd(("G", "H"), ("F", "I")),
            RawFd(("K",), ("A", "L")),
            RawFd(("J",), ("K",)),
        ]
        split = split_rhs(raw, universe)
        assert len(split) == 13
        cover = minimal_cover(split)
        assert len(cover) == 11
        assert FD(["G"], "A") not in cover.fds
        assert FD(["G"], "K") not in cover.fds
        assert equivalent_on_all_subsets(split, cover)

    def test_extraneous_lhs_removed(self):
        universe = ("a", "b", "c")
        fds = FdSet((FD(["a"], "b"), FD(["a", "b"], "c")), universe)
        cover = minimal_cover(fds)
        assert FD(["a"], "c") in cover.fds
        assert equivalent_on_all_subsets(fds, cover)

    def test_exact_duplicates_collapse(self):
        fds = FdSet((FD(["a"], "b"), FD(["a"], "b")), ("a", "b"))
        assert len(fds) == 1  # dropped on construction

    def test_fixpoint(self):
        cover = minimal_cover(BEER_FDS)
        assert minimal_cover(cover).fds == cover.fds


class TestFdSet:
    def test_duplicate_universe_name(self):
        with pytest.raises(DuplicateAttribute):
            FdSet((FD("a", "b"),), ("a", "b", "a"))

    @pytest.mark.parametrize("fd", [FD("a", "z"), FD("az", "b")], ids=["rhs", "lhs"])
    def test_attribute_outside_universe(self, fd):
        with pytest.raises(UnknownAttribute, match=re.escape("attributes outside universe: ['z']")):
            FdSet((fd,), ("a", "b"))


class TestSharedKernel:
    """Every closure of one cover runs on the kernel the cover keeps."""

    def test_walks_leave_the_kernel_unchanged(self):
        # c and d head no dependency, and d has no producer
        fds = FdSet((FD("a", "b"), FD("b", "c")), tuple("abcd"))
        kernel = fds._kernel
        users = {name: list(pairs) for name, pairs in kernel.users.items()}
        producers = dict(kernel.producers)
        makers = (dict(kernel.last_maker), list(kernel.prior_maker))
        live = list(kernel.live)
        tables = [TableStructure("t1", ["a", "b"], ["a"]), TableStructure("t2", ["a", "c"], ["a"])]
        abd, bc = TableStructure("t3", list("abd"), ["a"]), TableStructure("t4", list("bc"), ["b"])
        assert not preserves_dependencies(fds, tables)
        # is_lossless walks from the first table, firing only the pairs
        # some table embeds: a -> b alone for the first two lists, so the
        # chase decides them; both pairs for the third, so the walk does
        assert not is_lossless(fds.universe, fds, tables)
        assert is_lossless(fds.universe, fds, [abd, tables[1]])
        assert is_lossless(fds.universe, fds, [abd, bc])
        assert closure({"c"}, fds) == {"c"}
        assert closure({"a", "d"}, fds) == {"a", "b", "c", "d"}
        assert not implies(fds, FD("c", "a"))
        assert not implies(fds, FD("a", "d"))
        abc = TableStructure("t5", list("abc"), ["a"])
        assert [(v.dependent, v.determiner) for v in scan_violations(abc, fds)] == [("c", {"b"})]
        assert fds._kernel is kernel
        assert kernel.users == users and kernel.producers == producers and kernel.live == live
        assert (kernel.last_maker, kernel.prior_maker) == makers

    def test_one_kernel_for_many_calls(self, monkeypatch):
        built = []

        class CountingKernel(fd_engine._Kernel):
            def __init__(self, fds):
                built.append(fds)
                super().__init__(fds)

        monkeypatch.setattr(fd_engine, "_Kernel", CountingKernel)
        fds = FdSet(BEER_FDS.fds, BEER_FDS.universe)
        shifted = BEER_UNIVERSE[1:] + BEER_UNIVERSE[:1]
        for lhs, rhs in list(zip(BEER_UNIVERSE, shifted)) * 8:
            closure({lhs}, fds)
            implies(fds, FD([lhs], rhs))
        assert len(built) == 1

    def test_minimal_cover_builds_no_cached_kernel(self):
        fds = FdSet(TRACE_FDS.fds + (FD("ab", "f"),), TRACE_UNIVERSE)
        cover = minimal_cover(fds)
        assert len(cover) == len(TRACE_FDS)
        assert "_kernel" not in vars(fds)
        # the cover carries the kernel that computed it, ab -> f dead in it
        assert "_kernel" in vars(cover)
        assert cover._kernel.live == [True] * len(TRACE_FDS) + [False]
