from unittest.mock import patch

import pytest

from relnorm import fd_engine, verifier
from relnorm.errors import UnknownAttribute
from relnorm.fd_engine import FdSet
from relnorm.normalizer import TableStructure, decompose_2nf, decompose_3nf, prepare
from relnorm.verifier import (
    ViolationKind,
    is_lossless,
    preserves_dependencies,
    scan_violations,
)
from schema_helpers import FD


def table(name, attributes, primary_key):
    return TableStructure(name, list(attributes), list(primary_key))


class TestIsLossless:
    def test_trace_3nf_tables(self, trace_schema):
        state = prepare(trace_schema)
        tables = decompose_3nf(state.classification)
        assert is_lossless(state.flat.attribute_names(), state.cover, tables) is True

    def test_single_full_table(self):
        fds = FdSet((FD("a", "b"),), ("a", "b", "c"))
        assert is_lossless(("a", "b", "c"), fds, [table("t", "abc", "a")]) is True

    def test_classic_lossy_split(self):
        fds = FdSet((FD("a", "b"),), ("a", "b", "c"))
        tables = [table("t1", "ab", "a"), table("t2", "bc", "b")]
        assert is_lossless(("a", "b", "c"), fds, tables) is False

    def test_classic_lossless_split(self):
        fds = FdSet((FD("b", "c"),), ("a", "b", "c"))
        tables = [table("t1", "ab", "a"), table("t2", "bc", "b")]
        assert is_lossless(("a", "b", "c"), fds, tables) is True

    def test_needs_a_merge_of_non_distinguished_symbols(self):
        # a -> c equates the c-cells of rows ad and ab, neither
        # distinguished; only then does c -> d reach row ab, and bd -> a
        # completes row bcd
        fds = FdSet((FD("bd", "a"), FD("c", "d"), FD("a", "c")), ("a", "b", "c", "d"))
        tables = [table("t1", "ad", "a"), table("t2", "ab", "a"), table("t3", "bcd", "b")]
        assert is_lossless(("a", "b", "c", "d"), fds, tables) is True

    def test_attribute_outside_universe(self):
        fds = FdSet((), ("a",))
        with pytest.raises(UnknownAttribute, match=r"table 't' .*\['b'\]"):
            is_lossless(("a",), fds, [table("t", "ab", "a")])

    def test_cover_attribute_outside_universe(self):
        fds = FdSet((FD("a", "b"),), ("a", "b"))
        with pytest.raises(UnknownAttribute, match=r"\['b'\]"):
            is_lossless(("a",), fds, [table("t", "a", "a")])

    def test_corpus_all_lossless_both_forms(self, corpus_schemas):
        with patch.object(verifier, "_chase", wraps=verifier._chase) as chase:
            for raw in corpus_schemas.values():
                state = prepare(raw)
                universe = state.flat.attribute_names()
                for decompose in (decompose_2nf, decompose_3nf):
                    tables = decompose(state.classification)
                    assert is_lossless(universe, state.cover, tables), raw.relation_name
        # the walk from the key table decided every one
        assert chase.call_count == 0


class TestPreservesDependencies:
    def test_beer_3nf(self, corpus_schemas):
        state = prepare(corpus_schemas["Beer_Relation"])
        tables = decompose_3nf(state.classification)
        assert preserves_dependencies(state.cover, tables) is True

    def test_single_full_table(self):
        fds = FdSet((FD("a", "b"), FD("b", "c")), ("a", "b", "c"))
        assert preserves_dependencies(fds, [table("t", "abc", "a")]) is True

    def test_lost_dependency(self):
        fds = FdSet((FD("a", "b"), FD("b", "c")), ("a", "b", "c"))
        tables = [table("t1", "ab", "a"), table("t2", "ac", "a")]
        assert preserves_dependencies(fds, tables) is False

    def test_attribute_outside_universe(self):
        # the first table outside the cover's universe is named, with its strays
        fds = FdSet((FD("a", "b"),), ("a", "b"))
        tables = [table("s", "ab", "a"), table("t", "acb", "a"), table("u", "d", "d")]
        with pytest.raises(UnknownAttribute, match=r"^table 't' mentions attributes outside the universe: \['c'\]$"):
            preserves_dependencies(fds, tables)

    def test_kernel_is_built_only_for_a_dependency_no_table_embeds(self):
        fds = FdSet((FD("a", "b"), FD("b", "c")), ("a", "b", "c"))
        assert preserves_dependencies(fds, [table("t1", "ab", "a"), table("t2", "bc", "b")])
        assert "_kernel" not in vars(fds)
        assert not preserves_dependencies(fds, [table("t1", "ab", "a"), table("t2", "ac", "a")])
        assert "_kernel" in vars(fds)

    def test_corpus_3nf_all_preserved(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            tables = decompose_3nf(state.classification)
            assert preserves_dependencies(state.cover, tables), raw.relation_name


class TestScanViolations:
    def test_unnormalized_employee_single_table(self, employee_schema):
        state = prepare(employee_schema)
        whole = table("Employee", state.flat.attribute_names(), state.flat.key_names())
        found = scan_violations(whole, state.cover, "3nf")
        assert [(v.kind, v.dependent, set(v.determiner)) for v in found] == [
            (ViolationKind.TRANSITIVE, "CHPH", {"j_class"})
        ]

    def test_trace_partial_table_is_clean(self, trace_schema):
        state = prepare(trace_schema)
        assert scan_violations(table("t2", "be", "b"), state.cover, "3nf") == []

    def test_beer_single_table_partial_violations(self, corpus_schemas):
        state = prepare(corpus_schemas["Beer_Relation"])
        whole = table("Beer", state.flat.attribute_names(), ("beer", "warehouse"))
        found = scan_violations(whole, state.cover, "2nf")
        assert [(v.kind, v.dependent, set(v.determiner)) for v in found] == [
            (ViolationKind.PARTIAL, "brewery", {"beer"}),
            (ViolationKind.PARTIAL, "strength", {"beer"}),
        ]

    def test_mode_2nf_ignores_transitive(self, employee_schema):
        state = prepare(employee_schema)
        whole = table("Employee", state.flat.attribute_names(), state.flat.key_names())
        assert scan_violations(whole, state.cover, "2nf") == []

    def test_bad_mode(self, trace_schema):
        state = prepare(trace_schema)
        with pytest.raises(ValueError):
            scan_violations(table("t", "ab", "a"), state.cover, "bcnf")

    def test_corpus_outputs_are_clean(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            for mode, decompose in (("2nf", decompose_2nf), ("3nf", decompose_3nf)):
                for t in decompose(state.classification):
                    assert scan_violations(t, state.cover, mode) == [], (raw.relation_name, t.name)


class TestCoverIndex:
    def test_index_is_invisible_to_equality_hash_and_repr(self, corpus_schemas):
        state = prepare(corpus_schemas["Beer_Relation"])
        cover = state.cover
        twin = FdSet(cover.fds, cover.universe)
        before = (hash(cover), repr(cover))
        # every oracle, both normal forms, reads the cover's kernel
        for mode, decompose in (("2nf", decompose_2nf), ("3nf", decompose_3nf)):
            tables = decompose(state.classification)
            is_lossless(cover.universe, cover, tables)
            preserves_dependencies(cover, tables)
            preserves_dependencies(cover, tables[:1])
            for t in tables:
                scan_violations(t, cover, mode)
        # one table per attribute embeds no dependency, so the walk falls
        # short and the chase runs
        with patch.object(verifier, "_chase", wraps=verifier._chase) as chase:
            assert not is_lossless(cover.universe, cover, [table(n, [n], [n]) for n in cover.universe])
        assert chase.call_count == 1
        views = {"_kernel"}
        assert views <= set(vars(cover))
        assert not views & set(vars(twin))
        assert cover == twin and hash(cover) == hash(twin)
        assert (hash(cover), repr(cover)) == before == (hash(twin), repr(twin))
        assert not views & set(FdSet._fields)

    def test_one_kernel_per_run(self, corpus_schemas, trace_schema, employee_schema, monkeypatch):
        # prepare, both decompositions and every oracle on each: the cover
        # keeps minimal_cover's kernel, and no oracle builds another
        built = []

        class CountingKernel(fd_engine._Kernel):
            def __init__(self, fds):
                built.append(fds)
                super().__init__(fds)

        monkeypatch.setattr(fd_engine, "_Kernel", CountingKernel)
        for raw in [*corpus_schemas.values(), trace_schema, employee_schema]:
            built.clear()
            state = prepare(raw)
            universe = state.flat.attribute_names()
            for mode, decompose in (("2nf", decompose_2nf), ("3nf", decompose_3nf)):
                tables = decompose(state.classification)
                is_lossless(universe, state.cover, tables)
                preserves_dependencies(state.cover, tables)
                for t in tables:
                    scan_violations(t, state.cover, mode)
            assert len(built) == 1, raw.relation_name
