"""Property tests for the set-algebra operators."""

from unittest.mock import patch

import hypothesis.strategies as st
from hypothesis import assume, event, given, settings

from oracles import (
    brute_closure,
    brute_lossless,
    brute_preserves,
    compile_rules,
    equivalent_on_all_subsets,
    full_scan_violations,
    has_extraneous_lhs_attribute,
    has_redundant_fd,
    mask_closure,
    reference_cover,
)
from relnorm import verifier
from relnorm.fd_engine import FdSet, closure, implies, minimal_cover
from relnorm.normalizer import TableStructure
from relnorm.schema_model import FunctionalDependency, SchemaList
from relnorm.verifier import is_lossless, preserves_dependencies, scan_violations

UNIVERSE = tuple("abcdef")


@st.composite
def fd_sets(draw):
    size = draw(st.integers(min_value=2, max_value=len(UNIVERSE)))
    universe = UNIVERSE[:size]
    count = draw(st.integers(min_value=0, max_value=8))
    fds = []
    for _ in range(count):
        lhs = draw(
            st.sets(st.sampled_from(universe), min_size=1, max_size=min(3, size))
        )
        options = [u for u in universe if u not in lhs]
        if not options:
            continue
        rhs = draw(st.sampled_from(options))
        fds.append(FunctionalDependency(frozenset(lhs), rhs))
    return FdSet(tuple(fds), universe)


@given(st.data())
def test_closure_is_extensive_and_matches_oracle(data):
    fds = data.draw(fd_sets())
    attrs = data.draw(st.sets(st.sampled_from(fds.universe)))
    got = closure(attrs, fds)
    assert attrs <= got
    assert got == brute_closure(attrs, fds)


@given(st.data())
def test_closure_is_monotone(data):
    fds = data.draw(fd_sets())
    small = data.draw(st.sets(st.sampled_from(fds.universe)))
    extra = data.draw(st.sets(st.sampled_from(fds.universe)))
    assert closure(small, fds) <= closure(small | extra, fds)


@given(st.data())
def test_closure_is_idempotent(data):
    fds = data.draw(fd_sets())
    attrs = data.draw(st.sets(st.sampled_from(fds.universe)))
    once = closure(attrs, fds)
    assert closure(once, fds) == once


@given(st.data())
def test_implies_agrees_with_closure(data):
    fds = data.draw(fd_sets())
    lhs = data.draw(st.sets(st.sampled_from(fds.universe), min_size=1))
    options = [u for u in fds.universe if u not in lhs]
    if not options:
        return
    rhs = data.draw(st.sampled_from(options))
    candidate = FunctionalDependency(frozenset(lhs), rhs)
    assert implies(fds, candidate) == (rhs in closure(lhs, fds))


@settings(max_examples=60)
@given(fd_sets())
def test_minimal_cover_is_equivalent_and_minimal(fds):
    cover = minimal_cover(fds)
    assert equivalent_on_all_subsets(fds, cover)
    assert not has_redundant_fd(cover)
    assert not has_extraneous_lhs_attribute(cover)


@settings(max_examples=60)
@given(fd_sets())
def test_minimal_cover_is_a_fixpoint(fds):
    cover = minimal_cover(fds)
    assert minimal_cover(cover).fds == cover.fds


@st.composite
def wide_fd_sets(draw):
    """Up to 10 dependencies over 7 attributes, left-hand sides 1-4 wide,
    some repeated and some widened copies of others (which left-reduction
    turns into duplicates)."""
    universe = tuple("abcdefg")
    fds = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        lhs = draw(st.sets(st.sampled_from(universe), min_size=1, max_size=4))
        rhs = draw(st.sampled_from([u for u in universe if u not in lhs]))
        fds.append(FunctionalDependency(frozenset(lhs), rhs))
        copy = draw(st.sampled_from(["none", "same", "widened"]))
        extra = [u for u in universe if u not in lhs and u != rhs]
        if copy == "same":
            fds.append(fds[-1])
        elif copy == "widened" and len(lhs) < 4 and extra:
            fds.append(FunctionalDependency(frozenset(lhs) | {draw(st.sampled_from(extra))}, rhs))
    order = draw(st.permutations(fds))
    return FdSet(tuple(order), universe)


@settings(max_examples=200)
@given(wide_fd_sets())
def test_minimal_cover_keeps_the_reference_survivors_in_order(fds):
    cover = minimal_cover(fds)
    assert tuple((fd.lhs, fd.rhs) for fd in cover) == reference_cover(fds)


@settings(max_examples=60)
@given(fd_sets())
def test_schema_list_round_trips_a_cover(fds):
    """Referential integrity plus slot reconstruction after a random build."""
    cover = minimal_cover(fds)
    per_dependent = {}
    determiners = set()
    for fd in cover:
        determiners |= fd.lhs
        per_dependent[fd.rhs] = per_dependent.get(fd.rhs, 0) + 1
    assume(not per_dependent or max(per_dependent.values()) <= 4)
    sl = SchemaList("R")
    ordered = sorted(fds.universe, key=lambda n: (n not in determiners, fds.universe.index(n)))
    first = ordered[0]
    sl.add_attribute(first, is_key=True, is_det=first in determiners)
    for name in ordered[1:]:
        # keep determiners ahead of the rest; the single key stays first
        sl.add_attribute(name, is_det=name in determiners)
    for fd in cover:
        sl.add_fd(fd)
    got = {(fd.lhs, fd.rhs) for fd in sl.stored_fds()}
    expected = {(fd.lhs, fd.rhs) for fd in cover}
    assert got == expected
    assert len(sl.stored_fds()) == len(cover)


@st.composite
def covering_tables(draw, universe, low=1, high=4):
    """``low`` to ``high`` tables, each non-empty, whose union is ``universe``."""
    count = draw(st.integers(min_value=low, max_value=high))
    tables = [set(draw(st.sets(st.sampled_from(universe), min_size=1))) for _ in range(count)]
    for name in universe:
        if not any(name in t for t in tables):
            tables[draw(st.integers(min_value=0, max_value=count - 1))].add(name)
    return [
        TableStructure(f"t{i}", sorted(attrs), sorted(attrs)[:1]) for i, attrs in enumerate(tables)
    ]


@settings(max_examples=200)
@given(st.data())
def test_preserves_dependencies_matches_exhaustive_projection(data):
    fds = data.draw(fd_sets())
    tables = data.draw(covering_tables(fds.universe))
    expected = brute_preserves(fds, [t.attributes for t in tables])
    assert preserves_dependencies(fds, tables) == expected


@settings(max_examples=300)
@given(st.data())
def test_is_lossless_matches_naive_chase(data):
    fds = data.draw(fd_sets())
    tables = data.draw(covering_tables(fds.universe, high=5))
    expected = brute_lossless(fds, [t.attributes for t in tables])
    assert is_lossless(fds.universe, fds, tables) == expected


@settings(max_examples=300)
@given(st.data())
def test_is_lossless_on_two_tables_is_heaths_test(data):
    # R1, R2 join losslessly iff closure(R1 ∩ R2) holds R1 or R2
    fds = data.draw(fd_sets())
    tables = data.draw(covering_tables(fds.universe, low=2, high=2))
    index = {name: i for i, name in enumerate(fds.universe)}
    r1, r2 = (sum(1 << index[name] for name in t.attributes) for t in tables)
    reach = mask_closure(r1 & r2, compile_rules(fds, fds.universe), len(fds.universe))
    expected = reach & r1 == r1 or reach & r2 == r2
    assert is_lossless(fds.universe, fds, tables) == expected


@settings(max_examples=200)
@given(st.data())
def test_is_lossless_reads_names_outside_the_cover_as_idle_columns(data):
    # universe names the cover's universe lacks are columns no rule reads
    fds = data.draw(fd_sets())
    tables = data.draw(covering_tables(fds.universe, high=5))
    mentioned = {name for fd in fds for name in (*fd.lhs, fd.rhs)}
    narrow = FdSet(fds.fds, tuple(name for name in fds.universe if name in mentioned))
    expected = brute_lossless(fds, [t.attributes for t in tables])
    assert is_lossless(fds.universe, narrow, tables) == expected


@settings(max_examples=300)
@given(st.data())
def test_is_lossless_walks_when_every_dependency_is_embedded(data):
    # a superkey table first and a table around every dependency: the walk
    # from the first table reaches the universe, so the chase never runs
    fds = data.draw(fd_sets())
    universe = fds.universe
    seed = data.draw(st.sets(st.sampled_from(universe)))
    index = {name: i for i, name in enumerate(universe)}
    rules = compile_rules(fds, universe)
    reach = mask_closure(sum(1 << index[name] for name in seed), rules, len(universe))
    key = seed | {name for name in universe if not reach >> index[name] & 1}
    extra = data.draw(st.lists(st.sets(st.sampled_from(universe), min_size=1), max_size=2))
    rest = data.draw(st.permutations([fd.lhs | {fd.rhs} for fd in fds] + extra))
    tables = [
        TableStructure(f"t{i}", sorted(attrs), sorted(attrs)[:1])
        for i, attrs in enumerate([key, *rest])
    ]
    assert brute_lossless(fds, [t.attributes for t in tables])
    with patch.object(verifier, "_chase", wraps=verifier._chase) as chase:
        assert is_lossless(universe, fds, tables)
    assert chase.call_count == 0


@st.composite
def keyed_tables(draw, universe):
    """Arbitrary tables over ``universe``: attributes in any order, repeats
    allowed, and a key drawn mostly from the table's own attributes but
    possibly holding one attribute from outside it."""
    tables = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        attributes = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=8))
        key = draw(st.lists(st.sampled_from(attributes), max_size=3, unique=True))
        key += draw(st.lists(st.sampled_from(universe), max_size=1))
        tables.append(TableStructure(f"t{i}", attributes, key))
    return tables


@settings(max_examples=300)
@given(st.data())
def test_scan_violations_matches_a_full_scan(data):
    # every table and both modes read one cover, and so one index
    fds = data.draw(fd_sets())
    tables = data.draw(keyed_tables(fds.universe))
    for mode in ("2nf", "3nf"):
        for table in tables:
            expected = full_scan_violations(table.attributes, table.primary_key, fds, mode)
            got = scan_violations(table, fds, mode)
            assert [(v.kind.value, v.dependent, v.determiner) for v in got] == expected
            assert {v.table for v in got} <= {table.name}
            event(f"{mode}: {'violations' if expected else 'clean'}")
