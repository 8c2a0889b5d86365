"""Property tests for the set-algebra operators."""

import ast
import random
from pathlib import Path
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
from relnorm import fd_engine, verifier
from relnorm.fd_engine import FdSet, closure, implies, minimal_cover
from relnorm.normalizer import TableStructure
from relnorm.schema_model import FunctionalDependency, SchemaList
from relnorm.verifier import is_lossless, preserves_dependencies, scan_violations
from schema_helpers import stored_fds

UNIVERSE = tuple("abcdef")


def test_oracles_import_nothing_from_the_engine():
    # the references audit relnorm, so they must not share its code
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "relnorm"]


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


def shortcut_chain(names):
    """``names[0] -> names[1] -> ...`` plus every ``names[i] -> names[i+2]``."""
    fds = [FunctionalDependency(frozenset([names[i]]), names[i + 1]) for i in range(len(names) - 1)]
    fds += [FunctionalDependency(frozenset([names[i]]), names[i + 2]) for i in range(len(names) - 2)]
    return fds


@st.composite
def ranked_fd_sets(draw):
    """A shuffled shortcut chain of 40-60 names plus up to 20 random lines,
    left-hand sides 1-4 wide and back edges included, so the graph has
    components of several names.  A line may name up to three right-hand
    attributes; its pairs stay adjacent, as the split of a declared line
    leaves them.  Testing a link while the shortcut over it is live walks
    the chain's tail, so most of these sets reach the cover's component
    numbering, which 7-name sets never do."""
    names = [f"a{i}" for i in range(draw(st.integers(min_value=40, max_value=60)))]
    lines = [[fd] for fd in shortcut_chain(names)]
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        lhs = frozenset(draw(st.sets(st.sampled_from(names), min_size=1, max_size=4)))
        rhs = draw(st.lists(st.sampled_from([name for name in names if name not in lhs]), min_size=1, max_size=3))
        lines.append([FunctionalDependency(lhs, name) for name in rhs])
    fds = [fd for line in draw(st.permutations(lines)) for fd in line]
    return FdSet(tuple(fds), tuple(draw(st.permutations(names))))


# reference_cover takes 17-53 ms a set at this size
@settings(max_examples=60, deadline=None)
@given(ranked_fd_sets())
def test_minimal_cover_keeps_the_reference_survivors_on_ranked_walks(fds):
    with patch.object(fd_engine, "_sink_first_ranks", wraps=fd_engine._sink_first_ranks) as ranks:
        cover = minimal_cover(fds)
    event(f"components numbered: {ranks.called}")
    assert tuple((fd.lhs, fd.rhs) for fd in cover) == reference_cover(fds)


def test_minimal_cover_numbers_components_once_on_a_long_chain():
    rng = random.Random(150)
    names = [f"a{i}" for i in range(150)]
    fds = shortcut_chain(names)
    rng.shuffle(fds)
    rng.shuffle(names)
    fds = FdSet(tuple(fds), tuple(names))
    with patch.object(fd_engine, "_sink_first_ranks", wraps=fd_engine._sink_first_ranks) as ranks:
        cover = minimal_cover(fds)
    assert ranks.call_count == 1
    assert tuple((fd.lhs, fd.rhs) for fd in cover) == reference_cover(fds)
    assert {(fd.lhs, fd.rhs) for fd in cover} == {(frozenset([f"a{i}"]), f"a{i + 1}") for i in range(149)}


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
    got = {(fd.lhs, fd.rhs) for fd in stored_fds(sl)}
    expected = {(fd.lhs, fd.rhs) for fd in cover}
    assert got == expected
    assert len(stored_fds(sl)) == len(cover)


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


@st.composite
def padded_tables(draw, universe):
    """:func:`covering_tables`, then 60 to 80 tables of one or two names,
    some repeating a name, so the tables' host-index bits span several
    machine words."""
    tables = draw(covering_tables(universe))
    for i in range(len(tables), len(tables) + draw(st.integers(min_value=60, max_value=80))):
        names = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=2))
        tables.append(TableStructure(f"t{i}", names, names[:1]))
    return tables


@settings(max_examples=100)
@given(st.data())
def test_oracles_read_table_bits_past_the_first_machine_word(data):
    fds = data.draw(fd_sets())
    tables = data.draw(padded_tables(fds.universe))
    attributes = [t.attributes for t in tables]
    lossless = brute_lossless(fds, attributes)
    preserved = brute_preserves(fds, attributes)
    assert is_lossless(fds.universe, fds, tables) == lossless
    assert preserves_dependencies(fds, tables) == preserved
    event(f"lossless: {lossless}, preserved: {preserved}")


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
    # from the first table reaches the universe, so the chase never runs.
    # The universe may be wider than the cover's: the first table also holds
    # names no dependency mentions.
    fds = data.draw(fd_sets())
    universe = fds.universe
    idle = [f"z{i}" for i in range(data.draw(st.integers(min_value=0, max_value=3)))]
    seed = data.draw(st.sets(st.sampled_from(universe)))
    index = {name: i for i, name in enumerate(universe)}
    rules = compile_rules(fds, universe)
    reach = mask_closure(sum(1 << index[name] for name in seed), rules, len(universe))
    key = seed | {name for name in universe if not reach >> index[name] & 1} | set(idle)
    extra = data.draw(st.lists(st.sets(st.sampled_from(universe), min_size=1), max_size=2))
    rest = data.draw(st.permutations([fd.lhs | {fd.rhs} for fd in fds] + extra))
    tables = [
        TableStructure(f"t{i}", sorted(attrs), sorted(attrs)[:1])
        for i, attrs in enumerate([key, *rest])
    ]
    wide = (*universe, *idle)
    assert brute_lossless(FdSet(fds.fds, wide), [t.attributes for t in tables])
    with patch.object(verifier, "_chase", wraps=verifier._chase) as chase:
        assert is_lossless(wide, fds, tables)
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


@settings(max_examples=200)
@given(st.data())
def test_oracles_read_the_kernel_a_cover_carries(data):
    # minimal_cover hands its kernel to the cover, dead pairs and reduced
    # left-hand sides included; every oracle must answer on it as on a
    # fresh kernel of the same dependencies, and as the references do
    fds = data.draw(st.one_of(fd_sets(), wide_fd_sets()))
    cover = minimal_cover(fds)
    kernel = vars(cover)["_kernel"]
    fresh = FdSet(cover.fds, cover.universe)
    event(f"dead pairs: {not all(kernel.live)}")
    event(f"reduced left-hand sides: {any(lhs != fd.lhs for lhs, fd in zip(kernel.lhs, fds))}")
    tables = data.draw(covering_tables(cover.universe, high=5))
    attributes = [t.attributes for t in tables]
    lossless = is_lossless(cover.universe, cover, tables)
    assert lossless == brute_lossless(cover, attributes) == is_lossless(cover.universe, fresh, tables)
    preserved = preserves_dependencies(cover, tables)
    assert preserved == brute_preserves(cover, attributes) == preserves_dependencies(fresh, tables)
    keyed = data.draw(keyed_tables(cover.universe))
    for mode in ("2nf", "3nf"):
        for table in keyed:
            got = scan_violations(table, cover, mode)
            assert got == scan_violations(table, fresh, mode)
            expected = full_scan_violations(table.attributes, table.primary_key, cover, mode)
            assert [(v.kind.value, v.dependent, v.determiner) for v in got] == expected
    assert cover._kernel is kernel


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
