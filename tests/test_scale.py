"""Closed-form outputs on relations wide enough that a stage quadratic in
attributes plus dependencies would take minutes; no timing is asserted."""

import random
from unittest.mock import patch

from relnorm import verifier
from relnorm.ddl import emit_ddl
from relnorm.fd_engine import RawFd, _Kernel
from relnorm.normalizer import ForeignKey, RawAttribute, RawSchema, decompose_2nf, decompose_3nf, prepare
from relnorm.schema_file import parse_schema_file
from relnorm.schema_model import FunctionalDependency
from relnorm.verifier import is_lossless, preserves_dependencies, scan_violations
from schema_helpers import wide_line_text


def plain(tables):
    return [(t.name, t.attributes, t.primary_key, t.foreign_keys) for t in tables]


def test_chain_of_a_thousand():
    # a0 -> a1 -> ... -> a999, key a0
    n = 1000
    a = [f"a{i}" for i in range(n)]
    raw = RawSchema(
        "Chain",
        tuple(RawAttribute(name, is_key=(i == 0)) for i, name in enumerate(a)),
        tuple(RawFd((a[i],), (a[i + 1],)) for i in range(n - 1)),
    )
    state = prepare(raw)
    t2 = decompose_2nf(state.classification)
    t3 = decompose_3nf(state.classification)

    assert plain(t2) == [("Chain_main", a, ["a0"], [])]
    # main keeps a0 -> a1; one table per later link, each referenced by the
    # table holding its determiner
    expected = [("Chain_main", a[:2], ["a0"], [ForeignKey(("a1",), "a1")])]
    for i in range(1, n - 1):
        fks = [ForeignKey((a[i + 1],), a[i + 1])] if i < n - 2 else []
        expected.append((a[i], [a[i], a[i + 1]], [a[i]], fks))
    assert plain(t3) == expected
    assert [s.split()[2] for s in emit_ddl(t3).statements] == [t.name for t in reversed(t3)]
    assert preserves_dependencies(state.cover, t2)
    assert preserves_dependencies(state.cover, t3)
    assert is_lossless(a, state.cover, t2)
    assert is_lossless(a, state.cover, t3)
    assert not any(scan_violations(t, state.cover, "2nf") for t in t2)
    assert not any(scan_violations(t, state.cover, "3nf") for t in t3)


def test_star_three_thousand_wide():
    # k -> x0, ..., x2999
    dependents = [f"x{i}" for i in range(3000)]
    raw = RawSchema(
        "Star",
        (RawAttribute("k", is_key=True), *(RawAttribute(name) for name in dependents)),
        (RawFd(("k",), tuple(dependents)),),
    )
    state = prepare(raw)
    expected = [("Star_main", ["k", *dependents], ["k"], [])]
    for mode, decompose in (("2nf", decompose_2nf), ("3nf", decompose_3nf)):
        tables = decompose(state.classification)
        assert plain(tables) == expected
        assert preserves_dependencies(state.cover, tables)
        assert is_lossless(["k", *dependents], state.cover, tables)
        assert not any(scan_violations(t, state.cover, mode) for t in tables)


def test_shuffled_shortcut_chain_is_decided_without_the_chase():
    # a0 -> a1 -> ... -> a2399 plus every a_i -> a_(i+2), key a0, lines
    # shuffled.  The cover drops the shortcuts and each later 3NF table holds
    # one link, so the walk from the main table reaches every attribute;
    # the chase would have to distinguish about tables x attributes cells.
    # 2NF attaches every link to the main table, each as soon as the link
    # before it is in, which takes about one round per out-of-order link.
    # Every cover dependency is embedded in both, so preservation needs no
    # closure at a width of thousands of tables.
    n = 2400
    rng = random.Random(2400)
    a = [f"a{i}" for i in range(n)]
    attributes = [RawAttribute(name, is_key=(i == 0)) for i, name in enumerate(a)]
    fds = [RawFd((a[i],), (a[i + 1],)) for i in range(n - 1)]
    fds += [RawFd((a[i],), (a[i + 2],)) for i in range(n - 2)]
    rng.shuffle(attributes)
    rng.shuffle(fds)
    state = prepare(RawSchema("ShortcutChain", tuple(attributes), tuple(fds)))
    t2 = decompose_2nf(state.classification)
    t3 = decompose_3nf(state.classification)

    assert len(t2) == 1
    assert (t2[0].name, sorted(t2[0].attributes), t2[0].primary_key) == ("ShortcutChain_main", sorted(a), ["a0"])
    assert len(t3) == n - 1
    assert {frozenset(t.attributes) for t in t3} == {frozenset(a[i : i + 2]) for i in range(n - 1)}
    with patch.object(verifier, "_chase", wraps=verifier._chase) as chase:
        assert is_lossless(a, state.cover, t2)
        assert is_lossless(a, state.cover, t3)
    assert chase.call_count == 0
    assert preserves_dependencies(state.cover, t2)
    assert preserves_dependencies(state.cover, t3)


def prepare_counting_walks(raw):
    """``prepare(raw)`` and the names its closures reached, summed over
    every walk; prepare's only closures are minimal_cover's."""
    reached = []
    close = _Kernel.close

    def counted(kernel, *args):
        result = close(kernel, *args)
        reached.append(len(result))
        return result

    with patch.object(_Kernel, "close", counted):
        state = prepare(raw)
    return state, sum(reached)


def test_cover_of_a_shuffled_shortcut_chain_at_the_layout_cap_walks_linearly():
    # the shortcut chain above at 8999 names, one below MAX_ATTRIBUTES.
    # Testing a_i -> a_(i+1) while a_(i-1) -> a_(i+1) is live used to walk
    # the whole tail, so the names the cover's walks reached grew as n^2
    # (35 times pairs plus names at n = 600, 134 times at 2400); walks toward
    # a goal now stay among its ancestors.  The bound counts names reached,
    # not seconds.
    n = 8999
    rng = random.Random(n)
    a = [f"a{i}" for i in range(n)]
    attributes = [RawAttribute(name, is_key=(i == 0)) for i, name in enumerate(a)]
    fds = [RawFd((a[i],), (a[i + 1],)) for i in range(n - 1)]
    fds += [RawFd((a[i],), (a[i + 2],)) for i in range(n - 2)]
    rng.shuffle(attributes)
    rng.shuffle(fds)
    state, reached = prepare_counting_walks(RawSchema("ShortcutChain", tuple(attributes), tuple(fds)))
    assert reached <= 2 * (len(fds) + n)
    t3 = decompose_3nf(state.classification)
    assert len(t3) == n - 1
    assert {frozenset(t.attributes) for t in t3} == {frozenset(a[i : i + 2]) for i in range(n - 1)}


def test_left_reduction_of_a_wide_line_walks_each_seed_once():
    # fd a, b -> x0, ..., x199 splits into 200 pairs with one left-hand
    # side.  Each pair tests dropping a (the seed {b} walks the q chain)
    # and then b (the seed {a} walks the p chain); neither walk reaches
    # its goal, so both closures are whole and every later pair of the
    # line reads them instead of walking again.  Walking each seed once
    # per pair would reach about 200 times pairs plus names.
    n = 200
    raw = parse_schema_file(wide_line_text(n))
    state, reached = prepare_counting_walks(raw)
    assert reached <= 2 * (len(state.split) + len(raw.attributes))
    assert {FunctionalDependency(frozenset("ab"), f"x{i}") for i in range(n)} <= set(state.cover)
