"""Seeded input families for the benchmark.

Every family writes schema text in the ``relnorm.schema_file`` grammar; the
program under test sees nothing else.  The seed changes names, declaration
order and the random slice, never the sizes: each workload is a fixed,
stratified mix of sizes, so its medians do not depend on which seed drew it.

A :class:`Case` carries the text plus what the generator knows about it:
whether the input must be rejected (and why) and, for the structured
families, the closed-form tables of both decompositions.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass

from relnorm.corpus import corpus_names, corpus_text

# The canonical corpus plus the two worked examples bundled with it.
BUNDLED = (*corpus_names(), "Trace", "Employee")

# A table as the reference compares it: (attributes, primary key).
Table = tuple[frozenset[str], frozenset[str]]


@dataclass
class Case:
    name: str
    text: str
    reject: str | None = None           # why the input must be rejected, if it must
    closed_2nf: frozenset[Table] | None = None
    closed_3nf: frozenset[Table] | None = None
    closed_cover: int | None = None


def _namer(rng: random.Random):
    """Seeded attribute names: one random stem per relation, indexed."""
    stem = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    return lambda i: f"{stem}{i}"


def _render(relation: str, attrs: list[tuple[str, str]], fds: list[str]) -> str:
    lines = [f"relation {relation}"]
    lines += [f"attr {name}{(' ' + flags) if flags else ''}" for name, flags in attrs]
    lines += fds
    return "\n".join(lines) + "\n"


def _fd(lhs, rhs) -> str:
    return f"fd {', '.join(lhs)} -> {', '.join(rhs)}"


# --------------------------------------------------------------------------- bundled

def bundled_cases() -> list[Case]:
    """The twelve bundled relations, loaded through ``relnorm.corpus``."""
    return [Case(name, corpus_text(name)) for name in BUNDLED]


# --------------------------------------------------------------------------- corpus slice

SLICE_SIZE = 480         # random relations per corpus round
SLICE_REJECTS = 48       # 16 fifth-determiner, 16 five-wide LHS, 16 syntax errors
SLICE_NON_SUPERKEY = 48  # accepted by the grammar, but the key misses an attribute


def _random_relation(rng: random.Random, n: int, superkey: bool) -> tuple[list, list, list]:
    """A random flattened relation of ``n`` attributes.

    Returns (names, key names, fds as (lhs tuple, rhs)).  Every non-key
    attribute gets a primary determiner drawn from attributes already
    reachable from the key, so the key is a superkey, then 0-3 extra
    determiners from anywhere (cycles and dependencies onto key
    attributes included).  With ``superkey`` false, one non-key attribute
    loses every determiner.
    """
    name = _namer(rng)
    names = [name(i) for i in range(n)]
    kparts = rng.randint(1, min(4, n - 1))
    key = names[:kparts]
    dets: dict[str, list[frozenset[str]]] = {a: [] for a in names}
    for i in range(kparts, n):
        pool = names[:i]
        dets[names[i]].append(frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool))))))
    for target in names:
        others = [a for a in names if a != target]
        extra = rng.choice((0, 0, 1, 1, 2, 3)) if target not in key else rng.choice((0, 0, 0, 1))
        for _ in range(extra):
            lhs = frozenset(rng.sample(others, rng.randint(1, min(4, len(others)))))
            if lhs not in dets[target] and len(dets[target]) < 4:
                dets[target].append(lhs)
    if not superkey:
        dets[rng.choice(names[kparts:])] = []
    fds = [(tuple(sorted(lhs, key=names.index)), rhs) for rhs in names for lhs in dets[rhs]]
    return names, key, fds


def _decorate(rng: random.Random, names, key, fds, style: str):
    """Write a flattened relation as attr and fd lines, optionally through
    1NF features.

    ``multivalued`` declares one non-key attribute ``m`` multivalued, so
    flattening renames it ``m_ID`` and nothing else changes.  ``composite`` folds two attributes of equal key status
    into ``composite(x, y)`` and writes the composite's name on every side
    that mentions both.
    """
    spelled = {a: a for a in names}
    flags = {a: ("key" if a in key else "") for a in names}
    fold: tuple[str, str, str] | None = None
    if style == "multivalued":
        flags[rng.choice([a for a in names if a not in key])] = "multivalued"
    elif style == "composite":
        nonkey = [a for a in names if a not in key]
        x, y = sorted(rng.sample(nonkey if len(nonkey) >= 2 else list(key), 2), key=names.index)
        fold = (f"{x}c", x, y)
        flags[x] = ("key " if x in key else "") + f"composite({x}, {y})"

    def side(members) -> list[str]:
        members = list(members)
        if fold and fold[1] in members and fold[2] in members:
            members = [fold[0] if a == fold[1] else a for a in members if a != fold[2]]
        return [spelled.get(a, a) for a in members]

    attr_lines = [
        (fold[0] if fold and a == fold[1] else spelled[a], flags[a])
        for a in names
        if not (fold and a == fold[2])
    ]
    grouped: dict[tuple, list[str]] = {}
    for lhs, rhs in fds:
        grouped.setdefault(lhs, []).append(rhs)
    fd_lines = [_fd(side(lhs), side(rhs)) for lhs, rhs in grouped.items()]
    rng.shuffle(attr_lines)
    rng.shuffle(fd_lines)
    return attr_lines, fd_lines


def _reject_case(rng: random.Random, kind: str) -> tuple[list, list]:
    name = _namer(rng)
    key, x = name(0), name(1)
    if kind == "fifth_determiner":
        ds = [name(i) for i in range(2, 7)]
        attrs = [(key, "key"), (x, "")] + [(d, "") for d in ds]
        fds = [_fd([key], ds)] + [_fd([d], [x]) for d in ds]
    elif kind == "lhs_wider_than_four":
        ps = [name(i) for i in range(2, 7)]
        attrs = [(key, "key"), (x, "")] + [(p, "") for p in ps]
        fds = [_fd([key], ps), _fd(ps, [x])]
    else:
        raise ValueError(kind)
    rng.shuffle(attrs)
    return attrs, fds


def corpus_slice(seed: int) -> list[Case]:
    """The seeded random slice: at most 8 attributes after flattening."""
    rng = random.Random(f"corpus-{seed}")
    cases: list[Case] = []
    rejects = ["fifth_determiner", "lhs_wider_than_four", "syntax_error"] * (SLICE_REJECTS // 3)
    plain = SLICE_SIZE - SLICE_REJECTS
    styles = ["", "multivalued", "composite"]
    for i in range(plain):
        n = 3 + i % 6                                   # 3..8 attributes, evenly
        superkey = i >= SLICE_NON_SUPERKEY
        names, key, fds = _random_relation(rng, n, superkey)
        style = styles[i % 3]
        attrs, lines = _decorate(rng, names, key, fds, style)
        cases.append(Case(f"slice{i}", _render(f"R{i}", attrs, lines)))
    for j, kind in enumerate(rejects):
        if kind == "syntax_error":
            names, key, fds = _random_relation(rng, 5, True)
            attrs, lines = _decorate(rng, names, key, fds, "")
            text = _render(f"Bad{j}", attrs, lines).replace(" -> ", " => ", 1)
        else:
            attrs, lines = _reject_case(rng, kind)
            text = _render(f"Bad{j}", attrs, lines)
        cases.append(Case(f"reject{j}", text, reject=kind))
    rng.shuffle(cases)
    return cases


# --------------------------------------------------------------------------- structured families

def chain(rng: random.Random, n: int, shortcuts: bool) -> Case:
    """``a0 -> a1 -> ... -> a(n-1)``, key ``a0``; with ``shortcuts`` also
    ``a_i -> a_(i+2)`` (all redundant) and every line in shuffled order."""
    name = _namer(rng)
    a = [name(i) for i in range(n)]
    attrs = [(a[0], "key")] + [(x, "") for x in a[1:]]
    fds = [_fd([a[i]], [a[i + 1]]) for i in range(n - 1)]
    if shortcuts:
        fds += [_fd([a[i]], [a[i + 2]]) for i in range(n - 2)]
        rng.shuffle(fds)
        rng.shuffle(attrs)
    t3 = {(frozenset(a[:2]), frozenset(a[:1]))}
    t3 |= {(frozenset(a[i:i + 2]), frozenset([a[i]])) for i in range(1, n - 1)}
    return Case(
        f"{'shortcut_chain' if shortcuts else 'chain'}{n}", _render(f"Chain{n}", attrs, fds),
        closed_2nf=frozenset({(frozenset(a), frozenset(a[:1]))}),
        closed_3nf=frozenset(t3),
        closed_cover=n - 1,
    )


def star(rng: random.Random, width: int) -> Case:
    """One key determining ``width - 1`` attributes: a single table of ``width`` columns."""
    name = _namer(rng)
    k, rest = name(0), [name(i) for i in range(1, width)]
    attrs = [(k, "key")] + [(x, "") for x in rest]
    rng.shuffle(attrs)
    rng.shuffle(rest)
    table = frozenset({(frozenset([k, *rest]), frozenset([k]))})
    return Case(
        f"star{width}", _render(f"Star{width}", attrs, [_fd([k], rest)]),
        closed_2nf=table, closed_3nf=table, closed_cover=width - 1,
    )


def grid(rng: random.Random, per_group: int, dependents: int, determiners: int, lhs_width: int) -> Case:
    """A 4-part key; each of its 15 non-empty subsets S determines
    ``per_group`` attributes, and ``determiners`` disjoint ``lhs_width``-wide
    sets of those determine ``dependents`` more.

    2NF: one table per S (the whole key's is the main table), holding the
    dependents too.  3NF: the same tables without the dependents, plus one
    table per (S, determiner set).
    """
    assert determiners * lhs_width <= per_group
    name = _namer(rng)
    counter = itertools.count()
    key = [name(next(counter)) for _ in range(4)]
    attrs = [(k, "key") for k in key]
    fds: list[str] = []
    t2: set[Table] = set()
    t3: set[Table] = set()
    cover = 0
    for size in range(1, 5):
        for subset in itertools.combinations(key, size):
            gs = [name(next(counter)) for _ in range(per_group)]
            ts = [name(next(counter)) for _ in range(dependents)]
            attrs += [(x, "") for x in gs + ts]
            fds.append(_fd(subset, gs))
            cover += per_group
            pk = frozenset(subset)
            t2.add((pk | frozenset(gs) | frozenset(ts), pk))
            t3.add((pk | frozenset(gs), pk))
            if ts:
                for d in range(determiners):
                    lhs = gs[d * lhs_width:(d + 1) * lhs_width]
                    fds.append(_fd(lhs, ts))
                    t3.add((frozenset(lhs) | frozenset(ts), frozenset(lhs)))
                    cover += dependents
    rng.shuffle(attrs)
    rng.shuffle(fds)
    n = len(attrs)
    return Case(
        f"grid{n}_{per_group}{dependents}{determiners}{lhs_width}", _render(f"Grid{n}", attrs, fds),
        closed_2nf=frozenset(t2), closed_3nf=frozenset(t3), closed_cover=cover,
    )


# --------------------------------------------------------------------------- workloads

def corpus_cases(seed: int) -> list[Case]:
    return bundled_cases() + corpus_slice(seed)


# A shared host can alternate, for seconds at a time, between two speeds
# (1.3-1.7x apart on the 2-vCPU VM this was tuned on).  The median of one
# input's samples jumps between them as the slow share of a run crosses one
# half; the median of many inputs whose costs are spread evenly on a log
# scale moves smoothly with that share.  So deep and audit are ladders of
# sizes, most steps 1.1-1.5x the cost of the one below (none above 2x),
# rather than a few inputs far apart.

def deep_cases(seed: int) -> list[Case]:
    """Large relations, normalize-heavy: 28 inputs whose normalize costs
    climb from about 3 ms to 400 ms."""
    rng = random.Random(f"deep-{seed}")
    return (
        [chain(rng, n, False) for n in (40, 60, 90, 130, 160, 200, 250, 300, 400)]
        + [chain(rng, n, True) for n in (30, 45, 60, 80, 95, 110, 150)]
        + [star(rng, n) for n in (150, 200, 250, 300, 350, 420, 500, 700, 1000)]
        + [grid(rng, 16, d, 4, 4) for d in (1, 2, 4)]
    )


def audit_cases(seed: int) -> list[Case]:
    """Relations whose 2NF and 3NF tables stay at 13 columns or fewer,
    verify-heavy: 20 inputs whose verify costs climb from about 4 ms to
    300 ms."""
    rng = random.Random(f"audit-{seed}")
    return [star(rng, w) for w in range(9, 14)] + [
        grid(rng, *shape)
        for shape in ((2, 0, 0, 1), (1, 1, 1, 1), (3, 0, 0, 1), (2, 1, 1, 1), (2, 1, 2, 1),
                      (3, 1, 1, 3), (2, 2, 2, 1), (4, 0, 0, 1), (4, 1, 1, 2), (4, 1, 2, 2),
                      (4, 1, 3, 1), (4, 2, 1, 4), (4, 2, 1, 3), (4, 1, 4, 1), (4, 2, 2, 2))
    ]


WORKLOADS = {"corpus": corpus_cases, "deep": deep_cases, "audit": audit_cases}
