"""Functional-dependency algebra: closure, implication, canonical cover.

All public operations are pure functions over immutable values.  An
``FdSet`` fixes the attribute universe and keeps its dependencies in input
order; every derived ordering here is stable with respect to that order,
so results are deterministic for a given input.

Every attribute-set closure in the package runs on one kernel,
:class:`_Kernel`, the counter-based closure of Beeri and Bernstein.
:func:`minimal_cover` builds one from its input and edits it in place
between the closures a cover needs, then hands it to the cover it returns,
so one run of the pipeline builds one kernel.  The cover skips the walks
whose answer it already has and keeps each redundancy walk among its
goal's ancestors in the dependency graph, so on chains and stars it stays
near-linear (the rules are in its docstring).  Any other
``FdSet`` builds its own on first use.  Either way the set keeps it,
read-only, for :func:`closure`, :func:`implies` and the decomposition
oracles.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence, Set
from functools import cached_property

from .errors import DuplicateAttribute, UnknownAttribute
from .schema_model import FunctionalDependency, _Frozen, _setfield, _unchecked


class RawFd(_Frozen):
    """A dependency as declared: possibly several right-hand attributes."""

    __slots__ = _fields = ("lhs", "rhs")


class FdSet(_Frozen):
    """An ordered set of singleton-RHS dependencies over a fixed universe.

    Exact duplicates are dropped on construction, keeping the first
    occurrence.  The universe holds no repeated name, and every attribute
    mentioned must belong to it.

    That work runs where a set is built from outside values; a set derived
    from checked ones (:func:`minimal_cover`'s result, ``prepare``'s split
    and its reordered copy) is built without it.

    The set is immutable, so it keeps one read-only view of itself, a
    closure kernel (``_kernel``), shared by every :func:`closure`,
    :func:`implies` and oracle call in :mod:`relnorm.verifier`.  A cover
    from :func:`minimal_cover` carries the kernel that computed it; any
    other set builds one on first use, in time linear in the universe plus
    the dependencies.  The kernel is not a field but the one entry of the
    set's ``__dict__``: equality, hashing and ``repr`` never see it.
    """

    _fields = ("fds", "universe")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, fds: tuple[FunctionalDependency, ...], universe: tuple[str, ...]) -> None:
        known = set(universe)
        if len(known) != len(universe):
            raise DuplicateAttribute("universe contains duplicate names")
        seen: set[FunctionalDependency] = set()
        unique: list[FunctionalDependency] = []
        for fd in fds:
            if fd.rhs not in known or not fd.lhs <= known:
                missing = (fd.lhs | {fd.rhs}) - known
                raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
            if fd not in seen:
                seen.add(fd)
                unique.append(fd)
        _setfield(self, "fds", tuple(unique))
        _setfield(self, "universe", universe)

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(self.fds)

    def __len__(self) -> int:
        return len(self.fds)

    @cached_property
    def _kernel(self) -> _Kernel:
        """A closure kernel over the set, its live pairs in set order.  Only
        its walks run: its pairs are never edited."""
        return _Kernel(self)


def split_rhs(raw_fds: Sequence[RawFd], universe: Sequence[str]) -> FdSet:
    """Break multi-attribute right-hand sides into one dependency each.

    Output order follows input order, right-hand attributes in declared
    order.  A name repeated on one side counts once.  A right-hand
    attribute that also appears on the left carries no information and is
    dropped, and so is a repeat of an earlier dependency.
    """
    return FdSet(_split(raw_fds), tuple(universe))


def _split(raw_fds: Iterable[RawFd]) -> tuple[FunctionalDependency, ...]:
    """:func:`split_rhs`'s dependencies, distinct, before any universe
    check."""
    singles: list[FunctionalDependency] = []
    seen: dict[frozenset[str], set[str]] = {}  # left-hand side -> its right-hand names so far
    for raw in raw_fds:
        lhs = frozenset(raw.lhs)
        done = seen.setdefault(lhs, set())
        for rhs in raw.rhs:
            if rhs not in lhs and rhs not in done:
                done.add(rhs)
                singles.append(FunctionalDependency(lhs, rhs))
    return tuple(singles)


class _Kernel:
    """The closure kernel: a counter-based closure over dependencies
    (Beeri & Bernstein, TODS 1979).

    The index is built once: for each attribute of the universe, how many
    live pairs (dependencies) produce it (``producers``); for each
    attribute on some left-hand side, the pairs whose left-hand side holds
    it (``users``); and for each attribute some pair produces, those
    pairs, dead or live, as a chain that starts at the last of them
    (``last_maker``) and steps to each pair's previous pair with the same
    right-hand side (``prior_maker``, -1 after the first), so that no
    attribute needs a list of its own.

    A closure walks the attributes it reaches, counting down a per-pair
    missing count (kept only for the pairs it touches) and firing a pair
    when its count reaches zero, so one closure costs time linear in the
    pairs it touches.  Asked about a goal attribute, it stops on reaching
    it, and answers at once when no live pair produces it.  A walk only
    reads the index.  Callers may edit the pairs between closures with
    :meth:`drop_lhs_attr` and :meth:`set_live`; ``users`` and
    ``producers`` follow every edit.
    """

    def __init__(self, fds: FdSet) -> None:
        lhs_of: list[frozenset[str]] = []
        rhs_of: list[str] = []
        users: dict[str, list[int]] = {}
        producers = dict.fromkeys(fds.universe, 0)
        last_maker: dict[str, int] = {}
        prior_maker: list[int] = []
        for i, fd in enumerate(fds):
            lhs, rhs = fd.lhs, fd.rhs
            lhs_of.append(lhs)
            rhs_of.append(rhs)
            for name in lhs:
                heads = users.get(name)
                if heads is None:
                    users[name] = [i]
                else:
                    heads.append(i)
            producers[rhs] += 1
            prior_maker.append(last_maker.get(rhs, -1))
            last_maker[rhs] = i
        # pair i is the i-th dependency, as (lhs[i], rhs[i])
        self.lhs, self.rhs = lhs_of, rhs_of
        self.users, self.producers = users, producers
        self.last_maker, self.prior_maker = last_maker, prior_maker
        self.live = [True] * len(rhs_of)

    def drop_lhs_attr(self, i: int, name: str) -> None:
        """Remove ``name`` from the left-hand side of pair ``i``."""
        self.lhs[i] = self.lhs[i] - {name}
        self.users[name].remove(i)

    def set_live(self, i: int, live: bool) -> None:
        """Mark pair ``i`` live or dead; dead pairs never fire."""
        if self.live[i] != live:
            self.live[i] = live
            self.producers[self.rhs[i]] += 1 if live else -1

    def close(
        self,
        seed: Set[str],
        goal: str | None = None,
        admit: Callable[[int], bool] | None = None,
    ) -> Set[str]:
        """Closure of ``seed`` under the live pairs.

        With a ``goal``, the walk stops as soon as the goal is reached, and
        returns ``seed`` itself when no live pair produces the goal; the
        result then decides only whether the goal is in the closure.  With
        ``admit``, a live pair fires only if ``admit(i)`` holds; it is asked
        once for each pair that would add a name not yet reached, never for
        the others, so it costs only the pairs the walk fires.
        """
        if goal is not None and not self.producers[goal]:
            return seed
        lhs, rhs, users, live = self.lhs, self.rhs, self.users, self.live
        reach = set(seed)
        missing: dict[int, int] = {}
        stack = list(reach)
        for name in stack:
            for i in users.get(name, ()):
                if not live[i]:
                    continue
                left = len(lhs[i])
                if left > 1:
                    left = missing[i] = missing.get(i, left) - 1
                    if left:
                        continue
                gained = rhs[i]
                if gained not in reach and (admit is None or admit(i)):
                    reach.add(gained)
                    if gained == goal:
                        return reach
                    stack.append(gained)
        return reach


def closure(attrs: Iterable[str], fds: FdSet) -> frozenset[str]:
    """Least fixpoint of ``attrs`` under ``fds``.

    Smallest superset S of ``attrs`` such that every dependency whose
    left-hand side lies inside S also has its right-hand attribute in S.
    """
    start = set(attrs)
    missing = start.difference(fds._kernel.producers)
    if missing:
        raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
    return frozenset(fds._kernel.close(start))


def implies(fds: FdSet, candidate: FunctionalDependency) -> bool:
    """True iff ``candidate`` follows from ``fds``."""
    missing = (candidate.lhs | {candidate.rhs}).difference(fds._kernel.producers)
    if missing:
        raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
    return candidate.rhs in fds._kernel.close(candidate.lhs, candidate.rhs)


def _sink_first_ranks(kernel: _Kernel) -> dict[str, int]:
    """Number the strongly connected components of the kernel's live
    dependency graph, which has an edge from each left-hand name of a live
    pair to its right-hand name: sinks first, in the order Tarjan's
    algorithm emits them (Tarjan, SIAM J. Comput. 1972).  A name that
    reaches another in the graph never has the lower number.

    The depth-first search runs on an explicit stack over the kernel's
    ``users`` lists, so no successor map is built and no chain is too long.
    """
    users, rhs, live = kernel.users, kernel.rhs, kernel.live
    order: dict[str, int] = {}  # name -> its place in the search order
    low: dict[str, int] = {}
    rank: dict[str, int] = {}
    held: list[str] = []  # names searched and not yet in a component
    for root in kernel.producers:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        held.append(root)
        path = [(root, iter(users.get(root, ())))]
        while path:
            name, pending = path[-1]
            for i in pending:
                if not live[i]:
                    continue
                gained = rhs[i]
                if gained not in order:
                    order[gained] = low[gained] = len(order)
                    held.append(gained)
                    path.append((gained, iter(users.get(gained, ()))))
                    break
                if gained not in rank and order[gained] < low[name]:
                    low[name] = order[gained]
            else:
                path.pop()
                if path and low[name] < low[path[-1][0]]:
                    low[path[-1][0]] = low[name]
                if low[name] == order[name]:
                    number = len(rank)
                    while True:
                        member = held.pop()
                        rank[member] = number
                        if member == name:
                            break
    return rank


# A redundancy walk that reaches more names than this makes
# :func:`minimal_cover` number the graph's components (one pass over the
# pairs) to bound the walks after it; no input this small ever pays for it.
_RANK_AFTER = 32


def minimal_cover(fds: FdSet) -> FdSet:
    """Canonical cover: closure-equivalent, no extraneous left-hand
    attribute, no redundant dependency.

    Expects singleton right-hand sides (apply :func:`split_rhs` first).
    Left-reduction scans dependencies in input order and candidate
    attributes in declared-universe order; redundancy elimination then
    scans in input order, testing each dependency against the current
    surviving set.  Survivors keep their input order.  The cover carries
    the kernel that computed it: dropped dependencies stay in it as dead
    pairs, and survivors keep their reduced left-hand sides.

    Three rules skip or shorten closure walks without changing any answer,
    so the cover is the one the plain tests give:

    - Left-reduction drops only extraneous attributes, so every closure
      stays the same for the whole phase.  A walk that ends short of its
      goal has found its seed's whole closure; it is kept while the next
      pair has the same left-hand side (the pairs split from one declared
      line), and those pairs read their answers from it.  This keeps a
      line ``fd a, b -> x1, ..., xn`` whose seeds have long closures from
      walking each seed n times: with ``a`` and ``b`` each heading a chain
      of n names, at n = 2000, ``prepare`` took 0.04 s with the cache and
      2.2 s without it (best of 3, Python 3.11.7).
    - A pair that alone produces its right-hand name is never redundant:
      with it set aside, nothing produces that name.  It is not tested.
    - A name that cannot reach the goal in the dependency graph never
      helps produce it.  Once a redundancy walk reaches more than
      ``_RANK_AFTER`` names, the graph's components are numbered sinks
      first (:func:`_sink_first_ranks`, after Tarjan 1972), and a walk
      toward goal ``g`` then fires no pair whose right-hand name is
      numbered below ``g``.  Later tests only remove edges (the restore
      puts back the pair just tested), so the numbering holds for the rest
      of the phase.

    On chains and stars each walk then stays near its goal and the cover
    is near-linear; a graph with large components can still cost Maier's
    O(|F|·‖F‖) (JACM 1980).
    """
    position = {name: i for i, name in enumerate(fds.universe)}
    # a kernel of its own, edited below and then handed to the cover;
    # the input's cached one stays untouched
    kernel = _Kernel(fds)
    lhs_of, rhs_of, producers = kernel.lhs, kernel.rhs, kernel.producers

    # seed -> its whole closure, from a walk that ended short of its goal;
    # kept only while the next pair has the same left-hand side
    whole: dict[frozenset[str], Set[str]] = {}
    last = len(lhs_of) - 1
    for i, lhs in enumerate(lhs_of):
        if len(lhs) < 2:
            continue
        keep = i < last and lhs_of[i + 1] == lhs
        rhs = rhs_of[i]
        for attr in sorted(lhs, key=position.__getitem__):
            if len(lhs) < 2:
                break
            # When this pair alone produces rhs, rhs follows from the
            # reduced side iff the dropped attribute does.
            goal = attr if producers[rhs] == 1 else rhs
            if not producers[goal]:
                continue
            seed = lhs - {attr}
            reach = whole.get(seed)
            if reach is None:
                reach = kernel.close(seed, goal)
                if keep and goal not in reach:
                    whole[seed] = reach
            if goal in reach:
                kernel.drop_lhs_attr(i, attr)
                lhs = lhs_of[i]
        if not keep:
            whole.clear()

    # exact duplicates left by the reduction: the first copy stays
    first: dict[tuple[frozenset[str], str], int] = {}
    for i, pair in enumerate(zip(lhs_of, rhs_of)):
        if first.setdefault(pair, i) != i:
            kernel.set_live(i, False)
    # set each survivor aside; restore it unless the others still imply it
    ranks: dict[str, int] | None = None
    for i in first.values():
        rhs = rhs_of[i]
        if producers[rhs] == 1:
            continue
        kernel.set_live(i, False)
        if ranks is None:
            reach = kernel.close(lhs_of[i], rhs)
        else:
            floor = ranks[rhs]
            reach = kernel.close(lhs_of[i], rhs, lambda j: ranks[rhs_of[j]] >= floor)
        if rhs not in reach:
            kernel.set_live(i, True)
        if ranks is None and len(reach) > _RANK_AFTER:
            ranks = _sink_first_ranks(kernel)

    # survivors are distinct and inside the universe, as ``fds`` is; the
    # cover keeps the kernel, whose live pairs are its dependencies in order
    return _unchecked(
        FdSet,
        fds=tuple(
            fd if fd.lhs is lhs_of[i] else FunctionalDependency(lhs_of[i], fd.rhs)
            for i, fd in enumerate(fds)
            if kernel.live[i]
        ),
        universe=fds.universe,
        _kernel=kernel,
    )
