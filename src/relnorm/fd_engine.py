"""Functional-dependency algebra: closure, implication, canonical cover.

All public operations are pure functions over immutable values.  An
``FdSet`` fixes the attribute universe and keeps its dependencies in input
order; every derived ordering here is stable with respect to that order,
so results are deterministic for a given input.

Every attribute-set closure in the package runs on one kernel,
:class:`_Kernel`, the counter-based closure of Beeri and Bernstein.  Each
``FdSet`` builds one on first use and keeps it, read-only, for
:func:`closure`, :func:`implies` and the decomposition oracles;
:func:`minimal_cover` builds its own and edits it in place between the
thousands of closures a cover can need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Iterator, Sequence

from .errors import DuplicateAttribute, UnknownAttribute
from .schema_model import FunctionalDependency


@dataclass(frozen=True)
class RawFd:
    """A dependency as declared: possibly several right-hand attributes."""

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]


@dataclass(frozen=True)
class FdSet:
    """An ordered set of singleton-RHS dependencies over a fixed universe.

    Exact duplicates are dropped on construction, keeping the first
    occurrence.  Every attribute mentioned must belong to the universe.

    The set is immutable, so it keeps two read-only views of itself, each
    built on first use in time linear in the universe plus the
    dependencies and then shared by every later :func:`closure`,
    :func:`implies` and oracle call in :mod:`relnorm.verifier`: the
    producers of each right-hand attribute (``_by_rhs``) and a closure
    kernel (``_kernel``).  Neither is a field: equality, hashing and
    ``repr`` never see them.
    """

    fds: tuple[FunctionalDependency, ...]
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        known = set(self.universe)
        if len(known) != len(self.universe):
            raise DuplicateAttribute("universe contains duplicate names")
        seen: set[FunctionalDependency] = set()
        unique: list[FunctionalDependency] = []
        for fd in self.fds:
            if fd.rhs not in known or not fd.lhs <= known:
                missing = (fd.lhs | {fd.rhs}) - known
                raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
            if fd not in seen:
                seen.add(fd)
                unique.append(fd)
        object.__setattr__(self, "fds", tuple(unique))

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(self.fds)

    def __len__(self) -> int:
        return len(self.fds)

    @cached_property
    def _by_rhs(self) -> dict[str, tuple[int, ...]]:
        """Right-hand attribute -> the positions of the dependencies that
        produce it, in cover order."""
        out: dict[str, tuple[int, ...]] = {}
        for i, fd in enumerate(self.fds):
            out[fd.rhs] = out.get(fd.rhs, ()) + (i,)
        return out

    @cached_property
    def _kernel(self) -> _Kernel:
        """A closure kernel over the cover.  Only its walks run: its pairs
        are never edited."""
        return _Kernel(self)


def split_rhs(raw_fds: Sequence[RawFd], universe: Sequence[str]) -> FdSet:
    """Break multi-attribute right-hand sides into one dependency each.

    Output order follows input order, right-hand attributes in declared
    order.  A right-hand attribute that also appears on the left carries
    no information and is dropped.
    """
    singles: list[FunctionalDependency] = []
    for raw in raw_fds:
        for rhs in raw.rhs:
            if rhs in raw.lhs:
                continue
            singles.append(FunctionalDependency(frozenset(raw.lhs), rhs))
    return FdSet(tuple(singles), tuple(universe))


class _Kernel:
    """The closure kernel: a counter-based closure over dependencies
    (Beeri & Bernstein, TODS 1979).

    The index is built once: for each attribute of the universe, the pairs
    (dependencies) whose left-hand side holds it, and how many live pairs
    produce it.  A closure walks the attributes it reaches, counting down
    a per-pair missing count (kept only for the pairs it touches) and
    firing a pair when its count reaches zero, so one closure costs time
    linear in the pairs it touches.  Asked about a goal attribute, it stops
    on reaching it, and answers at once when no live pair produces it.  A
    walk only reads the index.  Callers may edit the pairs between
    closures with :meth:`drop_lhs_attr` and :meth:`set_live`; the index
    follows every edit.
    """

    def __init__(self, fds: FdSet) -> None:
        users: dict[str, list[int]] = {name: [] for name in fds.universe}
        producers = dict.fromkeys(fds.universe, 0)
        for i, fd in enumerate(fds):
            for name in fd.lhs:
                users[name].append(i)
            producers[fd.rhs] += 1
        # pair i is the i-th dependency, as (lhs[i], rhs[i])
        self.lhs = [fd.lhs for fd in fds]
        self.rhs = [fd.rhs for fd in fds]
        self.users, self.producers = users, producers
        self.width = [len(lhs) for lhs in self.lhs]
        self.live = [True] * len(self.rhs)

    def drop_lhs_attr(self, i: int, name: str) -> None:
        """Remove ``name`` from the left-hand side of pair ``i``."""
        self.lhs[i] = self.lhs[i] - {name}
        self.width[i] -= 1
        self.users[name].remove(i)

    def set_live(self, i: int, live: bool) -> None:
        """Mark pair ``i`` live or dead; dead pairs never fire."""
        if self.live[i] != live:
            self.live[i] = live
            self.producers[self.rhs[i]] += 1 if live else -1

    def close(
        self,
        seed: AbstractSet[str],
        goal: str | None = None,
        live: Sequence[bool] | None = None,
    ) -> AbstractSet[str]:
        """Closure of ``seed`` under the live pairs.

        With a ``goal``, the walk stops as soon as the goal is reached, and
        returns ``seed`` itself when no live pair produces the goal; the
        result then decides only whether the goal is in the closure.  A
        ``live`` mask, one flag per pair, replaces the kernel's own for this
        walk alone; it may only narrow the live pairs, since the goal test
        counts the kernel's.
        """
        if goal is not None and (goal in seed or not self.producers[goal]):
            return seed
        rhs, width, users = self.rhs, self.width, self.users
        if live is None:
            live = self.live
        reach = set(seed)
        missing: dict[int, int] = {}
        stack = list(reach)
        for name in stack:
            for i in users[name]:
                if not live[i]:
                    continue
                left = width[i]
                if left > 1:
                    left = missing[i] = missing.get(i, left) - 1
                    if left:
                        continue
                gained = rhs[i]
                if gained not in reach:
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
    missing = start.difference(fds._kernel.users)
    if missing:
        raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
    return frozenset(fds._kernel.close(start))


def implies(fds: FdSet, candidate: FunctionalDependency) -> bool:
    """True iff ``candidate`` follows from ``fds``."""
    missing = (candidate.lhs | {candidate.rhs}).difference(fds._kernel.users)
    if missing:
        raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
    return candidate.rhs in fds._kernel.close(candidate.lhs, candidate.rhs)


def minimal_cover(fds: FdSet) -> FdSet:
    """Canonical cover: closure-equivalent, no extraneous left-hand
    attribute, no redundant dependency.

    Expects singleton right-hand sides (apply :func:`split_rhs` first).
    Left-reduction scans dependencies in input order and candidate
    attributes in declared-universe order; redundancy elimination then
    scans in input order, testing each dependency against the current
    surviving set.  Survivors keep their input order.
    """
    position = {name: i for i, name in enumerate(fds.universe)}
    # its own kernel, edited below; the cover's cached one stays untouched
    kernel = _Kernel(fds)
    lhs_of, rhs_of = kernel.lhs, kernel.rhs

    for i, lhs in enumerate(lhs_of):
        rhs = rhs_of[i]
        for attr in sorted(lhs, key=position.__getitem__):
            if len(lhs) < 2:
                break
            # When this pair alone produces rhs, rhs follows from the
            # reduced side iff the dropped attribute does.
            goal = attr if kernel.producers[rhs] == 1 else rhs
            if goal in kernel.close(lhs - {attr}, goal):
                kernel.drop_lhs_attr(i, attr)
                lhs = lhs_of[i]

    # exact duplicates left by the reduction: the first copy stays
    first: dict[tuple[frozenset[str], str], int] = {}
    for i, pair in enumerate(zip(lhs_of, rhs_of)):
        if first.setdefault(pair, i) != i:
            kernel.set_live(i, False)
    # set each survivor aside; restore it unless the others still imply it
    for i in first.values():
        kernel.set_live(i, False)
        if rhs_of[i] not in kernel.close(lhs_of[i], rhs_of[i]):
            kernel.set_live(i, True)

    return FdSet(
        tuple(
            fd if fd.lhs is lhs_of[i] else FunctionalDependency(lhs_of[i], fd.rhs)
            for i, fd in enumerate(fds)
            if kernel.live[i]
        ),
        fds.universe,
    )
