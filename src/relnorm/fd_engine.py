"""Functional-dependency algebra: closure, implication, canonical cover.

All operations are pure functions over immutable values.  An ``FdSet``
fixes the attribute universe and keeps its dependencies in input order;
every derived ordering here is stable with respect to that order, so
results are deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import UnknownAttribute
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
    """

    fds: tuple[FunctionalDependency, ...]
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        known = set(self.universe)
        if len(known) != len(self.universe):
            raise UnknownAttribute("universe contains duplicate names")
        seen: set[FunctionalDependency] = set()
        unique: list[FunctionalDependency] = []
        for fd in self.fds:
            missing = (set(fd.lhs) | {fd.rhs}) - known
            if missing:
                raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
            if fd not in seen:
                seen.add(fd)
                unique.append(fd)
        object.__setattr__(self, "fds", tuple(unique))

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(self.fds)

    def __len__(self) -> int:
        return len(self.fds)


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


def _fixpoint(seed: Iterable[str], pairs: Sequence[tuple[frozenset[str], str]]) -> set[str]:
    """The closure kernel: least superset of ``seed`` closed under ``pairs``.

    ``pairs`` holds ``(lhs, rhs)`` dependencies and is scanned once per
    pass until a pass adds nothing.  Every closure in the package runs
    here: :func:`closure`, :func:`minimal_cover` and the verifier's
    preservation test.
    """
    reach = set(seed)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in pairs:
            if rhs not in reach and lhs <= reach:
                reach.add(rhs)
                changed = True
    return reach


def closure(attrs: Iterable[str], fds: FdSet) -> frozenset[str]:
    """Least fixpoint of ``attrs`` under ``fds``.

    Smallest superset S of ``attrs`` such that every dependency whose
    left-hand side lies inside S also has its right-hand attribute in S.
    """
    start = set(attrs)
    missing = start - set(fds.universe)
    if missing:
        raise UnknownAttribute(f"attributes outside universe: {sorted(missing)}")
    return frozenset(_fixpoint(start, [(fd.lhs, fd.rhs) for fd in fds]))


def implies(fds: FdSet, candidate: FunctionalDependency) -> bool:
    """True iff ``candidate`` follows from ``fds``."""
    if candidate.rhs not in set(fds.universe):
        raise UnknownAttribute(f"attribute outside universe: {candidate.rhs!r}")
    return candidate.rhs in closure(candidate.lhs, fds)


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
    work: list[tuple[frozenset[str], str]] = [(fd.lhs, fd.rhs) for fd in fds]

    for idx, (lhs, rhs) in enumerate(work):
        for attr in sorted(lhs, key=position.__getitem__):
            if len(lhs) < 2:
                break
            reduced = lhs - {attr}
            if rhs in _fixpoint(reduced, work):
                lhs = reduced
                work[idx] = (lhs, rhs)

    work = list(dict.fromkeys(work))
    idx = 0
    while idx < len(work):
        lhs, rhs = work.pop(idx)
        if rhs not in _fixpoint(lhs, work):
            work.insert(idx, (lhs, rhs))
            idx += 1

    return FdSet(tuple(FunctionalDependency(lhs, rhs) for lhs, rhs in work), fds.universe)
