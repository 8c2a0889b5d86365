"""Reference checks for normalize and verify outputs, independent of relnorm.

Nothing here imports ``relnorm``.  Schema text is read by a parser of its
own, attribute sets are integer bitmasks, and every algorithm is the
textbook one written out plainly:

- closure: the counter-based linear-time algorithm over (lhs, rhs) masks;
- superkey: closure of the key is the whole universe;
- lossless join: the chase over an integer tableau;
- dependency preservation: the restricted-closure test of Beeri and
  Honeyman (SIAM J. Comput. 1981), ``Z |= closure(Z & R) & R`` per table;
- normal forms under implied dependencies: brute-force candidate keys and
  projected dependencies, for relations of 8 attributes or fewer;
- prime attributes: brute-force candidate keys of the whole relation, for
  relations of 16 attributes or fewer.

The benchmark runs these outside its timed region, once per input.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

BRUTE_FORCE_MAX_ATTRS = 8
PRIME_MAX_ATTRS = 16     # candidate keys of the whole relation, by brute force

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_COMPOSITE = re.compile(r"composite\(([^()]*)\)")


class RefSyntaxError(ValueError):
    pass


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class Relation:
    """A parsed relation after 1NF flattening, with split dependencies."""

    universe: list[str]
    key: set[str]
    fds: list[tuple[frozenset[str], str]]
    features: set[str] = field(default_factory=set)   # "multivalued", "composite"


def parse(text: str) -> Relation:
    """Read the schema grammar and flatten it: composites become their
    components (inheriting the key flag), multivalued ``m`` becomes ``m_ID``."""
    relation = None
    attrs: list[tuple[str, bool, str, list[str]]] = []
    fd_lines: list[tuple[list[str], list[str]]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if relation is None:
            if head != "relation" or not _NAME.match(rest.strip()):
                raise RefSyntaxError(f"expected relation: {line!r}")
            relation = rest.strip()
        elif head == "attr":
            comps: list[str] = []
            m = _COMPOSITE.search(rest)
            if m:
                comps = [c.strip() for c in m.group(1).split(",") if c.strip()]
                rest = rest[: m.start()] + rest[m.end():]
            words = rest.split()
            if not words or not _NAME.match(words[0]) or any(not _NAME.match(c) for c in comps):
                raise RefSyntaxError(f"bad attr: {line!r}")
            flags = set(words[1:])
            if flags - {"key", "multivalued"} or (comps and "multivalued" in flags):
                raise RefSyntaxError(f"bad flags: {line!r}")
            kind = "composite" if comps else ("multivalued" if "multivalued" in flags else "atomic")
            attrs.append((words[0], "key" in flags, kind, comps))
        elif head == "fd":
            if rest.count("->") != 1:
                raise RefSyntaxError(f"bad fd: {line!r}")
            left, right = rest.split("->")
            sides = [[p.strip() for p in s.split(",")] for s in (left, right)]
            if any(not p or not _NAME.match(p) for s in sides for p in s):
                raise RefSyntaxError(f"bad fd: {line!r}")
            fd_lines.append((sides[0], sides[1]))
        else:
            raise RefSyntaxError(f"unknown line: {line!r}")
    if relation is None:
        raise RefSyntaxError("no relation")
    expand: dict[str, list[str]] = {}
    universe: list[str] = []
    key: set[str] = set()
    features: set[str] = set()
    for name, is_key, kind, comps in attrs:
        flat = comps if kind == "composite" else [f"{name}_ID" if kind == "multivalued" else name]
        if kind != "atomic":
            features.add(kind)
        expand[name] = flat
        universe += flat
        if is_key:
            key.update(flat)
    if len(set(universe)) != len(universe) or not key:
        raise RefSyntaxError("duplicate attributes or no key")
    for comp in universe:
        expand.setdefault(comp, [comp])
    fds: list[tuple[frozenset[str], str]] = []
    for left, right in fd_lines:
        if any(n not in expand for n in left + right):
            raise RefSyntaxError("undeclared attribute")
        lhs = frozenset(a for n in left for a in expand[n])
        for rhs in (a for n in right for a in expand[n]):
            if rhs not in lhs and (lhs, rhs) not in fds:
                fds.append((lhs, rhs))
    return Relation(universe, key, fds, features)


class Algebra:
    """Bitmask closure over one relation's universe and one set of rules."""

    def __init__(self, universe: list[str], fds) -> None:
        self.bit = {name: 1 << i for i, name in enumerate(universe)}
        self.universe = universe
        self.full = (1 << len(universe)) - 1
        self.rules = [(self.mask(lhs), self.bit[rhs]) for lhs, rhs in fds]
        self.users: list[list[int]] = [[] for _ in universe]   # attribute -> rules it feeds
        for r, (lhs, _) in enumerate(self.rules):
            for i in _bits(lhs):
                self.users[i].append(r)
        self.needs = [bin(lhs).count("1") for lhs, _ in self.rules]
        self.memo: dict[int, int] = {}

    def mask(self, names) -> int:
        out = 0
        for name in names:
            out |= self.bit[name]
        return out

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(n for n, b in self.bit.items() if mask & b)

    def closure(self, mask: int) -> int:
        """Linear-time closure: each rule fires once all of its left-hand
        attributes have been reached (Beeri and Bernstein, TODS 1979)."""
        if mask in self.memo:
            return self.memo[mask]
        start = mask
        missing = list(self.needs)
        queue = list(_bits(mask))
        for i in queue:
            for r in self.users[i]:
                missing[r] -= 1
                if not missing[r]:
                    rhs = self.rules[r][1]
                    if not rhs & mask:
                        mask |= rhs
                        queue.append(rhs.bit_length() - 1)
        self.memo[start] = mask
        return mask

    def is_superkey(self, names) -> bool:
        return self.closure(self.mask(names)) == self.full

    def implies_all(self, fds) -> bool:
        return all(self.closure(self.mask(lhs)) & self.bit[rhs] for lhs, rhs in fds)

    def lossless(self, tables: list[int]) -> bool:
        """The chase: row i holds 0 (distinguished) on table i's columns and
        i + 1 elsewhere; rows agreeing on a rule's left-hand side are equated
        on its right-hand column, preferring 0.  A rule is revisited only when
        one of its left-hand columns changed, until nothing changes."""
        width = len(self.universe)
        cols = [list(_bits(lhs)) for lhs, _ in self.rules]
        rhs_col = [rhs.bit_length() - 1 for _, rhs in self.rules]
        rows = [[0 if t >> c & 1 else i + 1 for c in range(width)] for i, t in enumerate(tables)]
        pending = deque(range(len(self.rules)))
        queued = set(pending)
        while pending:
            r = pending.popleft()
            queued.discard(r)
            lhs, c = cols[r], rhs_col[r]
            groups: dict[tuple, set[int]] = {}
            for row in rows:
                groups.setdefault(tuple(row[i] for i in lhs), set()).add(row[c])
            changed = False
            for symbols in groups.values():
                if len(symbols) < 2:
                    continue
                target = min(symbols)
                for row in rows:
                    if row[c] in symbols and row[c] != target:
                        row[c] = target
                        changed = True
            if changed:
                for user in self.users[c]:
                    if user not in queued:
                        queued.add(user)
                        pending.append(user)
        return any(not any(row) for row in rows)

    def lost(self, tables: list[int]) -> list[tuple[int, int]]:
        """Beeri-Honeyman: X -> A is preserved iff A lands in the fixpoint of
        Z := Z | (closure(Z & R) & R) over the tables R, starting at Z = X.
        Returns the rules that are not preserved."""
        out = []
        for lhs, rhs in self.rules:
            z = lhs
            grown = True
            while grown and not z & rhs:
                grown = False
                for t in tables:
                    if not z & t:
                        continue
                    more = self.closure(z & t) & t
                    if more & ~z:
                        z |= more
                        grown = True
                        if z & rhs:
                            break
            if not z & rhs:
                out.append((lhs, rhs))
        return out

    def keys(self, table: int) -> tuple[list[int], dict[int, int]]:
        """Brute-force candidate keys of ``table``, with the closure of each
        of its subsets."""
        cols = [b for b in self.bit.values() if table & b]
        subsets = [sum(c) for n in range(len(cols) + 1) for c in combinations(cols, n)]
        closures = {s: self.closure(s) for s in subsets}
        keys = [s for s in subsets if closures[s] & table == table]
        return [k for k in keys if not any(o != k and o & k == o for o in keys)], closures

    def nf_violations(self, table: int, nf: int) -> list[str]:
        """Brute force over the subsets of one table, under every dependency
        F implies (not only the stored ones)."""
        keys, closures = self.keys(table)
        prime = 0
        for k in keys:
            prime |= k
        found = []
        for s in closures:
            implied = closures[s] & table & ~s & ~prime
            if not implied:
                continue
            if nf == 3 and closures[s] & table != table:
                found.append(f"{sorted(self.names(s))} -> {sorted(self.names(implied))}")
            if nf == 2 and any(s != k and s & k == s for k in keys):
                found.append(f"{sorted(self.names(s))} -> {sorted(self.names(implied))}")
        return found


def stored_cover_scan(tables, cover, nf: int) -> set[tuple]:
    """The violation scan ``relnorm`` documents, written out independently:
    against the stored cover and each table's declared primary key."""
    found = set()
    for name, attrs, pk in tables:
        for lhs, rhs in cover:
            if rhs not in attrs or rhs in pk:
                continue
            if lhs < pk:
                found.add((name, "partial", rhs, lhs))
            elif nf == 3 and lhs <= attrs and not lhs <= pk and lhs & (attrs - pk):
                found.add((name, "transitive", rhs, lhs))
    return found


# --------------------------------------------------------------------------- judging one input

# The exception each generated reject must raise.
REJECT_ERRORS = {
    "syntax_error": "SchemaSyntaxError",
    "fifth_determiner": "DeterminerSlotsExhausted",
    "lhs_wider_than_four": "LhsTooLarge",
}


@dataclass
class Judgement:
    """Why an input's normalize and verify ops failed, if they did.

    Each failure is (reason, tracked).  Tracked failures are defects the
    project already knows: keys that are not superkeys accepted; 2NF/3NF
    output that drops dependencies onto key attributes (declared key
    attributes or attributes of a candidate key), when restoring those
    restores every lost dependency; output
    that violates its normal form under implied dependencies, and a
    violation scan that misses it; the chase's escaping ``RuntimeError``;
    and 3NF foreign keys that form a cycle, so that ``--ddl`` rejects a
    valid input.  They are counted as measured.  Anything else, lossy
    output of an input with a superkey included, is untracked: a change
    broke something new.
    """

    expect_reject: str | None = None
    superkey: bool | None = None
    features: set[str] = field(default_factory=set)
    attrs: int | None = None
    split_fds: int | None = None
    normalize: list[tuple[str, bool]] = field(default_factory=list)
    verify: list[tuple[str, bool]] = field(default_factory=list)


def judge(case, outcome, cover, tables, verdict) -> Judgement:
    """Check one input's ops against the reference.

    ``outcome`` is the normalize op's signature, ``cover`` and ``tables``
    (``{2: [...], 3: [...]}`` of (name, attributes, key)) its products when
    it succeeded, and ``verdict`` the verify op's result, or None if no
    verify op ran.
    """
    j = Judgement()
    try:
        rel = parse(case.text)
    except RefSyntaxError:
        rel = None
    if rel is not None:
        alg = Algebra(rel.universe, rel.fds)
        j.superkey = alg.is_superkey(rel.key)
        j.features, j.attrs, j.split_fds = rel.features, len(rel.universe), len(rel.fds)
    j.expect_reject = case.reject or ("syntax_error" if rel is None else None)
    if j.expect_reject is None and j.superkey is False:
        j.expect_reject = "non_superkey"

    status = outcome[0]
    if status == "error":
        j.normalize.append((f"raised {outcome[1]}: {outcome[2]}", False))
        return j
    if status == "rejected":
        if j.expect_reject is None:
            j.normalize.append((f"rejected a valid input ({outcome[1]})", outcome[1] == "CyclicReference"))
        elif outcome[1] != REJECT_ERRORS.get(j.expect_reject, outcome[1]):
            j.normalize.append((f"rejected {j.expect_reject} as {outcome[1]}", False))
        return j
    if j.expect_reject == "non_superkey":
        j.normalize.append(("accepted a key that is not a superkey", True))
        j.verify.append(("accepted a key that is not a superkey", True))
        return j
    if j.expect_reject:
        j.normalize.append((f"accepted an input that must be rejected ({j.expect_reject})", False))
        return j

    universe = set(rel.universe)
    if not (alg.implies_all(cover) and Algebra(rel.universe, cover).implies_all(rel.fds)):
        j.normalize.append(("cover is not equivalent to the declared dependencies", False))
    if case.closed_cover is not None and len(cover) != case.closed_cover:
        j.normalize.append((f"cover has {len(cover)} dependencies, expected {case.closed_cover}", False))
    brute = len(universe) <= BRUTE_FORCE_MAX_ATTRS
    key_attrs = alg.mask(rel.key)
    if len(universe) <= PRIME_MAX_ATTRS:
        for k in alg.keys(alg.full)[0]:
            key_attrs |= k
    truth = {}
    for nf in (2, 3):
        ts = tables[nf]
        if set().union(*(attrs for _, attrs, _ in ts)) != universe or any(not pk <= a for _, a, pk in ts):
            j.normalize.append((f"{nf}NF tables do not cover the universe exactly", False))
            continue
        closed = case.closed_2nf if nf == 2 else case.closed_3nf
        if closed is not None and {(a, pk) for _, a, pk in ts} != closed:
            j.normalize.append((f"{nf}NF differs from the generator's closed form", False))
        masks = [alg.mask(a) for _, a, _ in ts]
        lossless, lost = alg.lossless(masks), alg.lost(masks)
        nf_bad = brute and any(alg.nf_violations(m, nf) for m in masks)
        truth[nf] = (lossless, not lost, nf_bad)
        if not lossless:
            j.normalize.append((f"{nf}NF output is lossy", False))
        if lost:
            # The known defect drops dependencies onto declared key or prime
            # attributes.  Given a table X + (closure(X) & those) for each
            # lost X -> A, nothing may be lost any more.
            restored = [lhs | (alg.closure(lhs) & key_attrs) for lhs, _ in lost]
            if alg.lost(masks + restored):
                j.normalize.append((f"{nf}NF output drops a dependency not explained by ones onto key attributes", False))
            else:
                j.normalize.append((f"{nf}NF output drops a dependency onto a key attribute", True))
        if nf_bad:
            j.normalize.append((f"{nf}NF output violates {nf}NF under implied dependencies", True))

    if verdict is None:
        return j
    if verdict[0] == "error":
        j.verify.append((f"raised {verdict[1]}: {verdict[2]}", verdict[1] == "RuntimeError"))
        return j
    for nf, (lossless, preserved, found) in zip((2, 3), verdict):
        if nf not in truth:
            continue
        ref_lossless, ref_preserved, nf_bad = truth[nf]
        if lossless is not None and lossless != ref_lossless:
            j.verify.append((f"{nf}NF lossless verdict {lossless}, reference {ref_lossless}", False))
        if preserved is not None and preserved != ref_preserved:
            j.verify.append((f"{nf}NF preservation verdict {preserved}, reference {ref_preserved}", False))
        if found != stored_cover_scan(tables[nf], cover, nf):
            j.verify.append((f"{nf}NF violation scan differs from the reference scan", False))
        if lossless and preserved and not found and nf_bad:
            j.verify.append((f"{nf}NF passes every check yet violates {nf}NF under implied dependencies", True))
    return j
