"""Line-oriented schema documents.

Grammar ('#' starts a comment, blank lines ignored; any run of spaces or
tabs separates a directive from its arguments):

    relation <Name>                          exactly once, first declaration
    attr <name> [key] [multivalued] [composite(<n1>, <n2>, ...)]
    fd <a>[, <b> ...] -> <c>[, <d> ...]

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*`` and are at most
``MAX_NAME_LEN`` (100) characters long.  The names 1NF flattening will
give each attribute (:meth:`~relnorm.normalizer.RawAttribute.flat_names`)
are checked on its line too: a multivalued name becomes ``<name>_ID``, so
it may be at most 97 characters long, and no flattened name may repeat
one an earlier line gave.  Key attributes may appear anywhere in the
file; the normalizer orders entries before building the node sequence.
"""

from __future__ import annotations

import re

from .errors import DuplicateAttribute, SchemaSyntaxError, UnknownAttribute
from .fd_engine import RawFd
from .normalizer import RawAttribute, RawKind, RawSchema
from .schema_model import _IDENTIFIER, MAX_NAME_LEN

_COMPOSITE = re.compile(r"composite\(([^()]*)\)")


def _require_identifier(lineno: int, token: str, what: str) -> str:
    if not _IDENTIFIER.match(token):
        raise SchemaSyntaxError(lineno, f"invalid {what}: {token!r}")
    if len(token) > MAX_NAME_LEN:
        raise SchemaSyntaxError(lineno, f"{what} longer than {MAX_NAME_LEN} characters: {token[:20]!r}...")
    return token


def _parse_attr(lineno: int, rest: str) -> RawAttribute:
    components: tuple[str, ...] = ()
    match = _COMPOSITE.search(rest)
    if match:
        parts = [p.strip() for p in match.group(1).split(",")]
        parts = [p for p in parts if p]
        if not parts:
            raise SchemaSyntaxError(lineno, "composite(...) needs at least one component")
        components = tuple(_require_identifier(lineno, p, "component name") for p in parts)
        rest = rest[: match.start()] + rest[match.end():]
    tokens = rest.split()
    if not tokens:
        raise SchemaSyntaxError(lineno, "attr needs a name")
    name = _require_identifier(lineno, tokens[0], "attribute name")
    is_key = False
    multivalued = False
    for flag in tokens[1:]:
        if flag == "key":
            is_key = True
        elif flag == "multivalued":
            multivalued = True
        else:
            raise SchemaSyntaxError(lineno, f"unknown attribute flag {flag!r}")
    if multivalued and components:
        raise SchemaSyntaxError(lineno, "an attribute cannot be both multivalued and composite")
    if components:
        kind = RawKind.COMPOSITE
    elif multivalued:
        kind = RawKind.MULTIVALUED
    else:
        kind = RawKind.ATOMIC
    return RawAttribute(name, is_key, kind, components)


def _parse_name_list(lineno: int, text: str, what: str) -> tuple[str, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise SchemaSyntaxError(lineno, f"malformed {what} list: {text.strip()!r}")
    for part in parts:
        _require_identifier(lineno, part, f"{what} attribute")
    return tuple(dict.fromkeys(parts))


def parse_schema_file(text: str) -> RawSchema:
    """Parse one schema document into a raw relation."""
    relation: str | None = None
    attributes: list[RawAttribute] = []
    declared: set[str] = set()  # attribute and component names
    flat: set[str] = set()  # the same after 1NF flattening
    fd_entries: list[tuple[int, RawFd]] = []
    last_line = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):]
        if relation is None:
            if head != "relation":
                raise SchemaSyntaxError(lineno, "expected 'relation <name>' as the first declaration")
            name = rest.strip()
            relation = _require_identifier(lineno, name, "relation name")
            continue
        if head == "relation":
            raise SchemaSyntaxError(lineno, "relation already declared")
        if head == "attr":
            attr = _parse_attr(lineno, rest)
            for name in (attr.name, *attr.components):
                if name in declared:
                    raise DuplicateAttribute(f"line {lineno}: attribute {name!r} declared twice")
                declared.add(name)
            # built from checked identifiers, so only the length can be wrong
            for name in attr.flat_names():
                if len(name) > MAX_NAME_LEN:
                    raise SchemaSyntaxError(
                        lineno, f"flattened attribute name longer than {MAX_NAME_LEN} characters: {name[:20]!r}..."
                    )
                if name in flat:
                    raise DuplicateAttribute(f"line {lineno}: flattened attribute {name!r} declared twice")
                flat.add(name)
            attributes.append(attr)
        elif head == "fd":
            if "->" not in rest:
                raise SchemaSyntaxError(lineno, "fd needs '<lhs> -> <rhs>'")
            left, _, right = rest.partition("->")
            lhs = _parse_name_list(lineno, left, "left-hand")
            rhs = _parse_name_list(lineno, right, "right-hand")
            fd_entries.append((lineno, RawFd(lhs, rhs)))
        else:
            raise SchemaSyntaxError(lineno, f"unknown directive {head!r}")
    if relation is None:
        raise SchemaSyntaxError(last_line or 1, "no relation declared")
    for lineno, fd in fd_entries:
        for name in (*fd.lhs, *fd.rhs):
            if name not in declared:
                raise UnknownAttribute(f"line {lineno}: undeclared attribute {name!r}")
    return RawSchema(relation, tuple(attributes), tuple(fd for _, fd in fd_entries))
