r"""Line-oriented schema documents.

Lines end at ``\n``, ``\r\n`` or ``\r`` and nowhere else.  Other
characters that Unicode counts as line or paragraph breaks (``\x0b``,
``\x0c``, ``\x1c``-``\x1e``, ``\x85``, ``\u2028``, ``\u2029``) are
whitespace inside a line, so line numbers in messages count what an
editor shows.

Grammar ('#' starts a comment, blank lines ignored; any run of whitespace
separates a directive from its arguments):

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

The parser is where text is checked: on top of the grammar it makes every
check :class:`~relnorm.normalizer.RawSchema` makes on construction (no
repeated name, a key, only declared names in dependencies), naming the
line where it can, and builds its value without repeating them.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .errors import DuplicateAttribute, SchemaSyntaxError, UnknownAttribute
from .fd_engine import RawFd
from .normalizer import RawAttribute, RawSchema, _require_key
from .schema_model import MAX_NAME_LEN, _unchecked

_COMPONENTS = re.compile(r"composite\(([^()]*)\)")


def _require_names(lineno: int, names: Sequence[str], what: str) -> None:
    """Raise on the first of ``names`` that is not an identifier of at
    most ``MAX_NAME_LEN`` characters.  The grammar, ``[A-Za-z_][A-Za-z0-9_]*``,
    and the length cap are tested apart, so that each fault gets its own
    message."""
    for name in names:
        if not (name.isascii() and name.isidentifier()):
            raise SchemaSyntaxError(lineno, f"invalid {what}: {name!r}")
        if len(name) > MAX_NAME_LEN:
            raise SchemaSyntaxError(lineno, f"{what} longer than {MAX_NAME_LEN} characters: {name[:20]!r}...")


def _parse_attr(lineno: int, rest: str) -> RawAttribute:
    components: tuple[str, ...] = ()
    match = "composite(" in rest and _COMPONENTS.search(rest)
    if match:
        parts = [p.strip() for p in match.group(1).split(",")]
        if not any(parts):
            raise SchemaSyntaxError(lineno, "composite(...) needs at least one component")
        _require_names(lineno, parts, "component name")
        components = tuple(parts)
        rest = rest[: match.start()] + rest[match.end():]
    tokens = rest.split()
    if not tokens:
        raise SchemaSyntaxError(lineno, "attr needs a name")
    name = tokens[0]
    if not (name.isascii() and name.isidentifier() and len(name) <= MAX_NAME_LEN):
        _require_names(lineno, (name,), "attribute name")
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
    return RawAttribute(name, is_key, multivalued, components)


def _parse_name_list(lineno: int, text: str, what: str) -> tuple[str, ...]:
    # most sides name one attribute: one test accepts it, and anything it
    # rejects takes the general path below for its message
    if "," not in text:
        name = text.strip()
        if name.isascii() and name.isidentifier() and len(name) <= MAX_NAME_LEN:
            return (name,)
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise SchemaSyntaxError(lineno, f"malformed {what} list: {text.strip()!r}")
    _require_names(lineno, parts, f"{what} attribute")
    return tuple(parts)


def parse_schema_file(text: str) -> RawSchema:
    """Parse one schema document into a raw relation."""
    relation: str | None = None
    attributes: list[RawAttribute] = []
    declared: set[str] = set()  # attribute and component names
    flat: set[str] = set()  # the same after 1NF flattening
    fd_entries: list[tuple[int, RawFd]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # a final line break ends the last line
        lines.pop()
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line[: line.index("#")]
        words = line.split(None, 1)
        if not words:
            continue
        head = words[0]
        rest = words[1] if len(words) > 1 else ""
        if relation is None:
            if head != "relation":
                raise SchemaSyntaxError(lineno, "expected 'relation <name>' as the first declaration")
            relation = rest.strip()
            _require_names(lineno, (relation,), "relation name")
        elif head == "attr":
            # most lines are `attr <name>` or `attr <name> key`, whose one
            # name is also its flattened name: one test accepts them, and
            # anything it rejects takes the general path for its message
            tokens = rest.split()
            if len(tokens) == 1 or len(tokens) == 2 and tokens[1] == "key":
                name = tokens[0]
                if (
                    name.isascii()
                    and name.isidentifier()
                    and len(name) <= MAX_NAME_LEN
                    and name not in declared
                    and name not in flat
                ):
                    declared.add(name)
                    flat.add(name)
                    attributes.append(RawAttribute(name, len(tokens) == 2))
                    continue
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
        elif head == "relation":
            raise SchemaSyntaxError(lineno, "relation already declared")
        else:
            raise SchemaSyntaxError(lineno, f"unknown directive {head!r}")
    if relation is None:
        raise SchemaSyntaxError(lineno or 1, "no relation declared")
    for lineno, fd in fd_entries:
        if not (declared.issuperset(fd.lhs) and declared.issuperset(fd.rhs)):
            name = next(name for name in (*fd.lhs, *fd.rhs) if name not in declared)
            raise UnknownAttribute(f"line {lineno}: undeclared attribute {name!r}")
    schema = _unchecked(
        RawSchema, relation_name=relation, attributes=tuple(attributes), declared_fds=tuple(fd for _, fd in fd_entries)
    )
    _require_key(schema)
    return schema
