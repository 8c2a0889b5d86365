"""SQL DDL rendering for synthesized table structures.

Columns carry no type information upstream, so every column is emitted as
``VARCHAR(255)``.  Statements are ordered so that every referenced table is
created before its referencer: tables are emitted by depth, the length of
their longest chain of references, and ties keep input order.  Output is
byte-deterministic for a given input.
"""

from __future__ import annotations

from collections.abc import Sequence
from .errors import CyclicReference, DanglingForeignKey
from .normalizer import TableStructure
from .schema_model import _Frozen


class DdlScript(_Frozen):
    __slots__ = _fields = ("statements",)

    @property
    def text(self) -> str:
        if not self.statements:
            return ""
        return "\n\n".join(self.statements) + "\n"


def _render(table: TableStructure, by_name: dict[str, TableStructure]) -> str:
    lines = [f"CREATE TABLE {table.name} ("]
    body = [f"    {column} VARCHAR(255)" for column in table.attributes]
    body.append(f"    PRIMARY KEY ({', '.join(table.primary_key)})")
    for fk in table.foreign_keys:
        referenced = by_name[fk.references]
        body.append(
            f"    FOREIGN KEY ({', '.join(fk.columns)}) "
            f"REFERENCES {fk.references} ({', '.join(referenced.primary_key)})"
        )
    lines.append(",\n".join(body))
    lines.append(");")
    return "\n".join(lines)


def emit_ddl(tables: Sequence[TableStructure]) -> DdlScript:
    """Render one CREATE TABLE statement per table, referenced-first."""
    by_name = {t.name: t for t in tables}
    # One Kahn pass over table names.  A table's depth is the length of its
    # longest chain of references.  A name counts as created with its first
    # table, which releases the name's referencers; a FIFO queue meets
    # tables in nondecreasing depth.
    referencers: dict[str, list[int]] = {}
    waiting = [0] * len(tables)
    for i, table in enumerate(tables):
        for fk in table.foreign_keys:
            if fk.references not in by_name:
                raise DanglingForeignKey(
                    f"table {table.name!r} references unknown table {fk.references!r}"
                )
            waiters = referencers.setdefault(fk.references, [])
            if not waiters or waiters[-1] != i:  # one wait per referenced name
                waiters.append(i)
                waiting[i] += 1
    depth = [0] * len(tables)
    queue = [i for i, count in enumerate(waiting) if not count]
    for i in queue:
        for j in referencers.pop(tables[i].name, ()):
            depth[j] = depth[i] + 1
            waiting[j] -= 1
            if not waiting[j]:
                queue.append(j)
    if len(queue) < len(tables):
        emitted = set(queue)
        names = ", ".join(t.name for i, t in enumerate(tables) if i not in emitted)
        raise CyclicReference(f"foreign keys form a cycle among: {names}")
    order = sorted(range(len(tables)), key=depth.__getitem__)
    return DdlScript(tuple(_render(tables[i], by_name) for i in order))
