"""Relational schema normalization to 2NF/3NF.

One relation and all of its functional dependencies live in a single
ordered node sequence; dependency classification reads determiner slots
straight from the nodes and synthesizes second- or third-normal-form
tables, with independent chase / dependency-preservation oracles and a
two-sequence baseline for comparison.

The package exports the pipeline's entry points; the types they take and
return live in their own modules (``relnorm.normalizer``,
``relnorm.schema_model``, ``relnorm.verifier`` and so on).
"""

from .baseline import memory_cells_double, memory_cells_single
from .ddl import emit_ddl
from .fd_engine import FdSet, minimal_cover, split_rhs
from .normalizer import classify, decompose_2nf, decompose_3nf, prepare, to_first_normal_form
from .schema_file import parse_schema_file
from .verifier import is_lossless, preserves_dependencies, scan_violations

__all__ = [
    "FdSet",
    "classify",
    "decompose_2nf",
    "decompose_3nf",
    "emit_ddl",
    "is_lossless",
    "memory_cells_double",
    "memory_cells_single",
    "minimal_cover",
    "parse_schema_file",
    "prepare",
    "preserves_dependencies",
    "scan_violations",
    "split_rhs",
    "to_first_normal_form",
]
