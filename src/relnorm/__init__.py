"""Relational schema normalization to 2NF/3NF.

One relation and all of its functional dependencies live in a single
ordered node sequence; dependency classification reads determiner slots
straight from the nodes and synthesizes second- or third-normal-form
tables, with independent chase / dependency-preservation oracles and a
two-sequence baseline for comparison.
"""

from .baseline import (
    BenchReport,
    BenchRow,
    TwoListSchema,
    bench,
    memory_cells_double,
    memory_cells_single,
)
from .ddl import DdlScript, emit_ddl
from .fd_engine import FdSet, RawFd, closure, implies, minimal_cover, split_rhs
from .normalizer import (
    Classification,
    DependencyGroup,
    ForeignKey,
    RawAttribute,
    RawKind,
    RawSchema,
    TableStructure,
    classify,
    decompose_2nf,
    decompose_3nf,
    normalize,
    prepare,
    to_first_normal_form,
)
from .schema_file import format_schema, parse_schema_file
from .schema_model import (
    AttributeKind,
    AttributeNode,
    FunctionalDependency,
    SchemaList,
    create_node,
)
from .verifier import Violation, ViolationKind, is_lossless, preserves_dependencies, scan_violations

__version__ = "0.1.0"

__all__ = [
    "AttributeKind",
    "AttributeNode",
    "BenchReport",
    "BenchRow",
    "Classification",
    "DdlScript",
    "DependencyGroup",
    "FdSet",
    "ForeignKey",
    "FunctionalDependency",
    "RawAttribute",
    "RawFd",
    "RawKind",
    "RawSchema",
    "SchemaList",
    "TableStructure",
    "TwoListSchema",
    "Violation",
    "ViolationKind",
    "bench",
    "classify",
    "closure",
    "create_node",
    "decompose_2nf",
    "decompose_3nf",
    "emit_ddl",
    "format_schema",
    "implies",
    "is_lossless",
    "memory_cells_double",
    "memory_cells_single",
    "minimal_cover",
    "normalize",
    "parse_schema_file",
    "prepare",
    "preserves_dependencies",
    "scan_violations",
    "split_rhs",
    "to_first_normal_form",
]
