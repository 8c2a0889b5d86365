"""Bundled example relations used by the command-line tool and the tests."""

from __future__ import annotations

import os

from ..normalizer import RawSchema
from ..schema_file import parse_schema_file

# name -> (schema file, extra): the canonical corpus in source order, then
# the extra worked examples, which are not part of it
_FILES: dict[str, tuple[str, bool]] = {
    "Beer_Relation": ("beer.schema", False),
    "GH_Relation": ("gh.schema", False),
    "ClientRental": ("client_rental.schema", False),
    "AB_Relation": ("ab.schema", False),
    "Invoice": ("invoice.schema", False),
    "Emp": ("emp.schema", False),
    "Project": ("project.schema", False),
    "WellmeadowsHospital": ("wellmeadows.schema", False),
    "StaffPropertyInspection": ("staff_property_inspection.schema", False),
    "Report": ("report.schema", False),
    "Trace": ("trace.schema", True),
    "Employee": ("employee.schema", True),
}


def corpus_names() -> tuple[str, ...]:
    return tuple(name for name, (_, extra) in _FILES.items() if not extra)


def corpus_text(name: str) -> str:
    with open(corpus_path(name), encoding="utf-8") as f:
        return f.read()


def corpus_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), _FILES[name][0])


def load(name: str) -> RawSchema:
    return parse_schema_file(corpus_text(name))


def load_all() -> list[RawSchema]:
    return [load(name) for name in corpus_names()]
