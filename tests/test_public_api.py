import relnorm

EXPORTS = {
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
}


def test_all_is_exactly_the_pipeline_entry_points():
    assert sorted(relnorm.__all__) == sorted(EXPORTS)
    namespace: dict = {}
    exec("from relnorm import *", namespace)
    for name in EXPORTS:
        assert callable(getattr(relnorm, name)) and namespace[name] is getattr(relnorm, name)
