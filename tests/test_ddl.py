import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracles import wave_order
from relnorm.ddl import emit_ddl
from relnorm.errors import CyclicReference, DanglingForeignKey
from relnorm.normalizer import ForeignKey, TableStructure, decompose_3nf, prepare


def table(name, attributes, primary_key, foreign_keys=()):
    return TableStructure(name, list(attributes), list(primary_key), list(foreign_keys))


class TestEmitDdl:
    def test_trace_3nf_statement_shape(self, trace_schema):
        state = prepare(trace_schema)
        tables = decompose_3nf(state.classification)
        script = emit_ddl(tables)
        assert len(script.statements) == 3
        main_stmt = next(s for s in script.statements if "R_main" in s)
        assert "PRIMARY KEY (a, b)" in main_stmt
        # the main table references the transitive table, so it comes later
        referenced = next(t.name for t in tables if frozenset(t.primary_key) == frozenset("d"))
        assert script.text.index(f"CREATE TABLE {referenced} ") < script.text.index("CREATE TABLE R_main ")

    def test_empty_input(self):
        script = emit_ddl([])
        assert script.statements == ()
        assert script.text == ""

    def test_every_clause_column_is_declared(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            tables = decompose_3nf(state.classification)
            statements = emit_ddl(tables).statements
            for t in tables:
                stmt = next(s for s in statements if s.startswith(f"CREATE TABLE {t.name} ("))
                for col in t.primary_key:
                    assert f"{col} VARCHAR(255)" in stmt
                for fk in t.foreign_keys:
                    for col in fk.columns:
                        assert f"{col} VARCHAR(255)" in stmt
                    assert f"REFERENCES {fk.references} " in stmt

    def test_referenced_before_referencing_corpus_wide(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            tables = decompose_3nf(state.classification)
            script = emit_ddl(tables)
            position = {}
            for i, stmt in enumerate(script.statements):
                name = stmt.split()[2]
                position[name] = i
            for t in tables:
                for fk in t.foreign_keys:
                    assert position[fk.references] < position[t.name], raw.relation_name

    def test_reemission_is_byte_identical(self, corpus_schemas):
        state = prepare(corpus_schemas["Beer_Relation"])
        tables = decompose_3nf(state.classification)
        assert emit_ddl(tables).text == emit_ddl(tables).text

    def test_dangling_reference(self):
        bad = table("t", "ab", "a", [ForeignKey(("b",), "missing")])
        with pytest.raises(DanglingForeignKey):
            emit_ddl([bad])

    def test_cycle_detected(self):
        first = table("t1", "xy", "x", [ForeignKey(("y",), "t2")])
        second = table("t2", "xy", "y", [ForeignKey(("x",), "t1")])
        with pytest.raises(CyclicReference):
            emit_ddl([first, second])

    def test_statement_format(self):
        script = emit_ddl([table("t", ("a", "b"), ("a",))])
        assert script.text == (
            "CREATE TABLE t (\n"
            "    a VARCHAR(255),\n"
            "    b VARCHAR(255),\n"
            "    PRIMARY KEY (a)\n"
            ");\n"
        )


@st.composite
def reference_graphs(draw):
    """Up to 8 tables with 0-3 foreign keys each, in shuffled input order.

    Acyclic graphs only reference tables of lower rank; the others may
    reference any table, themselves included.  Sometimes the last table
    reuses an earlier table's name.  Each table's first column names it
    uniquely.
    """
    count = draw(st.integers(min_value=1, max_value=8))
    names = [f"t{rank}" for rank in range(count)]
    if count > 1 and draw(st.booleans()):
        names[-1] = names[draw(st.integers(min_value=0, max_value=count - 2))]
    acyclic = draw(st.booleans())
    tables = []
    for rank in range(count):
        targets = range(rank) if acyclic else range(count)
        refs = draw(st.lists(st.sampled_from(targets), max_size=3)) if targets else []
        fks = [ForeignKey(("b",), names[r]) for r in refs]
        tables.append(table(names[rank], [f"k{rank}", "b"], [f"k{rank}"], fks))
    return draw(st.permutations(tables))


@settings(max_examples=300)
@given(reference_graphs())
def test_order_and_cycle_report_match_wave_reference(tables):
    order, message = wave_order(tables)
    if message is None:
        statements = emit_ddl(tables).statements
        assert [s.split()[4] for s in statements] == [t.attributes[0] for t in order]
    else:
        with pytest.raises(CyclicReference) as raised:
            emit_ddl(tables)
        assert str(raised.value) == message
