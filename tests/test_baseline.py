import re

import pytest

from relnorm import corpus
from relnorm.baseline import (
    TwoListAttribute,
    TwoListFd,
    TwoListSchema,
    bench,
    classify_two_list,
    memory_cells_double,
    memory_cells_single,
    two_list_from_state,
)
from relnorm.errors import LhsTooLarge, UnknownAttribute
from relnorm.normalizer import decompose_2nf, decompose_3nf, prepare
from relnorm.schema_file import parse_schema_file
from relnorm.schema_model import FunctionalDependency, SchemaList


def single_list_with(n_attrs):
    sl = SchemaList("R")
    sl.add_attribute("k0", is_key=True)
    for i in range(1, n_attrs):
        sl.add_attribute(f"x{i}")
    return sl


def two_list_with(n_attrs, n_fds):
    attrs = [TwoListAttribute("k0", is_key=True)]
    attrs += [TwoListAttribute(f"x{i}") for i in range(1, max(n_attrs, 2))]
    fds = tuple(TwoListFd(("k0",), "x1") for _ in range(n_fds))
    return TwoListSchema("R", tuple(attrs[:n_attrs]) if n_attrs else (), fds if n_attrs else ())


class TestMemoryModel:
    def test_single_beer_sized(self):
        assert memory_cells_single(single_list_with(7)) == 875

    def test_single_empty(self):
        assert memory_cells_single(SchemaList("R")) == 0

    def test_single_gh_sized(self):
        assert memory_cells_single(single_list_with(12)) == 1500

    def test_double_beer_sized(self):
        state = prepare(corpus.load("Beer_Relation"))
        entered = two_list_from_state(state, use_cover=False)
        assert memory_cells_double(entered) == 7 * 56 + 5 * 254  # 1662

    def test_double_empty(self):
        assert memory_cells_double(TwoListSchema("R", (), ())) == 0

    def test_double_client_rental_sized(self):
        state = prepare(corpus.load("ClientRental"))
        entered = two_list_from_state(state, use_cover=False)
        assert memory_cells_double(entered) == 9 * 56 + 17 * 254  # 4822

    def test_single_is_linear_in_attributes(self):
        assert memory_cells_single(single_list_with(40)) == 2 * memory_cells_single(single_list_with(20))


class TestTwoListClassification:
    def test_matches_single_list_on_whole_corpus(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            covered = two_list_from_state(state, use_cover=True)
            assert classify_two_list(covered) == state.classification, raw.relation_name

    def test_identical_decompositions(self, corpus_schemas):
        for raw in corpus_schemas.values():
            state = prepare(raw)
            covered = two_list_from_state(state, use_cover=True)
            baseline_c = classify_two_list(covered)
            for decompose in (decompose_2nf, decompose_3nf):
                ours = {(frozenset(t.attributes), frozenset(t.primary_key)) for t in decompose(state.classification)}
                theirs = {(frozenset(t.attributes), frozenset(t.primary_key)) for t in decompose(baseline_c)}
                assert ours == theirs, raw.relation_name


class TestTwoListSchemaChecks:
    ATTRS = tuple(TwoListAttribute(name, is_key=name == "k") for name in ("k", "a", "b", "c", "d", "e"))

    def test_five_wide_lhs_rejected(self):
        with pytest.raises(LhsTooLarge, match="size 5"):
            TwoListSchema("R", self.ATTRS, (TwoListFd(("k", "a", "b", "c", "d"), "e"),))
        # four wide is the limit
        TwoListSchema("R", self.ATTRS, (TwoListFd(("k", "a", "b", "c"), "e"),))

    @pytest.mark.parametrize(
        "fd, missing",
        [(TwoListFd(("k", "z"), "a"), "['z']"), (TwoListFd(("k",), "y"), "['y']")],
    )
    def test_unknown_attribute_rejected(self, fd, missing):
        with pytest.raises(UnknownAttribute, match=re.escape(missing)):
            TwoListSchema("R", self.ATTRS, (fd,))


class TestBench:
    def test_single_relation_single_rep(self):
        report = bench([corpus.load("Beer_Relation")], repetitions=1)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.relation == "Beer_Relation"
        assert row.attrs == 7 and row.fds == 5
        assert row.single_bytes == 875 and row.double_bytes == 1662

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            bench([])

    def test_no_repetitions(self):
        with pytest.raises(ValueError, match="repetitions must be at least 1"):
            bench([corpus.load("Beer_Relation")], repetitions=0)

    def test_entered_lhs_over_the_cap_names_relation_and_dependency(self):
        # the cover reduces a,b,c,d,e -> f to a,b,c,d -> f, so the relation
        # normalizes; the two-list layout holds the dependency as entered
        doc = (
            "relation W\nattr k key\nattr a\nattr b\nattr c\nattr d\nattr e\nattr f\n"
            "fd k -> a, b, c, d, e\nfd a -> e\nfd a, b, c, d, e -> f\n"
        )
        raw = parse_schema_file(doc)
        assert FunctionalDependency(frozenset("abcd"), "f") in prepare(raw).cover.fds
        message = "relation 'W': dependency a, b, c, d, e -> f: left-hand side of size 5 exceeds MAX_LHS = 4"
        with pytest.raises(LhsTooLarge, match=f"^{re.escape(message)}$"):
            bench([raw], repetitions=1)

    def test_memory_direction_over_corpus(self):
        report = bench(corpus.load_all(), repetitions=1)
        for row in report.rows:
            assert row.single_bytes < row.double_bytes, row.relation
            assert row.mem_ratio < 1.0

    def test_csv_shape(self):
        report = bench([corpus.load("Beer_Relation")], repetitions=1)
        lines = report.to_csv().splitlines()
        assert lines[0] == (
            "relation,attrs,fds,single_bytes,double_bytes,mem_ratio,"
            "t2nf_single_us,t2nf_double_us,t3nf_single_us,t3nf_double_us"
        )
        assert len(lines) == 2
        assert lines[1].startswith("Beer_Relation,7,5,875,1662,0.526")
