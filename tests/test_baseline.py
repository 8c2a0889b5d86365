import itertools
import re
from types import SimpleNamespace

import pytest

from relnorm import baseline, corpus
from relnorm.baseline import (
    BenchReport,
    BenchRow,
    TwoListSchema,
    bench,
    classify_two_list,
    memory_cells_double,
    memory_cells_single,
    two_list_from_state,
)
from relnorm.errors import LhsTooLarge, UnknownAttribute
from relnorm.normalizer import RawAttribute, decompose_2nf, decompose_3nf, prepare
from relnorm.schema_file import parse_schema_file
from relnorm.schema_model import AttributeNode, FunctionalDependency, SchemaList
from schema_helpers import FD


def single_list_with(n_attrs):
    nodes = [AttributeNode("k0", False, 1, [], True)]
    nodes += [AttributeNode(f"x{i}", False, i + 1, [], False) for i in range(1, n_attrs)]
    return SchemaList("R", nodes)


def two_list_with(n_attrs, n_fds):
    attrs = [RawAttribute("k0", is_key=True)]
    attrs += [RawAttribute(f"x{i}") for i in range(1, max(n_attrs, 2))]
    fds = tuple(FD(["k0"], "x1") for _ in range(n_fds))
    return TwoListSchema("R", tuple(attrs[:n_attrs]) if n_attrs else (), fds if n_attrs else ())


class TestMemoryModel:
    def test_single_beer_sized(self):
        assert memory_cells_single(single_list_with(7)) == 875

    def test_single_empty(self):
        assert memory_cells_single(SchemaList("R", [])) == 0

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

    def test_lists_hold_the_pipeline_records(self):
        state = prepare(corpus.load("ClientRental"))
        entered = two_list_from_state(state, use_cover=False)
        assert entered.fd_list is state.split.fds
        assert two_list_from_state(state, use_cover=True).fd_list is state.cover.fds
        assert entered.attribute_list == tuple(
            RawAttribute(node.attribute_name, node.is_key_attribute) for node in state.schema_list.nodes
        )

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
    ATTRS = tuple(RawAttribute(name, is_key=name == "k") for name in ("k", "a", "b", "c", "d", "e"))

    def test_five_wide_lhs_rejected(self):
        with pytest.raises(LhsTooLarge, match="size 5"):
            TwoListSchema("R", self.ATTRS, (FD("kabcd", "e"),))
        # four wide is the limit
        TwoListSchema("R", self.ATTRS, (FD("kabc", "e"),))

    @pytest.mark.parametrize(
        "fd, missing",
        [(FD("kz", "a"), "['z']"), (FD("k", "y"), "['y']")],
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

    def test_timer_reads_the_cpu_time_of_the_process(self, monkeypatch):
        # each pass takes 5 us of the process's CPU time, while every
        # wall-clock read jumps 1 s, as when other load holds the CPU
        cpu_ns = [0]

        def one_pass():
            cpu_ns[0] += 5_000

        clocks = SimpleNamespace(process_time_ns=lambda: cpu_ns[0], perf_counter_ns=itertools.count(0, 10**9).__next__)
        monkeypatch.setattr(baseline, "time", clocks)
        assert baseline._median_us(one_pass, 3) == 5.0

    def test_each_pass_lands_in_its_own_column(self, monkeypatch):
        # each pass returns a marker naming its normal form and layout, and
        # the timer returns what its pass returned
        monkeypatch.setattr(baseline, "_median_us", lambda pass_fn, repetitions: pass_fn())
        monkeypatch.setattr(baseline, "classify", lambda layout: "single")
        monkeypatch.setattr(baseline, "classify_two_list", lambda layout: "double")
        monkeypatch.setattr(baseline, "decompose_2nf", lambda side: f"2nf {side}")
        monkeypatch.setattr(baseline, "decompose_3nf", lambda side: f"3nf {side}")
        [row] = bench([corpus.load("Beer_Relation")], repetitions=1).rows
        assert (row.t2nf_single_us, row.t2nf_double_us, row.t3nf_single_us, row.t3nf_double_us) == (
            "2nf single",
            "2nf double",
            "3nf single",
            "3nf double",
        )


class TestReportRendering:
    # two rows with fixed timings, so every column's width and format is pinned
    REPORT = BenchReport(
        (
            BenchRow("Beer_Relation", 7, 5, 875, 1662, 875 / 1662, 12.3456, 20.5, 13.0, 21.1249),
            BenchRow("ClientRental", 9, 17, 1125, 4822, 1125 / 4822, 3.14159, 100.0, 2.0, 1234.567),
        ),
        3,
    )

    def test_text(self):
        rule = "-" * 106
        assert self.REPORT.to_text() == (
            "relation                   attrs  fds  single_B  double_B  dbl/sgl"
            "  2nf_s_us  2nf_d_us  3nf_s_us  3nf_d_us\n"
            f"{rule}\n"
            "Beer_Relation                  7    5       875      1662    1.899"
            "     12.35     20.50     13.00     21.12\n"
            "ClientRental                   9   17      1125      4822    4.286"
            "      3.14    100.00      2.00   1234.57\n"
            f"{rule}\n"
            "repetitions per timing: 3; corpus average double/single memory: 3.093\n"
            "timings cover the classification+synthesis pass per representation; "
            "shared preprocessing is excluded from both sides\n"
        )

    def test_csv(self):
        assert self.REPORT.to_csv() == (
            "relation,attrs,fds,single_bytes,double_bytes,mem_ratio,"
            "t2nf_single_us,t2nf_double_us,t3nf_single_us,t3nf_double_us\n"
            "Beer_Relation,7,5,875,1662,0.5265,12.35,20.50,13.00,21.12\n"
            "ClientRental,9,17,1125,4822,0.2333,3.14,100.00,2.00,1234.57\n"
        )
