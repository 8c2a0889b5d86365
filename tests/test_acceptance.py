"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Golden expectations are frozen as (attribute set, primary-key set) pairs;
table names never participate in comparisons.  Where the source material
for a relation is internally inconsistent, the output is checked
semantically instead: attribute preservation, lossless join, dependency
preservation, and a clean violation scan.
"""

import io
import json
import random
import time
from contextlib import contextmanager

import pytest

from oracles import (
    brute_closure,
    compile_rules,
    equivalent_on_all_subsets,
    has_extraneous_lhs_attribute,
    has_redundant_fd,
    mask_closure,
)
from relnorm import corpus
from relnorm.baseline import bench
from relnorm.cli import run
from relnorm.fd_engine import FdSet, closure, implies, minimal_cover
from relnorm.normalizer import decompose_2nf, decompose_3nf, prepare
from relnorm.verifier import is_lossless, preserves_dependencies, scan_violations
from schema_helpers import FD


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"criterion {number} ({label}): FAIL (took {elapsed:.2f}s, budget {budget_s}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def shape(tables):
    return {(frozenset(t.attributes), frozenset(t.primary_key)) for t in tables}


def golden(entries):
    return {(frozenset(attrs), frozenset(pk)) for attrs, pk in entries}


def assert_matches_golden(produced, expected, primes):
    """Set-level table comparison allowing one extra key-only table."""
    produced_set = shape(produced)
    assert expected <= produced_set, f"missing tables: {expected - produced_set}"
    extras = produced_set - expected
    assert len(extras) <= 1, f"too many extra tables: {extras}"
    for attrs, pk in extras:
        key_only = frozenset(primes)
        assert attrs == key_only and pk == key_only, f"extra table is not key-only: {attrs}"


GOLDEN_2NF = {
    "Beer_Relation": golden([
        ("beer brewery strength city region".split(), ["beer"]),
        ("beer warehouse quantity".split(), "beer warehouse".split()),
    ]),
    "GH_Relation": golden([
        (list("GHFI"), list("GH")),
        (list("GABCDEJKL"), ["G"]),
    ]),
    "ClientRental": golden([
        (["clientNo", "cName"], ["clientNo"]),
        (["clientNo", "propertyNo", "rentStart", "rentFinish"], ["clientNo", "propertyNo"]),
        (["propertyNo", "pAddress", "rent", "ownerNo", "oName"], ["propertyNo"]),
    ]),
    "Invoice": golden([
        (["Order_ID", "Product_ID", "Order_Quantity"], ["Order_ID", "Product_ID"]),
        (["Product_ID", "Product_Description", "Product_Finish", "Unit_Price"], ["Product_ID"]),
        (["Order_ID", "Order_Date", "Customer_ID", "Customer_Name", "Customer_Address"], ["Order_ID"]),
    ]),
    "Emp": golden([
        (["emp_id", "emp_name", "emp_phone", "dept_name", "dept_phone", "dept_mgrname"], ["emp_id"]),
        (["skill_id", "skill_name"], ["skill_id"]),
        (["emp_id", "skill_id", "skill_date", "skill_lvl"], ["emp_id", "skill_id"]),
    ]),
    "Project": golden([
        (["projectCode", "projectTitle", "projectManager", "projectBudget"], ["projectCode"]),
        (["employeeNo", "employeeName", "deptNo", "deptName"], ["employeeNo"]),
        (["projectCode", "employeeNo", "hourlyRate"], ["projectCode", "employeeNo"]),
    ]),
}

GOLDEN_3NF = {
    "Beer_Relation": golden([
        ("beer brewery strength".split(), ["beer"]),
        (["brewery", "city"], ["brewery"]),
        (["city", "region"], ["city"]),
        ("beer warehouse quantity".split(), "beer warehouse".split()),
    ]),
    "GH_Relation": golden([
        (list("GHFI"), list("GH")),
        (list("GEJ"), ["G"]),
        (list("JK"), ["J"]),
        (list("KAL"), ["K"]),
        (list("EAD"), ["E"]),
        (list("ABC"), ["A"]),
    ]),
    "ClientRental": golden([
        (["clientNo", "cName"], ["clientNo"]),
        (["clientNo", "propertyNo", "rentStart", "rentFinish"], ["clientNo", "propertyNo"]),
        (["propertyNo", "pAddress", "rent", "ownerNo"], ["propertyNo"]),
        (["ownerNo", "oName"], ["ownerNo"]),
    ]),
    "Invoice": golden([
        (["Order_ID", "Product_ID", "Order_Quantity"], ["Order_ID", "Product_ID"]),
        (["Product_ID", "Product_Description", "Product_Finish", "Unit_Price"], ["Product_ID"]),
        (["Order_ID", "Order_Date", "Customer_ID"], ["Order_ID"]),
        (["Customer_ID", "Customer_Name", "Customer_Address"], ["Customer_ID"]),
    ]),
    "Emp": golden([
        (["emp_id", "emp_name", "emp_phone", "dept_name"], ["emp_id"]),
        (["dept_name", "dept_phone", "dept_mgrname"], ["dept_name"]),
        (["skill_id", "skill_name"], ["skill_id"]),
        (["emp_id", "skill_id", "skill_date", "skill_lvl"], ["emp_id", "skill_id"]),
    ]),
    "Project": golden([
        (["projectCode", "projectTitle", "projectManager", "projectBudget"], ["projectCode"]),
        (["employeeNo", "employeeName", "deptNo"], ["employeeNo"]),
        (["projectCode", "employeeNo", "hourlyRate"], ["projectCode", "employeeNo"]),
        (["deptNo", "deptName"], ["deptNo"]),
    ]),
}

SEMANTIC_ROWS = ("AB_Relation", "WellmeadowsHospital", "StaffPropertyInspection", "Report")


def test_criterion_1_trace_reproduction():
    with criterion(1, "trace reproduction", 1.0):
        state = prepare(corpus.load("Trace"))
        c = state.classification
        assert set(c.a1) == set("abcd")
        assert [(set(g.determiner), set(g.dependents)) for g in c.a2] == [({"b"}, {"e"})]
        assert [(set(g.determiner), set(g.dependents)) for g in c.a3] == [({"d"}, {"f", "g"})]
        assert shape(decompose_2nf(c)) == golden([
            (list("abcdfg"), list("ab")),
            (list("be"), ["b"]),
        ])
        assert shape(decompose_3nf(c)) == golden([
            (list("abcd"), list("ab")),
            (list("be"), ["b"]),
            (list("dfg"), ["d"]),
        ])


def test_criterion_2_golden_decompositions():
    with criterion(2, "golden corpus decompositions", 1.0):
        for name in GOLDEN_3NF:
            state = prepare(corpus.load(name))
            primes = state.flat.key_names()
            assert_matches_golden(decompose_2nf(state.classification), GOLDEN_2NF[name], primes)
            assert_matches_golden(decompose_3nf(state.classification), GOLDEN_3NF[name], primes)


def test_criterion_3_semantic_rows():
    with criterion(3, "semantic verification rows", 2.0):
        for name in SEMANTIC_ROWS:
            state = prepare(corpus.load(name))
            universe = state.flat.attribute_names()
            for mode, decompose in (("2nf", decompose_2nf), ("3nf", decompose_3nf)):
                tables = decompose(state.classification)
                union = set().union(*(t.attributes for t in tables))
                assert union == set(universe), name
                assert is_lossless(universe, state.cover, tables), name
                assert preserves_dependencies(state.cover, tables), name
                for t in tables:
                    assert scan_violations(t, state.cover, mode) == [], (name, t.name)


def _random_fd_set(rng, letters="abcdefgh"):
    size = rng.randint(2, 8)
    universe = tuple(letters[:size])
    fds = []
    for _ in range(rng.randint(0, 10)):
        lhs = rng.sample(universe, rng.randint(1, min(3, size)))
        options = [u for u in universe if u not in lhs]
        if not options:
            continue
        fds.append(FD(lhs, rng.choice(options)))
    return FdSet(tuple(fds), universe)


def _check_against_oracles(fds, rng):
    universe = fds.universe
    width = len(universe)
    # closure and implication agree with the brute-force fixpoint
    probes = [set()] + [{u} for u in universe]
    probes += [set(rng.sample(universe, rng.randint(1, width))) for _ in range(10)]
    for attrs in probes:
        assert closure(attrs, fds) == brute_closure(attrs, fds)
    for _ in range(5):
        lhs = rng.sample(universe, rng.randint(1, width))
        options = [u for u in universe if u not in lhs]
        if not options:
            continue
        rhs = rng.choice(options)
        candidate = FD(lhs, rhs)
        assert implies(fds, candidate) == (rhs in brute_closure(lhs, fds))
    # canonical cover: equivalent on every subset, no redundancy, no
    # extraneous left-hand attribute, and a fixpoint
    cover = minimal_cover(fds)
    assert equivalent_on_all_subsets(fds, cover)
    assert not has_redundant_fd(cover)
    assert not has_extraneous_lhs_attribute(cover)
    assert minimal_cover(cover).fds == cover.fds
    for fd in cover:
        assert len(fd.lhs) >= 1 and isinstance(fd.rhs, str)


def test_criterion_4_oracle_cross_checks():
    with criterion(4, "brute-force oracle agreement", 30.0):
        rng = random.Random(0x5EED)
        for name in corpus.corpus_names():
            state = prepare(corpus.load(name))
            cover = minimal_cover(state.split)
            assert equivalent_on_all_subsets(state.split, cover)
            assert not has_redundant_fd(cover)
            assert not has_extraneous_lhs_attribute(cover)
            rules = compile_rules(state.split, state.split.universe)
            width = len(state.split.universe)
            index = {u: i for i, u in enumerate(state.split.universe)}
            for _ in range(25):
                attrs = rng.sample(state.split.universe, rng.randint(1, width))
                mask = 0
                for a in attrs:
                    mask |= 1 << index[a]
                expected = mask_closure(mask, rules, width)
                got = closure(attrs, state.split)
                assert expected == sum(1 << index[a] for a in got)
        for _ in range(500):
            _check_against_oracles(_random_fd_set(rng), rng)


def test_criterion_5_memory_direction():
    with criterion(5, "memory model direction", 1.0):
        report = bench(corpus.load_all(), repetitions=1)
        for row in report.rows:
            assert row.single_bytes < row.double_bytes, row.relation
        # independent arithmetic over the fixture counts: per-node cost 125
        # vs 56 per attribute plus 254 per dependency
        counts = {}
        for name in corpus.corpus_names():
            state = prepare(corpus.load(name))
            counts[name] = (len(state.flat.attributes), len(state.split))
        expected_rows = {
            name: (125 * n, 56 * n + 254 * k) for name, (n, k) in counts.items()
        }
        for row in report.rows:
            assert (row.single_bytes, row.double_bytes) == expected_rows[row.relation]
        expected_average = sum(d / s for s, d in expected_rows.values()) / len(expected_rows)
        got_average = report.average_double_over_single_memory()
        assert abs(got_average - expected_average) < 1e-9
        # documented reference point: the model-level corpus average is
        # ~2.87; previously reported concrete-runtime measurements for the
        # same corpus average 2.17, which includes allocator overhead the
        # abstract model deliberately leaves out
        assert abs(got_average - 2.8650) < 0.01
        print(f"  corpus average double/single memory ratio: {got_average:.4f}")


def test_criterion_6_timing_direction():
    with criterion(6, "classification-pass timing", 60.0):
        report = bench(corpus.load_all(), repetitions=5)
        for row in report.rows:
            assert row.t2nf_single_us <= 2.0 * row.t2nf_double_us, (
                row.relation, row.t2nf_single_us, row.t2nf_double_us)
            assert row.t3nf_single_us <= 2.0 * row.t3nf_double_us, (
                row.relation, row.t3nf_single_us, row.t3nf_double_us)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical repeated runs", 5.0):
        for name in corpus.corpus_names():
            path = tmp_path / f"{name}.schema"
            path.write_text(corpus.corpus_text(name), encoding="utf-8")
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = run(["normalize", str(path), "--nf", "3", "--json"], stdout=out, stderr=err)
                assert code == 0, err.getvalue()
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1], name
            json.loads(outputs[0])  # well-formed


def test_criterion_8_limit_diagnostics(tmp_path):
    with criterion(8, "limit behavior", 1.0):
        five_dets = ["relation R", "attr k key"]
        five_dets += [f"attr d{i}" for i in range(5)]
        five_dets += ["attr z", "fd k -> " + ", ".join(f"d{i}" for i in range(5))]
        five_dets += [f"fd d{i} -> z" for i in range(5)]
        path_a = tmp_path / "five_determiners.schema"
        path_a.write_text("\n".join(five_dets) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert run(["normalize", str(path_a)], stdout=out, stderr=err) == 1
        assert "determiners" in err.getvalue()

        wide = (
            "relation R\nattr k key\n"
            "attr a\nattr b\nattr c\nattr d\nattr e\nattr z\n"
            "fd k -> a, b, c, d, e, z\n"
            "fd a, b, c, d, e -> z\n"
        )
        path_b = tmp_path / "wide_lhs.schema"
        path_b.write_text(wide, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert run(["normalize", str(path_b)], stdout=out, stderr=err) == 1
        assert "exceeds" in err.getvalue()
