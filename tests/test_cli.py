import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import relnorm
from relnorm import cli, corpus
from relnorm.cli import run
from relnorm.ddl import emit_ddl
from relnorm.normalizer import decompose_2nf, decompose_3nf, prepare
from relnorm.schema_file import parse_schema_file
from schema_helpers import FK_CYCLE_TEXT, shortcut_chain_text, wide_line_text


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.schema"
    path.write_text(corpus.corpus_text("Trace"), encoding="utf-8")
    return str(path)


@pytest.fixture()
def beer_path(tmp_path):
    path = tmp_path / "beer.schema"
    path.write_text(corpus.corpus_text("Beer_Relation"), encoding="utf-8")
    return str(path)


@pytest.fixture()
def lossy_path(tmp_path):
    # declared key is not a superkey, so the mutually-determined pair
    # x/y ends up disconnected from it and the join turns lossy
    path = tmp_path / "lossy.schema"
    path.write_text("relation R\nattr k key\nattr x\nattr y\nfd x -> y\nfd y -> x\n", encoding="utf-8")
    return str(path)


class TestNormalize:
    def test_trace_3nf(self, trace_path):
        code, out, err = invoke("normalize", trace_path, "--nf", "3")
        assert code == 0
        assert "tables: 3" in out
        assert "columns: a, b, d, c" in out
        assert "columns: b, e" in out
        assert "columns: d, f, g" in out

    def test_trace_2nf(self, trace_path):
        code, out, _ = invoke("normalize", trace_path, "--nf", "2")
        assert code == 0
        assert "tables: 2" in out

    def test_beer_verify(self, beer_path):
        code, out, _ = invoke("normalize", beer_path, "--nf", "3", "--verify")
        assert code == 0
        assert "tables: 4" in out
        assert "lossless: true, dependencies preserved: true" in out
        assert "violations: 0" in out

    def test_ddl_flag(self, trace_path):
        code, out, _ = invoke("normalize", trace_path, "--nf", "3", "--ddl")
        assert code == 0
        assert out.count("CREATE TABLE") == 3
        assert "PRIMARY KEY (a, b)" in out

    def test_json_matches_text(self, beer_path):
        code, json_out, _ = invoke("normalize", beer_path, "--nf", "3", "--json")
        assert code == 0
        payload = json.loads(json_out)
        assert payload["relation"] == "Beer_Relation"
        assert payload["nf"] == 3
        _, text_out, _ = invoke("normalize", beer_path, "--nf", "3")
        for entry in payload["tables"]:
            assert f"table {entry['name']}" in text_out
            assert f"columns: {', '.join(entry['attributes'])}" in text_out
            assert f"primary key: {', '.join(entry['primary_key'])}" in text_out
            for fk in entry["foreign_keys"]:
                assert (
                    f"foreign key: ({', '.join(fk['columns'])}) references {fk['references']}"
                    in text_out
                )

    def test_missing_file(self):
        code, _, err = invoke("normalize", "/does/not/exist.schema")
        assert code == 1
        assert "error" in err

    def test_directory_argument(self, tmp_path):
        code, out, err = invoke("normalize", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_non_utf8_file(self, tmp_path):
        bad = tmp_path / "latin1.schema"
        bad.write_bytes("relation R\nattr caf\u00e9 key\n".encode("latin-1"))
        code, out, err = invoke("normalize", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}: not valid UTF-8 (byte 0xe9 at offset 19)\n"

    def test_non_utf8_offset_counts_a_byte_order_mark(self, tmp_path):
        bad = tmp_path / "latin1.schema"
        bad.write_bytes(b"\xef\xbb\xbf" + "relation R\nattr caf\u00e9 key\n".encode("latin-1"))
        code, out, err = invoke("verify", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"error: {bad}: not valid UTF-8 (byte 0xe9 at offset 22)\n"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = corpus.corpus_text("Beer_Relation")
        plain, marked = tmp_path / "plain.schema", tmp_path / "marked.schema"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        for argv in (("normalize", "--nf", "3", "--ddl", "--verify"), ("verify",)):
            code, out, err = invoke(*argv, str(marked))
            assert (code, out, err) == invoke(*argv, str(plain))
            assert code == 0 and out

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.schema"
        bad.write_text("attr a key\n", encoding="utf-8")
        code, _, err = invoke("normalize", str(bad))
        assert code == 1
        assert "relation" in err

    @pytest.mark.parametrize(
        "doc, expected",
        [
            (f"relation R\nattr k key\nattr {'a' * 101}\n", "error: line 3: attribute name longer than 100"),
            (f"relation {'R' * 5000}\nattr k key\n", "error: line 1: relation name longer than 100"),
            (
                f"relation R\nattr k key\nattr {'m' * 98} multivalued\n",
                "error: line 3: flattened attribute name longer than 100",
            ),
        ],
        ids=["attribute", "relation", "multivalued"],
    )
    def test_over_long_name_names_its_line(self, tmp_path, doc, expected):
        path = tmp_path / "long.schema"
        path.write_text(doc, encoding="utf-8")
        for argv in (("normalize", str(path)), ("verify", str(path))):
            code, out, err = invoke(*argv)
            assert (code, out) == (1, "")
            assert err.startswith(expected)

    @pytest.mark.parametrize(
        "doc, expected",
        [
            (
                "relation R\nattr k key\nattr phone multivalued\nattr phone_ID\n",
                "error: line 4: flattened attribute 'phone_ID' declared twice\n",
            ),
            (
                "relation R\nattr k key\nattr name composite(first, last)\nattr last\n",
                "error: line 4: attribute 'last' declared twice\n",
            ),
        ],
        ids=["rename", "component"],
    )
    def test_flattened_name_clash_names_its_line(self, tmp_path, doc, expected):
        path = tmp_path / "flat.schema"
        path.write_text(doc, encoding="utf-8")
        for argv in (("normalize", str(path)), ("verify", str(path))):
            assert invoke(*argv) == (1, "", expected)

    def test_error_after_synthesis_leaves_stdout_empty(self, tmp_path):
        # none of the tables built before emit_ddl finds the cycle may reach
        # stdout ahead of the error
        path = tmp_path / "cycle.schema"
        path.write_text(FK_CYCLE_TEXT, encoding="utf-8")
        expected = (1, "", "error: foreign keys form a cycle among: x2_x1, x2_x0\n")
        assert invoke("normalize", str(path), "--nf", "3", "--ddl") == expected

    def test_determinism_byte_for_byte(self, beer_path):
        runs = [invoke("normalize", beer_path, "--nf", "3", "--json") for _ in range(2)]
        assert runs[0] == runs[1]


# runs each command on each path named in argv and prints the list of
# (exit code, stdout, stderr)
RUN_EACH_COMMAND = """
import io, sys
from relnorm.cli import run
results = []
for path in sys.argv[1:]:
    for flags in (["verify"], ["normalize", "--nf", "3", "--ddl", "--verify"], ["normalize", "--nf", "2", "--json", "--verify"]):
        out, err = io.StringIO(), io.StringIO()
        code = run([flags[0], path, *flags[1:]], stdout=out, stderr=err)
        results.append((code, out.getvalue(), err.getvalue()))
print(repr(results))
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # repeated runs in one process share one hash seed; a fresh process
    # per seed shows whether set iteration order reaches the output.  The
    # chain's walks pass the component-numbering trigger (_RANK_AFTER).
    docs = {name: corpus.corpus_text(name) for name in corpus.corpus_names()}
    docs["ShortcutChain"] = shortcut_chain_text(200, 200)
    docs["WideLine"] = wide_line_text(200)
    paths = []
    for name, text in docs.items():
        path = tmp_path / f"{name}.schema"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(Path(relnorm.__file__).parents[1]), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RUN_EACH_COMMAND, *paths],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    codes = [code for code, _, _ in ast.literal_eval(outputs[0])]
    assert codes == [0] * (3 * len(paths))


class TestVerifyCommand:
    def test_beer(self, beer_path):
        code, out, _ = invoke("verify", beer_path)
        assert code == 0
        assert "2NF: lossless: true" in out
        assert "3NF: lossless: true" in out

    def test_failing_verification_exits_2(self, lossy_path):
        code, out, _ = invoke("verify", lossy_path)
        assert code == 2
        assert "lossless: false" in out
        # exit 2 is a result: the tables are written, then the verdict
        code, out, err = invoke("normalize", lossy_path, "--nf", "3", "--verify")
        assert (code, err) == (2, "")
        assert out.startswith("relation: R\nnormal form: 3NF\n")
        assert out.endswith("\n\nlossless: false, dependencies preserved: true\nviolations: 0\n")

    def test_failing_verification_keeps_json_on_stdout(self, lossy_path):
        code, out, err = invoke("normalize", lossy_path, "--nf", "3", "--json", "--verify")
        assert code == 2
        assert json.loads(out)["relation"] == "R"
        assert err == "lossless: false, dependencies preserved: true\nviolations: 0\n"

    def test_wide_star_finishes(self, tmp_path):
        # one 30-column table at both normal forms: the preservation test
        # must stay polynomial in table width
        dependents = [f"a{i}" for i in range(29)]
        lines = ["relation Star", "attr k key", *(f"attr {a}" for a in dependents)]
        lines.append("fd k -> " + ", ".join(dependents))
        path = tmp_path / "star.schema"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = invoke("verify", str(path))
        assert code == 0
        assert "2NF: lossless: true, dependencies preserved: true, violations: 0" in out
        assert "3NF: lossless: true, dependencies preserved: true, violations: 0" in out


class TestLimitDiagnostics:
    def test_fifth_determiner_is_input_error(self, tmp_path):
        lines = ["relation R", "attr k key"]
        lines += [f"attr d{i}" for i in range(5)]
        lines += ["attr z", "fd k -> " + ", ".join(f"d{i}" for i in range(5))]
        lines += [f"fd d{i} -> z" for i in range(5)]
        path = tmp_path / "five_dets.schema"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = invoke("normalize", str(path))
        assert (code, err) == (1, "error: relation 'R': attribute 'z' already has 4 determiners\n")

    def test_wide_lhs_is_input_error(self, tmp_path):
        doc = (
            "relation R\n"
            "attr k key\n"
            "attr a\nattr b\nattr c\nattr d\nattr e\nattr z\n"
            "fd k -> a, b, c, d, e, z\n"
            "fd a, b, c, d, e -> z\n"
        )
        path = tmp_path / "wide.schema"
        path.write_text(doc, encoding="utf-8")
        code, _, err = invoke("normalize", str(path))
        message = "relation 'R': dependency a, b, c, d, e -> z: left-hand side of size 5 exceeds MAX_LHS = 4"
        assert (code, err) == (1, f"error: {message}\n")

    def test_lhs_cap_applies_to_the_cover(self, tmp_path):
        # a -> e makes e extraneous, so the cover holds a, b, c, d -> f
        doc = (
            "relation W\n"
            "attr k key\n"
            "attr a\nattr b\nattr c\nattr d\nattr e\nattr f\n"
            "fd k -> a, b, c, d, e\n"
            "fd a -> e\n"
            "fd a, b, c, d, e -> f\n"
        )
        path = tmp_path / "reducible.schema"
        path.write_text(doc, encoding="utf-8")
        for nf in ("2", "3"):
            code, out, err = invoke("normalize", str(path), "--nf", nf, "--ddl", "--verify")
            assert (code, err) == (0, "")
            assert "lossless: true, dependencies preserved: true\nviolations: 0\n" in out
        assert "primary key: a, b, c, d\n" in out


class TestBenchCommand:
    def test_runs_and_writes_csv(self, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, out, _ = invoke("bench", "--reps", "1", "--csv", str(csv_path))
        assert code == 0
        assert "corpus average double/single memory" in out
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 11  # header + ten relations
        assert lines[0].startswith("relation,attrs,fds,")

    def test_bad_reps(self):
        code, _, err = invoke("bench", "--reps", "0")
        assert code == 1

    def test_unwritable_csv_leaves_stdout_empty(self, tmp_path):
        code, out, err = invoke("bench", "--reps", "1", "--csv", str(tmp_path / "missing" / "x.csv"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestCorpusCommand:
    def test_list_names_all_ten(self):
        code, out, _ = invoke("corpus", "list")
        assert code == 0
        assert out.splitlines() == list(corpus.corpus_names())


BUNDLED_LINES = [
    path.read_text(encoding="utf-8").splitlines() for path in sorted(Path(corpus.__file__).parent.glob("*.schema"))
]
FUZZ_COMMANDS = (
    ("verify",),
    ("normalize", "--nf", "3", "--ddl", "--verify"),
    ("normalize", "--nf", "2", "--json", "--verify"),
)


@st.composite
def edited_bundled_files(draw):
    """A bundled file after a few line edits: insert a line of any bundled
    file, delete a line, or shuffle them all."""
    lines = list(draw(st.sampled_from(BUNDLED_LINES)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("insert", "delete", "shuffle")))
        if edit == "insert":
            line = draw(st.sampled_from(draw(st.sampled_from(BUNDLED_LINES))))
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif edit == "delete" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif edit == "shuffle":
            lines = draw(st.permutations(lines))
    return "\n".join(lines) + "\n"


@st.composite
def random_schemas(draw):
    """Schema text of 2-8 attributes in any order, 1-3 of them keys, some
    multivalued or composite, and 0-8 dependencies whose left-hand sides
    are 1-5 names wide.  A dependency may name a composite or one of its
    components."""
    count = draw(st.integers(2, 8))
    keys = draw(st.integers(1, 3))
    lines, names = [], []
    for i in range(count):
        kind = draw(st.sampled_from(("", "", " multivalued", " composite")))
        if kind == " composite":
            parts = [f"c{i}_{j}" for j in range(draw(st.integers(1, 3)))]
            kind = f" composite({', '.join(parts)})"
            names += parts
        lines.append(f"attr a{i}{' key' if i < keys else ''}{kind}")
        names.append(f"a{i}")
    lines = ["relation R", *draw(st.permutations(lines))]
    for _ in range(draw(st.integers(0, 8))):
        lhs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True))
        rest = [name for name in names if name not in lhs]
        if rest:
            rhs = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=2, unique=True))
            lines.append(f"fd {', '.join(lhs)} -> {', '.join(rhs)}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "edited.schema"


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(edited_bundled_files(), random_schemas()))
def test_every_edit_exits_cleanly(fuzz_path, doc):
    # exit 1 is no result: an empty stdout and one error line; exit 0 and
    # exit 2 both carry the library's tables, and verify exits 2 exactly
    # when one of its verdicts fails
    fuzz_path.write_text(doc, encoding="utf-8")
    for command, *flags in FUZZ_COMMANDS:
        code, out, err = invoke(command, str(fuzz_path), *flags)
        assert code in (0, 1, 2)
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            continue
        state = prepare(parse_schema_file(doc))
        if command == "verify":
            verdicts = out.splitlines()[1:]
            assert [line[:4] for line in verdicts] == ["2NF:", "3NF:"]
            failed = any(": false" in line or int(line.rpartition("violations: ")[2]) for line in verdicts)
            assert (code == 2) == failed
        elif "--json" in flags:
            payload = cli._payload(state, 2, decompose_2nf(state.classification))
            assert json.loads(out) == json.loads(json.dumps(payload))
        else:
            t3 = decompose_3nf(state.classification)
            assert out.startswith(cli._tables_text(state, 3, t3) + "\n" + emit_ddl(t3).text)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    # a closed stdout is no input error: exit 1, but nothing on stderr
    @pytest.mark.parametrize(
        "command, flags",
        [("verify", []), ("normalize", ["--nf", "3", "--ddl"]), ("normalize", ["--nf", "2", "--json", "--verify"])],
    )
    def test_run_exits_1_quietly(self, command, flags, beer_path):
        err = io.StringIO()
        assert run([command, beer_path, *flags], stdout=_ClosedPipe(), stderr=err) == 1
        assert err.getvalue() == ""

    def test_input_error_still_reported(self, tmp_path):
        # exit 1 writes nothing to stdout, so its closing cannot hide the error
        err = io.StringIO()
        assert run(["verify", str(tmp_path / "missing.schema")], stdout=_ClosedPipe(), stderr=err) == 1
        assert err.getvalue().startswith("error: ")

    # buffered, the write fails only at the final flush; unbuffered, in run
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_process_exits_1_quietly(self, unbuffered, beer_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(relnorm.__file__).parents[1]), "PYTHONUNBUFFERED": unbuffered}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "relnorm", "verify", beer_path],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestUsageErrors:
    # usage errors are input errors (1); 2 is kept for failed verification
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["normalize", "x.schema", "--nf", "4"], "argument --nf: invalid choice: 4"),
            (["normalize"], "the following arguments are required: file"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            (["normalize", "x.schema", "--json", "--ddl"], "argument --ddl: not allowed with argument --json"),
        ],
    )
    def test_usage_error_exits_1(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(*argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: relnorm")
        assert message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("normalize", "--help")
        assert exc.value.code == 0
        assert "[--ddl | --json]" in capsys.readouterr().out
