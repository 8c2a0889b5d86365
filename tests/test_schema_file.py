from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from relnorm import corpus
from relnorm.errors import (
    DuplicateAttribute,
    NoKeyDeclared,
    SchemaSyntaxError,
    UnknownAttribute,
)
from relnorm.fd_engine import RawFd
from relnorm.normalizer import RawAttribute, RawKind, RawSchema, to_first_normal_form
from relnorm.schema_file import parse_schema_file
from relnorm.schema_model import MAX_NAME_LEN

EMPLOYEE_DOC = """\
# employees with job classes
relation Employee
attr e_id key
attr e_s_name
attr j_class
attr CHPH
fd e_id -> e_s_name, j_class, CHPH
fd j_class -> CHPH
"""


class TestParse:
    def test_employee_document(self):
        schema = parse_schema_file(EMPLOYEE_DOC)
        assert schema.relation_name == "Employee"
        assert len(schema.attributes) == 4
        assert len(schema.declared_fds) == 2
        assert schema.key_names() == ("e_id",)
        assert schema.declared_fds[0] == RawFd(("e_id",), ("e_s_name", "j_class", "CHPH"))

    def test_comments_only(self):
        with pytest.raises(SchemaSyntaxError, match="no relation declared"):
            parse_schema_file("# nothing here\n# still nothing\n")

    def test_undeclared_fd_attribute(self):
        doc = "relation R\nattr y key\nfd x -> y\n"
        with pytest.raises(UnknownAttribute):
            parse_schema_file(doc)

    def test_duplicate_attribute(self):
        doc = "relation R\nattr a key\nattr a\n"
        with pytest.raises(DuplicateAttribute):
            parse_schema_file(doc)

    def test_missing_key(self):
        with pytest.raises(NoKeyDeclared):
            parse_schema_file("relation R\nattr a\n")

    def test_double_relation(self):
        with pytest.raises(SchemaSyntaxError, match="already declared"):
            parse_schema_file("relation R\nrelation S\n")

    def test_unknown_directive(self):
        with pytest.raises(SchemaSyntaxError, match="unknown directive"):
            parse_schema_file("relation R\ntable a\n")

    def test_bad_identifier(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema_file("relation R\nattr 1bad key\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("attr n composite( , )", "composite(...) needs at least one component"),
            ("attr", "attr needs a name"),
            ("attr composite(a, b)", "attr needs a name"),
            ("attr a unique", "unknown attribute flag 'unique'"),
            ("attr n multivalued composite(a, b)", "an attribute cannot be both multivalued and composite"),
            ("fd k => a", "fd needs '<lhs> -> <rhs>'"),
            ("attr n composite(a,,b)", "invalid component name: ''"),
            ("attr n composite(a, b,)", "invalid component name: ''"),
            ("attr n composite(, a)", "invalid component name: ''"),
        ],
        ids=["empty-composite", "attr-without-name", "composite-without-name", "unknown-flag",
             "multivalued-composite", "fd-without-arrow", "composite-inner-empty", "composite-trailing-comma",
             "composite-leading-comma"],
    )
    def test_malformed_line_names_the_fault(self, line, message):
        with pytest.raises(SchemaSyntaxError) as caught:
            parse_schema_file(f"relation R\nattr k key\nattr a\n{line}\n")
        assert caught.value.line == 4
        assert caught.value.message == message

    def test_error_carries_line_number(self):
        try:
            parse_schema_file("relation R\nattr a key\nfd a ->\n")
        except SchemaSyntaxError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected a syntax error")

    @pytest.mark.parametrize(
        "doc, line, what",
        [
            ("relation R\nattr k key\nattr {long}\n", 3, "attribute name"),
            ("relation {long}\nattr k key\n", 1, "relation name"),
            ("relation R\nattr k key\nattr n composite(a, {long})\n", 3, "component name"),
            ("relation R\nattr k key\nattr a\nfd {long} -> a\n", 4, "left-hand attribute"),
            ("relation R\nattr k key\nattr a\nfd k -> a, {long}\n", 4, "right-hand attribute"),
        ],
        ids=["attribute", "relation", "component", "fd-left", "fd-right"],
    )
    def test_over_long_name_is_a_syntax_error(self, doc, line, what):
        for length in (MAX_NAME_LEN + 1, 5000):
            with pytest.raises(SchemaSyntaxError) as caught:
                parse_schema_file(doc.format(long="n" * length))
            assert caught.value.line == line
            assert caught.value.message.startswith(f"{what} longer than {MAX_NAME_LEN} characters")

    def test_over_long_multivalued_name_is_a_syntax_error(self):
        longest = "m" * (MAX_NAME_LEN - len("_ID"))
        schema = parse_schema_file(f"relation R\nattr k key\nattr {longest} multivalued\n")
        assert schema.attributes[1].flat_names() == (f"{longest}_ID",)
        for length in (len(longest) + 1, MAX_NAME_LEN):
            with pytest.raises(SchemaSyntaxError) as caught:
                parse_schema_file(f"relation R\nattr k key\nattr {'m' * length} multivalued\n")
            assert caught.value.line == 3
            assert caught.value.message.startswith(f"flattened attribute name longer than {MAX_NAME_LEN} characters")

    @pytest.mark.parametrize(
        "lines, line, name",
        [
            (["attr phone multivalued", "attr phone_ID"], 4, "phone_ID"),
            (["attr phone_ID", "attr phone multivalued"], 4, "phone_ID"),
            (["attr name composite(first, last)", "attr last"], 4, "last"),
            (["attr last", "attr name composite(first, last)"], 4, "last"),
            (["attr name composite(first, last)", "attr first multivalued"], 4, "first"),
            (["attr name composite(first, first)"], 3, "first"),
        ],
        ids=[
            "rename-then-name",
            "name-then-rename",
            "component-then-attr",
            "attr-then-component",
            "component-then-multivalued",
            "component-twice",
        ],
    )
    def test_flattened_name_clash_names_its_line(self, lines, line, name):
        doc = "\n".join(["relation R", "attr k key", *lines, ""])
        with pytest.raises(DuplicateAttribute, match=rf"^line {line}: .*attribute '{name}' declared twice$"):
            parse_schema_file(doc)

    def test_name_of_the_maximum_length_is_accepted(self):
        name = "n" * MAX_NAME_LEN
        schema = parse_schema_file(f"relation {name}\nattr {name} key\n")
        assert schema.relation_name == name and schema.key_names() == (name,)

    def test_multivalued_and_composite_flags(self):
        doc = (
            "relation R\n"
            "attr k key\n"
            "attr phones multivalued\n"
            "attr name composite(first, last)\n"
            "fd k -> name\n"
        )
        schema = parse_schema_file(doc)
        kinds = {a.name: a.kind for a in schema.attributes}
        assert kinds["phones"] is RawKind.MULTIVALUED
        assert kinds["name"] is RawKind.COMPOSITE
        assert schema.attributes[2].components == ("first", "last")

    def test_fd_may_reference_components(self):
        doc = "relation R\nattr k key\nattr name composite(first, last)\nfd first -> last\n"
        schema = parse_schema_file(doc)
        assert schema.declared_fds == (RawFd(("first",), ("last",)),)

    def test_tabs_separate_directives_like_spaces(self):
        tabbed = EMPLOYEE_DOC.replace("relation ", "relation\t").replace("fd ", "fd\t")
        tabbed = tabbed.replace("attr ", "attr\t \t")
        assert "relation\tEmployee" in tabbed and "fd\te_id" in tabbed and "attr\t \te_id" in tabbed
        assert parse_schema_file(tabbed) == parse_schema_file(EMPLOYEE_DOC)


# a small pool, so that names, components and ``<name>_ID`` renames collide
NAME_POOL = ("a", "b", "c", "a_ID", "b_ID", "c_ID")


@st.composite
def declarations(draw):
    attributes = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        name = draw(st.sampled_from(NAME_POOL))
        kind = draw(st.sampled_from(RawKind))
        components = ()
        if kind is RawKind.COMPOSITE:
            components = tuple(draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=3)))
        attributes.append(RawAttribute(name, draw(st.booleans()), kind, components))
    if not any(a.is_key for a in attributes):
        attributes[0] = replace(attributes[0], is_key=True)
    declared = sorted({n for a in attributes for n in (a.name, *a.components)})
    names = st.lists(st.sampled_from(declared), min_size=1, max_size=2, unique=True)
    fds = [RawFd(tuple(draw(names)), tuple(draw(names))) for _ in range(draw(st.integers(0, 2)))]
    return attributes, fds


def render(attributes, fds):
    lines = ["relation R"]
    for a in attributes:
        flags = [a.name]
        if a.is_key:
            flags.append("key")
        if a.kind is RawKind.MULTIVALUED:
            flags.append("multivalued")
        elif a.kind is RawKind.COMPOSITE:
            flags.append(f"composite({', '.join(a.components)})")
        lines.append("attr " + " ".join(flags))
    lines.extend(f"fd {', '.join(fd.lhs)} -> {', '.join(fd.rhs)}" for fd in fds)
    return "\n".join(lines) + "\n"


def or_duplicate(build):
    try:
        return build()
    except DuplicateAttribute:
        return DuplicateAttribute


class TestSameRuleBothLayers:
    @settings(max_examples=300, deadline=None)
    @given(declarations())
    def test_parser_and_raw_schema_reject_the_same_repeats(self, declaration):
        attributes, fds = declaration
        parsed = or_duplicate(lambda: parse_schema_file(render(attributes, fds)))
        flat = or_duplicate(lambda: to_first_normal_form(RawSchema("R", tuple(attributes), tuple(fds))))
        event("rejected" if flat is DuplicateAttribute else "accepted")
        assert (parsed is DuplicateAttribute) == (flat is DuplicateAttribute)
        if flat is not DuplicateAttribute:
            assert to_first_normal_form(parsed) == flat


class TestCorpusFixtures:
    # declared attribute / split-dependency counts per source table
    EXPECTED = {
        "Beer_Relation": (7, 5),
        "GH_Relation": (12, 13),
        "ClientRental": (9, 17),
        "AB_Relation": (8, 16),
        "Invoice": (10, 10),
        "Emp": (10, 8),
        "Project": (9, 8),
        "WellmeadowsHospital": (13, 10),
        "StaffPropertyInspection": (8, 16),
        "Report": (8, 6),
    }

    def test_counts_match_source_table(self):
        from relnorm.fd_engine import split_rhs

        for name, (n_attrs, n_fds) in self.EXPECTED.items():
            schema = corpus.load(name)
            assert len(schema.attributes) == n_attrs, name
            split = split_rhs(schema.declared_fds, schema.attribute_names())
            assert len(split) == n_fds, name

    def test_corpus_names_are_stable(self):
        assert corpus.corpus_names() == tuple(self.EXPECTED)
