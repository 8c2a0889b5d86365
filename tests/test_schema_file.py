import re

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from relnorm import corpus
from relnorm.errors import (
    DuplicateAttribute,
    InvalidName,
    NoKeyDeclared,
    SchemaSyntaxError,
    UnknownAttribute,
)
from relnorm.fd_engine import RawFd
from relnorm.normalizer import RawAttribute, RawKind, RawSchema, to_first_normal_form
from relnorm.schema_file import parse_schema_file
from relnorm.schema_model import MAX_NAME_LEN, SchemaList

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

    @pytest.mark.parametrize(
        "text, line",
        [("", 1), ("# c", 1), ("# c\n", 1), ("# c\n\n", 2), ("# c\n\n# d", 3), ("# c\r\n\r# d\r", 3)],
        ids=["empty", "one-line", "one-line-ended", "blank-line", "three-lines", "carriage-returns"],
    )
    def test_no_relation_names_the_last_line(self, text, line):
        with pytest.raises(SchemaSyntaxError) as caught:
            parse_schema_file(text)
        assert (caught.value.line, caught.value.message) == (line, "no relation declared")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_end_at_newline_and_carriage_return(self, newline):
        doc = newline.join(["relation R", "attr a key\x85", "fd a -> q", ""])
        with pytest.raises(UnknownAttribute, match=r"^line 3: undeclared attribute 'q'$"):
            parse_schema_file(doc)

    @pytest.mark.parametrize(
        "separator",
        ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"],
    )
    def test_other_line_separators_are_whitespace(self, separator):
        with pytest.raises(SchemaSyntaxError) as caught:
            parse_schema_file(f"relation R\nattr a key{separator}attr b\n")
        assert (caught.value.line, caught.value.message) == (2, "unknown attribute flag 'attr'")
        schema = parse_schema_file(f"relation R\nattr{separator}a{separator}key\nattr b{separator}\n")
        assert schema.attribute_names() == ("a", "b") and schema.key_names() == ("a",)

    def test_tabs_separate_directives_like_spaces(self):
        tabbed = EMPLOYEE_DOC.replace("relation ", "relation\t").replace("fd ", "fd\t")
        tabbed = tabbed.replace("attr ", "attr\t \t")
        assert "relation\tEmployee" in tabbed and "fd\te_id" in tabbed and "attr\t \te_id" in tabbed
        assert parse_schema_file(tabbed) == parse_schema_file(EMPLOYEE_DOC)


# the name grammar, kept here as the oracle whatever test the parser makes
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def in_grammar(name: str) -> bool:
    return NAME.fullmatch(name) is not None and len(name) <= MAX_NAME_LEN


names = st.one_of(
    st.from_regex(NAME, fullmatch=True),
    st.text(st.one_of(st.sampled_from("aZ_09-#,()\t\n é\uff41\x85"), st.characters()), max_size=6),
    st.sampled_from(["café", "\uff41", "a\uff41", "1abc", "9", "a\n", "_\n", "é"]),
).flatmap(
    # lengths either side of the cap, on the same stems
    lambda stem: st.sampled_from([stem, stem + "x" * (MAX_NAME_LEN - len(stem)), stem + "x" * (MAX_NAME_LEN + 1)])
)


def parser_checks(template: str, name: str) -> bool:
    """False iff the parser rejects ``template`` with ``name`` filled in as
    a syntax error; the dependency templates name an undeclared attribute
    whenever ``name`` is in the grammar, which is found after the grammar."""
    try:
        parse_schema_file(template.format(name=name))
    except SchemaSyntaxError:
        return False
    except UnknownAttribute:
        pass
    return True


class TestNameGrammar:
    TEMPLATES = {
        "relation": "relation {name}\nattr k key\n",
        "attribute": "relation R\nattr {name} key\n",
        "component": "relation R\nattr c composite({name}) key\n",
        "fd-left": "relation R\nattr k key\nfd {name} -> k\n",
        "fd-right": "relation R\nattr k key\nfd k -> {name}\n",
    }

    @settings(max_examples=400, deadline=None)
    @given(names)
    def test_parser_accepts_exactly_the_grammar(self, name):
        # only a name that reads as one token can be written in a file: an
        # empty one, whitespace, line breaks, '#', ',', parentheses and '->'
        # would change how the line splits, not which name it holds
        if not name or any(c.isspace() or c in "#,()" for c in name) or "->" in name or name in ("c", "k"):
            return
        event("in grammar" if in_grammar(name) else "outside grammar")
        for place, template in self.TEMPLATES.items():
            assert parser_checks(template, name) == in_grammar(name), place

    @settings(max_examples=400, deadline=None)
    @given(names)
    def test_add_attribute_accepts_exactly_the_grammar(self, name):
        event("in grammar" if in_grammar(name) else "outside grammar")
        schema_list = SchemaList("R")
        try:
            schema_list.add_attribute(name)
        except InvalidName:
            assert not in_grammar(name)
        else:
            assert in_grammar(name)


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
        first = attributes[0]
        attributes[0] = RawAttribute(first.name, True, first.kind, first.components)
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


# names an fd line may hold: declared ones (one at the length cap), and
# parts outside the grammar or past the cap
FD_NAMES = ("a", "b", "_c1", "Z" * MAX_NAME_LEN)
FD_BAD = ("1a", "a-b", "é", "aé", "a" * (MAX_NAME_LEN + 1), "b" * (MAX_NAME_LEN + 1))
# whitespace a part may carry, three of them Unicode line breaks that do not
# end a line
FD_PADDING = st.text(alphabet=" \t\x0b\x85\u2028", max_size=2)


@st.composite
def fd_sides(draw):
    """One side of an fd line: its text and its parts as they read after
    stripping.  Parts may repeat, be empty or be bad."""
    parts = draw(st.lists(st.sampled_from(("", *FD_NAMES, *FD_BAD)), min_size=1, max_size=4))
    text = ",".join(draw(FD_PADDING) + part + draw(FD_PADDING) for part in parts)
    return text, parts


def fd_line_fault(side: str, text: str, parts: list[str]) -> str | None:
    """The message for one side of an fd line, or None if it is fine: an
    empty part makes the list malformed, else the first bad part is named."""
    if not all(parts):
        return f"malformed {side} list: {text.strip()!r}"
    for part in parts:
        if part not in FD_NAMES:
            if len(part) > MAX_NAME_LEN:
                return f"{side} attribute longer than {MAX_NAME_LEN} characters: {part[:20]!r}..."
            return f"invalid {side} attribute: {part!r}"
    return None


class TestFdLineMessages:
    @settings(max_examples=300, deadline=None)
    @given(fd_sides(), fd_sides())
    def test_fd_line_gives_its_names_once_or_the_first_fault(self, left, right):
        doc = "relation R\n" + "".join(f"attr {name} key\n" for name in FD_NAMES)
        doc += f"fd {left[0]} -> {right[0]}\n"
        fault = fd_line_fault("left-hand", *left) or fd_line_fault("right-hand", *right)
        event("rejected" if fault else "accepted")
        if fault:
            with pytest.raises(SchemaSyntaxError) as raised:
                parse_schema_file(doc)
            assert (raised.value.line, raised.value.message) == (len(FD_NAMES) + 2, fault)
        else:
            lhs, rhs = (tuple(dict.fromkeys(parts)) for _, parts in (left, right))
            assert parse_schema_file(doc).declared_fds == (RawFd(lhs, rhs),)


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
