"""Parser, pretty-printer and DOT export."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basecat as bc
from basecat import dot, dsl
from basecat.corpus import fixtures_dir
from basecat.errors import ParseError, UnresolvedReference

IDENT = st.from_regex(r"[A-Za-z*][A-Za-z0-9_*']{0,6}", fullmatch=True).filter(
    lambda s: s not in dsl.KEYWORDS and not s.startswith("id_")
)


@st.composite
def category_decl_texts(draw):
    """Random syntactically valid category declarations.

    Endpoints and composites are drawn freely: the fuzz targets the
    parse/print round trip, not elaboration.
    """
    objects = draw(st.lists(IDENT, min_size=1, max_size=4, unique=True))
    arrow_names = draw(
        st.lists(
            IDENT.filter(lambda s: s not in objects),
            min_size=0,
            max_size=4,
            unique=True,
        )
    )
    arrows = [
        (n, draw(st.sampled_from(objects)), draw(st.sampled_from(objects)))
        for n in arrow_names
    ]
    compose = []
    if arrow_names:
        for _ in range(draw(st.integers(0, 3))):
            compose.append(tuple(draw(st.sampled_from(arrow_names)) for _ in range(3)))
    text = "category Rand {\n  objects: " + ", ".join(objects)
    if arrows:
        text += "\n  arrows:\n" + "\n".join(
            f"    {n}: {d} -> {c}" for n, d, c in arrows
        )
    if compose:
        text += "\n  compose:\n" + "\n".join(
            f"    {g} . {f} = {h}" for g, f, h in compose
        )
    return text + "\n}\n"


@settings(max_examples=60, deadline=None)
@given(category_decl_texts())
def test_random_declarations_round_trip(text):
    doc = dsl.parse(text, "fuzz.bcat")
    printed = dsl.format_document(doc)
    assert dsl.parse(printed, "fuzz.bcat") == doc
    assert dsl.format_document(dsl.parse(printed, "fuzz.bcat")) == printed


def all_fixture_texts():
    return {
        p.name: p.read_text() for p in sorted(fixtures_dir().glob("*.bcat"))
    }


class TestParse:
    def test_terminal_category(self):
        doc = dsl.parse("category One { objects: * }")
        (decl,) = doc.declarations
        assert decl.name == "One"
        assert decl.objects == ("*",)

    def test_walking_arrow_composites_come_from_unit_laws(self):
        doc = dsl.parse("category Two { objects: X, Y  arrows: f: X -> Y }")
        env = dsl.elaborate(doc)
        two = env.categories["Two"]
        assert len(two.arrows) == 3
        assert two.compose[("id_Y", "f")] == "f"

    def test_missing_rhs_is_a_parse_error(self):
        text = "category C { objects: *  arrows: a: * -> *  compose: a . a = }"
        with pytest.raises(ParseError) as exc:
            dsl.parse(text)
        assert exc.value.span.column <= len(text)

    def test_unresolved_reference(self):
        with pytest.raises(UnresolvedReference):
            dsl.parse("functor F : Missing -> Missing { objects: }")

    def test_duplicate_names_per_kind(self):
        with pytest.raises(ParseError):
            dsl.parse("category A { objects: x }\ncategory A { objects: y }")

    def test_same_name_across_kinds_is_fine(self):
        doc = dsl.parse(
            "category A { objects: x }\n"
            "functor A : A -> A { objects: x |-> x }"
        )
        assert len(doc.declarations) == 2

    def test_comments_and_whitespace_are_insignificant(self):
        a = dsl.parse("category C { objects: p, q }")
        b = dsl.parse("# heading\ncategory   C {\n  objects:\n    p,\n    q\n}\n")
        assert a == b

    def test_pair_ids_parse(self):
        doc = dsl.parse("category C { objects: (X,x1), (Y,y1) arrows: (f,y1): (X,x1) -> (Y,y1) }")
        env = dsl.elaborate(doc)
        assert "(f,y1)" in {a.name for a in env.categories["C"].arrows}


class TestRoundTrip:
    def test_fixture_corpus_round_trips(self):
        for name, text in all_fixture_texts().items():
            doc = dsl.parse(text, name)
            printed = dsl.format_document(doc)
            assert dsl.parse(printed, name) == doc, name

    def test_print_is_idempotent(self):
        for name, text in all_fixture_texts().items():
            doc = dsl.parse(text, name)
            printed = dsl.format_document(doc)
            assert dsl.format_document(dsl.parse(printed, name)) == printed, name

    def test_constructed_category_prints_and_reparses(self, env):
        built = bc.transformation_groupoid(env.actions["z3reg"])
        decl = dsl.decl_of_category(built.cat)
        text = dsl.format_declaration(decl)
        again = dsl.elaborate(dsl.parse(text)).categories[built.cat.name]
        assert bc.same_presentation(again, built.cat)

    def test_constructed_categories_survive_the_text_format(self, corpus):
        # exercises pair ids, op markers, @ tiebreaks and id_(...) references
        sample = []
        for fun, concrete in corpus.concrete_pairs[:5]:
            sample.append(bc.concrete_left_action(fun, concrete).cat)
            sample.append(bc.concrete_right_action(fun, concrete).cat)
        for fun in corpus.functors[:5]:
            sample.append(bc.abstract_right_action(fun).cat)
        for fam in corpus.families[:5]:
            sample.append(bc.grothendieck_strict(fam).cat)
        for cat in sample:
            text = dsl.format_declaration(dsl.decl_of_category(cat))
            again = dsl.elaborate(dsl.parse(text, "round.bcat")).categories[cat.name]
            assert bc.same_presentation(again, cat)

    def test_custom_identity_names_cannot_print(self, one):
        renamed = bc.validate_category(
            "Weird", ["*"], [("e", "*", "*")], {("e", "e"): "e"}, identity={"*": "e"}
        )
        with pytest.raises(ValueError):
            dsl.decl_of_category(renamed)


class TestErrorSpans:
    def test_every_parse_error_span_lies_inside_the_text(self, chunk_deletions):
        for _, corrupted, outcome in chunk_deletions:
            if isinstance(outcome, ParseError):
                corrupted_lines = corrupted.splitlines() or [""]
                assert 1 <= outcome.span.line <= len(corrupted_lines)
                line_text = corrupted_lines[outcome.span.line - 1]
                assert 1 <= outcome.span.column <= max(1, len(line_text) + 1)


class TestDot:
    def test_terminal_hides_identities(self, one):
        out = dot.export_dot(one)
        assert out.count("->") == 0
        assert '"*"' in out

    def test_walking_arrow(self, two):
        out = dot.export_dot(two)
        assert out.count("[label=") == 1
        assert '"X" -> "Y" [label="f"];' in out

    def test_z2_swap_groupoid_two_edges(self, env):
        built = bc.transformation_groupoid(env.actions["z2swap"])
        out = dot.export_dot(built)
        edges = [line for line in out.splitlines() if "[label=" in line]
        assert len(edges) == 2
        assert any('label="(s,0)"' in e for e in edges)

    def test_show_identities(self, two):
        out = dot.export_dot(two, show_identities=True)
        assert out.count("[label=") == 3

    def test_byte_identical_across_runs(self, env):
        built = bc.graph_category(env.functors["chainmap"])
        first = dot.export_dot(built, cluster_by_fibre=True)
        second = dot.export_dot(
            bc.graph_category(env.functors["chainmap"]), cluster_by_fibre=True
        )
        assert first == second
        assert "subgraph cluster_0" in first
