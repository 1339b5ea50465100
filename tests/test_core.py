"""Category and functor validation, structural operations."""

from __future__ import annotations

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basecat as bc
from basecat import errors
from basecat.corpus import build_corpus, group_category

from conftest import (
    all_functors,
    oracle_assoc_violations,
    oracle_compose_functors,
    oracle_op_functor,
    oracle_opposite,
)


class TestValidateCategory:
    def test_terminal(self, one):
        assert len(one.objects) == 1
        assert len(one.arrows) == 1
        assert one.identity["*"] == "id_*"

    def test_walking_arrow_forced_composites(self, two):
        assert len(two.objects) == 2
        assert len(two.arrows) == 3
        assert two.compose[("id_Y", "f")] == "f"
        assert two.compose[("f", "id_X")] == "f"

    def test_associativity_violation_names_a_real_triple(self):
        arrows = [("a", "*", "*"), ("b", "*", "*")]
        table = {
            ("a", "a"): "b",
            ("a", "b"): "a",
            ("b", "a"): "id_*",
            ("b", "b"): "b",
        }
        with pytest.raises(errors.AssociativityViolation) as exc:
            bc.validate_category("Bad", ["*"], arrows, table)
        named = (exc.value.h, exc.value.g, exc.value.f)
        full_arrows = arrows + [("id_*", "*", "*")]
        full_table = dict(table)
        for name, _, _ in full_arrows:
            full_table[("id_*", name)] = name
            full_table[(name, "id_*")] = name
        violations = oracle_assoc_violations(full_arrows, full_table)
        assert violations, "oracle must agree the table is broken"
        assert named in violations

    def test_unit_law_violation(self):
        arrows = [("i", "*", "*"), ("a", "*", "*")]
        table = {
            ("i", "i"): "i",
            ("i", "a"): "a",
            ("a", "i"): "i",
            ("a", "a"): "a",
        }
        with pytest.raises(errors.UnitLawViolation):
            bc.validate_category("Bad", ["*"], arrows, table, identity={"*": "i"})

    def test_missing_composite(self):
        with pytest.raises(errors.MissingComposite) as exc:
            bc.validate_category(
                "Gap",
                ["A", "B", "C"],
                [("f", "A", "B"), ("g", "B", "C")],
            )
        assert (exc.value.g, exc.value.f) == ("g", "f")

    def test_entry_on_noncomposable_pair(self):
        with pytest.raises(errors.DomCodMismatch):
            bc.validate_category(
                "Bad",
                ["X", "Y"],
                [("f", "X", "Y")],
                {("f", "f"): "f"},
            )

    def test_duplicate_ids(self):
        with pytest.raises(errors.DuplicateId):
            bc.validate_category("Dup", ["X", "X"], [])
        with pytest.raises(errors.DuplicateId):
            bc.validate_category(
                "Dup", ["X"], [("f", "X", "X"), ("f", "X", "X")]
            )

    def test_a_repeated_id_is_named_before_the_unknown_end_of_its_arrow(self):
        # The second f both repeats an id and ends at no object; each arrow
        # is checked for a repeated id before its ends.
        with pytest.raises(errors.DuplicateId) as exc:
            bc.validate_category("Dup", ["X"], [("f", "X", "X"), ("f", "X", "Nowhere")])
        assert exc.value.ident == "f"

    def test_a_missing_identity_is_named_by_the_id_given(self):
        # An empty id is no arrow; it is named as given, not as id_a.
        with pytest.raises(errors.UnknownMorphism, match="^no morphism named ''$") as exc:
            bc.validate_category("C", ["a"], [], identity={"a": ""})
        assert exc.value.ident == ""

    def test_composite_with_wrong_endpoints(self):
        with pytest.raises(errors.DomCodMismatch) as exc:
            bc.validate_category(
                "Bad",
                ["A", "B", "C"],
                [("f", "A", "B"), ("g", "B", "C")],
                {("g", "f"): "f"},
            )
        assert (exc.value.g, exc.value.f) == ("g", "f")

    def test_identity_entry_for_an_unknown_object(self):
        # A stray entry would make "f" an identity, and every construction
        # would silently skip it.
        with pytest.raises(errors.UnknownObject) as exc:
            bc.validate_category(
                "Ghostly", ["X"], [("i", "X", "X"), ("f", "X", "X")],
                {("i", "i"): "i", ("f", "f"): "f", ("i", "f"): "f", ("f", "i"): "f"},
                {"X": "i", "Ghost": "f"},
            )
        assert exc.value.ident == "Ghost"


class TestOpposite:
    def test_walking_arrow_reverses(self, two):
        op = bc.opposite(two)
        arrow = op.arrow("f_op")
        assert (arrow.dom, arrow.cod) == ("Y", "X")

    def test_involution_is_literal(self, two, z2, z3):
        for cat in (two, z2, z3):
            assert bc.opposite(bc.opposite(cat)) == cat

    def test_z2_table_is_its_own_transpose(self, z2):
        # oracle: transpose the 2x2 table by hand
        op = bc.opposite(z2)
        transpose = {
            ("s_op", "s_op"): "id_*",
            ("id_*", "s_op"): "s_op",
            ("s_op", "id_*"): "s_op",
            ("id_*", "id_*"): "id_*",
        }
        assert op.compose == transpose

    def test_identities_keep_their_names(self, two):
        assert bc.opposite(two).identity == two.identity

    @pytest.mark.parametrize(
        "objects, arrows, compose, identity, ident",
        [
            # an identity id_X next to a non-identity id_X_op
            (["X"], [("id_X_op", "X", "X")], {("id_X_op", "id_X_op"): "id_X_op"}, None, "id_X"),
            # a non-identity g next to an identity named g_op
            (["X", "Y"], [("g_op", "X", "X"), ("g", "X", "Y")], None, {"X": "g_op"}, "g_op"),
        ],
    )
    def test_op_tag_collision(self, objects, arrows, compose, identity, ident):
        cat = bc.validate_category("C", objects, arrows, compose, identity)
        for opposite in (bc.opposite, oracle_opposite):
            with pytest.raises(errors.DuplicateId) as exc:
                opposite(cat)
            assert exc.value.ident == ident


class TestProduct:
    def test_terminal_times_anything_is_isomorphic(self, one, two):
        prod, _, _ = bc.product_category(one, two)
        assert isinstance(bc.find_isomorphism(prod, two), bc.IsoWitness)

    def test_walking_arrow_squared_counts(self, two):
        prod, p1, p2 = bc.product_category(two, two)
        assert len(prod.objects) == 4
        assert len(prod.arrows) == 9  # 3 x 3 morphism pairs

    def test_z2_squared_is_klein(self, z2):
        prod, _, _ = bc.product_category(z2, z2)
        assert len(prod.objects) == 1
        assert len(prod.arrows) == 4
        # oracle: componentwise table product
        def pname(a, b):
            if a == "id_*" and b == "id_*":
                return "id_(*,*)"
            return f"({a},{b})"

        names = ["id_*", "s"]
        for g1, f1, g2, f2 in iproduct(names, repeat=4):
            got = prod.compose[(pname(g1, g2), pname(f1, f2))]
            want = pname(z2.compose[(g1, f1)], z2.compose[(g2, f2)])
            assert got == want
        assert isinstance(
            bc.find_isomorphism(prod, group_category("K4")), bc.IsoWitness
        )

    def test_projection_universal_property(self, one, two):
        # brute force over all cones from test categories with <= 2 objects
        tests = [
            one,
            two,
            bc.validate_category("D2", ["a", "b"], []),
        ]
        prod, p1, p2 = bc.product_category(two, two)
        for t in tests:
            cones = [
                (q1, q2)
                for q1 in all_functors(t, two)
                for q2 in all_functors(t, two)
            ]
            mediators = list(all_functors(t, prod))
            for q1, q2 in cones:
                matching = [
                    h
                    for h in mediators
                    if bc.compose_functors(p1, h).obj_map == q1.obj_map
                    and bc.compose_functors(p1, h).mor_map == q1.mor_map
                    and bc.compose_functors(p2, h).obj_map == q2.obj_map
                    and bc.compose_functors(p2, h).mor_map == q2.mor_map
                ]
                assert len(matching) == 1


class TestCoproduct:
    def test_single_summand_relabels(self, two):
        total, (inj,) = bc.coproduct_categories([two])
        assert len(total.objects) == 2
        assert len(total.arrows) == 3
        assert isinstance(bc.find_isomorphism(total, two), bc.IsoWitness)

    def test_two_points_make_discrete_pair(self, one):
        total, _ = bc.coproduct_categories([one, one])
        assert len(total.objects) == 2
        assert len(total.arrows) == 2
        assert all(total.is_identity(a.name) for a in total.arrows)

    def test_counts_add_and_nothing_crosses(self, two, z2):
        total, injections = bc.coproduct_categories([two, z2])
        assert len(total.objects) == 3
        assert len(total.arrows) == 5
        left_objects = set(injections[0].obj_map.values())
        for a in total.arrows:
            assert (a.dom in left_objects) == (a.cod in left_objects)


class TestFunctors:
    def test_identity_functor_validates(self, two):
        fun = bc.identity_functor(two)
        assert fun.obj_map == {"X": "X", "Y": "Y"}

    def test_collapse_to_terminal(self, two, one):
        fun = bc.validate_functor(
            "c", two, one, {"X": "*", "Y": "*"}, {"f": "id_*"}
        )
        assert fun.mor("f") == "id_*"

    def test_constant_functor_on_z2_is_fine(self, z2):
        fun = bc.validate_functor(
            "k", z2, z2, {"*": "*"}, {"s": "id_*"}
        )
        assert fun.mor("s") == "id_*"

    def test_identity_must_map_to_identity(self, z2):
        with pytest.raises(errors.IdentityNotPreserved):
            bc.validate_functor("bad", z2, z2, {"*": "*"}, {"id_*": "s", "s": "s"})

    def test_composition_must_be_preserved(self, z3):
        with pytest.raises(errors.CompositionNotPreserved):
            bc.validate_functor(
                "bad", z3, z3, {"*": "*"}, {"r1": "r1", "r2": "id_*"}
            )

    def test_unmapped_morphism(self, two):
        with pytest.raises(errors.UnmappedMorphism):
            bc.validate_functor("bad", two, two, {"X": "X", "Y": "Y"}, {})

    def test_stray_map_keys_are_rejected(self, two):
        with pytest.raises(errors.UnknownObject):
            bc.validate_functor("bad", two, two, {"X": "X", "Y": "Y", "Z": "X"}, {"f": "f"})
        with pytest.raises(errors.UnknownMorphism):
            bc.validate_functor("bad", two, two, {"X": "X", "Y": "Y"}, {"f": "f", "g": "f"})

    def test_compose_functors_identity_laws(self, two, z2):
        fun = bc.validate_functor(
            "k", two, z2, {"X": "*", "Y": "*"}, {"f": "s"}
        )
        left = bc.compose_functors(bc.identity_functor(z2), fun)
        right = bc.compose_functors(fun, bc.identity_functor(two))
        for other in (left, right):
            assert other.obj_map == fun.obj_map
            assert other.mor_map == fun.mor_map

    def test_compose_mismatch(self, two, z2):
        with pytest.raises(errors.SourceTargetMismatch):
            bc.compose_functors(bc.identity_functor(two), bc.identity_functor(z2))

    def test_collapse_absorbs_endofunctors(self, two, one):
        collapse = bc.validate_functor(
            "c", two, one, {"X": "*", "Y": "*"}, {"f": "id_*"}
        )
        for endo in all_functors(two, two):
            composite = bc.compose_functors(collapse, endo)
            assert composite.obj_map == collapse.obj_map
            assert composite.mor_map == collapse.mor_map


def test_validated_corpus_satisfies_the_laws_by_oracle(corpus):
    # independent re-check: associativity and unit laws on raw table data
    for cat in list(corpus.env.categories.values()):
        raw_arrows = [(a.name, a.dom, a.cod) for a in cat.arrows]
        assert not oracle_assoc_violations(raw_arrows, cat.compose)
        for a in cat.arrows:
            assert cat.compose[(cat.identity[a.cod], a.name)] == a.name
            assert cat.compose[(a.name, cat.identity[a.dom])] == a.name


class TestNormalize:
    def test_strip_marks_at_boundaries_only(self):
        assert bc.strip_op_marks("f_op") == "f"
        assert bc.strip_op_marks("(f_op,id_FY)_op") == "(f,id_FY)"
        assert bc.strip_op_marks("f_opt") == "f_opt"

    def test_normalize_erases_double_op(self, two):
        assert bc.same_presentation(bc.opposite(bc.opposite(two)), two)

    def test_rename(self, two):
        assert bc.normalize(two, name="other").name == "other"


@st.composite
def corpus_functor_triples(draw):
    """Composable triples built from small endofunctor monoids."""
    cat = draw(st.sampled_from(["Z2", "Z3", "Z4", "K4"]))
    grp = group_category(cat)
    funs = list(all_functors(grp, grp))
    f = draw(st.sampled_from(funs))
    g = draw(st.sampled_from(funs))
    h = draw(st.sampled_from(funs))
    return h, g, f


@settings(max_examples=25, deadline=None)
@given(corpus_functor_triples())
def test_compose_functors_associative(triple):
    h, g, f = triple
    left = bc.compose_functors(h, bc.compose_functors(g, f))
    right = bc.compose_functors(bc.compose_functors(h, g), f)
    assert left.obj_map == right.obj_map
    assert left.mor_map == right.mor_map


# The direct structural operations against the validating ones they
# replaced, on everything one corpus reaches.


def _reachable(seed: int) -> tuple[list[bc.FinCat], list[bc.FinFunctor], list[tuple]]:
    """Env categories, functors with their sources and targets, and every
    construction's category and projection; plus composable functor pairs:
    each functor with the identities at its ends, each graph projection
    followed by its functor, and each pair of pull functors of a family
    that its strictness check composes."""
    corpus = build_corpus(seed=seed)
    functors = list(corpus.functors) + [f for f, _ in corpus.concrete_pairs]
    built = []
    pairs = []
    for fun in corpus.functors:
        graph = bc.graph_category(fun)
        built += [graph, bc.abstract_left_action(fun), bc.abstract_right_action(fun)]
        pairs.append((fun, graph.projection))
    for fun, concrete in corpus.concrete_pairs:
        built += [
            bc.concrete_graph_category(fun, concrete),
            bc.concrete_left_action(fun, concrete),
            bc.concrete_right_action(fun, concrete),
        ]
    built += [bc.grothendieck_strict(fam) for fam in corpus.families]
    built += [bc.transformation_groupoid(act) for act in corpus.actions]
    for fam in corpus.families:
        for (v, u), _ in fam.base.compose.items():
            pairs.append((fam.pull[u], fam.pull[v]))
    cats = list(corpus.env.categories.values())
    cats += [c for f in functors for c in (f.source, f.target)]
    cats += [b.cat for b in built]
    functors += [b.projection for b in built]
    for f in functors:
        pairs += [(f, bc.identity_functor(f.source)), (bc.identity_functor(f.target), f)]
    unique = list({id(c): c for c in cats}.values())
    return unique, functors, pairs


def _orders(value) -> tuple:
    """Every mapping of a category or functor, item by item in order."""
    if isinstance(value, bc.FinFunctor):
        return (
            list(value.obj_map.items()),
            list(value.mor_map.items()),
            _orders(value.source),
            _orders(value.target),
        )
    return list(value.identity.items()), list(value.compose.items())


def _assert_same(got, expected) -> None:
    assert got == expected
    assert _orders(got) == _orders(expected)


@pytest.mark.parametrize("seed", range(10))
def test_structural_operations_match_the_validating_oracles(seed):
    cats, functors, pairs = _reachable(seed)
    for cat in cats:
        for c in (cat, oracle_opposite(cat)):
            _assert_same(bc.opposite(c), oracle_opposite(c))
    for fun in functors:
        for f in (fun, oracle_op_functor(fun)):
            _assert_same(bc.op_functor(f), oracle_op_functor(f))
    for g, f in pairs:
        _assert_same(bc.compose_functors(g, f), oracle_compose_functors(g, f))
        g_op, f_op = oracle_op_functor(g), oracle_op_functor(f)
        _assert_same(bc.compose_functors(g_op, f_op), oracle_compose_functors(g_op, f_op))
