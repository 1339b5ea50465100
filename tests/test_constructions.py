"""The categories built from a functor, checked against enumeration."""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

import basecat as bc
from basecat import constructions, errors
from basecat.corpus import build_corpus, constant_family, group_category
from basecat.dot import export_dot
from basecat.dsl import decl_of_category, format_declaration
from basecat.core import identity_id, invert
from basecat.report import FAIL, PASS, SKIP
from basecat.sets import FinFn, FinSetObj
from basecat.suites import suite_main, suite_prop4

from conftest import built_form, oracle_transformation_groupoid
from test_assembly import regular_action
from test_indexes import chain


@pytest.fixture
def id_two(two):
    return bc.identity_functor(two)


@pytest.fixture
def swap_action(z2):
    bits = FinSetObj("bits", ("0", "1"))
    swap = FinFn(bits, bits, {"0": "1", "1": "0"})
    return bc.validate_group_action(z2, bits, {"s": swap})


@pytest.fixture
def walking_concrete(two):
    cx = FinSetObj("cx", ("x1", "x2"))
    cy = FinSetObj("cy", ("y1",))
    const = FinFn(cx, cy, {"x1": "y1", "x2": "y1"})
    return bc.validate_concrete(two, {"X": cx, "Y": cy}, {"f": const})


@pytest.fixture
def point_concrete(two):
    """``walking_concrete`` without the element x2."""
    cx, cy = FinSetObj("cx", ("x1",)), FinSetObj("cy", ("y1",))
    return bc.validate_concrete(two, {"X": cx, "Y": cy}, {"f": FinFn(cx, cy, {"x1": "y1"})})


@pytest.fixture
def z2_swap_concrete(z2):
    bits = FinSetObj("bits", ("0", "1"))
    swap = FinFn(bits, bits, {"0": "1", "1": "0"})
    return bc.validate_concrete(z2, {"*": bits}, {"s": swap})


class TestGraph:
    def test_identity_on_walking_arrow(self, id_two):
        built = bc.graph_category(id_two)
        assert built.cat.objects == ("(X,X)", "(Y,Y)")
        assert len(built.cat.arrows) == 3

    def test_collapse_pairs_with_the_point(self, two, one):
        collapse = bc.validate_functor(
            "c", two, one, {"X": "*", "Y": "*"}, {"f": "id_*"}
        )
        built = bc.graph_category(collapse)
        names = {a.name for a in built.cat.arrows}
        assert names == {"id_(X,*)", "id_(Y,*)", "(f,id_*)"}

    def test_morphism_count_always_matches_source(self, corpus):
        for fun in corpus.functors:
            built = bc.graph_category(fun)
            assert len(built.cat.arrows) == len(fun.source.arrows)
            assert len(built.cat.objects) == len(fun.source.objects)

    def test_projection_is_bijective(self, corpus):
        for fun in corpus.functors[:10]:
            built = bc.graph_category(fun)
            images = [built.projection.mor(a.name) for a in built.cat.arrows]
            assert sorted(images) == sorted(a.name for a in fun.source.arrows)


class TestConcreteGraph:
    def test_z2_swap_counts(self, z2, z2_swap_concrete):
        built = bc.concrete_graph_category(bc.identity_functor(z2), z2_swap_concrete)
        assert len(built.cat.objects) == 2
        assert len(built.cat.arrows) == 4

    def test_empty_carriers_give_the_empty_category(self, z2):
        empty = FinSetObj("void", ())
        structure = bc.validate_concrete(
            z2, {"*": empty}, {"s": FinFn(empty, empty, {})}, allow_unfaithful=True
        )
        built = bc.concrete_graph_category(bc.identity_functor(z2), structure)
        assert built.cat.objects == ()
        assert built.cat.arrows == ()

    def test_walking_arrow_element_count(self, id_two, walking_concrete):
        built = bc.concrete_graph_category(id_two, walking_concrete)
        assert len(built.cat.objects) == 3
        assert len(built.cat.arrows) == 5  # 2 + 1 identities, 2 over f
        over_f = [
            a.name for a in built.cat.arrows
            if built.projection.mor(a.name) == "f"
        ]
        assert over_f == ["(f,f|x1)", "(f,f|x2)"]

    def test_count_formula(self, corpus):
        for fun, concrete in corpus.concrete_pairs:
            built = bc.concrete_graph_category(fun, concrete)
            expected = sum(
                len(concrete.elements(fun.obj(a.dom)))
                for a in fun.source.arrows
            )
            assert len(built.cat.arrows) == expected


class TestTrivialCategorify:
    def test_terminal(self, one):
        triv = bc.trivial_categorify(one)
        assert set(triv.fibres) == {"*"}
        assert triv.fibres["*"].objects == ("*",)

    def test_walking_arrow(self, two):
        triv = bc.trivial_categorify(two)
        fun = triv.functors["f"]
        assert fun.obj_map == {"X": "Y"}

    def test_z2_functors_coincide(self, z2):
        triv = bc.trivial_categorify(z2)
        assert triv.functors["s"].obj_map == triv.functors["id_*"].obj_map
        assert triv.functors["s"].mor_map == triv.functors["id_*"].mor_map


class TestGrothendieck:
    def test_constant_family_total_is_the_base(self, two, one):
        fam = bc.validate_family(
            two,
            {"X": one, "Y": one},
            {"f": bc.identity_functor(one)},
        )
        built = bc.grothendieck_strict(fam)
        assert len(built.cat.objects) == len(two.objects)
        assert len(built.cat.arrows) == len(two.arrows)
        assert isinstance(bc.find_isomorphism(built.cat, two), bc.IsoWitness)

    def test_trivially_categorified_family_gives_the_right_action(self, env):
        for name in ("idTwo", "chainmap", "z2inS3", "kleinToZ2"):
            fun = env.functors[name]
            total = bc.grothendieck_strict(bc.family_from_functor(fun))
            right = bc.abstract_right_action(fun)
            assert bc.same_presentation(total.cat, right.cat)
            vertical_parts = [
                total.arrow_labels[a.name][1]
                for a in total.cat.arrows
                if not total.cat.is_identity(a.name)
            ]
            assert all(part.startswith("id_") for part in vertical_parts)

    def test_two_point_fibre_collapse_counts(self):
        base = bc.validate_category("B", ["J", "I"], [("u", "J", "I")])
        fib_i = bc.validate_category("FI", ["a1", "a2"], [])
        fib_j = bc.validate_category("FJ", ["b"], [])
        collapse = bc.validate_functor(
            "c", fib_i, fib_j, {"a1": "b", "a2": "b"}, {}
        )
        fam = bc.validate_family(base, {"I": fib_i, "J": fib_j}, {"u": collapse})
        built = bc.grothendieck_strict(fam)
        assert len(built.cat.objects) == 3
        assert len(built.cat.arrows) == 5

    def test_not_strict_is_rejected(self, two, one):
        disc2 = bc.validate_category("D2", ["a", "b"], [])
        swap = bc.validate_functor("sw", disc2, disc2, {"a": "b", "b": "a"}, {})
        z2 = group_category("Z2")
        with pytest.raises(errors.NotStrict):
            bc.validate_family(z2, {"*": disc2}, {"s": swap, "id_*": swap})

    def test_canonical_cleavage_is_recorded(self, corpus):
        fam = corpus.families[0]
        built = bc.grothendieck_strict(fam)
        assert built.cleavage is not None
        for (u, y), lift in built.cleavage.lift.items():
            assert built.projection.mor(lift) == u
            assert built.cat.cod(lift) == y


class TestAbstractActions:
    def test_terminal_fixed_point(self, one):
        fun = bc.identity_functor(one)
        for construct in (bc.abstract_left_action, bc.abstract_right_action):
            built = construct(fun)
            assert len(built.cat.objects) == 1
            assert len(built.cat.arrows) == 1

    def test_right_action_on_walking_arrow(self, id_two):
        built = bc.abstract_right_action(id_two)
        (arrow,) = [a for a in built.cat.arrows if not built.cat.is_identity(a.name)]
        assert arrow.name == "(f_op,id_Y)"
        assert (arrow.dom, arrow.cod) == ("(Y,Y)", "(X,X)")

    def test_counts_preserved(self, corpus):
        for fun in corpus.functors:
            assert len(bc.abstract_right_action(fun).cat.arrows) == len(
                fun.source.arrows
            )

    def test_left_action_isomorphic_to_source(self, corpus):
        for fun in corpus.functors[:8]:
            built = bc.abstract_left_action(fun)
            assert isinstance(
                bc.find_isomorphism(built.cat, fun.source), bc.IsoWitness
            )

    def test_duality_byte_for_byte(self, corpus):
        from basecat.dsl import decl_of_category, format_declaration

        for fun in corpus.functors:
            lhs = format_declaration(
                decl_of_category(
                    bc.normalize(bc.opposite(bc.abstract_right_action(fun).cat), name="cmp")
                )
            )
            rhs = format_declaration(
                decl_of_category(bc.normalize(bc.abstract_left_action(fun).cat, name="cmp"))
            )
            assert lhs == rhs


class TestConcreteActions:
    def test_z2_swap_left(self, z2, z2_swap_concrete):
        built = bc.concrete_left_action(bc.identity_functor(z2), z2_swap_concrete)
        assert set(built.cat.objects) == {"(*,0)", "(*,1)"}
        names = {a.name for a in built.cat.arrows}
        assert names == {"id_(*,0)", "id_(*,1)", "(s,1)", "(s,0)"}
        assert built.cat.dom("(s,1)") == "(*,0)"

    def test_z2_swap_right_everything_invertible(self, z2, z2_swap_concrete):
        built = bc.concrete_right_action(bc.identity_functor(z2), z2_swap_concrete)
        assert len(built.cat.objects) == 2
        assert len(built.cat.arrows) == 4
        assert built.cat.is_groupoid()

    def test_trivial_group_gives_discrete_fibres(self, one):
        bits = FinSetObj("bits", ("0", "1"))
        structure = bc.validate_concrete(
            one, {"*": bits}, {}, allow_unfaithful=True
        )
        built = bc.concrete_left_action(bc.identity_functor(one), structure)
        assert len(built.cat.objects) == 2
        assert all(built.cat.is_identity(a.name) for a in built.cat.arrows)

    def test_duality_byte_for_byte(self, corpus):
        from basecat.dsl import decl_of_category, format_declaration

        for fun, concrete in corpus.concrete_pairs:
            lhs = format_declaration(
                decl_of_category(
                    bc.normalize(
                        bc.opposite(bc.concrete_right_action(fun, concrete).cat),
                        name="cmp",
                    )
                )
            )
            rhs = format_declaration(
                decl_of_category(
                    bc.normalize(bc.concrete_left_action(fun, concrete).cat, name="cmp")
                )
            )
            assert lhs == rhs

    def test_right_action_agrees_with_discrete_grothendieck(self, corpus):
        # Bridge: in the total category of the discrete family the vertical
        # components are identities id_y; the direct construction labels the
        # same morphism with the element y itself.
        for fun, concrete in corpus.concrete_pairs[:6]:
            total = bc.grothendieck_strict(bc.discrete_family(fun, concrete))
            renames = {}
            for a in total.cat.arrows:
                if total.cat.is_identity(a.name):
                    renames[a.name] = a.name
                    continue
                u, v = total.arrow_labels[a.name]
                assert v.startswith("id_")
                renames[a.name] = a.name.replace(f",{v}", f",{v[3:]}", 1)
            renamed = bc.validate_category(
                total.cat.name,
                total.cat.objects,
                [(renames[a.name], a.dom, a.cod) for a in total.cat.arrows],
                {
                    (renames[g], renames[f]): renames[h]
                    for (g, f), h in total.cat.compose.items()
                },
                {o: renames[m] for o, m in total.cat.identity.items()},
            )
            direct = bc.concrete_right_action(fun, concrete)
            assert bc.same_presentation(renamed, direct.cat)


class TestSelfDual:
    def test_z2_concrete_right_action(self, z2, z2_swap_concrete):
        witness = bc.inverse_witness(z2)
        fbar = bc.contravariant_via_witness(bc.identity_functor(z2), witness)
        built = bc.right_action_selfdual(fbar, witness, concrete=z2_swap_concrete)
        assert len(built.cat.objects) == 2
        assert len(built.cat.arrows) == 4
        assert built.cat.is_groupoid()

    def test_terminal_stays_terminal(self, one):
        witness = bc.inverse_witness(one)
        fbar = bc.contravariant_via_witness(bc.identity_functor(one), witness)
        built = bc.right_action_selfdual(fbar, witness)
        assert len(built.cat.objects) == 1
        assert len(built.cat.arrows) == 1

    def test_abstract_output_isomorphic_to_left_action(self, env):
        for name in ("Z2", "Z3", "Klein", "S3"):
            grp = env.categories[name]
            fun = bc.identity_functor(grp)
            witness = bc.inverse_witness(grp)
            fbar = bc.contravariant_via_witness(fun, witness)
            built = bc.right_action_selfdual(fbar, witness)
            left = bc.abstract_left_action(fun)
            assert isinstance(
                bc.find_isomorphism(built.cat, left.cat), bc.IsoWitness
            )

    def test_bad_witness_is_rejected(self, two):
        forward = bc.identity_functor(two)
        with pytest.raises(errors.NoSelfDualWitness):
            bc.right_action_selfdual(
                forward, bc.IsoWitness(forward, forward)
            )

    def test_a_concrete_structure_over_another_category_is_rejected(self, z3, z2_swap_concrete):
        witness = bc.inverse_witness(z3)
        fbar = bc.contravariant_via_witness(bc.identity_functor(z3), witness)
        with pytest.raises(errors.SourceTargetMismatch, match="not over the functor's target"):
            bc.right_action_selfdual(fbar, witness, concrete=z2_swap_concrete)

    def test_nongroupoid_selfdual_base_builds_but_differs_from_left(self):
        # The idempotent commutative monoid {1, a} is self-dual without
        # being a groupoid. With a non-injective action the element-level
        # right action over the base itself is a well-formed category, but
        # genuinely not isomorphic to the left action: this is why the
        # corpus exercises the directly indexed leg on groupoid bases only.
        mon = bc.validate_category(
            "IdemMon", ["*"], [("a", "*", "*")], {("a", "a"): "a"}
        )
        op = bc.opposite(mon)
        forward = bc.validate_functor(
            "sd", mon, op, {"*": "*"}, {"a": "a_op"}
        )
        backward = bc.validate_functor(
            "sd_back", op, mon, {"*": "*"}, {"a_op": "a"}
        )
        witness = bc.validate_witness(forward, backward)
        bits = FinSetObj("bits", ("0", "1"))
        const = FinFn(bits, bits, {"0": "0", "1": "0"})
        structure = bc.validate_concrete(mon, {"*": bits}, {"a": const})
        fun = bc.identity_functor(mon)
        fbar = bc.contravariant_via_witness(fun, witness)
        built = bc.right_action_selfdual(fbar, witness, concrete=structure)
        assert len(built.cat.objects) == 2
        assert len(built.cat.arrows) == 4
        names = {a.name for a in built.cat.arrows}
        assert "(a,0@0)" in names and "(a,0@1)" in names  # tiebroken labels
        left = bc.concrete_left_action(fun, structure)
        assert isinstance(
            bc.find_isomorphism(built.cat, left.cat), bc.iso.NotIsomorphic
        )


class TestTransformationGroupoid:
    def test_z2_swap_connected(self, swap_action):
        built = bc.transformation_groupoid(swap_action)
        assert len(built.cat.objects) == 2
        assert len(built.cat.arrows) == 4
        assert built.cat.hom("0", "1") == ("(s,0)",)

    def test_trivial_group_gives_discrete(self, one):
        carrier = FinSetObj("three", ("p", "q", "r"))
        act = bc.validate_group_action(one, carrier, {})
        built = bc.transformation_groupoid(act)
        assert len(built.cat.objects) == 3
        assert all(built.cat.is_identity(a.name) for a in built.cat.arrows)

    def test_trivial_action_gives_disjoint_automorphisms(self, z2):
        bits = FinSetObj("bits", ("0", "1"))
        ident = FinFn(bits, bits, {"0": "0", "1": "1"})
        act = bc.validate_group_action(z2, bits, {"s": ident})
        built = bc.transformation_groupoid(act)
        assert len(built.cat.arrows) == 4
        assert built.cat.hom("0", "1") == ()
        assert built.cat.hom("1", "0") == ()

    def test_every_morphism_invertible(self, corpus):
        for act in corpus.actions:
            built = bc.transformation_groupoid(act)
            assert built.cat.is_groupoid()
            assert len(built.cat.arrows) == len(act.group.arrows) * len(
                act.carrier.elements
            )

    def test_matches_its_own_builder_but_for_labels_and_lifts(self, one, z2):
        # As a category of elements the groupoid keeps the ids, orders and
        # projection of the builder it replaced; its provenance
        # labels gain the group's object, and it carries the cleavages
        # that the lift scans find.
        acts = [act for seed in range(10) for act in build_corpus(seed=seed).actions]
        acts += [regular_action(n) for n in (8, 12, 16)]
        acts.append(bc.validate_group_action(one, FinSetObj("three", ("p", "q", "r")), {}))
        bits = FinSetObj("bits", ("0", "1"))
        acts.append(bc.validate_group_action(z2, bits, {"s": FinFn(bits, bits, {"0": "0", "1": "1"})}))
        for act in acts:
            built, old = bc.transformation_groupoid(act), oracle_transformation_groupoid(act)
            cat, proj, provenance, (objects, arrows), _ = built_form(built)
            *same, (old_objects, old_arrows), old_lifts = built_form(old)
            assert [cat, proj, provenance] == same
            assert objects == [(x, (act.star, *label)) for x, label in old_objects]
            identities, id_star = set(built.cat.identity.values()), identity_id(act.star)
            assert arrows == [
                (m, (id_star, *label) if m in identities else label) for m, label in old_arrows
            ]
            assert old_lifts == [None, None]
            p = built.over()
            assert dict(built.cleavage.lift) == dict(bc.check_fibration(p).lift)
            assert dict(built.opcleavage.lift) == dict(bc.check_opfibration(p).lift)
            assert bc.check_split(p, built.cleavage) is True
            assert bc.check_split_op(p, built.opcleavage) is True


def test_grothendieck_builds_one_row_table_per_fibre_category(monkeypatch):
    # Constant families over the ladder's chains: each total builds the
    # rows of its base and of its one fibre category, not one per object.
    calls = [0]
    rows = constructions._rows

    def counting(arrows, table):
        calls[0] += 1
        return rows(arrows, table)

    families = [constant_family(chain(n), chain(m)) for n, m in ((6, 3), (8, 4), (10, 4))]
    monkeypatch.setattr(constructions, "_rows", counting)
    for fam in families:
        bc.grothendieck_strict(fam)
    assert calls[0] == 6


class TestProp4:
    def test_z2_swap(self, swap_action):
        witness = bc.verify_prop4(swap_action)
        assert len(witness.forward.source.arrows) == 4
        assert len(witness.forward.target.arrows) == 4

    def test_trivial_group_on_a_point(self, one):
        carrier = FinSetObj("pt", ("x",))
        act = bc.validate_group_action(one, carrier, {})
        witness = bc.verify_prop4(act)
        assert len(witness.forward.source.objects) == 1

    def test_z3_translation(self, z3):
        elems = FinSetObj("g", ("g0", "g1", "g2"))
        rot1 = FinFn(elems, elems, {"g0": "g1", "g1": "g2", "g2": "g0"})
        rot2 = FinFn(elems, elems, {"g0": "g2", "g1": "g0", "g2": "g1"})
        act = bc.validate_group_action(z3, elems, {"r1": rot1, "r2": rot2})
        witness = bc.verify_prop4(act)
        assert len(witness.forward.source.objects) == 3
        assert len(witness.forward.source.arrows) == 9


class TestMainProp:
    def test_terminal_with_singleton_carrier(self, one):
        pt = FinSetObj("pt", ("e",))
        structure = bc.validate_concrete(one, {"*": pt}, {})
        report = bc.verify_main_prop(
            bc.identity_functor(one),
            concrete=structure,
            self_dual=bc.inverse_witness(one),
        )
        assert report.ok
        assert any(c.status == SKIP for c in report.claims)  # singleton carrier

    def test_z2_swap_all_legs(self, z2, z2_swap_concrete):
        report = bc.verify_main_prop(
            bc.identity_functor(z2),
            concrete=z2_swap_concrete,
            self_dual=bc.inverse_witness(z2),
        )
        assert report.ok
        negative = [c for c in report.claims if c.claim_id == "concrete-not-base"]
        assert negative and negative[0].status == PASS

    def test_a_base_leg_validates_the_projection_it_inverts(self):
        # f and g are parallel and h∘f = k, h∘g = l, so a projection that
        # swaps the images of f and g stays bijective but breaks h∘f.
        arrows = [("f", "X", "Y"), ("g", "X", "Y"), ("h", "Y", "Z"), ("k", "X", "Z"), ("l", "X", "Z")]
        cat = bc.validate_category("Par", ["X", "Y", "Z"], arrows, {("h", "f"): "k", ("h", "g"): "l"})
        fun = bc.identity_functor(cat)
        graph = bc.graph_category(fun)
        p = graph.projection
        swap = {"f": "g", "g": "f"}
        mor_map = {m: swap.get(u, u) for m, u in p.mor_map.items()}
        swapped = bc.FinFunctor(p.name, p.source, p.target, p.obj_map, mor_map)
        invert(swapped, "back")  # bijective
        with pytest.raises(errors.CompositionNotPreserved) as raised:
            bc.validate_functor(p.name, p.source, p.target, p.obj_map, mor_map)

        def build(construction, *args):
            if construction is bc.graph_category:
                return replace(graph, projection=swapped)
            return construction(*args)

        claims = {c.claim_id: c for c in bc.verify_main_prop(fun, build=build).claims}
        assert (claims["base~graph"].status, claims["base~graph"].detail) == (FAIL, str(raised.value))
        assert (claims["base~left-action"].status, claims["base~left-action"].detail) == (
            PASS,
            "witness validated",
        )

    def test_walking_arrow_concrete_trio(self, id_two, walking_concrete):
        report = bc.verify_main_prop(id_two, concrete=walking_concrete)
        assert report.ok
        built = bc.concrete_graph_category(id_two, walking_concrete)
        assert len(built.cat.objects) == 3
        assert len(built.cat.arrows) == 5

    def test_constructions_over_different_carriers_have_no_witness(self, id_two, walking_concrete, point_concrete):
        left = bc.concrete_left_action(id_two, walking_concrete)
        small = bc.concrete_left_action(id_two, point_concrete)
        with pytest.raises(KeyError) as raised:  # (X,x2) has no match
            constructions._witness_by_projection(left, small, "w")
        assert raised.value.args == (("id_X", "(X,x2)"),)
        with pytest.raises(errors.ValidationError):  # (X,x2) is no image
            constructions._witness_by_projection(small, left, "w")

    def test_a_trio_leg_without_a_witness_fails(self, monkeypatch, id_two, walking_concrete, point_concrete):
        left_action = constructions.concrete_left_action
        monkeypatch.setattr(constructions, "concrete_left_action", lambda fun, _: left_action(fun, point_concrete))
        claims = {c.claim_id: c for c in bc.verify_main_prop(id_two, concrete=walking_concrete).claims}
        assert (claims["cgraph~cleft"].status, claims["cgraph~cleft"].detail) == (
            FAIL,
            "no witness: ('id_X', '(X,x2)')",
        )


def test_trio_and_prop4_witnesses_are_pinned(monkeypatch):
    # The forward maps of every witness the concrete legs of the main
    # proposition and prop4 build over corpus seeds 0-9, hashed. They are
    # the ones the constructions' (base arrow, fibre element) keys gave
    # before arrows were matched by their projections.
    match, seen = constructions._witness_by_projection, []

    def recorded(*args):
        witness = match(*args)
        forward = witness.forward
        seen.append(repr((forward.name, [*forward.obj_map.items()], [*forward.mor_map.items()])))
        return witness

    monkeypatch.setattr(constructions, "_witness_by_projection", recorded)
    for seed in range(10):
        corpus = build_corpus(seed=seed)
        suite_main(corpus)
        suite_prop4(corpus)
    assert (len(seen), hashlib.sha256("\n".join(seen).encode()).hexdigest()) == (
        472,
        "92e4198bbd54794097125a9ebbd3f9db16e787525f5b3c77c4fee73daefbc00d",
    )


def _every_construction(corpus):
    """Each construction the package offers, over one corpus."""
    for fun in corpus.functors:
        yield bc.graph_category(fun)
        yield bc.abstract_left_action(fun)
        yield bc.abstract_right_action(fun)
        witness = corpus.selfdual_witness(fun.source)
        if witness is not None:
            fbar = bc.contravariant_via_witness(fun, witness)
            yield bc.right_action_selfdual(fbar, witness)
    for fun, concrete in corpus.concrete_pairs:
        yield bc.concrete_graph_category(fun, concrete)
        yield bc.concrete_left_action(fun, concrete)
        yield bc.concrete_right_action(fun, concrete)
        witness = corpus.selfdual_witness(fun.source)
        if witness is not None:
            fbar = bc.contravariant_via_witness(fun, witness)
            yield bc.right_action_selfdual(fbar, witness, concrete=concrete)
    for act in corpus.actions:
        yield bc.transformation_groupoid(act)
    for fam in corpus.families:
        yield bc.grothendieck_strict(fam)


def _fingerprint(built) -> str:
    """Every observable field of a construction, in presentation order."""
    cat, proj = built.cat, built.projection
    lifts = [None if c is None else list(c.lift.items()) for c in (built.cleavage, built.opcleavage)]
    return repr(
        (
            cat.name,
            cat.objects,
            cat.arrows,
            list(cat.identity.items()),
            list(cat.compose.items()),
            proj.name,
            list(proj.obj_map.items()),
            list(proj.mor_map.items()),
            built.provenance,
            list(built.object_labels.items()),
            list(built.arrow_labels.items()),
            lifts,
            export_dot(built, True, True),
            format_declaration(decl_of_category(cat)),
        )
    )


def test_constructions_are_pinned_byte_for_byte():
    # Ids, arrow order, labels, cleavages and printed forms of every
    # construction over corpus seeds 0-9, hashed once per provenance; any
    # change to a builder's output changes the digest of the construction
    # it moved.
    builds, digests = Counter(), defaultdict(hashlib.sha256)
    tiebroken = 0
    for seed in range(10):
        for built in _every_construction(build_corpus(seed=seed)):
            digests[built.provenance].update(_fingerprint(built).encode())
            builds[built.provenance] += 1
            tiebroken += sum("@" in a.name for a in built.cat.arrows)
    assert tiebroken > 0
    assert {p: (builds[p], d.hexdigest()) for p, d in digests.items()} == {
        "graph": (310, "7fbb0657705f170757c710522457b0403e1cea12449f22b0db899e40f2aac651"),
        "left-action": (310, "82152c32b2d22b44dcfabba5e4a427d20fd4d11e63d090c91f69968ddc5cf260"),
        "right-action": (310, "db5ce5f9972e5ab44cf482ea3dda17edc4659cab8340d67781a3ebccdc0eda31"),
        "selfdual-right-action": (187, "4896f461d3aa86dcecb1684363f172837e5c7ec4813a37c1bdb89c36ce5b74d5"),
        "concrete-graph": (190, "a7ffee6417ebe996dcfc5e543e8087dcee197150d6165a4bfad6d25793d290ad"),
        "concrete-left-action": (190, "7d1504d78471dd9197203f4a8280d76f85ddf81709cabff66ba2ae67d2dfeff5"),
        "concrete-right-action": (190, "c32ce85fa9279fffa69067a75ed5f6f3691898b6153530ca90ebcb7ea56ace6d"),
        "selfdual-concrete-right-action": (
            96,
            "fd23670e428f8ff49feff7d4ae598d60acbc81550a71c5d548ca23fee4c4a9ac",
        ),
        "transformation-groupoid": (90, "a6f14d0daff64845e2ea6394c024af50aaa84298d487d31de9a963c28d53b22b"),
        "grothendieck": (140, "74c60468890eb052ae614e06c33dfcddac9a6804388824f0d70155dab6b172ad"),
    }
