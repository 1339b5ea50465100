"""Cartesian structure by exhaustive scan."""

from __future__ import annotations

import pytest

import basecat as bc
from basecat import errors, fibration, suites
from basecat.corpus import _thin_from_relation, build_corpus, constant_family, group_category
from basecat.fibration import (
    Cleavage,
    CounterexampleCartesian,
    CounterexampleOpCartesian,
    MissingLift,
    MissingOpLift,
    OpCleavage,
    SplitViolation,
    _cartesian_scan,
)
from basecat.report import PASS

from conftest import (
    all_functors,
    built_form,
    oracle_cartesian_over_iso,
    oracle_cartesian_scan,
    oracle_lift_scan,
    oracle_recover_indexed,
    oracle_split_scan,
)
from test_indexes import chain


@pytest.fixture
def twin_lift(two):
    """Two parallel lifts of f into the same object, domains both over X."""
    total = bc.validate_category(
        "ETwin", ["Z", "X0", "Y0"], [("f1", "X0", "Y0"), ("f2", "Z", "Y0")]
    )
    proj = bc.validate_functor(
        "p", total, two, {"Z": "X", "X0": "X", "Y0": "Y"}, {"f1": "f", "f2": "f"}
    )
    return bc.FunctorOver(proj)


@pytest.fixture
def graph_two(two):
    return bc.graph_category(bc.identity_functor(two))


class TestIsCartesian:
    def test_identities_are_cartesian(self, graph_two):
        p = graph_two.over()
        for obj in graph_two.cat.objects:
            assert bc.is_cartesian(p, graph_two.cat.identity[obj]) is True

    def test_every_graph_arrow_is_cartesian_and_opcartesian(self, corpus):
        for fun in corpus.functors[:12]:
            built = bc.graph_category(fun)
            p = built.over()
            for a in built.cat.arrows:
                assert bc.is_cartesian(p, a.name) is True
                assert bc.is_opcartesian(p, a.name) is True

    def test_twin_lift_counterexample(self, twin_lift):
        result = bc.is_cartesian(twin_lift, "f1")
        assert isinstance(result, CounterexampleCartesian)
        assert result.g == "f2"
        assert result.mediating_count == 0

    def test_twin_lift_dual(self, twin_lift, two):
        # opposite projection: f1 becomes non-opcartesian the same way
        op_total = bc.opposite(twin_lift.total)
        op_base = bc.opposite(twin_lift.base)
        proj = bc.validate_functor(
            "p_op",
            op_total,
            op_base,
            dict(twin_lift.proj.obj_map),
            {"f1_op": "f_op", "f2_op": "f_op"},
        )
        result = bc.is_opcartesian(bc.FunctorOver(proj), "f1_op")
        assert isinstance(result, CounterexampleOpCartesian)
        assert result.mediating_count == 0

    def test_unknown_morphism(self, graph_two):
        with pytest.raises(errors.UnknownMorphism):
            bc.is_cartesian(graph_two.over(), "nope")


class TestCheckFibration:
    def test_product_first_projection_lifts_are_identity_pairs(self, two):
        prod, p1, _ = bc.product_category(two, two)
        result = bc.check_fibration(bc.FunctorOver(p1))
        assert isinstance(result, Cleavage)
        for (u, y), lift in result.lift.items():
            if prod.is_identity(lift):
                continue
            assert lift.startswith(f"({u},id_")

    def test_graph_cleavage_matches_canonical(self, graph_two):
        found = bc.check_fibration(graph_two.over())
        assert isinstance(found, Cleavage)
        assert found.lift == graph_two.cleavage.lift

    def test_missing_lift(self, one, two):
        proj = bc.validate_functor("pt", one, two, {"*": "Y"}, {})
        result = bc.check_fibration(bc.FunctorOver(proj))
        assert isinstance(result, MissingLift)
        assert (result.u, result.obj) == ("f", "*")

    def test_missing_oplift_reversed(self, one, two):
        proj = bc.validate_functor("pt", one, two, {"*": "X"}, {})
        result = bc.check_opfibration(bc.FunctorOver(proj))
        assert isinstance(result, MissingOpLift)
        assert (result.u, result.obj) == ("f", "*")

    def test_soundness_every_lift_is_cartesian(self, corpus):
        for fam in corpus.families[:6]:
            built = bc.grothendieck_strict(fam)
            p = built.over()
            found = bc.check_fibration(p)
            assert isinstance(found, Cleavage)
            for lift in found.lift.values():
                assert bc.is_cartesian(p, lift) is True


class TestCheckSplit:
    def test_graph_canonical_cleavage_is_split(self, corpus):
        for fun in corpus.functors[:10]:
            built = bc.graph_category(fun)
            assert bc.check_split(built.over(), built.cleavage) is True

    def test_grothendieck_canonical_cleavage_is_split(self, corpus):
        for fam in corpus.families[:8]:
            built = bc.grothendieck_strict(fam)
            assert bc.check_split(built.over(), built.cleavage) is True

    def test_hand_edited_cleavage_breaks_the_composition_law(self):
        z2 = group_category("Z2")
        z4 = group_category("Z4")
        prod, p1, _ = bc.product_category(z2, z4)
        over = bc.FunctorOver(p1)
        found = bc.check_fibration(over)
        assert isinstance(found, Cleavage)
        assert bc.check_split(over, found) is True
        edited = dict(found.lift)
        assert edited[("s", "(*,*)")] == "(s,id_*)"
        edited[("s", "(*,*)")] = "(s,q1)"  # a different cartesian lift
        assert bc.is_cartesian(over, "(s,q1)") is True
        verdict = bc.check_split(over, Cleavage(edited))
        assert isinstance(verdict, SplitViolation)

    def test_concrete_graph_opcleavage_is_split(self, corpus):
        for fun, concrete in corpus.concrete_pairs[:8]:
            built = bc.concrete_graph_category(fun, concrete)
            assert bc.check_split_op(built.over(), built.opcleavage) is True

    def test_a_cleavage_lifts_every_arrow_at_every_object_above_its_end(self, graph_two):
        # Two's only arrow f: X -> Y; the graph of its identity has one
        # object above each of X and Y.
        over = graph_two.over()
        lift, oplift = dict(graph_two.cleavage.lift), dict(graph_two.opcleavage.lift)
        assert lift[("f", "(Y,Y)")] == oplift[("f", "(X,X)")] == "(f,f)"
        cases = [
            (bc.check_split, Cleavage, lift, ("f", "(Y,Y)"), "no lift of 'f' at '(Y,Y)'"),
            (bc.check_split_op, OpCleavage, oplift, ("f", "(X,X)"), "no op-lift of 'f' at '(X,X)'"),
        ]
        for check, kind, chosen, key, detail in cases:
            missing = {k: v for k, v in chosen.items() if k != key}
            not_above = {**chosen, key: "id_(Y,Y)"}  # above id_Y, not f
            for edited in (missing, not_above):
                assert check(over, kind(edited)) == SplitViolation(detail)

    def test_a_cleavage_lift_must_end_at_its_object(self):
        # Above Two, a total with two objects over each of X and Y: a lift
        # of f chosen at Y1 that ends at Y0 lies above f but is no lift at
        # Y1, and dually for an op-lift chosen at X1 that starts at X0.
        two = bc.validate_category("Two", ["X", "Y"], [("f", "X", "Y")])
        total = bc.validate_category(
            "E", ["X0", "X1", "Y0", "Y1"], [("f0", "X0", "Y0"), ("f1", "X1", "Y1")]
        )
        over = bc.FunctorOver(bc.validate_functor(
            "p", total, two, {"X0": "X", "X1": "X", "Y0": "Y", "Y1": "Y"}, {"f0": "f", "f1": "f"}
        ))
        found = bc.check_fibration(over)
        assert dict(found.lift) == {
            ("id_X", "X0"): "id_X0", ("id_X", "X1"): "id_X1",
            ("id_Y", "Y0"): "id_Y0", ("id_Y", "Y1"): "id_Y1",
            ("f", "Y0"): "f0", ("f", "Y1"): "f1",
        }
        assert bc.check_split(over, found) is True
        edited = {**found.lift, ("f", "Y1"): "f0"}
        assert bc.check_split(over, Cleavage(edited)) == SplitViolation("no lift of 'f' at 'Y1'")
        found_op = bc.check_opfibration(over)
        assert (found_op.lift[("f", "X0")], found_op.lift[("f", "X1")]) == ("f0", "f1")
        assert bc.check_split_op(over, found_op) is True
        edited = {**found_op.lift, ("f", "X1"): "f0"}
        assert bc.check_split_op(over, OpCleavage(edited)) == SplitViolation("no op-lift of 'f' at 'X1'")

    @pytest.mark.parametrize("op", [False, True], ids=["lift", "op-lift"])
    def test_of_two_misplaced_lifts_the_first_pair_is_named(self, op):
        # Above two parallel arrows f, g: X -> Y, a total with two objects
        # over each of X and Y. Lifts of f at Y1 and of g at Y0 that end at
        # the other object are both misplaced; pairs are walked base arrow
        # first, then object, so (f, Y1) is named, not (g, Y0). Dually for
        # op-lifts at X1 and X0.
        base = bc.validate_category("Par", ["X", "Y"], [("f", "X", "Y"), ("g", "X", "Y")])
        total = bc.validate_category(
            "E", ["X0", "X1", "Y0", "Y1"],
            [("f0", "X0", "Y0"), ("f1", "X1", "Y1"), ("g0", "X0", "Y0"), ("g1", "X1", "Y1")],
        )
        over = bc.FunctorOver(bc.validate_functor(
            "p", total, base, {"X0": "X", "X1": "X", "Y0": "Y", "Y1": "Y"},
            {"f0": "f", "f1": "f", "g0": "g", "g1": "g"},
        ))
        find, check, kind, (first, second) = (
            (bc.check_opfibration, bc.check_split_op, OpCleavage, ("X1", "X0")) if op
            else (bc.check_fibration, bc.check_split, Cleavage, ("Y1", "Y0"))
        )
        found = find(over)
        assert check(over, found) is True
        edited = kind({**found.lift, ("f", first): "f0", ("g", second): "g1"})
        name = "op-lift" if op else "lift"
        assert check(over, edited) == SplitViolation(f"no {name} of 'f' at {first!r}")

    def test_a_lift_at_no_pair_is_rejected(self, graph_two):
        # Two's only arrow f ends at Y, so a lift of f at (X,X) answers no
        # pair, and nor does a lift of an arrow Two does not have. The
        # first such key, in the cleavage's own order, is named.
        over = graph_two.over()
        cases = [
            (bc.check_split, Cleavage, graph_two.cleavage, "(X,X)", "lift", "codomain"),
            (bc.check_split_op, OpCleavage, graph_two.opcleavage, "(Y,Y)", "op-lift", "domain"),
        ]
        for check, kind, own, obj, name, side in cases:
            bad = [("nonsense", "(X,X)"), ("f", obj)]
            for first, second in (bad, bad[::-1]):
                edited = kind({**own.lift, first: "(f,f)", second: "(f,f)"})
                detail = f"{name} at {first!r}, not a (base arrow, object above its {side}) pair"
                assert check(over, edited) == SplitViolation(detail)
        edited = Cleavage({**graph_two.cleavage.lift, ("f", "(X,X)"): "(f,f)"})
        with pytest.raises(errors.NotSplit, match="not a \\(base arrow"):
            bc.recover_indexed(over, edited)

    def test_a_lift_the_laws_cannot_read_is_a_violation(self):
        # Over A -> B -> C with g.f = h: a lift that names no arrow of the
        # total, read as the first or the second lift of the composite law,
        # is no lift; a lift of f that ends at (C,C), not (B,B), does not
        # compose with the lift of g.
        abc = bc.validate_category(
            "ABC", ["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C"), ("h", "A", "C")],
            {("g", "f"): "h"},
        )
        built = bc.graph_category(bc.identity_functor(abc))
        over, lift, oplift = built.over(), dict(built.cleavage.lift), dict(built.opcleavage.lift)
        cases = [
            (bc.check_split, Cleavage, lift, ("g", "(C,C)"), "bogus", "no lift of 'g' at '(C,C)'"),
            (bc.check_split, Cleavage, lift, ("f", "(B,B)"), "bogus", "no lift of 'f' at '(B,B)'"),
            (
                bc.check_split, Cleavage, lift, ("f", "(B,B)"), "(g,g)",
                "lifts of ('g', 'f') at '(C,C)' do not compose to the lift of 'h'",
            ),
            (bc.check_split_op, OpCleavage, oplift, ("f", "(A,A)"), "bogus", "no op-lift of 'f' at '(A,A)'"),
            (bc.check_split_op, OpCleavage, oplift, ("g", "(B,B)"), "bogus", "no op-lift of 'g' at '(B,B)'"),
        ]
        for check, kind, own, key, value, detail in cases:
            assert check(over, kind(own)) is True
            assert check(over, kind({**own, key: value})) == SplitViolation(detail)
        with pytest.raises(errors.NotSplit, match="no lift of 'g'"):
            bc.recover_indexed(over, Cleavage({**lift, ("g", "(C,C)"): "bogus"}))

    def test_a_split_cleavage_must_choose_cartesian_lifts(self, twin_lift):
        # ETwin lifts every pair and keeps the laws, but its lift f1 of f
        # at Y0 is not cartesian (f2 does not factor through it), so this
        # is no cleavage and no family can be read off it.
        chosen = Cleavage({
            ("id_X", "Z"): "id_Z", ("id_X", "X0"): "id_X0",
            ("id_Y", "Y0"): "id_Y0", ("f", "Y0"): "f1",
        })
        detail = "lift 'f1' of 'f' at 'Y0' is not cartesian"
        assert bc.check_split(twin_lift, chosen) == SplitViolation(detail)
        with pytest.raises(errors.NotSplit, match=detail):
            bc.recover_indexed(twin_lift, chosen)
        # The same verdict read from the scan check_fibration recorded, which
        # no caller can rewrite through cartesian().
        assert isinstance(bc.check_fibration(twin_lift), MissingLift)
        with pytest.raises(TypeError):
            twin_lift.cartesian()["f1"] = True
        assert bc.check_split(twin_lift, chosen) == SplitViolation(detail)

    def test_a_split_opcleavage_must_choose_opcartesian_lifts(self, twin_lift):
        q = bc.FunctorOver(bc.op_functor(twin_lift.proj))
        chosen = OpCleavage({
            ("id_X", "Z"): "id_Z", ("id_X", "X0"): "id_X0",
            ("id_Y", "Y0"): "id_Y0", ("f_op", "Y0"): "f1_op",
        })
        assert bc.check_split_op(q, chosen) == SplitViolation(
            "op-lift 'f1_op' of 'f_op' at 'Y0' is not opcartesian"
        )


class TestFactorisation:
    def test_cartesian_morphism_factors_with_identity_vertical(self, graph_two):
        p = graph_two.over()
        h, f = bc.factor_vertical_cartesian(p, graph_two.cleavage, "(f,f)")
        assert graph_two.cat.is_identity(h)
        assert f == "(f,f)"

    def test_vertical_morphism_factors_through_identity_lift(self, corpus):
        fam = next(
            f for f in corpus.families
            if any(len(fc.arrows) > len(fc.objects) for fc in f.fibre.values())
        )
        built = bc.grothendieck_strict(fam)
        p = built.over()
        vertical = next(
            a.name
            for a in built.cat.arrows
            if p.is_vertical(a.name) and not built.cat.is_identity(a.name)
        )
        h, f = bc.factor_vertical_cartesian(p, built.cleavage, vertical)
        assert built.cat.is_identity(f)
        assert h == vertical

    def test_factorisation_recomposes_and_is_unique(self, corpus):
        for fam in corpus.families[:6]:
            built = bc.grothendieck_strict(fam)
            p = built.over()
            for a in built.cat.arrows:
                h, f = bc.factor_vertical_cartesian(p, built.cleavage, a.name)
                assert built.cat.compose[(f, h)] == a.name
                candidates = [
                    hh.name
                    for hh in built.cat.arrows
                    if p.is_vertical(hh.name)
                    and hh.dom == built.cat.dom(a.name)
                    and hh.cod == built.cat.dom(f)
                    and built.cat.compose[(f, hh.name)] == a.name
                ]
                assert candidates == [h]

    def test_no_lift_in_cleavage(self, graph_two):
        with pytest.raises(errors.NoLiftInCleavage):
            bc.factor_vertical_cartesian(
                graph_two.over(), Cleavage({}), "(f,f)"
            )


class TestLemmas:
    def test_identity_fibration(self, two):
        p = bc.FunctorOver(bc.identity_functor(two))
        assert bc.property_cartesian_compose(p) is True
        assert bc.property_cartesian_over_iso(p) is True

    def test_graph_projections(self, corpus):
        for fun in corpus.functors[:10]:
            p = bc.graph_category(fun).over()
            assert bc.property_cartesian_compose(p) is True
            assert bc.property_cartesian_over_iso(p) is True

    def test_transformation_groupoids_over_their_group(self, corpus):
        for act in corpus.actions[:4]:
            p = bc.transformation_groupoid(act).over()
            assert bc.property_cartesian_compose(p) is True
            assert bc.property_cartesian_over_iso(p) is True


class TestRecover:
    def test_round_trip_from_grothendieck(self, corpus):
        for fam in corpus.families:
            total = bc.grothendieck_strict(fam)
            recovered = bc.recover_indexed(
                total.over(), total.cleavage, total.object_labels, total.arrow_labels
            )
            again = bc.grothendieck_strict(recovered)
            assert bc.same_presentation(again.cat, total.cat)

    def test_graph_recovers_one_object_fibres(self, env):
        fun = env.functors["chainmap"]
        built = bc.graph_category(fun)
        recovered = bc.recover_indexed(
            built.over(), built.cleavage, built.object_labels, built.arrow_labels
        )
        for x in fun.source.objects:
            fibre = recovered.fibre[x]
            assert fibre.objects == (fun.obj(x),)
            assert len(fibre.arrows) == 1
        for a in fun.source.non_identity_arrows():
            assert recovered.pull[a.name].obj_map == {
                fun.obj(a.cod): fun.obj(a.dom)
            }

    def test_identity_fibration_recovers_constant_point_family(self, two):
        p = bc.FunctorOver(bc.identity_functor(two))
        found = bc.check_fibration(p)
        recovered = bc.recover_indexed(p, found)
        for x in two.objects:
            assert recovered.fibre[x].objects == (x,)

    def test_not_split_is_rejected(self):
        z2 = group_category("Z2")
        z4 = group_category("Z4")
        prod, p1, _ = bc.product_category(z2, z4)
        over = bc.FunctorOver(p1)
        found = bc.check_fibration(over)
        edited = dict(found.lift)
        edited[("s", "(*,*)")] = "(s,q1)"
        errors_raised = []
        for recover in (bc.recover_indexed, oracle_recover_indexed):
            with pytest.raises(errors.NotSplit) as exc:
                recover(over, Cleavage(edited))
            errors_raised.append((type(exc.value), str(exc.value)))
        assert errors_raised[0] == errors_raised[1]

    def test_a_cleavage_missing_a_lift_is_rejected(self, graph_two):
        lift = {k: v for k, v in graph_two.cleavage.lift.items() if k != ("f", "(Y,Y)")}
        for recover in (bc.recover_indexed, oracle_recover_indexed):
            with pytest.raises(errors.NotSplit, match="no lift of 'f' at '\\(Y,Y\\)'"):
                recover(graph_two.over(), Cleavage(lift))


def _chain(name: str, n: int) -> bc.FinCat:
    return _thin_from_relation(name, n, {(i, i + 1) for i in range(n - 1)})


def _family_items(fam) -> tuple:
    """Every mapping of a family, item by item in order, down to the fibres
    and pull functors."""
    def cat_items(cat):
        return list(cat.identity.items()), list(cat.compose.items())
    return (
        [(i, cat_items(f)) for i, f in fam.fibre.items()],
        [(u, list(f.obj_map.items()), list(f.mor_map.items())) for u, f in fam.pull.items()],
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recover_indexed_matches_the_oracle(seed):
    # Every total of the corpus families, and constant chain families well
    # above desk scale, recovered field for field and in the same order.
    families = list(build_corpus(seed=seed).families)
    if seed == 0:
        families += [
            constant_family(_chain("base6", 6), _chain("fibre3", 3)),
            constant_family(_chain("base8", 8), _chain("fibre4", 4)),
        ]
    for fam in families:
        total = bc.grothendieck_strict(fam)
        args = (total.over(), total.cleavage, total.object_labels, total.arrow_labels)
        got, expected = bc.recover_indexed(*args), oracle_recover_indexed(*args)
        assert got == expected
        assert _family_items(got) == _family_items(expected)


def _family_form(fam) -> tuple:
    """``built_form`` of each fibre and pull functor of a family, in order."""
    return (
        [(i, built_form(cat)) for i, cat in fam.fibre.items()],
        [(u, built_form(fn)) for u, fn in fam.pull.items()],
    )


@pytest.mark.parametrize(
    "built",
    [
        lambda: bc.grothendieck_strict(constant_family(chain(6), chain(3))),
        lambda: bc.grothendieck_strict(constant_family(chain(8), chain(4))),
        lambda: bc.grothendieck_strict(constant_family(chain(10), chain(4))),
        lambda: _rotation_groupoid(8),
        lambda: _rotation_groupoid(12),
        lambda: _rotation_groupoid(16),
    ],
    ids=["chain6x3", "chain8x4", "chain10x4", "TG8", "TG12", "TG16"],
)
def test_the_recovered_family_is_the_one_validation_would_build(built):
    # The family is built, not validated: it equals the oracle's validated
    # one field for field, and validating it again changes nothing.
    built = built()
    args = (built.over(), built.cleavage, built.object_labels, built.arrow_labels)
    fam = bc.recover_indexed(*args)
    assert _family_form(fam) == _family_form(oracle_recover_indexed(*args))
    assert bc.validate_family(fam.base, fam.fibre, fam.pull) == fam
    for cat in fam.fibre.values():
        again = bc.validate_category(cat.name, cat.objects, cat.arrows, cat.compose, cat.identity)
        assert built_form(again) == built_form(cat)


def _corpus_projections(seed: int):
    corpus = build_corpus(seed=seed)
    for fun in corpus.functors:
        yield bc.graph_category(fun)
    for fun, concrete in corpus.concrete_pairs:
        yield bc.concrete_graph_category(fun, concrete)
    for fam in corpus.families:
        yield bc.grothendieck_strict(fam)
    for act in corpus.actions:
        yield bc.transformation_groupoid(act)


def tag(cat, m):
    """The name of ``m`` in the opposite of ``cat``."""
    return m if cat.is_identity(m) else bc.op_name(m)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_checks_are_the_forward_checks_on_the_opposite(seed):
    # Oracle: a morphism is opcartesian for p exactly when its op-tagged
    # version is cartesian for the opposite projection, and the same holds
    # for (op)fibrations, their first-found lifts and the split laws.
    seen = set()
    for built in _corpus_projections(seed):
        p = built.over()
        q = bc.FunctorOver(bc.op_functor(p.proj))
        for a in p.total.arrows:
            a_op = tag(p.total, a.name)
            for dual, forward in (
                (bc.is_opcartesian(p, a.name), bc.is_cartesian(q, a_op)),
                (bc.is_cartesian(p, a.name), bc.is_opcartesian(q, a_op)),
            ):
                assert (dual is True) == (forward is True)
                if dual is not True:
                    seen.add("counterexample")
                    assert (
                        a_op, tag(p.total, dual.g), tag(p.base, dual.w), dual.mediating_count
                    ) == (forward.f, forward.g, forward.w, forward.mediating_count)
        for dual, forward, check_dual, check_forward in (
            (bc.check_opfibration(p), bc.check_fibration(q), bc.check_split_op, bc.check_split),
            (bc.check_fibration(p), bc.check_opfibration(q), bc.check_split, bc.check_split_op),
        ):
            assert bool(dual) == bool(forward)
            if not dual:
                seen.add("missing lift")
                assert (tag(p.base, dual.u), dual.obj) == (forward.u, forward.obj)
                continue
            assert {
                (tag(p.base, u), x): tag(p.total, m) for (u, x), m in dual.lift.items()
            } == forward.lift
            assert (check_dual(p, dual) is True) == (check_forward(q, forward) is True)
    assert seen == {"counterexample", "missing lift"}


def _two_mediators(two):
    """f over f with two mediating morphisms, h1 and h2, for g = f∘h1 = f∘h2."""
    total = bc.validate_category(
        "ETwo",
        ["Z", "X0", "Y0"],
        [("h1", "Z", "X0"), ("h2", "Z", "X0"), ("f", "X0", "Y0"), ("g", "Z", "Y0")],
        {("f", "h1"): "g", ("f", "h2"): "g"},
    )
    proj = bc.validate_functor(
        "p", total, two, {"Z": "X", "X0": "X", "Y0": "Y"},
        {"h1": "id_X", "h2": "id_X", "f": "f", "g": "f"},
    )
    return bc.FunctorOver(proj)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cartesian_scan_matches_the_oracle(seed, two):
    # Verdicts, first-found counterexamples and their mediating counts, in
    # both directions, on every projection of the corpus, on one with two
    # mediating morphisms, and on their opposites.
    counts = set()
    projections = [built.over() for built in _corpus_projections(seed)]
    for p in projections + [_two_mediators(two)]:
        for q in (p, bc.FunctorOver(bc.op_functor(p.proj))):
            for a in q.total.arrows:
                for op in (False, True):
                    got = _cartesian_scan(q, a.name, op)
                    expected = oracle_cartesian_scan(q, a.name, op)
                    assert type(got) is type(expected) and got == expected
                    if expected is not True:
                        counts.add(expected.mediating_count)
    assert counts == {0, 2}


def _rotation_groupoid(n: int) -> bc.ConstructedCategory:
    """The transformation groupoid of Z_n rotating n points."""
    names = ["id_*"] + [f"r{k}" for k in range(1, n)]
    group = bc.validate_category(
        f"Z{n}", ["*"], [(names[k], "*", "*") for k in range(1, n)],
        {(names[a], names[b]): names[(a + b) % n] for a in range(1, n) for b in range(1, n)},
    )
    points = bc.FinSetObj(f"points{n}", tuple(f"x{i}" for i in range(n)))
    phi = {
        names[k]: bc.FinFn(points, points, {f"x{i}": f"x{(i + k) % n}" for i in range(n)})
        for k in range(1, n)
    }
    return bc.transformation_groupoid(bc.validate_group_action(group, points, phi))


def _lift_scans_match_the_oracle(p: bc.FunctorOver) -> set[bool]:
    """Check both lift scans and the cartesian verdicts of ``p`` against
    the ordered oracle scans; return whether the count decided each
    direction."""
    decided = set()
    for op, check in ((False, bc.check_fibration), (True, bc.check_opfibration)):
        decided.add(fibration._lift_index(p, op)[1])
        got, expected = check(p), oracle_lift_scan(p, op)
        assert type(got) is type(expected)
        if expected:
            assert list(got.lift.items()) == list(expected.lift.items())
        else:
            assert got == expected
    verdicts = {a.name: oracle_cartesian_scan(p, a.name, False) is True for a in p.total.arrows}
    assert dict(bc.FunctorOver(p.proj).cartesian()) == verdicts == dict(p.cartesian())
    return decided


def test_lift_scans_match_the_oracle_on_every_small_functor(corpus):
    # Every functor between the fixture categories of at most four arrows:
    # both ways of deciding occur.
    small = [c for c in corpus.env.categories.values() if len(c.arrows) <= 4]
    decided = set()
    for src in small:
        for tgt in small:
            for fun in all_functors(src, tgt):
                decided |= _lift_scans_match_the_oracle(bc.FunctorOver(fun))
    assert decided == {False, True}


@pytest.mark.parametrize("seed", range(10))
def test_lift_scans_match_the_oracle_on_corpus_projections(seed):
    for built in _corpus_projections(seed):
        _lift_scans_match_the_oracle(built.over())


def test_lift_scans_match_the_oracle_on_groupoids_and_a_twin_lift(twin_lift):
    for n in (8, 12):
        assert _lift_scans_match_the_oracle(_rotation_groupoid(n).over()) == {True}
    # Two arrows above f end at Y0, so the forward count falls back to the scan.
    assert not fibration._lift_index(twin_lift, False)[1]
    _lift_scans_match_the_oracle(twin_lift)


def _split_edits(p: bc.FunctorOver, lift: dict, op: bool):
    """(name, lifts): ``lift`` itself, then with its last non-identity lift
    dropped, with the first one that can be redirected to another arrow
    above the same base arrow redirected, and with the lift of the first
    base composite at the last object above its end replaced by the lift
    of one of its factors there, which breaks the composite law. Then the
    two edits that generator pairs alone would not name: the first lift of
    a base arrow that is no generator dropped, and the lift of the first
    base composite whose outer factor (inner when ``op``) is no generator
    replaced, at the last object above its end, by another arrow above the
    composite there when one exists, which keeps every lift in place."""
    total, base, over = p.total, p.base, p.proj.mor_map
    yield "own", lift
    keys = [key for key in lift if not base.is_identity(key[0])]
    if keys:
        yield "dropped", {k: v for k, v in lift.items() if k != keys[-1]}
    for key in keys:
        others = [a.name for a in total.arrows if over[a.name] == key[0] and a.name != lift[key]]
        if others:
            yield "redirected", {**lift, key: others[0]}
            break
    for (g, f), gf in base.compose.items():
        if base.is_identity(g) or base.is_identity(f):
            continue
        first, end = (f, base.dom(f)) if op else (g, base.cod(g))
        z = next((y for y in reversed(total.objects) if p.obj_over(y) == end), None)
        if z is not None and lift[(gf, z)] != lift[(first, z)]:
            yield "composite", {**lift, (gf, z): lift[(first, z)]}
            break
    generating = base._generating
    for key in keys:
        if key[0] not in generating:
            yield "dropped off generators", {k: v for k, v in lift.items() if k != key}
            break
    for (g, f), gf in base.compose.items():
        if base.is_identity(g) or base.is_identity(f) or (f if op else g) in generating:
            continue
        first, end = (f, base.dom(f)) if op else (g, base.cod(g))
        z = next((y for y in reversed(total.objects) if p.obj_over(y) == end), None)
        if z is None:
            continue
        at_z = [
            a.name for a in total.arrows
            if over[a.name] == gf and (a.dom if op else a.cod) == z and a.name != lift[(gf, z)]
        ]
        swapped = at_z[0] if at_z else lift[(first, z)]
        if swapped != lift[(gf, z)]:
            yield "composite off generators", {**lift, (gf, z): swapped}
            break


@pytest.mark.parametrize("seed", range(10))
def test_split_scans_match_the_oracle_on_corpus_projections(seed):
    # Each construction's own cleavage and opcleavage, and edited copies of
    # them, checked by both scans: the same verdict and the same message.
    # Where the oracle looks up the composite of two lifts that do not
    # compose, it raises; the scan reports that the lifts do not compose.
    outcomes = set()
    for built in _corpus_projections(seed):
        p = built.over()
        for op, own in ((False, built.cleavage), (True, built.opcleavage)):
            if own is None:
                continue
            kind, check = (OpCleavage, bc.check_split_op) if op else (Cleavage, bc.check_split)
            for name, lift in _split_edits(p, dict(own.lift), op):
                got = check(p, kind(lift))
                try:
                    expected = oracle_split_scan(p, lift, op)
                except KeyError:
                    assert isinstance(got, SplitViolation) and "do not compose" in got.detail, got
                    outcomes.add((name, "raised"))
                    continue
                assert type(got) is type(expected) and got == expected, (built.cat.name, name, got, expected)
                outcomes.add((name, got is True))
    assert {("own", True), ("dropped", False), ("redirected", False), ("composite", False)} <= outcomes


def _split_differential(built) -> set[tuple[str, object]]:
    """Both split scans of each cleavage ``built`` carries, or that the
    lift scans find, and of its edits; the outcomes seen."""
    p = built.over()
    outcomes = set()
    for op, own in ((False, built.cleavage or bc.check_fibration(p)), (True, built.opcleavage or bc.check_opfibration(p))):
        kind, check = (OpCleavage, bc.check_split_op) if op else (Cleavage, bc.check_split)
        if not isinstance(own, kind):
            continue
        for name, lift in _split_edits(p, dict(own.lift), op):
            got = check(p, kind(lift))
            try:
                expected = oracle_split_scan(p, lift, op)
            except KeyError:
                assert isinstance(got, SplitViolation) and "do not compose" in got.detail, got
                outcomes.add((name, "raised"))
                continue
            assert type(got) is type(expected) and got == expected, (built.cat.name, name, got, expected)
            outcomes.add((name, got is True))
    return outcomes


def test_split_scans_match_the_oracle_on_chain_families_and_rotation_groupoids():
    # Constant families over chains, whose lifts are not the only arrows
    # above their base arrows, and groupoids over Z_n, whose base has one
    # generator: the edits off the generators are named as the oracle names them.
    outcomes = set()
    for n in range(6, 11):
        outcomes |= _split_differential(bc.grothendieck_strict(constant_family(_chain(f"base{n}", n), _chain("fibre2", 2))))
    for n in (8, 12, 16):
        outcomes |= _split_differential(_rotation_groupoid(n))
    assert {
        ("own", True), ("dropped", False), ("composite", False),
        ("dropped off generators", False), ("composite off generators", False),
    } <= outcomes


@pytest.mark.parametrize("seed", range(10))
def test_cartesian_over_iso_matches_the_oracle_on_corpus_projections(seed):
    for built in _corpus_projections(seed):
        p = built.over()
        for q in (p, bc.FunctorOver(bc.op_functor(p.proj))):
            assert bc.property_cartesian_over_iso(q) == oracle_cartesian_over_iso(q) is True


def test_cartesian_over_iso_matches_the_oracle_on_groupoids_and_forced_verdicts(
    monkeypatch, corpus
):
    for n in (8, 12, 16):
        p = _rotation_groupoid(n).over()
        assert bc.property_cartesian_over_iso(p) == oracle_cartesian_over_iso(p) is True
    # With every arrow taken as cartesian, the first one above an
    # isomorphism without an inverse is the counterexample of both.
    monkeypatch.setattr(bc.FunctorOver, "cartesian", lambda p: {a.name: True for a in p.total.arrows})
    found = set()
    for fun in corpus.functors:
        p = bc.FunctorOver(fun)
        got, expected = bc.property_cartesian_over_iso(p), oracle_cartesian_over_iso(p)
        assert type(got) is type(expected) and got == expected
        found.add(got is True)
    assert found == {False, True}


def test_discrete_fibrations_are_decided_without_a_cartesian_scan(monkeypatch, corpus, twin_lift):
    def refuse(*args):
        raise AssertionError("cartesian scan")

    monkeypatch.setattr(fibration, "_cartesian_scan", refuse)
    for built in (bc.graph_category(corpus.functors[0]), _rotation_groupoid(8)):
        p = built.over()
        cleavage, opcleavage = bc.check_fibration(p), bc.check_opfibration(p)
        assert isinstance(cleavage, Cleavage) and isinstance(opcleavage, OpCleavage)
        assert bc.check_split(p, cleavage) is True
        assert bc.check_split_op(p, opcleavage) is True
        assert all(p.cartesian().values())
    with pytest.raises(AssertionError, match="cartesian scan"):
        bc.check_fibration(twin_lift)


def test_every_construction_the_lemmas_read_carries_a_split_cleavage(monkeypatch):
    # The factorization lemma reads the construction's own cleavage, so
    # every construction handed to the lemmas must carry one, and each
    # factorization claim is decided, never skipped.
    handed = []
    lemmas = suites._lemmas

    def recorded(built, p):
        handed.append((built, p))
        return lemmas(built, p)

    monkeypatch.setattr(suites, "_lemmas", recorded)
    for seed in range(10):
        handed.clear()
        report = suites.run_suite("appendixC", build_corpus(seed=seed))
        for built, p in handed:
            assert built.cleavage and bc.check_split(p, built.cleavage) is True, built.cat.name
        factorizations = [c for c in report.claims if c.claim_id.endswith(":factorization")]
        assert len(factorizations) == len(handed) > 0
        assert all(c.status == PASS for c in factorizations), seed
        kinds = {built.provenance for built, _ in handed}
        assert kinds == {"graph", "grothendieck", "transformation-groupoid"}, seed
