"""Cartesian structure by exhaustive scan."""

from __future__ import annotations

import pytest

import basecat as bc
from basecat import errors
from basecat.corpus import build_corpus, group_category
from basecat.fibration import (
    Cleavage,
    CounterexampleCartesian,
    CounterexampleOpCartesian,
    MissingLift,
    MissingOpLift,
    SplitViolation,
    _cartesian_scan,
)

from conftest import oracle_cartesian_scan


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
        with pytest.raises(errors.NotSplit):
            bc.recover_indexed(over, Cleavage(edited))


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
