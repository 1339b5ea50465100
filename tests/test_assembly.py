"""Assembled presentations against the validating builds they replace.

A presentation derived from validated values is assembled
(``core.assemble``) without checking the laws its builder proves. Here
every such build also runs the way it ran before, through
``validate_category`` and ``validate_functor`` (``conftest.oracle_build``
for the constructions), and both must give the same presentation with
every mapping in the same order, or the same error with the same ids.
"""

from __future__ import annotations

from collections import Counter

import pytest

import basecat as bc
from basecat import constructions, core
from basecat.corpus import build_corpus, constant_family
from basecat.errors import BasecatError, DuplicateId
from basecat.suites import run_suite

from conftest import built_form, corpus_categories, oracle_build
from test_indexes import chain, cyclic


def attempt(build, *args):
    try:
        return build(*args)
    except BasecatError as exc:
        return exc


def revalidated(fun: bc.FinFunctor) -> bc.FinFunctor:
    return bc.validate_functor(fun.name, fun.source, fun.target, fun.obj_map, fun.mor_map)


def same_as_validated(fun: bc.FinFunctor) -> None:
    assert built_form(fun) == built_form(revalidated(fun)), fun.name


@pytest.fixture
def checked(monkeypatch) -> Counter:
    """Run the validating build next to every ``_Builder.build`` and every
    ``assemble``, each before the direct build that fills in its table,
    and count the builds compared."""
    counts: Counter = Counter()
    build, assemble = constructions._Builder.build, core.assemble

    def compared(kind, direct, oracle, *args):
        want = attempt(oracle, *args)
        got = attempt(direct, *args)
        assert built_form(got) == built_form(want), (kind, getattr(args[0], "name", args[0]))
        counts[kind] += 1
        if isinstance(got, Exception):
            raise got
        return got

    def checked_build(builder, cleavage=None, opcleavage=None):
        return compared("build", build, oracle_build, builder, cleavage, opcleavage)

    def checked_assemble(name, objects, arrows, table, identity=None):
        return compared("assemble", assemble, bc.validate_category, name, objects, arrows, table, identity)

    monkeypatch.setattr(constructions._Builder, "build", checked_build)
    monkeypatch.setattr(core, "assemble", checked_assemble)
    monkeypatch.setattr(constructions, "assemble", checked_assemble)
    return counts


def test_every_build_of_a_corpus_run_matches_the_validating_build(checked):
    families = 0
    for seed in range(20):
        corpus = build_corpus(seed=seed)
        run_suite("all", corpus)
        for fam in corpus.families:
            again = bc.validate_family(fam.base, fam.fibre, fam.pull)
            assert [*again.fibre.items()] == [*fam.fibre.items()]
            assert [*again.pull.items()] == [*fam.pull.items()]
            for fun in fam.pull.values():
                same_as_validated(fun)
            families += 1
    assert checked["build"] > 4000 and checked["assemble"] > checked["build"], checked
    assert families > 200


def regular_action(n: int) -> bc.GroupAction:
    """Z_n acting on itself by composition."""
    grp = cyclic(n)
    carrier = bc.FinSetObj(f"Z{n}set", tuple(a.name for a in grp.arrows))
    phi = {
        g.name: bc.FinFn(carrier, carrier, {x: grp.compose[(g.name, x)] for x in carrier.elements})
        for g in grp.arrows
    }
    return bc.validate_group_action(grp, carrier, phi)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_transformation_groupoids_of_regular_actions_match(checked, n):
    built = bc.transformation_groupoid(regular_action(n))
    assert len(built.cat.arrows) == n * n and checked["build"] == 1


@pytest.mark.parametrize("n, m", [(6, 3), (8, 4), (10, 4)])
def test_grothendieck_totals_of_constant_chain_families_match(checked, n, m):
    built = bc.grothendieck_strict(constant_family(chain(n), chain(m)))
    assert len(built.cat.objects) == n * m and checked["build"] == 1


def test_products_coproducts_and_one_object_fibres_match(checked):
    cats = corpus_categories(0)[:12] + [cyclic(4), chain(4)]
    for c, d in zip(cats, cats[1:]):
        prod, p1, p2 = bc.product_category(c, d)
        total, injections = bc.coproduct_categories([c, d])
        for fun in (p1, p2, *injections, *bc.trivial_categorify(c).functors.values()):
            same_as_validated(fun)
        bc.opposite(prod)
    assert checked["assemble"] > 3 * len(cats)


def test_a_repeated_id_is_the_error_validation_reports(checked):
    z2 = cyclic(2)
    with pytest.raises(DuplicateId):
        core.assemble("twice", ["*", "*"], [], {})
    with pytest.raises(DuplicateId):
        core.assemble("twice", ["*"], [bc.Arrow("r1", "*", "*")] * 2, {})
    # Tagging id_*_op erases its marker, which gives the identity's id.
    clash = bc.validate_category("clash", ["*"], [("id_*_op", "*", "*")], {("id_*_op", "id_*_op"): "id_*_op"})
    with pytest.raises(DuplicateId):
        bc.opposite(clash)
    assert bc.opposite(z2) is bc.opposite(z2)
    assert checked["assemble"] == 4
