""""The same category", decided one way for each notion, against the ways it
was decided before.

Isomorphic: ``core.invert`` reads the inverse off a validated bijective
functor, where ``relabelling`` validated the inverse maps as a functor and
then checked both round trips, and the base legs of the main proposition
invert each construction's projection, where they rebuilt its inverse from
labels and keys. On the nose: every duality is ``same_presentation`` of the
opposite of the right action and the left action, where the duality suite
compared printed declarations. The old paths are the oracles in
``conftest.py``.
"""

from __future__ import annotations

import random

import pytest

import basecat as bc
from basecat import constructions, iso
from basecat.core import invert, relabelling
from basecat.corpus import build_corpus, group_category
from basecat.errors import DuplicateId, NotMutuallyInverse, ValidationError
from basecat.report import PASS
from basecat.suites import run_suite

from conftest import oracle_base_leg, oracle_duality, oracle_relabelling, oracle_same_presentation

SEEDS = range(10)


@pytest.fixture(scope="module")
def runs():
    """Per corpus seed: the corpus, its ``verify all`` report, and the
    arguments of every ``relabelling`` call the run made. The run goes on
    with the oracle's witness, so a faulty inverse fails the comparison
    below rather than the run."""
    out = []
    for seed in SEEDS:
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return oracle_relabelling(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            for module in (constructions, iso):
                mp.setattr(module, "relabelling", recording)
            corpus = build_corpus(seed=seed)
            report = run_suite("all", corpus)
        out.append((corpus, report, calls))
    return out


def _verdicts(report, suffixes: tuple[str, ...]) -> list[tuple[str, bool]]:
    return [
        (c.claim_id, c.status == PASS) for c in report.claims if c.claim_id.endswith(suffixes)
    ]


def test_every_relabelling_of_a_run_equals_the_validated_inverse(runs):
    total = 0
    for _, _, calls in runs:
        for args, kwargs in calls:
            new = relabelling(*args, **kwargs)
            old = oracle_relabelling(*args, **kwargs)
            assert new == old  # names, categories and both maps of both functors
            bc.validate_witness(new.forward, new.backward)
        total += len(calls)
    assert total >= 100


def test_base_legs_get_the_verdicts_of_the_rebuilt_inverse(runs):
    for corpus, report, _ in runs:
        expected = []
        seen_concrete = {id(f) for f, _ in corpus.concrete_pairs}
        abstract_only = [f for f in corpus.functors if id(f) not in seen_concrete]
        for fun in [f for f, _ in corpus.concrete_pairs] + abstract_only:
            c = fun.source
            for claim, construction in (
                ("base~graph", bc.graph_category),
                ("base~left-action", bc.abstract_left_action),
            ):
                verdict = oracle_base_leg(c, corpus._built(construction, fun), claim)
                expected.append((f"main:{fun.name}:{claim}", verdict))
            witness = corpus.selfdual_witness(c)
            if witness is not None:
                try:
                    fbar = bc.contravariant_via_witness(fun, witness)
                    built = bc.right_action_selfdual(fbar, witness)
                    verdict = oracle_base_leg(c, built, "base~selfdual-right", commutes=False)
                except ValidationError:
                    verdict = False
                expected.append((f"main:{fun.name}:base~selfdual-right", verdict))
        legs = (":base~graph", ":base~left-action", ":base~selfdual-right")
        assert _verdicts(report, legs) == expected


def test_dualities_get_the_verdicts_of_the_printed_comparison(runs):
    decided = 0
    for corpus, report, _ in runs:
        main, duality = [], []
        for fun in corpus.functors:
            verdict = oracle_duality(
                bc.abstract_right_action(fun).cat, bc.abstract_left_action(fun).cat
            )
            duality.append((f"duality:{fun.name}:abstract", verdict))
        for fun, concrete in corpus.concrete_pairs:
            verdict = oracle_duality(
                bc.concrete_right_action(fun, concrete).cat,
                bc.concrete_left_action(fun, concrete).cat,
            )
            main.append((f"main:{fun.name}:cright-dual~cleft", verdict))
            duality.append((f"duality:{fun.name}:concrete", verdict))
        assert _verdicts(report, (":cright-dual~cleft",)) == main
        claims = _verdicts(report, (":abstract", ":concrete"))
        assert [v for v in claims if v[0].startswith("duality:")] == duality
        decided += len(main) + len(duality)
    assert decided >= 500


def test_the_verdict_is_read_off_the_presentations():
    # The left action over a base that is not self-dual is not its own
    # right dual; both ways refuse it.
    two = bc.validate_category("Two", ["X", "Y"], [("f", "X", "Y")])
    fun = bc.identity_functor(two)
    left = bc.abstract_left_action(fun)
    right = bc.abstract_right_action(fun)
    assert constructions._opposite_erases_to(right, left)
    assert oracle_duality(right.cat, left.cat)
    assert not constructions._opposite_erases_to(left, left)
    assert not oracle_duality(left.cat, left.cat)


def _cases():
    one = bc.validate_category("One", ["*"], [])
    disc = bc.validate_category("Disc", ["X", "Y"], [])
    two = bc.validate_category("Two", ["X", "Y"], [("f", "X", "Y")])
    z2 = group_category("Z2")
    # (label, source, target, object map, morphism map, first fault)
    return [
        ("objects-not-injective", disc, one, {"X": "*", "Y": "*"}, {},
         "object '*' has 2 preimages"),
        ("objects-not-surjective", one, disc, {"*": "X"}, {},
         "object 'Y' has no preimages"),
        ("morphisms-not-injective", z2, z2, {"*": "*"}, {"s": "id_*"},
         "morphism 'id_*' has 2 preimages"),
        ("morphisms-not-surjective", disc, two, {"X": "X", "Y": "Y"}, {},
         "morphism 'f' has no preimages"),
    ]


CASES = _cases()


@pytest.mark.parametrize("label, a, b, obj_map, mor_map, message", CASES, ids=[c[0] for c in CASES])
def test_a_map_that_is_no_bijection_is_refused_both_ways(label, a, b, obj_map, mor_map, message):
    forward = bc.validate_functor(label, a, b, obj_map, mor_map)
    with pytest.raises(ValidationError):
        oracle_relabelling(label, a, b, obj_map, mor_map)
    with pytest.raises(ValidationError):
        relabelling(label, a, b, obj_map, mor_map)
    with pytest.raises(NotMutuallyInverse) as caught:
        invert(forward, label + "_back")
    assert str(caught.value) == "functor pair is not mutually inverse: " + message


def test_invert_reads_the_inverse_off_the_forward_maps():
    z3 = group_category("Z3")
    forward = bc.validate_functor("swap", z3, z3, {"*": "*"}, {"r1": "r2", "r2": "r1"})
    witness = invert(forward, "swap_back")
    assert witness.forward is forward
    assert witness.backward.name == "swap_back"
    assert (witness.backward.source, witness.backward.target) == (z3, z3)
    assert dict(witness.backward.mor_map) == {"id_*": "id_*", "r1": "r2", "r2": "r1"}
    assert bc.validate_witness(witness.forward, witness.backward) == witness
    assert bc.validate_functor(
        "again", z3, z3, witness.backward.obj_map, witness.backward.mor_map
    ) == bc.validate_functor("again", z3, z3, {"*": "*"}, {"r1": "r2", "r2": "r1"})


# On the nose: equal raw presentations are compared before normalizing.


def _same_outcome(a: bc.FinCat, b: bc.FinCat, same) -> object:
    try:
        return same(a, b)
    except DuplicateId as exc:
        return ("DuplicateId", str(exc))


def _rebuilt(cat: bc.FinCat, name: str, rng: random.Random | None = None) -> bc.FinCat:
    """``cat`` validated again id for id, or with its objects, arrows and
    table in a random order when ``rng`` is given."""
    objects, arrows, table = list(cat.objects), list(cat.arrows), list(cat.compose.items())
    if rng is not None:
        rng.shuffle(objects), rng.shuffle(arrows), rng.shuffle(table)
    return bc.validate_category(name, objects, arrows, dict(table), cat.identity)


def _op_marked() -> list[bc.FinCat]:
    """Presentations whose ids hold op markers: ids that erase to the same
    id, and ids that keep their markers' place."""
    collide = bc.validate_category("C", ["X"], [("f", "X", "X"), ("f_op", "X", "X")], {
        (g, f): "f" for g in ("f", "f_op") for f in ("f", "f_op")
    })
    objects = bc.validate_category("D", ["X", "X_op"], [("g", "X", "X_op")])
    kept = bc.validate_category("E", ["X"], [("h_op2", "X", "X")], {("h_op2", "h_op2"): "h_op2"})
    return [collide, objects, kept]


def test_same_presentation_matches_the_normalized_comparison(corpus_cats):
    rng = random.Random(11)
    cats = corpus_cats[::2] + _op_marked()
    seen = set()
    for cat in cats:
        op = bc.opposite(cat)
        for a, b in (
            (cat, cat),
            (cat, _rebuilt(cat, "copy")),
            (cat, _rebuilt(cat, "shuffled", rng)),
            (cat, op),
            (op, _rebuilt(op, "op copy")),
            (bc.opposite(op), cat),
        ):
            got = _same_outcome(a, b, bc.same_presentation)
            assert got == _same_outcome(a, b, oracle_same_presentation), (a.name, b.name)
            seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {True, False, "DuplicateId"}
