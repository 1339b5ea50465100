"""Hom-profile signatures read off one size table, against the per-pair scan.

``iso._signatures`` reads the hom-set sizes into rows and columns once;
``oracle_signatures`` is the scan it replaced. Both must give the same
signature of every object and intern the same keys, in the same order,
on every category of corpus seeds 0-9 and of the benchmark's ladder. The
search must then visit the same nodes and return the same verdict and
witness with either function.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import basecat as bc
from basecat import iso
from conftest import oracle_signatures
from test_indexes import search, summary

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator)


def _validated(p: gen.Pres) -> bc.FinCat:
    return bc.validate_category(p.name, p.objects, p.arrows, p.table())


def ladder_pairs() -> list[tuple[bc.FinCat, bc.FinCat]]:
    """Each pair of categories the ladder of seed 5, pass 0 compares, and
    each of its other rungs against itself: the cyclic groups, the
    transformation groupoids and the Grothendieck totals."""
    ladder = gen.ladder_inputs(5, 0)
    pairs = [(_validated(p), _validated(p)) for p in ladder.validate]
    pairs += [(_validated(p), _validated(q)) for p, q in ladder.chains]
    for r in ladder.groupoids:
        carrier = bc.FinSetObj(f"set{r.n}", r.elements)
        phi = {g: bc.FinFn(carrier, carrier, dict(m)) for g, m in r.phi}
        act = bc.validate_group_action(_validated(r.group), carrier, phi)
        pairs.append((bc.transformation_groupoid(act).cat, _validated(r.relabelled)))
    for r in ladder.families:
        base, fibre = _validated(r.base), _validated(r.fibre)
        ident = bc.identity_functor(fibre)
        fam = bc.validate_family(base, {o: fibre for o in base.objects}, {a.name: ident for a in base.arrows})
        total = bc.grothendieck_strict(fam).cat
        pairs.append((total, total))
    pairs += [(_validated(r.left), _validated(r.right)) for r in ladder.isos]
    pairs.append((_validated(ladder.negative.whole), _validated(ladder.negative.part)))
    return pairs


LADDER = ladder_pairs()
LADDER_IDS = [f"{c.name}~{d.name}" for c, d in LADDER]


def assert_same_signatures(c: bc.FinCat, d: bc.FinCat) -> None:
    # One palette for both sides, as ``find_isomorphism`` shares it.
    new, old = {}, {}
    assert iso._signatures(c, new) == oracle_signatures(c, old), c.name
    assert iso._signatures(d, new) == oracle_signatures(d, old), d.name
    assert list(new.items()) == list(old.items()), (c.name, d.name)


def test_signatures_match_the_scan_on_every_corpus_category(corpus_cats):
    assert len(corpus_cats) > 300
    for cat in corpus_cats:
        assert_same_signatures(cat, bc.opposite(cat))


@pytest.mark.parametrize("c, d", LADDER, ids=LADDER_IDS)
def test_signatures_match_the_scan_on_every_ladder_rung(c, d):
    assert_same_signatures(c, d)


def test_an_empty_category_has_no_signature():
    empty = bc.validate_category("Empty", [], [])
    assert iso._signatures(empty, {}) == {} == oracle_signatures(empty, {})


@pytest.mark.parametrize("c, d", [pair for pair in LADDER if pair[0] is not pair[1]],
                         ids=[i for i, (c, d) in zip(LADDER_IDS, LADDER) if c is not d])
def test_the_search_is_unchanged_with_either_signatures(c, d, monkeypatch):
    verdict, nodes = search(c, d, iso.DEFAULT_BUDGET)
    monkeypatch.setattr(iso, "_signatures", oracle_signatures)
    old_verdict, old_nodes = search(c, d, iso.DEFAULT_BUDGET)
    assert summary(verdict) == summary(old_verdict) and nodes == old_nodes
