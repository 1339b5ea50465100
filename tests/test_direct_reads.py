"""Per-arrow loops that read ``FinCat``'s indexes directly, against the
accessor-based code they replace (``conftest.oracle_reversed`` and
``conftest.oracle_vertical_factors``), and the error paths those loops
must keep: an unknown id is an ``UnknownMorphism``, never a ``KeyError``.
"""

from __future__ import annotations

import pytest

import basecat as bc
from basecat.corpus import build_corpus, constant_family
from basecat.errors import BasecatError, DuplicateId, NoLiftInCleavage, NotSplit, UnknownMorphism
from basecat.fibration import Cleavage

from conftest import built_form, corpus_categories, oracle_reversed, oracle_vertical_factors
from test_indexes import chain


def outcome(func, *args):
    """What ``func(*args)`` returns, or the class and fields of its error."""
    try:
        return func(*args)
    except BasecatError as exc:
        return built_form(exc)


def same_opposite(cat: bc.FinCat) -> None:
    got = outcome(lambda: built_form(bc.opposite(cat)))
    assert got == outcome(lambda: built_form(oracle_reversed(cat))), cat.name


@pytest.mark.parametrize("seed", range(20))
def test_opposites_match_the_accessor_build(seed):
    for c in corpus_categories(seed):
        same_opposite(c)
        same_opposite(bc.opposite(c))
        same_opposite(bc.product_category(c, c)[0])


def test_an_op_tag_clash_is_the_same_duplicate_id():
    clash = bc.validate_category("clash", ["*"], [("id_*_op", "*", "*")], {("id_*_op", "id_*_op"): "id_*_op"})
    same_opposite(clash)
    with pytest.raises(DuplicateId) as exc:
        bc.opposite(clash)
    assert exc.value.ident == "id_*"


def oracle_factor(p: bc.FunctorOver, c: Cleavage, g: str) -> tuple[str, str]:
    u, cod = p.over(g), p.total.cod(g)
    f = c.lift.get((u, cod))
    if f is None:
        raise NoLiftInCleavage(u, cod)
    candidates = oracle_vertical_factors(p, f, g)
    if len(candidates) != 1:
        raise NotSplit(f"{len(candidates)} vertical factorizations of {g!r} through {f!r}")
    return candidates[0], f


def same_factors(built: bc.ConstructedCategory) -> int:
    p = built.over()
    for a in built.cat.arrows:
        got = outcome(bc.factor_vertical_cartesian, p, built.cleavage, a.name)
        assert got == outcome(oracle_factor, p, built.cleavage, a.name), a.name
    return len(built.cat.arrows)


@pytest.mark.parametrize("seed", range(10))
def test_factorizations_of_graphs_and_totals_match_the_oracle(seed):
    corpus = build_corpus(seed=seed)
    checked = sum(same_factors(bc.graph_category(fun)) for fun in corpus.functors)
    checked += sum(same_factors(bc.grothendieck_strict(fam)) for fam in corpus.families)
    assert checked > 100


@pytest.mark.parametrize("n, m", [(6, 3), (8, 4), (10, 4)])
def test_factorizations_of_chain_totals_match_the_oracle(n, m):
    total = bc.grothendieck_strict(constant_family(chain(n), chain(m)))
    assert same_factors(total) == len(total.cat.arrows) > n * m


@pytest.fixture(scope="module")
def chain_total():
    total = bc.grothendieck_strict(constant_family(chain(3), chain(2)))
    return total, total.over(), total.cleavage


def test_an_unknown_arrow_is_an_unknown_morphism(chain_total):
    _, p, cleavage = chain_total
    with pytest.raises(UnknownMorphism) as exc:
        bc.factor_vertical_cartesian(p, cleavage, "nowhere")
    assert exc.value.ident == "nowhere"


def test_a_lift_that_names_no_arrow_is_an_unknown_morphism(chain_total):
    total, p, cleavage = chain_total
    g = total.cat.arrows[-1]
    key = (p.over(g.name), g.cod)
    ghost = Cleavage({**cleavage.lift, key: "ghost"})
    with pytest.raises(UnknownMorphism) as exc:
        bc.factor_vertical_cartesian(p, ghost, g.name)
    assert exc.value.ident == "ghost"


def test_a_missing_lift_is_named(chain_total):
    total, p, cleavage = chain_total
    g = total.cat.arrows[-1]
    key = (p.over(g.name), g.cod)
    lacking = Cleavage({k: f for k, f in cleavage.lift.items() if k != key})
    with pytest.raises(NoLiftInCleavage) as exc:
        bc.factor_vertical_cartesian(p, lacking, g.name)
    assert (exc.value.u, exc.value.obj) == key


def test_two_vertical_factorizations_are_not_split():
    # h1 and h2 are parallel verticals with f∘h1 = f∘h2 = g over u.
    base = bc.validate_category("arrow", ["0", "1"], [("u", "0", "1")])
    total = bc.validate_category(
        "fork",
        ["a", "b", "c"],
        [("h1", "a", "b"), ("h2", "a", "b"), ("f", "b", "c"), ("g", "a", "c")],
        {("f", "h1"): "g", ("f", "h2"): "g"},
    )
    proj = bc.validate_functor(
        "P", total, base, {"a": "0", "b": "0", "c": "1"}, {"h1": "id_0", "h2": "id_0", "f": "u", "g": "u"}
    )
    with pytest.raises(NotSplit) as exc:
        bc.factor_vertical_cartesian(bc.FunctorOver(proj), Cleavage({("u", "c"): "f"}), "g")
    assert exc.value.detail == "2 vertical factorizations of 'g' through 'f'"


@pytest.mark.parametrize("accessor", ["dom", "cod", "arrow"])
def test_the_accessors_raise_unknown_morphism(chain_total, accessor):
    cat = chain_total[0].cat
    a = cat.arrows[-1]
    assert getattr(cat, accessor)(a.name) == {"dom": a.dom, "cod": a.cod, "arrow": a}[accessor]
    with pytest.raises(UnknownMorphism) as exc:
        getattr(cat, accessor)("nowhere")
    assert exc.value.ident == "nowhere"
