"""Associativity proved on generators against the scan of every triple.

``validate_category`` proves associativity on a set of generators and
scans the triples in table order only to name the first violation. Here
it runs next to ``conftest.oracle_validate_category``, which scans every
triple, on tables with one composite redirected, and both must give the
same presentation or the same error with the same ids.
"""

from __future__ import annotations

import math
from itertools import product

import pytest

import basecat as bc
from basecat.core import _generators, _rows

from conftest import oracle_validate_category
from test_indexes import chain, codiscrete, cyclic, ladder_presentations, monoid, outcome


def same_verdicts(cat: bc.FinCat, tables) -> set[str]:
    """The class names of the verdicts, each equal to the oracle's."""
    seen = set()
    for table in tables:
        got = outcome(bc.validate_category, cat, cat.arrows, table)
        want = outcome(oracle_validate_category, cat, cat.arrows, table)
        assert type(got) is type(want) and got == want, (cat.name, got, want)
        seen.add(type(got).__name__)
    return seen


def redirects(cat: bc.FinCat, sample: int = 0):
    """The table with one composite replaced by another arrow of its
    hom-set: each composite by each other arrow or, to keep a large
    presentation fast, every ``sample``-th composite of two non-identities
    by the next arrow of its hom-set."""
    keys = list(cat.compose)
    if sample:
        keys = [(g, f) for g, f in keys if not (cat.is_identity(g) or cat.is_identity(f))][::sample]
    for key in keys:
        h = cat.compose[key]
        hom = cat.hom(cat.dom(h), cat.cod(h))
        k = hom.index(h)
        others = hom[k + 1:] + hom[:k]
        for other in others[:1] if sample else others:
            yield {**cat.compose, key: other}


def generators(cat: bc.FinCat) -> list[str]:
    rows = _rows(cat.arrows, cat.compose)
    return [a.name for a in _generators(cat.arrows, set(cat.identity.values()), rows)]


def doubled_cover(n: int) -> bc.FinCat:
    """``chain(n)`` with a second arrow d0_1 beside the cover e0_1; both
    compose alike with the arrows after them."""
    c = chain(n)
    table = dict(c.compose)
    table.update({(f"e1_{k}", "d0_1"): f"e0_{k}" for k in range(2, n)})
    return bc.validate_category(f"dbl{n}", c.objects, [*c.arrows, ("d0_1", "o0", "o1")], table)


K4 = monoid("K4", {
    (x, y): ("id_*" if x == y else ({"a", "b", "c"} - {x, y}).pop())
    for x in "abc" for y in "abc"
})
S3 = monoid("S3", {  # r is a rotation, s a reflection, and s r = r^2 s
    (x, y): z
    for x, y, z in [
        ("r", "r", "r2"), ("r", "r2", "id_*"), ("r", "s", "rs"), ("r", "rs", "r2s"), ("r", "r2s", "s"),
        ("r2", "r", "id_*"), ("r2", "r2", "r"), ("r2", "s", "r2s"), ("r2", "rs", "s"), ("r2", "r2s", "rs"),
        ("s", "r", "r2s"), ("s", "r2", "rs"), ("s", "s", "id_*"), ("s", "rs", "r2"), ("s", "r2s", "r"),
        ("rs", "r", "s"), ("rs", "r2", "r2s"), ("rs", "s", "r"), ("rs", "rs", "id_*"), ("rs", "r2s", "r2"),
        ("r2s", "r", "rs"), ("r2s", "r2", "s"), ("r2s", "s", "r2"), ("r2s", "rs", "r"), ("r2s", "r2s", "id_*"),
    ]
})
# Every element is idempotent and a composite, so nothing is irreducible.
LEFT_ZERO = monoid("LZ3", {(x, y): x for x in ("e1", "e2", "e3") for y in ("e1", "e2", "e3")})


def test_every_one_object_table_on_two_arrows_gets_the_oracles_verdict():
    shape = monoid("M", {(x, y): x for x in "ab" for y in "ab"})
    pairs = list(product("ab", repeat=2))
    tables = [
        dict(zip(pairs, values)) for values in product(("id_*", "a", "b"), repeat=len(pairs))
    ]
    assert len(tables) == 81
    assert same_verdicts(shape, tables) == {"FinCat", "AssociativityViolation"}


ALL = {"FinCat", "UnitLawViolation", "AssociativityViolation"}


def case(cat: bc.FinCat, verdicts: set[str], sample: int = 0):
    return pytest.param(cat, sample, verdicts, id=cat.name)


@pytest.mark.parametrize("cat, sample, verdicts", [
    case(cyclic(2), {"FinCat", "UnitLawViolation"}),  # r∘r = r makes a monoid
    *(case(cyclic(n, order=3), ALL) for n in range(3, 9)),
    case(K4, ALL),
    case(S3, ALL),
    case(LEFT_ZERO, ALL),
    case(doubled_cover(4), {"FinCat", "UnitLawViolation"}),
    case(codiscrete(4), {"FinCat"}),  # every hom-set has one arrow
    case(ladder_presentations()[-1], {"FinCat", "AssociativityViolation"}, sample=3),
])
def test_every_redirected_composite_gets_the_oracles_verdict(cat, sample, verdicts):
    assert same_verdicts(cat, [dict(cat.compose), *redirects(cat, sample)]) == verdicts


@pytest.mark.parametrize("n", range(2, 13))
def test_the_generators_of_a_chain_are_its_covers(n):
    assert generators(chain(n)) == [f"e{i}_{i + 1}" for i in range(n - 1)]


@pytest.mark.parametrize("n", range(2, 17))
def test_a_cyclic_group_needs_at_most_log2_n_generators(n):
    for order in (1, 3, 5, n - 1):
        assert 1 <= len(generators(cyclic(n, order=order))) <= math.ceil(math.log2(n))


def test_generator_counts_of_codiscrete_and_mixed_presentations():
    # Greedy picks every arrow out of p0, then one arrow into p0 from each
    # other object.
    assert [len(generators(codiscrete(n))) for n in range(2, 7)] == [2, 4, 6, 8, 10]
    assert generators(LEFT_ZERO) == ["e1", "e2", "e3"]
    assert generators(doubled_cover(4)) == ["e0_1", "e1_2", "e2_3", "d0_1"]
    assert generators(bc.validate_category("D", ["x", "y"], [])) == []
