"""Indexed fast paths against the whole-category scans they replace.

Each test runs the indexed code and a brute-force oracle from ``conftest``
on the same input and requires identical results: the same tuples in the
same order, the same first error with the same ids, the same search
verdicts and node counts.
"""

from __future__ import annotations

import random

import pytest

import basecat as bc
from basecat import iso
from basecat.errors import BasecatError, ValidationError

from conftest import (
    oracle_arrows_from,
    oracle_arrows_into,
    oracle_consistent,
    oracle_find_isomorphism,
    oracle_hom,
    oracle_inverse_of,
    oracle_is_groupoid,
    oracle_validate_category,
)


def cyclic(n: int, name: str = "", tag: str = "r", order: int = 1) -> bc.FinCat:
    """Z_n on one object; ``order`` permutes the declaration order."""
    def m(k: int) -> str:
        return "id_*" if k % n == 0 else f"{tag}{k % n}"

    ks = sorted(range(1, n), key=lambda k: (k * order) % n)
    table = {(m(i), m(j)): m(i + j) for i in ks for j in ks}
    return bc.validate_category(name or f"Z{n}{tag}", ["*"], [(m(k), "*", "*") for k in ks], table)


def chain(n: int) -> bc.FinCat:
    objects = [f"o{i}" for i in range(n)]
    arrows = [(f"e{i}_{j}", f"o{i}", f"o{j}") for i in range(n) for j in range(i + 1, n)]
    table = {
        (f"e{j}_{k}", f"e{i}_{j}"): f"e{i}_{k}"
        for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
    }
    return bc.validate_category(f"chain{n}", objects, arrows, table)


def codiscrete(n: int) -> bc.FinCat:
    """The groupoid with exactly one arrow between any two of n objects."""
    objects = [f"p{i}" for i in range(n)]
    def m(i: int, j: int) -> str:
        return f"id_p{i}" if i == j else f"t{i}_{j}"
    arrows = [(m(i, j), f"p{i}", f"p{j}") for i in range(n) for j in range(n) if i != j]
    table = {(m(j, k), m(i, j)): m(i, k) for i in range(n) for j in range(n) for k in range(n)}
    return bc.validate_category(f"codisc{n}", objects, arrows, table)


def monoid(name: str, table: dict[tuple[str, str], str]) -> bc.FinCat:
    """A one-object category: its non-identities and their composites."""
    names = sorted({g for g, _ in table})
    return bc.validate_category(name, ["*"], [(m, "*", "*") for m in names], table)


def ladder_presentations() -> list[bc.FinCat]:
    z4xcod3, _, _ = bc.product_category(cyclic(4), codiscrete(3))
    return [cyclic(8), cyclic(12, order=5), chain(6), codiscrete(4), z4xcod3]


def check_indexes(cat: bc.FinCat) -> None:
    for x in cat.objects:
        assert cat.arrows_into(x) == oracle_arrows_into(cat, x)
        assert cat.arrows_from(x) == oracle_arrows_from(cat, x)
        for y in cat.objects:
            assert cat.hom(x, y) == oracle_hom(cat, x, y)
    assert cat.hom("nowhere", cat.objects[0]) == () == cat.arrows_into("nowhere")
    for a in cat.arrows:
        assert cat.inverse_of(a.name) == oracle_inverse_of(cat, a.name)
    assert cat.is_groupoid() == oracle_is_groupoid(cat)


def test_indexes_match_raw_filters_on_the_corpus(corpus_cats):
    assert len(corpus_cats) > 300
    groupoids = 0
    for cat in corpus_cats:
        check_indexes(cat)
        check_indexes(bc.opposite(cat))
        groupoids += cat.is_groupoid()
    assert 0 < groupoids < len(corpus_cats)


def test_indexes_match_raw_filters_on_larger_presentations():
    for cat in ladder_presentations():
        check_indexes(cat)
        check_indexes(bc.opposite(cat))


def outcome(validate, cat: bc.FinCat, arrows, table):
    try:
        return validate(cat.name, cat.objects, arrows, table, cat.identity)
    except ValidationError as exc:
        return exc


def corruptions(cat: bc.FinCat, rng: random.Random):
    """Tables with one composite dropped, one row of composites dropped,
    one composite redirected or one unit row broken."""
    names = [a.name for a in cat.arrows]
    entries = list(cat.compose.items())
    for g in names:
        if not cat.is_identity(g):
            yield {(h, f): gf for (h, f), gf in entries if h != g or cat.is_identity(f)}
    for k, ((g, f), h) in enumerate(entries):
        if not (cat.is_identity(g) or cat.is_identity(f)):
            yield dict(entries[:k] + entries[k + 1:])
        same_hom = [m for m in cat.hom(cat.dom(h), cat.cod(h)) if m != h]
        for target in same_hom[:2] + [rng.choice(names)]:
            if target != h:
                yield {**cat.compose, (g, f): target}
    for a in cat.arrows:
        for key in ((cat.identity[a.cod], a.name), (a.name, cat.identity[a.dom])):
            others = [m for m in cat.hom(a.dom, a.cod) if m != a.name] or names
            yield {**cat.compose, key: rng.choice(others)}


def check_validator(cat: bc.FinCat, rng: random.Random) -> dict[str, int]:
    """Both validators on the valid table and each corruption, with arrows
    and table in presentation and in reverse order."""
    seen: dict[str, int] = {}
    forward = list(cat.arrows)
    for table in [dict(cat.compose), *corruptions(cat, rng)]:
        for arrows, tab in ((forward, table), (forward[::-1], dict(reversed(table.items())))):
            got = outcome(bc.validate_category, cat, arrows, tab)
            want = outcome(oracle_validate_category, cat, arrows, tab)
            assert type(got) is type(want) and got == want, (cat.name, got, want)
            seen[type(got).__name__] = seen.get(type(got).__name__, 0) + 1
    return seen


def test_validator_reports_the_oracles_first_error(corpus_cats):
    rng = random.Random(0)
    seen: dict[str, int] = {}
    for cat in corpus_cats[::3] + ladder_presentations()[:4]:
        for name, count in check_validator(cat, rng).items():
            seen[name] = seen.get(name, 0) + count
    for kind in ("FinCat", "MissingComposite", "DomCodMismatch", "UnitLawViolation", "AssociativityViolation"):
        assert seen.get(kind, 0) > 0, seen


def any_outcome(validate, cat: bc.FinCat, arrows, table):
    """``outcome``, with an unknown id's error as the outcome too."""
    try:
        return validate(cat.name, cat.objects, arrows, table, cat.identity)
    except BasecatError as exc:
        return exc


def paired_corruptions(cat: bc.FinCat, rng: random.Random):
    """Tables with two faults of different kinds: a composite with the
    wrong ends and a non-composable entry after it; a dropped composite and
    a broken unit row; an unknown id and a redirected composite."""
    names = [a.name for a in cat.arrows]
    entries = list(cat.compose.items())
    plain = [k for k, ((g, f), _) in enumerate(entries) if not (cat.is_identity(g) or cat.is_identity(f))]
    if not plain:
        return
    k = rng.choice(plain)
    (g, f), h = entries[k]
    ends = (cat.dom(h), cat.cod(h))
    wrong = [m for m in names if (cat.dom(m), cat.cod(m)) != ends]
    apart = [(x, y) for x in names for y in names if cat.cod(y) != cat.dom(x)]
    if wrong and apart:
        yield {**cat.compose, (g, f): rng.choice(wrong), rng.choice(apart): rng.choice(names)}
    a = rng.choice(cat.arrows)
    others = [m for m in cat.hom(a.dom, a.cod) if m != a.name] or names
    dropped = dict(entries[:k] + entries[k + 1:])
    yield {**dropped, (cat.identity[a.cod], a.name): rng.choice(others)}
    same_hom = [m for m in cat.hom(*ends) if m != h] or names
    j = rng.choice([i for i in range(len(entries)) if i != k] or [k])
    yield {**cat.compose, (g, f): rng.choice(same_hom), entries[j][0]: "ghost"}


def test_validator_reports_the_oracles_first_error_with_two_faults(corpus_cats):
    rng = random.Random(2)
    seen: dict[str, int] = {}
    for cat in corpus_cats[::3] + ladder_presentations():
        forward = list(cat.arrows)
        for table in paired_corruptions(cat, rng):
            for arrows, tab in ((forward, table), (forward[::-1], dict(reversed(table.items())))):
                got = any_outcome(bc.validate_category, cat, arrows, tab)
                want = any_outcome(oracle_validate_category, cat, arrows, tab)
                assert type(got) is type(want) and got == want, (cat.name, got, want)
                seen[type(got).__name__] = seen.get(type(got).__name__, 0) + 1
    for kind in ("DomCodMismatch", "MissingComposite", "UnknownMorphism"):
        assert seen.get(kind, 0) > 0, seen


def search(c: bc.FinCat, d: bc.FinCat, budget: int, consistent=None):
    """The verdict of ``find_isomorphism`` and its search's node count,
    optionally with another ``consistent``."""
    searches = []

    class Recorded(iso._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    if consistent is not None:
        Recorded.consistent = consistent
    saved = iso._Search
    iso._Search = Recorded
    try:
        verdict = bc.find_isomorphism(c, d, budget)
    finally:
        iso._Search = saved
    return verdict, (searches[0].nodes if searches else None)


indexed_consistent = iso._Search.consistent


def cross_checked(self, new, assign):
    got = indexed_consistent(self, new, assign)
    assert got == oracle_consistent(self, new, assign)
    return got


def summary(verdict) -> tuple:
    if isinstance(verdict, bc.IsoWitness):
        return ("witness", verdict.forward.obj_map, verdict.forward.mor_map)
    return (type(verdict).__name__, verdict)


@pytest.mark.parametrize(
    "c, d, budget",
    [
        pytest.param(cyclic(n), cyclic(n, tag="s", order=order), 100_000, id=f"Z{n}~relabelled")
        for n, order in ((5, 2), (7, 3), (8, 3), (9, 2))
    ]
    + [
        pytest.param(cyclic(2 * n), bc.product_category(cyclic(2), cyclic(n, tag="s"))[0], 3_000,
                     id=f"Z{2 * n}~Z2xZ{n}")
        for n in (2, 3, 4, 5, 6)
    ]
    + [
        # Every arrow is idempotent on both sides, so the colours tie and the
        # search refutes: a left-zero monoid is not its opposite.
        pytest.param(monoid("L", {(g, f): g for g in "ab" for f in "ab"}),
                     monoid("R", {(g, f): f for g in "ab" for f in "ab"}), 3_000, id="left-zero~right-zero")
    ],
)
def test_consistent_matches_the_compose_lookup(c, d, budget):
    new_verdict, new_nodes = search(c, d, budget)
    old_verdict, old_nodes = search(c, d, budget, consistent=oracle_consistent)
    both_verdict, both_nodes = search(c, d, budget, consistent=cross_checked)
    assert summary(new_verdict) == summary(old_verdict) == summary(both_verdict)
    assert new_nodes == old_nodes == both_nodes


# Power-type colours against the colourless search they prune.


def shuffled(cat: bc.FinCat, rng: random.Random) -> bc.FinCat:
    """``cat`` renamed, with its objects and arrows declared in a random order."""
    ren_obj = {o: f"{o}'" for o in cat.objects}
    ren_mor = {a.name: f"{a.name}'" for a in cat.arrows}
    objects = rng.sample(cat.objects, len(cat.objects))
    arrows = rng.sample(cat.arrows, len(cat.arrows))
    return bc.validate_category(
        f"{cat.name}'",
        [ren_obj[o] for o in objects],
        [(ren_mor[a.name], ren_obj[a.dom], ren_obj[a.cod]) for a in arrows],
        {(ren_mor[g], ren_mor[f]): ren_mor[h] for (g, f), h in cat.compose.items()},
        {ren_obj[o]: ren_mor[m] for o, m in cat.identity.items()},
    )


def product(c: bc.FinCat, d: bc.FinCat) -> bc.FinCat:
    return bc.product_category(c, d)[0]


def colour_pairs(family: str, corpus_cats: list[bc.FinCat]) -> list[tuple[bc.FinCat, bc.FinCat]]:
    rng = random.Random(family)
    if family == "cyclic":
        return [(cyclic(n), cyclic(n, tag="s", order=k)) for n, k in ((5, 2), (7, 3), (8, 3), (9, 2), (12, 5), (16, 3))]
    if family == "groupoids":
        cats = [codiscrete(4), product(cyclic(2), codiscrete(3)), product(cyclic(4), codiscrete(3)),
                product(codiscrete(2), cyclic(3, order=2))]
        return [(cat, shuffled(cat, rng)) for cat in cats]
    if family == "chains-products":
        cats = [chain(4), chain(8), product(chain(3), cyclic(2)), product(chain(2), chain(3))]
        return [(cat, shuffled(cat, rng)) for cat in cats] + [
            (product(chain(2), chain(3)), product(chain(3), chain(2))),
            (product(chain(3), cyclic(2)), product(cyclic(2), chain(3))),
            (chain(5), bc.opposite(chain(5))),
        ]
    if family == "Z2n~Z2xZn":
        return [(cyclic(2 * n), product(cyclic(2), cyclic(n, tag="s"))) for n in (2, 3, 4, 5, 6, 8)]
    # Every category corpus seeds 0-9 hold and its opposite, each
    # presentation once, against a shuffled copy and every other of its size.
    distinct = {}
    for cat in corpus_cats:
        for x in (cat, bc.opposite(cat)):
            distinct.setdefault((x.objects, x.arrows, tuple(sorted(x.compose.items()))), x)
    cats = list(distinct.values())
    pairs = [(cat, shuffled(cat, rng)) for cat in cats]
    for i, c in enumerate(cats):
        for d in cats[i + 1 :]:
            if (len(c.objects), len(c.arrows)) == (len(d.objects), len(d.arrows)):
                pairs.append((c, d))
    return pairs


@pytest.mark.parametrize("family", ["cyclic", "groupoids", "chains-products", "Z2n~Z2xZn", "corpus"])
def test_colours_keep_every_decided_verdict(family, corpus_cats):
    # Where the colourless search decides, the verdict, reason and witness
    # maps are its own; where it runs out of budget, the colours may decide.
    budget = 20_000
    for c, d in colour_pairs(family, corpus_cats):
        new_verdict, new_nodes = search(c, d, budget)
        old_verdict, old_nodes = oracle_find_isomorphism(c, d, budget)
        if not isinstance(old_verdict, iso.BudgetExhausted):
            assert summary(new_verdict) == summary(old_verdict), (c.name, d.name)
        assert (new_nodes or 0) <= (old_nodes or 0), (c.name, d.name)


@pytest.mark.parametrize("n", [10, 16])
def test_colours_refute_z2n_against_z2_times_zn(n):
    verdict = bc.find_isomorphism(cyclic(2 * n), product(cyclic(2), cyclic(n, tag="s")))
    assert verdict == iso.NotIsomorphic("no structure-preserving bijection exists")


def test_power_types_refute_monoids_with_equal_hom_sizes():
    # In C3, m∘m = n is absorbing: m has index 1; here m is idempotent.
    c3 = monoid("C3", {("m", "m"): "n", ("m", "n"): "n", ("n", "m"): "n", ("n", "n"): "n"})
    idem = monoid("I2", {("m", "m"): "m", ("m", "n"): "n", ("n", "m"): "n", ("n", "n"): "n"})
    refuted = iso.NotIsomorphic("no structure-preserving bijection exists")
    assert search(c3, idem, iso.DEFAULT_BUDGET) == (refuted, None)


def test_search_goes_on_past_a_completion_that_breaks_a_composite():
    # b∘a is c in M and a in N; every element is idempotent, so the colours
    # tie. The search assigns a, b, c in that order, so the result of b∘a
    # is assigned after both of its factors and the step checks complete
    # a→a, b→b, c→c, which breaks b∘a: handed to re-validation, it raises.
    rows = {"a": "aaa", "c": "ccc"}
    left = monoid("M", {(g, f): v for g, r in {**rows, "b": "cbc"}.items() for f, v in zip("abc", r)})
    right = monoid("N", {(g, f): v for g, r in {**rows, "b": "abc"}.items() for f, v in zip("abc", r)})
    verdict, nodes = search(left, right, iso.DEFAULT_BUDGET)
    assert verdict == iso.NotIsomorphic("no structure-preserving bijection exists")
    assert nodes is not None


def test_a_search_deeper_than_the_recursion_limit_finds_a_witness():
    # One search level per object and per non-identity arrow: 46 + 1,035
    # levels, more than the interpreter's default recursion limit.
    c = chain(46)
    verdict = bc.find_isomorphism(c, shuffled(c, random.Random(46)))
    assert isinstance(verdict, bc.IsoWitness)
