"""Composition laws decided on generators, against the ordered scans they
replace, and the work each decider does.

Family strictness and the split laws of a cleavage are proved on the pairs
whose outer factor (inner, for an opcleavage) is a generator of the base
(``FinCat._generating``); the ordered scans run only to name a failure.
The isomorphism search checks each new arrow against its own composition
row and column. The oracles in ``conftest.py`` are the scans as they were.
"""

from __future__ import annotations

import random

import pytest

import basecat as bc
from basecat import family, iso
from basecat.core import _generators, _rows
from basecat.corpus import build_corpus, constant_family
from basecat.errors import NotStrict, ValidationError

from conftest import oracle_validate_family
from test_fibration import _rotation_groupoid
from test_indexes import chain, shuffled


def generating(cat: bc.FinCat) -> set[str]:
    """The generators ``core._generators`` picks, read off the fields."""
    ids = set(cat.identity.values())
    return {a.name for a in _generators(cat.arrows, ids, _rows(cat.arrows, cat.compose))}


def test_every_category_keeps_the_generators_its_fields_give(corpus_cats):
    # Validated categories store the set they prove associativity on;
    # assembled ones build it on first use.
    for cat in corpus_cats[::4]:
        product = bc.product_category(cat, cat)[0]
        for c in (cat, bc.opposite(cat), product, bc.opposite(product)):
            assert c._generating == generating(c), c.name
    assert "_generating" in vars(chain(5)) and chain(5)._generating == {"e0_1", "e1_2", "e2_3", "e3_4"}


def family_outcome(validate, base, fibre, pull):
    try:
        return validate(base, fibre, pull)
    except (ValidationError, KeyError) as exc:
        return exc


def same_outcome(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


def discrete(name: str, objects: tuple[str, ...]) -> bc.FinCat:
    return bc.validate_category(name, objects, [])


def reordered(cat: bc.FinCat) -> bc.FinCat:
    """``cat`` with its composition table declared in reverse order."""
    return bc.validate_category(
        cat.name, cat.objects, cat.arrows, dict(reversed(cat.compose.items())), cat.identity
    )


def swapped_families():
    """Constant families of the two-point set over chains, in both table
    orders, with one pull functor swapped so that the first pair the
    ordered scan finds broken has an outer factor that is no generator."""
    points = discrete("pts", ("a", "b"))
    ident = bc.identity_functor(points)
    swap = bc.validate_functor("swap", points, points, {"a": "b", "b": "a"}, {})
    for n in (4, 5, 6, 7):
        for base in (chain(n), reordered(chain(n))):
            gens = generating(base)
            for (v, u), w in base.compose.items():
                if base.is_identity(v) or base.is_identity(u) or v in gens:
                    continue
                pull = {a.name: ident for a in base.arrows}
                pull[w] = swap
                yield base, {o: points for o in base.objects}, pull


def test_strictness_matches_the_oracle_on_corpus_and_constant_families():
    cases = []
    for seed in range(10):
        cases += [(fam.base, fam.fibre, fam.pull) for fam in build_corpus(seed=seed).families]
    for n in range(6, 11):
        fam = constant_family(chain(n), chain(3))
        cases.append((fam.base, fam.fibre, fam.pull))
    for args in cases:
        got = family_outcome(bc.validate_family, *args)
        want = family_outcome(oracle_validate_family, *args)
        assert same_outcome(got, want), (args[0].name, got, want)
        assert isinstance(got, bc.IndexedFamily)


def test_strictness_names_the_oracles_pair_when_a_non_generator_breaks_first():
    named = 0
    for args in swapped_families():
        got = family_outcome(bc.validate_family, *args)
        want = family_outcome(oracle_validate_family, *args)
        assert isinstance(want, NotStrict) and same_outcome(got, want), (got, want)
        named += want.v not in generating(args[0])
    assert named > 0


def test_strictness_of_maps_that_leave_their_fibres_matches_the_oracle():
    # Pull maps are read as given: one that lands outside its fibre, or is
    # defined beyond it, meets the ordered scan as it did.
    base, points = chain(4), discrete("pts", ("a", "b"))
    ident = bc.identity_functor(points)
    strays = [
        bc.FinFunctor("out", points, points, {"a": "c", "b": "b"}, {"id_a": "id_a", "id_b": "id_b"}),
        bc.FinFunctor("wide", points, points, {"a": "a", "b": "b", "c": "c"}, {"id_a": "id_a", "id_b": "id_b"}),
    ]
    seen = set()
    for stray in strays:
        for a in base.non_identity_arrows():
            pull = {b.name: ident for b in base.arrows}
            pull[a.name] = stray
            args = (base, {o: points for o in base.objects}, pull)
            got = family_outcome(bc.validate_family, *args)
            want = family_outcome(oracle_validate_family, *args)
            assert same_outcome(got, want), (stray.name, a.name, got, want)
            seen.add(type(want).__name__)
    assert seen == {"KeyError", "NotStrict"}


# Work counts: each decider reads what its generators bound, no more.


def generator_pairs(base: bc.FinCat, op: bool = False) -> list[tuple[str, str]]:
    """The composable non-identity pairs (g, f) of ``base`` whose outer
    factor g (inner factor f when ``op``) is a generator."""
    ids, gens = set(base.identity.values()), generating(base)
    return [(g, f) for g, f in base.compose if g not in ids and f not in ids and (f if op else g) in gens]


class Reads(dict):
    """A mapping that counts the entries read from it."""

    def __init__(self, *args, tally: list[int]):
        super().__init__(*args)
        self.tally = tally

    def __getitem__(self, key):
        self.tally[0] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.tally[0] += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.tally[0] += 1
        return super().__contains__(key)

    def items(self):
        for item in super().items():
            self.tally[0] += 1
            yield item


def tg16() -> bc.ConstructedCategory:
    return _rotation_groupoid(16)


def chain20_total() -> bc.ConstructedCategory:
    return bc.grothendieck_strict(constant_family(chain(20), chain(2)))


@pytest.mark.parametrize("built", [tg16, chain20_total], ids=["TG16", "chain20"])
def test_check_split_evaluates_the_law_on_generator_pairs_only(built):
    built = built()
    p = built.over()
    # The total again, its composition table counting reads.
    tally = [0]
    total = p.total
    counted = bc.FinCat(total.name, total.objects, total.arrows, total.identity, Reads(total.compose, tally=tally))
    proj = p.proj
    q = bc.FunctorOver(bc.FinFunctor(proj.name, counted, proj.target, proj.obj_map, proj.mor_map))
    above = q._above
    # Every verdict a split check reads is read beforehand: the cartesian
    # ones here, the opcartesian ones of the chosen lifts by the lift scan.
    q.cartesian()
    for op, check in ((False, bc.check_split), (True, bc.check_split_op)):
        cleavage = (bc.check_opfibration if op else bc.check_fibration)(q)
        tally[0] = 0
        assert check(q, cleavage) is True
        base = q.base
        bound = sum(len(above[base.dom(f) if op else base.cod(g)]) for g, f in generator_pairs(base, op))
        assert 0 < tally[0] <= bound, (op, tally[0], bound)


def recovered_tg16() -> bc.IndexedFamily:
    built = tg16()
    return bc.recover_indexed(built.over(), built.cleavage, built.object_labels, built.arrow_labels)


def constant_chain20() -> bc.IndexedFamily:
    return constant_family(chain(20), chain(2))


@pytest.mark.parametrize("fam", [recovered_tg16, constant_chain20], ids=["TG16", "chain20"])
def test_validate_family_compares_generator_pairs_only(fam, monkeypatch):
    fam = fam()
    compared = []
    strict_at = family._strict_at

    def counting(pull, v, u, w):
        compared.append((v, u))
        return strict_at(pull, v, u, w)

    monkeypatch.setattr(family, "_strict_at", counting)
    assert bc.validate_family(fam.base, fam.fibre, fam.pull) == fam
    assert 0 < len(compared) <= len(generator_pairs(fam.base))


@pytest.mark.parametrize("cat", [lambda: tg16().cat, lambda: chain(20)], ids=["TG16", "chain20"])
def test_consistent_reads_one_row_and_one_column(cat, monkeypatch):
    c = cat()
    d = shuffled(c, random.Random(20))
    tally, calls = [0], []

    class Counted(iso._Search):
        def __init__(self, *args):
            super().__init__(*args)
            for name in ("c_rows", "c_cols"):
                if hasattr(self, name):
                    setattr(self, name, {a: Reads(m, tally=tally) for a, m in getattr(self, name).items()})

        def consistent(self, new, assign):
            before = tally[0]
            verdict = super().consistent(new, assign)
            calls.append((new, tally[0] - before))
            return verdict

    monkeypatch.setattr(iso, "_Search", Counted)
    assert isinstance(bc.find_isomorphism(c, d), bc.IsoWitness)
    row = {a.name: 0 for a in c.arrows}
    col = dict(row)
    for g, f in c.compose:
        row[g] += 1
        col[f] += 1
    assert calls
    for new, reads in calls:
        assert reads <= row[new] + col[new], (new, reads)
