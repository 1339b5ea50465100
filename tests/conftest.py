"""Shared fixtures and independent brute-force oracles.

The oracles re-derive expected values straight from raw presentation data
(total scans, exhaustive enumeration of functors), never through the code
paths they are used to check.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Iterable, Mapping, Sequence

import pytest

import basecat as bc
from basecat.core import Arrow, FinCat, RawArrow, _as_arrows, identity_id
from basecat.corpus import build_corpus, fixtures_dir, group_category
from basecat.dsl import elaborate, parse
from basecat.errors import (
    AssociativityViolation,
    DomCodMismatch,
    DuplicateId,
    MissingComposite,
    UnitLawViolation,
    UnknownMorphism,
    UnknownObject,
)


@pytest.fixture(scope="session")
def env():
    path = fixtures_dir() / "core.bcat"
    return elaborate(parse(path.read_text(), str(path)))


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(seed=7)


@pytest.fixture
def one():
    return bc.validate_category("One", ["*"], [])


@pytest.fixture
def two():
    return bc.validate_category("Two", ["X", "Y"], [("f", "X", "Y")])


@pytest.fixture
def z2():
    return group_category("Z2")


@pytest.fixture
def z3():
    return group_category("Z3")


def oracle_assoc_violations(
    arrows: list[tuple[str, str, str]],
    table: dict[tuple[str, str], str],
) -> list[tuple[str, str, str]]:
    """All triples (h, g, f) with h(gf) != (hg)f, by raw triple scan."""
    dom = {n: d for n, d, _ in arrows}
    cod = {n: c for n, _, c in arrows}
    out = []
    for h, g, f in iproduct([a[0] for a in arrows], repeat=3):
        if cod[f] != dom[g] or cod[g] != dom[h]:
            continue
        left = table.get((h, table[(g, f)]))
        right = table.get((table[(h, g)], f))
        if left != right:
            out.append((h, g, f))
    return out


def all_functors(src: bc.FinCat, tgt: bc.FinCat):
    """Every functor src -> tgt, by exhaustive enumeration and filtering."""
    objs = list(src.objects)
    mors = [a.name for a in src.arrows]
    ends = {a.name: (a.dom, a.cod) for a in src.arrows}
    for obj_images in iproduct(tgt.objects, repeat=len(objs)):
        obj_map = dict(zip(objs, obj_images))
        candidate_sets = []
        ok = True
        for m in mors:
            dom, cod = obj_map[ends[m][0]], obj_map[ends[m][1]]
            images = [a.name for a in tgt.arrows if a.dom == dom and a.cod == cod]
            if not images:
                ok = False
                break
            candidate_sets.append(images)
        if not ok:
            continue
        for mor_images in iproduct(*candidate_sets):
            mor_map = dict(zip(mors, mor_images))
            if any(
                mor_map[src.identity[x]] != tgt.identity[obj_map[x]]
                for x in objs
            ):
                continue
            if any(
                tgt.compose[(mor_map[g], mor_map[f])] != mor_map[h]
                for (g, f), h in src.compose.items()
            ):
                continue
            yield bc.FinFunctor("enum", src, tgt, obj_map, mor_map)


def oracle_hom(cat: bc.FinCat, x: str, y: str) -> tuple[str, ...]:
    return tuple(a.name for a in cat.arrows if a.dom == x and a.cod == y)


def oracle_arrows_into(cat: bc.FinCat, obj: str) -> tuple[bc.Arrow, ...]:
    return tuple(a for a in cat.arrows if a.cod == obj)


def oracle_arrows_from(cat: bc.FinCat, obj: str) -> tuple[bc.Arrow, ...]:
    return tuple(a for a in cat.arrows if a.dom == obj)


def oracle_inverse_of(cat: bc.FinCat, name: str) -> str | None:
    """First two-sided inverse in presentation order, by a scan of every arrow."""
    a = cat.arrow(name)
    for b in cat.arrows:
        if b.dom != a.cod or b.cod != a.dom:
            continue
        if (
            cat.compose.get((b.name, name)) == cat.identity[a.dom]
            and cat.compose.get((name, b.name)) == cat.identity[a.cod]
        ):
            return b.name
    return None


def oracle_is_groupoid(cat: bc.FinCat) -> bool:
    return all(oracle_inverse_of(cat, a.name) is not None for a in cat.arrows)


def oracle_validate_category(
    name: str,
    objects: Sequence[str],
    arrows: Iterable[RawArrow],
    compose: Mapping[tuple[str, str], str] | None = None,
    identity: Mapping[str, str] | None = None,
) -> FinCat:
    """``validate_category`` as whole-category scans: every pair of arrows
    for missing composites, every (table entry, arrow) pair for
    associativity. The indexed validator must raise the same first error."""
    objects = tuple(objects)
    declared = _as_arrows(arrows)

    seen_obj: set[str] = set()
    for o in objects:
        if o in seen_obj:
            raise DuplicateId(o)
        seen_obj.add(o)

    identity = dict(identity) if identity else {}
    synthesised = []
    for o in objects:
        if o not in identity:
            ident = identity_id(o)
            identity[o] = ident
            if not any(a.name == ident for a in declared):
                synthesised.append(Arrow(ident, o, o))
    all_arrows = tuple(synthesised) + tuple(declared)

    seen_mor: set[str] = set()
    for a in all_arrows:
        if a.name in seen_mor:
            raise DuplicateId(a.name)
        seen_mor.add(a.name)
        if a.dom not in seen_obj:
            raise UnknownObject(a.dom)
        if a.cod not in seen_obj:
            raise UnknownObject(a.cod)

    by_name = {a.name: a for a in all_arrows}
    for o in objects:
        ident = identity.get(o)
        if ident is None or ident not in by_name:
            raise UnknownMorphism(ident or identity_id(o))
        ia = by_name[ident]
        if ia.dom != o or ia.cod != o:
            raise UnitLawViolation(ident)

    table: dict[tuple[str, str], str] = {}
    for (g, f), h in (compose or {}).items():
        for m in (g, f, h):
            if m not in by_name:
                raise UnknownMorphism(m)
        if by_name[f].cod != by_name[g].dom:
            raise DomCodMismatch(g, f, "pair is not composable")
        table[(g, f)] = h

    # Unit-law-forced rows may be omitted from the input table.
    for a in all_arrows:
        forced = [
            ((identity[a.cod], a.name), a.name),
            ((a.name, identity[a.dom]), a.name),
        ]
        for key, val in forced:
            table.setdefault(key, val)

    for g in all_arrows:
        for f in all_arrows:
            if f.cod != g.dom:
                continue
            if (g.name, f.name) not in table:
                raise MissingComposite(g.name, f.name)

    for (g, f), h in table.items():
        if by_name[h].dom != by_name[f].dom or by_name[h].cod != by_name[g].cod:
            raise DomCodMismatch(g, f, f"composite {h!r} has the wrong dom/cod")

    for a in all_arrows:
        if table[(identity[a.cod], a.name)] != a.name:
            raise UnitLawViolation(a.name)
        if table[(a.name, identity[a.dom])] != a.name:
            raise UnitLawViolation(a.name)

    for (g, f), gf in table.items():
        for h in all_arrows:
            if h.dom != by_name[g].cod:
                continue
            if table[(h.name, gf)] != table[(table[(h.name, g)], f)]:
                raise AssociativityViolation(h.name, g, f)

    # Checked last, so that input breaking a law still reports that law.
    if len(identity) > len(objects):
        raise UnknownObject(next(o for o in identity if o not in seen_obj))
    return FinCat(name, objects, all_arrows, identity, table)



def oracle_consistent(search, new: str, assign: dict[str, str]) -> bool:
    """``iso._Search.consistent`` through tuple-keyed ``compose`` lookups."""
    c, d = search.c, search.d
    for other in assign:
        for g, f in ((new, other), (other, new)):
            h = c.compose.get((g, f))
            if h is None or h not in assign:
                continue
            if d.compose[(assign[g], assign[f])] != assign[h]:
                return False
    return True
