"""Strict indexed families: a category for every base object, a functor
for every base morphism, contravariantly and on the nose."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import FinCat, FinFunctor, ReadOnly, dict_of, identity_functor
from .errors import NotStrict, UnknownMorphism, UnknownObject


@dataclass(frozen=True, repr=False)
class IndexedFamily(ReadOnly):
    """Assignment ``fibre`` on objects and ``pull`` on morphisms of ``base``.

    For u: I -> J the functor ``pull[u]`` runs fibre(J) -> fibre(I);
    strictness means identities and composites are preserved exactly,
    with composition reversed.
    """

    base: FinCat
    fibre: Mapping[str, FinCat]
    pull: Mapping[str, FinFunctor]
    read_only = ("fibre", "pull")


def validate_family(
    base: FinCat,
    fibre: Mapping[str, FinCat],
    pull: Mapping[str, FinFunctor],
) -> IndexedFamily:
    """Check totality, direction and strictness of a raw family."""
    fibre = dict_of(fibre)
    pull = dict_of(pull)
    for o in base.objects:
        if o not in fibre:
            raise UnknownObject(o)
    for o in base.objects:
        if base.identity[o] not in pull:
            pull[base.identity[o]] = identity_functor(fibre[o])
    for a in base.arrows:
        if a.name not in pull:
            raise UnknownMorphism(a.name)
        fn = pull[a.name]
        if fn.source != fibre[a.cod] or fn.target != fibre[a.dom]:
            raise NotStrict(a.name, a.name)

    # Each law is checked against the maps it predicts, built as dicts
    # rather than as functors.
    for o in base.objects:
        fn, cat = pull[base.identity[o]], fibre[o]
        obj_map = {x: x for x in cat.objects}
        mor_map = {a.name: a.name for a in cat.arrows}
        if fn.obj_map != obj_map or fn.mor_map != mor_map:
            raise NotStrict(base.identity[o], base.identity[o])

    for (v, u), w in base.compose.items():
        first, then, got = pull[v], pull[u], pull[w]
        obj_map = {x: then.obj(first.obj(x)) for x in first.source.objects}
        mor_map = {a.name: then.mor(first.mor(a.name)) for a in first.source.arrows}
        if got.obj_map != obj_map or got.mor_map != mor_map:
            raise NotStrict(v, u)

    # Checked last, so that input breaking a law still reports that law.
    if len(fibre) > len(base.objects):
        raise UnknownObject(next(o for o in fibre if o not in base.objects))
    if len(pull) > len(base.arrows):
        raise UnknownMorphism(next(m for m in pull if not base.has_arrow(m)))
    return IndexedFamily(base, fibre, pull)
