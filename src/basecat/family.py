"""Strict indexed families: a category for every base object, a functor
for every base morphism, contravariantly and on the nose.

Strictness, pull(v∘u) = pull(u)∘pull(v), is decided on the pairs whose
outer factor v is a generator of the base (``FinCat._generating``). Write
a non-generator v as s∘v′ with s a generator; then
pull(s∘v′∘u) = pull(v′∘u)∘pull(s) = pull(u)∘pull(v′)∘pull(s) = pull(u)∘pull(v),
by induction on v′. That needs pull maps that compose as functions do, which
is checked first (``_maps_between_fibres``). The ordered scan of every pair
runs only to name the first pair that breaks."""

from __future__ import annotations

from collections.abc import Mapping

from .core import FinCat, FinFunctor, ReadOnly, _reject_unknown_keys, dict_of, identity_functor
from .errors import NotStrict, UnknownMorphism, UnknownObject


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

    # Strictness is proved on the pairs whose outer factor is a generator;
    # only when that proof fails is every pair scanned, in table order, to
    # name the first one that breaks.
    generating, is_identity = base._generating, base.is_identity
    if not (
        _maps_between_fibres(base, fibre, pull)
        and all(
            _strict_at(pull, v, u, w)
            for (v, u), w in base.compose.items()
            if v in generating and not is_identity(u)
        )
    ):
        for (v, u), w in base.compose.items():
            if not _strict_at(pull, v, u, w):
                raise NotStrict(v, u)

    _reject_unknown_keys(base, fibre, pull)
    return IndexedFamily(base, fibre, pull)


def _strict_at(pull: Mapping[str, FinFunctor], v: str, u: str, w: str) -> bool:
    """Whether pull(w) is pull(u) after pull(v), for w = v∘u, on the nose.
    Each law is checked against the maps it predicts, built as dicts
    rather than as functors."""
    first, then, got = pull[v], pull[u], pull[w]
    obj_map = {x: then.obj(first.obj(x)) for x in first.source.objects}
    mor_map = {a.name: then.mor(first.mor(a.name)) for a in first.source.arrows}
    return got.obj_map == obj_map and got.mor_map == mor_map


def _maps_between_fibres(base: FinCat, fibre: Mapping[str, FinCat], pull: Mapping[str, FinFunctor]) -> bool:
    """Whether the maps of each pull(u) are defined on exactly the objects
    and arrows of fibre(cod u) and land in fibre(dom u), so that maps
    compose as functions do."""
    ends = {o: (frozenset(fibre[o].objects), frozenset(fibre[o]._by_name)) for o in base.objects}
    for a in base.arrows:
        fn = pull[a.name]
        (src_objs, src_arrows), (tgt_objs, tgt_arrows) = ends[a.cod], ends[a.dom]
        if not (
            fn.obj_map.keys() == src_objs
            and fn.mor_map.keys() == src_arrows
            and tgt_objs.issuperset(fn.obj_map.values())
            and tgt_arrows.issuperset(fn.mor_map.values())
        ):
            return False
    return True
