"""Brute-force verification of cartesian structure for a functor.

Every quantifier in the definitions is a finite scan here: a morphism is
cartesian when each qualifying (g, w) factorization admits exactly one
mediating morphism, and a functor is a fibration when a cartesian lift
exists for every (base morphism, object above its codomain) pair. When a
base factorization u∘w = P(g) holds for several w, each w is checked
independently. Each dual check (opcartesian, opfibration, split
opcleavage) is the forward scan read in the opposite direction: one scan
per notion takes an ``op`` flag, fixed once per call.

"Vertical" means the projection sends the morphism to an identity, so
fibres are computable sub-presentations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import FinCat, FinFunctor, validate_category, validate_functor
from .errors import NoLiftInCleavage, NotSplit
from .family import IndexedFamily, validate_family


@dataclass(frozen=True)
class FunctorOver:
    """A functor regarded as a projection from a total to a base category."""

    proj: FinFunctor

    @property
    def total(self) -> FinCat:
        return self.proj.source

    @property
    def base(self) -> FinCat:
        return self.proj.target

    def over(self, morphism: str) -> str:
        return self.proj.mor(morphism)

    def obj_over(self, obj: str) -> str:
        return self.proj.obj(obj)

    def is_vertical(self, morphism: str) -> bool:
        return self.base.is_identity(self.over(morphism))


@dataclass(frozen=True)
class Cleavage:
    """Chosen cartesian lift for every (base morphism, object above cod)."""

    lift: dict[tuple[str, str], str]


@dataclass(frozen=True)
class OpCleavage:
    """Chosen opcartesian lift for every (base morphism, object above dom)."""

    lift: dict[tuple[str, str], str]


@dataclass(frozen=True)
class _Refutation:
    """A falsy verdict, so that ``if verdict:`` reads "the property holds"."""

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class _Factorization(_Refutation):
    """A factorization of ``g`` through ``f`` over ``w`` whose mediating
    morphisms number ``mediating_count`` instead of one."""

    f: str
    g: str
    w: str
    mediating_count: int


class CounterexampleCartesian(_Factorization):
    """Why ``f`` is not cartesian."""


class CounterexampleOpCartesian(_Factorization):
    """Why ``f`` is not opcartesian."""


@dataclass(frozen=True)
class _Unlifted(_Refutation):
    """No (op)cartesian morphism above ``u`` ends (starts) at ``obj``."""

    u: str
    obj: str


class MissingLift(_Unlifted):
    """No cartesian lift of ``u`` at ``obj``."""


class MissingOpLift(_Unlifted):
    """No opcartesian lift of ``u`` at ``obj``."""


@dataclass(frozen=True)
class _Detailed(_Refutation):
    detail: str


class SplitViolation(_Detailed):
    """A broken identity or composition law of a cleavage."""


class Counterexample(_Detailed):
    """A broken closure property of cartesian morphisms."""


def _composable(cat: FinCat, m: str, op: bool) -> list[tuple[str, str, str]]:
    """(x, far end of x, m∘x) for every x ending where ``m`` starts, read in
    the opposite category when ``op``: (x, cod x, x∘m) for x starting
    where ``m`` ends."""
    if op:
        return [(x.name, x.cod, cat.compose[(x.name, m)]) for x in cat.arrows_from(cat.cod(m))]
    return [(x.name, x.dom, cat.compose[(m, x.name)]) for x in cat.arrows_into(cat.dom(m))]


def _cartesian_scan(p: FunctorOver, f: str, op: bool) -> bool | _Factorization:
    """Cartesian scan of ``f``, or the opcartesian one when ``op``: the same
    scan read in the opposite direction. Each g sharing f's codomain
    (domain), over u∘w (w∘u) with u = P(f), needs exactly one mediating
    morphism h over w with f∘h = g (h∘f = g)."""
    total, over = p.total, p.proj.mor_map
    fa = total.arrow(f)  # raises UnknownMorphism
    ws = _composable(p.base, over[f], op)
    # Mediating morphisms h, counted by (far end z, P(h), f∘h), once per call.
    mediating = Counter((z, over[h], fh) for h, z, fh in _composable(total, f, op))
    if op:
        outer = [(g.name, g.cod) for g in total.arrows_from(fa.dom)]
    else:
        outer = [(g.name, g.dom) for g in total.arrows_into(fa.cod)]
    for g, z in outer:
        pz, pg = p.proj.obj_map[z], over[g]
        for w, wz, uw in ws:
            if wz != pz or uw != pg:
                continue
            count = mediating[(z, w, g)]
            if count != 1:
                found = CounterexampleOpCartesian if op else CounterexampleCartesian
                return found(f, g, w, count)
    return True


def is_cartesian(p: FunctorOver, f: str) -> bool | CounterexampleCartesian:
    """Scan every (g, w) factorization through the codomain of ``f``."""
    return _cartesian_scan(p, f, False)


def is_opcartesian(p: FunctorOver, f: str) -> bool | CounterexampleOpCartesian:
    """Exact dual: factorizations h∘f = g over w with w∘u = P(g)."""
    return _cartesian_scan(p, f, True)


def _lift_scan(p: FunctorOver, op: bool) -> Cleavage | OpCleavage | _Unlifted:
    """A cartesian lift of every base morphism at every object above its
    codomain, or an opcartesian one at every object above its domain when
    ``op``; the first lift in presentation order wins."""
    total, over = p.total, p.proj.mor_map
    ends = [(u.name, u.dom if op else u.cod) for u in p.base.arrows]
    near = total.arrows_from if op else total.arrows_into
    lifts: dict[tuple[str, str], str] = {}
    for y in total.objects:
        over_y, candidates = p.obj_over(y), near(y)
        for u, end in ends:
            if end != over_y:
                continue
            for cand in candidates:
                if over[cand.name] == u and _cartesian_scan(p, cand.name, op) is True:
                    lifts[(u, y)] = cand.name
                    break
            else:
                return (MissingOpLift if op else MissingLift)(u, y)
    return (OpCleavage if op else Cleavage)(lifts)


def check_fibration(p: FunctorOver) -> Cleavage | MissingLift:
    """Find a cartesian lift for every base morphism at every object above
    its codomain; the first lift in presentation order wins."""
    return _lift_scan(p, False)


def check_opfibration(p: FunctorOver) -> OpCleavage | MissingOpLift:
    """Find an opcartesian lift for every base morphism at every object
    above its domain; the first lift in presentation order wins."""
    return _lift_scan(p, True)


def _split_scan(p: FunctorOver, lift: dict[tuple[str, str], str], op: bool) -> bool | SplitViolation:
    """Identity and composition laws of a cleavage, on the nose; of an
    opcleavage when ``op``, where each pair is lifted from the domain."""
    total, base = p.total, p.base
    kind = "op-lift" if op else "lift"
    for y in total.objects:
        key = (base.identity[p.obj_over(y)], y)
        if key not in lift:
            return SplitViolation(f"no {kind} of the identity at {y!r}")
        if lift[key] != total.identity[y]:
            return SplitViolation(f"{kind} of the identity at {y!r} is {lift[key]!r}")
    for (g, f), gf in base.compose.items():
        if base.is_identity(g) or base.is_identity(f):
            continue
        # lift ``first`` at z, then ``second`` at the far end of that lift
        first, second, end = (f, g, base.dom(f)) if op else (g, f, base.cod(g))
        for z in total.objects:
            if p.obj_over(z) != end:
                continue
            near = lift.get((first, z))
            if near is None:
                return SplitViolation(f"no {kind} of {first!r} at {z!r}")
            mid = total.cod(near) if op else total.dom(near)
            far = lift.get((second, mid))
            if far is None:
                return SplitViolation(f"no {kind} of {second!r} at {mid!r}")
            direct = lift.get((gf, z))
            if direct is None:
                return SplitViolation(f"no {kind} of {gf!r} at {z!r}")
            if total.compose[(far, near) if op else (near, far)] != direct:
                return SplitViolation(
                    f"{kind}s of ({g!r}, {f!r}) at {z!r} do not compose to the {kind} of {gf!r}"
                )
    return True


def check_split(p: FunctorOver, c: Cleavage) -> bool | SplitViolation:
    """Identity and composition conditions for a cleavage, on the nose."""
    return _split_scan(p, c.lift, False)


def check_split_op(p: FunctorOver, k: OpCleavage) -> bool | SplitViolation:
    """Identity and composition conditions for an opcleavage, on the nose."""
    return _split_scan(p, k.lift, True)


def _vertical_factors(p: FunctorOver, top: str, outer: str) -> list[str]:
    """Every vertical h with top∘h = outer."""
    total = p.total
    return [
        h
        for h in total.hom(total.dom(outer), total.dom(top))
        if p.is_vertical(h) and total.compose[(top, h)] == outer
    ]


def factor_vertical_cartesian(
    p: FunctorOver, c: Cleavage, g: str
) -> tuple[str, str]:
    """Split a total morphism as (vertical h, cartesian f) with f∘h = g."""
    total = p.total
    ga = total.arrow(g)
    u = p.over(g)
    key = (u, ga.cod)
    if key not in c.lift:
        raise NoLiftInCleavage(u, ga.cod)
    f = c.lift[key]
    candidates = _vertical_factors(p, f, g)
    if len(candidates) != 1:
        raise NotSplit(
            f"{len(candidates)} vertical factorizations of {g!r} through {f!r}"
        )
    return candidates[0], f


def property_cartesian_compose(p: FunctorOver) -> bool | Counterexample:
    """Composites of cartesian morphisms must be cartesian; full scan."""
    cartesian = {
        a.name: is_cartesian(p, a.name) is True for a in p.total.arrows
    }
    for (g, f), gf in p.total.compose.items():
        if cartesian[g] and cartesian[f] and not cartesian[gf]:
            return Counterexample(
                f"composite {gf!r} of cartesian pair ({g!r}, {f!r}) is not cartesian"
            )
    return True


def property_cartesian_over_iso(p: FunctorOver) -> bool | Counterexample:
    """Cartesian morphisms above invertible base morphisms must be invertible."""
    for a in p.total.arrows:
        if is_cartesian(p, a.name) is not True:
            continue
        if p.base.inverse_of(p.over(a.name)) is None:
            continue
        if p.total.inverse_of(a.name) is None:
            return Counterexample(
                f"{a.name!r} lies above an isomorphism but has no inverse"
            )
    return True


def recover_indexed(
    p: FunctorOver,
    c: Cleavage,
    object_labels: dict[str, tuple[str, ...]] | None = None,
    arrow_labels: dict[str, tuple[str, ...]] | None = None,
) -> IndexedFamily:
    """Read a strict indexed family back off a split cleavage.

    Fibres are the sub-presentations above each base identity; the pull
    functor of a base morphism sends an object to the domain of its chosen
    lift and a vertical morphism to the unique vertical factorization
    through that lift. When pair labels are supplied (constructed
    categories carry them), fibre ids are relabelled to their second
    component so that rebuilding the total category reproduces the
    original ids.
    """
    verdict = check_split(p, c)
    if verdict is not True:
        raise NotSplit(verdict.detail)

    total, base = p.total, p.base

    def rl_obj(o: str) -> str:
        if object_labels and o in object_labels:
            return object_labels[o][-1]
        return o

    def rl_mor(m: str) -> str:
        if arrow_labels and m in arrow_labels:
            return arrow_labels[m][-1]
        return m

    fibre: dict[str, FinCat] = {}
    for i in base.objects:
        objs = [y for y in total.objects if p.obj_over(y) == i]
        verticals = [
            a for a in total.arrows
            if p.over(a.name) == base.identity[i] and a.dom in objs
        ]
        names = {a.name for a in verticals}
        arrows = [(rl_mor(a.name), rl_obj(a.dom), rl_obj(a.cod)) for a in verticals]
        identity = {rl_obj(y): rl_mor(total.identity[y]) for y in objs}
        table = {
            (rl_mor(g), rl_mor(f)): rl_mor(h)
            for (g, f), h in total.compose.items()
            if g in names and f in names
        }
        fibre[i] = validate_category(
            f"{total.name}|{i}", [rl_obj(y) for y in objs], arrows, table, identity
        )

    pull: dict[str, FinFunctor] = {}
    for u in base.arrows:
        if base.is_identity(u.name):
            continue
        src = fibre[u.cod]
        tgt = fibre[u.dom]
        obj_map = {
            rl_obj(y): rl_obj(total.dom(c.lift[(u.name, y)]))
            for y in total.objects
            if p.obj_over(y) == u.cod
        }
        mor_map = {}
        for a in total.arrows:
            if p.over(a.name) != base.identity[u.cod]:
                continue
            top = c.lift[(u.name, a.cod)]
            bottom = c.lift[(u.name, a.dom)]
            carried = _vertical_factors(p, top, total.compose[(a.name, bottom)])
            if len(carried) != 1:
                raise NotSplit(
                    f"vertical transport of {a.name!r} along {u.name!r} is not unique"
                )
            mor_map[rl_mor(a.name)] = rl_mor(carried[0])
        pull[u.name] = validate_functor(f"pull_{u.name}", src, tgt, obj_map, mor_map)

    return validate_family(base, fibre, pull)
