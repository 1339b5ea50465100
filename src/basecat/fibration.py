"""Verification of cartesian structure for a functor.

A morphism is cartesian when each qualifying (g, w) factorization admits
exactly one mediating morphism, and a functor is a fibration when a
cartesian lift exists for every (base morphism, object above its codomain)
pair. Both are finite scans here, except in one case decided by counting:
when exactly one arrow lies above each base arrow u at each object y above
its codomain, P is a discrete fibration and every arrow is cartesian. For f
over u and g over u∘w at y, the one h over w at dom f gives f∘h over u∘w
at y, so f∘h = g and h is unique. ``_lift_index`` makes that count, once
per projection and direction, and every (op)cartesian verdict is read
through one memo, ``_verdict``. When a base factorization u∘w = P(g) holds
for several w, each w is checked independently. Each dual check
(opcartesian, opfibration, split opcleavage) is the forward one read in the
opposite direction: one function per notion takes an ``op`` flag.

The split composition law of a cleavage is one scan of one base composite
(``_composition_fault``). It decides the law on generators of the base
(``FinCat._generating``): once the cleavage is total and well placed, the
law holds for every pair when it holds for the pairs whose outer factor g
is a generator (the inner factor, for an opcleavage). The same scan runs
over every base composite, in table order, only to name the first fault.
A split cleavage proves the family ``recover_indexed`` reads off it, so
that family is built, not validated again.

"Vertical" means the projection sends the morphism to an identity, so
fibres are computable sub-presentations.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .core import Arrow, FinCat, FinFunctor, ReadOnly, assemble, identity_functor
from .errors import NoLiftInCleavage, NotSplit, Refutation, UnknownMorphism
from .family import IndexedFamily
from .records import Frozen


class FunctorOver(Frozen):
    """A functor regarded as a projection from a total to a base category.

    Besides ``proj`` it holds the two categories, the total objects above
    each base object, and per direction (cartesian, then opcartesian) one
    lift index and one memo of verdicts, each built when first read. The
    scans read the projection's maps and the two composition tables
    through their read-only views.
    """

    proj: FinFunctor

    def __init__(self, proj: FinFunctor) -> None:
        # Set one by one, which keeps the scans' reads of them fastest.
        set_attr = object.__setattr__
        set_attr(self, "proj", proj)
        set_attr(self, "total", proj.source)
        set_attr(self, "base", proj.target)
        set_attr(self, "_verdicts", ({}, {}))
        set_attr(self, "_lifts", {})

    def over(self, morphism: str) -> str:
        return self.proj.mor(morphism)

    def obj_over(self, obj: str) -> str:
        return self.proj.obj(obj)

    def is_vertical(self, morphism: str) -> bool:
        return self.base.is_identity(self.over(morphism))

    @cached_property
    def _above(self) -> dict[str, list[str]]:
        above: dict[str, list[str]] = {i: [] for i in self.base.objects}
        for y in self.total.objects:
            above[self.proj.obj_map[y]].append(y)
        return above

    def cartesian(self) -> Mapping[str, bool]:
        """Whether each total morphism is cartesian, as a read-only view of
        the memo every check shares: each missing verdict is read through
        ``_verdict``, so nothing is scanned for a discrete fibration."""
        memo = self._verdicts[False]
        if len(memo) < len(self.total.arrows):
            for a in self.total.arrows:
                _verdict(self, a.name, False)
        return MappingProxyType(memo)


class Cleavage(ReadOnly):
    """Chosen cartesian lift for every (base morphism, object above cod)."""

    lift: Mapping[tuple[str, str], str]
    read_only = ("lift",)


class OpCleavage(ReadOnly):
    """Chosen opcartesian lift for every (base morphism, object above dom)."""

    lift: Mapping[tuple[str, str], str]
    read_only = ("lift",)


class _Factorization(Frozen, Refutation):
    """A factorization of ``g`` through ``f`` over ``w`` whose mediating
    morphisms number ``mediating_count`` instead of one."""

    f: str
    g: str
    w: str
    mediating_count: int


class CounterexampleCartesian(_Factorization):
    template = "{f!r} is not cartesian: {mediating_count} morphisms over {w!r} factor {g!r} through it"


class CounterexampleOpCartesian(_Factorization):
    template = "{f!r} is not opcartesian: {mediating_count} morphisms over {w!r} factor {g!r} through it"


class _Unlifted(Frozen, Refutation):
    """No (op)cartesian morphism above ``u`` ends (starts) at ``obj``."""

    u: str
    obj: str


class MissingLift(_Unlifted):
    template = "no cartesian lift of {u!r} ends at {obj!r}"


class MissingOpLift(_Unlifted):
    template = "no opcartesian lift of {u!r} starts at {obj!r}"


class _Detailed(Frozen, Refutation):
    detail: str


class SplitViolation(_Detailed):
    """A broken identity or composition law of a cleavage, a lift it lacks,
    or a lift it chose that is not (op)cartesian."""
    template = "cleavage is not split: {detail}"


class Counterexample(_Detailed):
    template = "a closure property of cartesian morphisms fails: {detail}"


def _composable(cat: FinCat, m: str, op: bool) -> list[tuple[str, str, str]]:
    """(x, far end of x, m∘x) for every x ending where ``m`` starts, read in
    the opposite category when ``op``: (x, cod x, x∘m) for x starting
    where ``m`` ends."""
    table = cat.compose
    if op:
        return [(x.name, x.cod, table[(x.name, m)]) for x in cat.arrows_from(cat.cod(m))]
    return [(x.name, x.dom, table[(m, x.name)]) for x in cat.arrows_into(cat.dom(m))]


def _cartesian_scan(p: FunctorOver, f: str, op: bool) -> bool | _Factorization:
    """Cartesian scan of ``f``, or the opcartesian one when ``op``: the same
    scan read in the opposite direction. Each g sharing f's codomain
    (domain), over u∘w (w∘u) with u = P(f), needs exactly one mediating
    morphism h over w with f∘h = g (h∘f = g)."""
    total, over, obj_over = p.total, p.proj.mor_map, p.proj.obj_map
    fa = total.arrow(f)  # raises UnknownMorphism
    ws = _composable(p.base, over[f], op)
    # Mediating morphisms h, counted by (far end z, P(h), f∘h), once per call.
    mediating: dict[tuple[str, str, str], int] = {}
    for h, z, fh in _composable(total, f, op):
        key = (z, over[h], fh)
        mediating[key] = mediating.get(key, 0) + 1
    if op:
        outer = [(g.name, g.cod) for g in total.arrows_from(fa.dom)]
    else:
        outer = [(g.name, g.dom) for g in total.arrows_into(fa.cod)]
    for g, z in outer:
        pz, pg = obj_over[z], over[g]
        for w, wz, uw in ws:
            if wz != pz or uw != pg:
                continue
            count = mediating.get((z, w, g), 0)
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


def _lift_index(p: FunctorOver, op: bool) -> tuple[dict[tuple[str, str], list[str]], bool]:
    """The arrows above each base arrow u ending at each object y above
    cod u (starting at each y above dom u when ``op``), in presentation
    order and keyed (u, y) by y, then u, in presentation order; and whether
    P is a discrete (op)fibration: each arrow lies at one pair, so as many
    pairs as arrows, none of them empty, means one arrow at each."""
    if op not in p._lifts:
        total, over, obj_over = p.total, p.proj.mor_map, p.proj.obj_map
        near = p.base.arrows_from if op else p.base.arrows_into
        index = {(u.name, y): [] for y in total.objects for u in near(obj_over[y])}
        for a in total.arrows:
            index[(over[a.name], a.dom if op else a.cod)].append(a.name)
        p._lifts[op] = index, len(index) == len(total.arrows) and all(index.values())
    return p._lifts[op]


def _verdict(p: FunctorOver, f: str, op: bool) -> bool:
    """Whether ``f`` is (op)cartesian, decided once per projection: every
    arrow of a discrete (op)fibration is, and any other arrow is scanned."""
    memo = p._verdicts[op]
    if f not in memo:
        memo[f] = _lift_index(p, op)[1] or bool(_cartesian_scan(p, f, op))
    return memo[f]


def _lift_scan(p: FunctorOver, op: bool) -> Cleavage | OpCleavage | _Unlifted:
    """A cartesian lift of every base morphism at every object above its
    codomain, or an opcartesian one at every object above its domain when
    ``op``; the first lift in presentation order wins.

    When ``_lift_index`` finds one arrow at each pair, those arrows are the
    cleavage. Otherwise each pair's arrows are tried in order through
    ``_verdict``, and the scan names the first pair without a lift."""
    index, discrete = _lift_index(p, op)
    if discrete:
        return (OpCleavage if op else Cleavage)({pair: arrows[0] for pair, arrows in index.items()})
    lifts: dict[tuple[str, str], str] = {}
    for pair, arrows in index.items():
        for f in arrows:
            if _verdict(p, f, op):
                lifts[pair] = f
                break
        else:
            return (MissingOpLift if op else MissingLift)(*pair)
    return (OpCleavage if op else Cleavage)(lifts)


def check_fibration(p: FunctorOver) -> Cleavage | MissingLift:
    """Find a cartesian lift for every base morphism at every object above
    its codomain; the first lift in presentation order wins."""
    return _lift_scan(p, False)


def check_opfibration(p: FunctorOver) -> OpCleavage | MissingOpLift:
    """Find an opcartesian lift for every base morphism at every object
    above its domain; the first lift in presentation order wins."""
    return _lift_scan(p, True)


def _split_scan(p: FunctorOver, lift: Mapping[tuple[str, str], str], op: bool) -> bool | SplitViolation:
    """Identity and composition laws of a cleavage, on the nose, and a
    cartesian lift of every base arrow at every object above its codomain;
    of an opcleavage when ``op``, where each pair is lifted from the domain
    and every lift is opcartesian. Each verdict is read through
    ``_verdict``.

    One walk of the (base arrow u, object y above cod u) pairs, u first,
    finds the first whose lift is missing, lies above another arrow or
    does not end at y (above dom u, and start at y, when ``op``), and the
    first lift before it that is not (op)cartesian.

    The composition law is one scan, ``_composition_fault``. When every lift
    is in place, it runs on the composites whose outer
    factor g is a generator of the base (``FinCat._generating``; the inner
    factor, for an opcleavage), and that decides every pair: with g = s∘w,
    lift(s∘w∘f) = lift(s)∘lift(w∘f) = lift(s)∘lift(w)∘lift(f)
    = lift(g)∘lift(f), by associativity of the total. Otherwise it runs on
    every base composite, in table order, to name the first fault."""
    total, base = p.total, p.base
    lift, obj_over, is_identity = lift.copy(), p.proj.obj_map, base.is_identity
    kind = "op-lift" if op else "lift"
    for y in total.objects:
        key = (base.identity[obj_over[y]], y)
        if key not in lift:
            return SplitViolation(f"no {kind} of the identity at {y!r}")
        if lift[key] != total.identity[y]:
            return SplitViolation(f"{kind} of the identity at {y!r} is {lift[key]!r}")
    over, arrow, above = p.proj.mor_map, total._by_name.get, p._above
    misplaced = not_cartesian = None
    for u in base.arrows:
        for y in above[u.dom if op else u.cod]:
            f = arrow(lift.get((u.name, y)))
            if f is None or over[f.name] != u.name or (f.dom if op else f.cod) != y:
                misplaced = misplaced or (u.name, y)
            elif not (misplaced or not_cartesian or _verdict(p, f.name, op)):
                not_cartesian = f"{kind} {f.name!r} of {u.name!r} at {y!r} is not {'opcartesian' if op else 'cartesian'}"
    composites = [(g, f, gf) for (g, f), gf in base.compose.items() if not (is_identity(g) or is_identity(f))]
    generating = base._generating
    if misplaced is not None or any(
        _composition_fault(p, lift, op, g, f, gf) for g, f, gf in composites if (f if op else g) in generating
    ):
        for g, f, gf in composites:
            fault = _composition_fault(p, lift, op, g, f, gf)
            if fault is not None:
                return SplitViolation(fault)
        # Checked after the composition law, so that a broken law still
        # reports that law.
        if misplaced is not None:
            return SplitViolation(f"no {kind} of {misplaced[0]!r} at {misplaced[1]!r}")
    # Then every lift is (op)cartesian,
    if not_cartesian is not None:
        return SplitViolation(not_cartesian)
    # and no lift is chosen at anything but such a pair.
    index, side = _lift_index(p, op)[0], "domain" if op else "codomain"
    for key in lift:
        if key not in index:
            return SplitViolation(f"{kind} at {key!r}, not a (base arrow, object above its {side}) pair")
    return True


def _composition_fault(
    p: FunctorOver, lift: Mapping[tuple[str, str], str], op: bool, g: str, f: str, gf: str
) -> str | None:
    """Where lift(g∘f) = lift(g)∘lift(f) first fails, at the objects above
    cod g in presentation order, or None; at those above dom f, lifting
    from the domain, when ``op``. The first factor is lifted at z and the
    second at the far end of that lift; a lift that names no arrow of the
    total is no lift."""
    base, arrow, table = p.base, p.total._by_name.get, p.total.compose
    kind = "op-lift" if op else "lift"
    first, second, end = (f, g, base.dom(f)) if op else (g, f, base.cod(g))
    for z in p._above[end]:
        near = arrow(lift.get((first, z)))
        if near is None:
            return f"no {kind} of {first!r} at {z!r}"
        mid = near.cod if op else near.dom
        far = arrow(lift.get((second, mid)))
        if far is None:
            return f"no {kind} of {second!r} at {mid!r}"
        direct = lift.get((gf, z))
        if direct is None:
            return f"no {kind} of {gf!r} at {z!r}"
        if table.get((far.name, near.name) if op else (near.name, far.name)) != direct:
            return f"{kind}s of ({g!r}, {f!r}) at {z!r} do not compose to the {kind} of {gf!r}"
    return None


def check_split(p: FunctorOver, c: Cleavage) -> bool | SplitViolation:
    """Identity and composition conditions for a cleavage, on the nose,
    and a cartesian lift of every base arrow at every object above its
    codomain."""
    return _split_scan(p, c.lift, False)


def check_split_op(p: FunctorOver, k: OpCleavage) -> bool | SplitViolation:
    """Identity and composition conditions for an opcleavage, on the nose,
    and an opcartesian lift of every base arrow at every object above its
    domain."""
    return _split_scan(p, k.lift, True)


def _vertical_factors(p: FunctorOver, top: str, outer: str) -> list[str]:
    """Every vertical h with top∘h = outer, both arrows of the total."""
    total, over, base_ids = p.total, p.proj.mor_map, p.base._identity_names
    by_name, table, found = total._by_name, total.compose, []
    for h in total._homs.get((by_name[outer].dom, by_name[top].dom), ()):
        if over[h] in base_ids and table[top, h] == outer:
            found.append(h)
    return found


def factor_vertical_cartesian(
    p: FunctorOver, c: Cleavage, g: str
) -> tuple[str, str]:
    """Split a total morphism as (vertical h, cartesian f) with f∘h = g."""
    by_name = p.total._by_name
    if g not in by_name:
        raise UnknownMorphism(g)
    u, cod = p.proj.mor_map[g], by_name[g].cod
    f = c.lift.get((u, cod))
    if f is None:
        raise NoLiftInCleavage(u, cod)
    if f not in by_name:
        raise UnknownMorphism(f)
    candidates = _vertical_factors(p, f, g)
    if len(candidates) != 1:
        raise NotSplit(f"{len(candidates)} vertical factorizations of {g!r} through {f!r}")
    return candidates[0], f


def property_cartesian_compose(p: FunctorOver) -> bool | Counterexample:
    """Composites of cartesian morphisms must be cartesian; full scan."""
    cartesian = p.cartesian()
    for (g, f), gf in p.total.compose.items():
        if cartesian[g] and cartesian[f] and not cartesian[gf]:
            return Counterexample(
                f"composite {gf!r} of cartesian pair ({g!r}, {f!r}) is not cartesian"
            )
    return True


def property_cartesian_over_iso(p: FunctorOver) -> bool | Counterexample:
    """Cartesian morphisms above invertible base morphisms must be invertible."""
    cartesian = p.cartesian()
    above = [a.name for a in p.total.arrows if cartesian[a.name]]
    # Whether each base arrow under a cartesian one is invertible, decided once.
    invertible = {m: p.base.inverse_of(m) is not None for m in set(map(p.over, above))}
    for name in above:
        if invertible[p.over(name)] and p.total.inverse_of(name) is None:
            return Counterexample(f"{name!r} lies above an isomorphism but has no inverse")
    return True


def recover_indexed(
    p: FunctorOver,
    c: Cleavage,
    object_labels: Mapping[str, tuple[str, ...]] | None = None,
    arrow_labels: Mapping[str, tuple[str, ...]] | None = None,
) -> IndexedFamily:
    """Read a strict indexed family back off a split cleavage.

    Fibres are the sub-presentations above each base identity; the pull
    functor of a base morphism sends an object to the domain of its chosen
    lift and a vertical morphism to the unique vertical factorization
    through that lift. When pair labels are supplied (constructed
    categories carry them), fibre ids are relabelled to their second
    component so that rebuilding the total category reproduces the
    original ids.

    ``check_split`` proves what is built here, so nothing is validated
    again: fibres are sub-presentations of the total (``assemble``), and
    the pulls are functors, strict by the split laws. The vertical factor
    is unique because every chosen lift is cartesian: for a vertical
    a: y → y′ above cod u, a∘lift(u, y) lies over u∘id, so exactly one h
    over the identity has lift(u, y′)∘h = a∘lift(u, y).
    """
    verdict = check_split(p, c)
    if not verdict:
        raise NotSplit(verdict.detail)

    total, base = p.total, p.base
    # Each total id's fibre id: the last component of its label, if any.
    obj_labels, mor_labels = object_labels or {}, arrow_labels or {}
    rl_obj = {o: obj_labels[o][-1] if o in obj_labels else o for o in total.objects}
    rl_mor = {m: mor_labels[m][-1] if m in mor_labels else m for m in total._by_name}

    # Grouped once, each group in presentation (table) order: the vertical
    # arrows above each base identity, and the composites of two such
    # arrows; the objects above each base object are the projection's.
    objs = p._above
    verticals: dict[str, list[Arrow]] = {i: [] for i in base.objects}
    fibre_of: dict[str, str] = {}  # vertical arrow -> base object under it
    over, obj_over, base_ids = p.proj.mor_map, p.proj.obj_map, base._identity_names
    for a in total.arrows:
        if over[a.name] in base_ids:
            fibre_of[a.name] = obj_over[a.dom]
            verticals[fibre_of[a.name]].append(a)
    composites: dict[str, list[tuple[str, str, str]]] = {i: [] for i in base.objects}
    for (g, f), h in total.compose.items():
        if g in fibre_of and f in fibre_of:
            composites[fibre_of[g]].append((g, f, h))

    fibre: dict[str, FinCat] = {}
    for i in base.objects:
        arrows = [Arrow(rl_mor[a.name], rl_obj[a.dom], rl_obj[a.cod]) for a in verticals[i]]
        identity = {rl_obj[y]: rl_mor[total.identity[y]] for y in objs[i]}
        table = {(rl_mor[g], rl_mor[f]): rl_mor[h] for g, f, h in composites[i]}
        fibre[i] = assemble(f"{total.name}|{i}", [rl_obj[y] for y in objs[i]], arrows, table, identity)

    pull: dict[str, FinFunctor] = {}
    by_name = total._by_name
    for u in base.arrows:
        if u.name in base_ids:
            continue
        obj_map = {rl_obj[y]: rl_obj[by_name[c.lift[(u.name, y)]].dom] for y in objs[u.cod]}
        mor_map = {}
        for a in verticals[u.cod]:
            top = c.lift[(u.name, a.cod)]
            bottom = c.lift[(u.name, a.dom)]
            mor_map[rl_mor[a.name]] = rl_mor[_vertical_factors(p, top, total.compose[(a.name, bottom)])[0]]
        pull[u.name] = FinFunctor(f"pull_{u.name}", fibre[u.cod], fibre[u.dom], obj_map, mor_map)
    for i in base.objects:
        pull[base.identity[i]] = identity_functor(fibre[i])
    return IndexedFamily(base, fibre, pull)
