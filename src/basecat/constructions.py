"""Categories built out of a functor: graphs, category actions, the strict
Grothendieck construction and transformation groupoids.

The graph, the left and right actions (abstract and concrete), the right
action over a self-dual base and the transformation groupoid are all one
construction, the category of elements of a fibre over each base object:
the concrete versions spread an object over the elements of its
underlying set, the abstract versions are the same category with
one-element fibres, the right actions are read over the opposite base, and
the transformation groupoid is the concrete left action of a group.
Composition is looked up among the element morphisms, so no variant
carries composition code of its own.

Every constructed object or morphism is named by the canonical string of
its pair label, e.g. ``(X,x1)`` or ``(f_op,y)``, so that claims of the
form "these two constructions yield the same category" can be tested as
equality of normalized presentations. Where the literal pair label of a
morphism is ambiguous (a non-injective action sends two elements to the
same label) a ``@`` tiebreak is appended to both colliding ids; the dual
construction collides in exactly the same places, so duality equalities
survive.

The right-action categories live over the opposite of the base; their
opposites coincide with the left-action categories after erasing op
markers, which is how the duality statements are checked, on the nose
(``same_presentation``).

Each construction is made from validated values and satisfies the laws
by construction, as its docstring says; it is assembled (``assemble``)
with its projection, and no law is checked again. The entry checks that
doubt their input stay: ``grothendieck_strict`` re-checks strictness and
``right_action_selfdual`` its witness.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import replace

from .core import (
    Arrow,
    FinCat,
    FinFunctor,
    IsoWitness,
    ReadOnly,
    _rows,
    assemble,
    compose_functors,
    identity_functor,
    identity_id,
    op_functor,
    op_name,
    op_tag,
    opposite,
    pair_id,
    relabelling,
    same_presentation,
    validate_witness,
)
from .errors import DuplicateId, NoSelfDualWitness, Refutation, SourceTargetMismatch, ValidationError
from .family import IndexedFamily, validate_family
from .fibration import Cleavage, FunctorOver, OpCleavage
from .records import Frozen
from .report import Report
from .sets import ConcreteStructure, FinFn, FinSetObj, validate_concrete


class ConstructedCategory(ReadOnly):
    """A category together with its projection and its provenance labels.

    ``object_labels`` and ``arrow_labels`` map every constructed id back to
    the source pair it names. An arrow needs no other name: the base arrow
    it lies over and the object it starts from pick it out, which is how
    parallel constructions over one base are matched
    (``_witness_by_projection``).
    """

    cat: FinCat
    projection: FinFunctor
    provenance: str
    object_labels: Mapping[str, tuple[str, ...]]
    arrow_labels: Mapping[str, tuple[str, ...]]
    cleavage: Cleavage | None = None
    opcleavage: OpCleavage | None = None
    read_only = ("object_labels", "arrow_labels")

    def over(self) -> FunctorOver:
        return FunctorOver(self.projection)


def _disambiguate(proposals: list[tuple[str, str]]) -> list[str]:
    """Append ``@tiebreak`` inside colliding pair ids; unique ids unchanged."""
    ids = [p for p, _ in proposals]
    if len(set(ids)) < len(ids):
        counts = Counter(ids)
        ids = [p[:-1] + "@" + t + ")" if counts[p] > 1 else p for p, t in proposals]
    return ids


class _Builder:
    """Accumulates a constructed presentation and its projection, then
    assembles them; the caller's construction is what proves the laws.
    Each object brings its identity arrow, so every object is added before
    any other arrow. The caller's table holds composites of two
    non-identities only, so each unit row ``build`` writes is new and lands
    where ``validate_category`` would put it: ``assemble`` adds nothing."""

    def __init__(self, name: str, base: FinCat, provenance: str):
        self.name = name
        self.base = base
        self.provenance = provenance
        self.objects: list[str] = []
        self.identity: dict[str, str] = {}
        self.object_labels: dict[str, tuple[str, ...]] = {}
        self.proj_obj: dict[str, str] = {}
        self.arrows: list[Arrow] = []
        self.arrow_labels: dict[str, tuple[str, ...]] = {}
        self.proj_mor: dict[str, str] = {}
        self.table: dict[tuple[str, str], str] = {}

    def add_object(self, ident: str, label: tuple[str, ...], over: str, identity_label: tuple = ()) -> str:
        """Add an object and its identity arrow; return the identity's id."""
        self.objects.append(ident)
        self.object_labels[ident] = label
        self.proj_obj[ident] = over
        unit = self.identity[ident] = identity_id(ident)
        self.arrows.append(Arrow(unit, ident, ident))
        self.arrow_labels[unit] = identity_label or tuple(map(identity_id, label))
        self.proj_mor[unit] = self.base.identity[over]
        return unit

    def add_arrow(self, ident: str, label: tuple[str, ...], dom: str, cod: str, over: str) -> None:
        self.arrows.append(Arrow(ident, dom, cod))
        self.arrow_labels[ident] = label
        self.proj_mor[ident] = over

    def build(
        self, cleavage: Cleavage | None = None, opcleavage: OpCleavage | None = None
    ) -> ConstructedCategory:
        table, identity = self.table, self.identity
        for a in self.arrows:
            table[identity[a.cod], a.name] = table[a.name, identity[a.dom]] = a.name
        cat = assemble(self.name, self.objects, self.arrows, table, identity)
        projection = FinFunctor(f"proj_{self.name}", cat, self.base, self.proj_obj, self.proj_mor)
        labels = (self.object_labels, self.arrow_labels)
        return ConstructedCategory(cat, projection, self.provenance, *labels, cleavage, opcleavage)


def _category_of_elements(
    name: str,
    provenance: str,
    c: FinCat,
    fibre: Mapping[str, Sequence[str]],
    above: Sequence[tuple[Arrow, str, str, str, str]],
    over_opposite: bool = False,
    cleavage: bool = False,
    opcleavage: bool = False,
    object_id: Callable[[str, str], str] = pair_id,
) -> ConstructedCategory:
    """The category of elements of ``fibre`` over ``c``.

    Objects are the pairs (X, x) with x in ``fibre[X]``, named
    ``object_id(X, x)``. Each element morphism (f, x, y, label, tiebreak)
    above a non-identity arrow f of ``c`` becomes the morphism (f, label):
    (dom f, x) -> (cod f, y), with colliding ids tiebroken. Composites are
    looked up, never computed: the composite of the element morphisms
    above f and g is the element morphism above g∘f between the outer
    endpoints (an identity when g∘f is one). ``over_opposite`` presents
    the result over the opposite of ``c``: every morphism is op-tagged and
    reversed, and so is composition. A requested (op)cleavage chooses the
    element morphism at each codomain (domain) object.

    When the element morphisms come from a functor or action, above each
    composite sits exactly the composite of the element morphisms, so the
    unit and associativity laws are those of ``c``, read element by element.
    """
    b = _Builder(name, opposite(c) if over_opposite else c, provenance)
    obj: dict[tuple[str, str], str] = {}
    # element morphisms above each arrow of c, as (x, y, id)
    ms: dict[str, list[tuple[str, str, str]]] = {}
    for X, unit in zip(c.objects, map(identity_id, c.objects)):
        units = ms[c.identity[X]] = []
        for x in fibre[X]:
            o = obj[X, x] = object_id(X, x)
            units.append((x, x, b.add_object(o, (X, x), X, (unit, identity_id(x)))))

    tags = [op_name(a.name) if over_opposite else a.name for a, *_ in above]
    names = _disambiguate(
        [(pair_id(t, label), tiebreak) for t, (_, _, _, label, tiebreak) in zip(tags, above)]
    )
    starting: dict[str, dict[str, list[tuple[str, str]]]] = {}
    for ident, t, (a, x, y, label, _) in zip(names, tags, above):
        f, dom, cod = a.name, obj[a.dom, x], obj[a.cod, y]
        if over_opposite:
            dom, cod = cod, dom
        b.add_arrow(ident, (t, label), dom, cod, t)
        ms.setdefault(f, []).append((x, y, ident))
        starting.setdefault(f, {}).setdefault(x, []).append((y, ident))

    at = {f: {(x, y): m for x, y, m in lst} for f, lst in ms.items()}
    ids = c._identity_names
    for (g, f), h in c.compose.items():
        if g in ids or f in ids:
            continue
        from_f, at_g = starting.get(f, {}), at.get(g, {})
        for x, z, gf in ms.get(h, ()):
            for y, first in from_f.get(x, ()):
                second = at_g.get((y, z))
                if second is not None:
                    b.table[(first, second) if over_opposite else (second, first)] = gf

    lifts, oplifts = {}, {}
    if cleavage or opcleavage:
        for u in c.arrows:
            for x, y, m in ms.get(u.name, ()):
                lifts[u.name, obj[u.cod, y]] = m
                oplifts[u.name, obj[u.dom, x]] = m
    return b.build(Cleavage(lifts) if cleavage else None, OpCleavage(oplifts) if opcleavage else None)


def _one_element_fibres(
    name: str,
    provenance: str,
    c: FinCat,
    obj: Callable[[str], str],
    label: Callable[[Arrow], str],
    **options,
) -> ConstructedCategory:
    """The abstract constructions: a single element ``obj(X)`` over each X."""
    return _category_of_elements(
        name,
        provenance,
        c,
        {x: (obj(x),) for x in c.objects},
        [(a, obj(a.dom), obj(a.cod), label(a), obj(a.dom)) for a in c.non_identity_arrows()],
        **options,
    )


def _acted_on(
    fun: FinFunctor, concrete: ConcreteStructure
) -> tuple[dict[str, tuple[str, ...]], list[tuple[Arrow, str, str]]]:
    """The underlying set of the image of each source object, and
    (f, x, image of x) for each non-identity arrow f and x over dom f."""
    if concrete.over != fun.target:
        raise SourceTargetMismatch("concrete structure is not over the functor's target")
    fibre = {x: concrete.elements(fun.obj(x)) for x in fun.source.objects}
    images = []
    for a in fun.source.non_identity_arrows():
        fn = concrete.action[fun.mor(a.name)].mapping
        images.extend((a, x, fn[x]) for x in fibre[a.dom])
    return fibre, images


def graph_category(fun: FinFunctor) -> ConstructedCategory:
    """Pair every object and morphism of the source with its image.

    The result is a subcategory of source x target whose first projection
    is bijective on objects and morphisms.
    """
    return _one_element_fibres(
        f"graph_{fun.name}",
        "graph",
        fun.source,
        fun.obj,
        lambda a: fun.mor(a.name),
        cleavage=True,
        opcleavage=True,
    )


def concrete_graph_category(
    fun: FinFunctor, concrete: ConcreteStructure
) -> ConstructedCategory:
    """Spread each object into the elements of its underlying set.

    Objects are pairs (X, x) with x an element of the set under the image
    of X; above a morphism f sit the restrictions of its function, one per
    element of the domain carrier. It is a category of elements, so the
    laws hold.
    """
    fibre, images = _acted_on(fun, concrete)
    return _category_of_elements(
        f"cgraph_{fun.name}",
        "concrete-graph",
        fun.source,
        fibre,
        [(a, x, y, f"{fun.mor(a.name)}|{x}", x) for a, x, y in images],
        opcleavage=True,
    )


class TrivialCategorification(ReadOnly):
    """One-object categories for objects, functors for morphisms."""

    fibres: Mapping[str, FinCat]
    functors: Mapping[str, FinFunctor]
    read_only = ("fibres", "functors")


def trivial_categorify(cat: FinCat) -> TrivialCategorification:
    """View each object as the category of itself and its identity.

    Each morphism induces the unique functor between the corresponding
    one-object categories; a category with one arrow has only the unit
    laws, and a functor between two such has only identities to preserve.
    """
    fibres = {o: assemble(f"triv_{o}", [o], [], {}) for o in cat.objects}
    functors = {}
    for a in cat.arrows:
        src, tgt = fibres[a.dom], fibres[a.cod]
        mor_map = {src.identity[a.dom]: tgt.identity[a.cod]}
        functors[a.name] = FinFunctor(f"triv_{a.name}", src, tgt, {a.dom: a.cod}, mor_map)
    return TrivialCategorification(fibres, functors)


def _family_over_opposite(
    c: FinCat, fibre: dict[str, FinCat], along: Callable[[Arrow], Mapping[str, str]]
) -> IndexedFamily:
    """Discrete fibres over the opposite of ``c``: the pull functor of the
    opposite of a: X -> Y maps the objects of the fibre over X by
    ``along(a)``. A map of objects between discrete categories is a
    functor, and the family is strict when ``along`` sends identities to
    identities and composites to composites, as a validated functor or
    action does."""
    pull = {}
    for a in c.arrows:
        key = op_tag(c, a.name)
        src, tgt, obj_map = fibre[a.dom], fibre[a.cod], along(a)
        mor_map = {src.identity[x]: tgt.identity[obj_map[x]] for x in src.objects}
        pull[key] = FinFunctor(f"pull_{key}", src, tgt, obj_map, mor_map)
    return IndexedFamily(opposite(c), fibre, pull)


def family_from_functor(fun: FinFunctor) -> IndexedFamily:
    """Trivially categorified fibres over the opposite of the source.

    The pull functor of the opposite of f: X -> Y carries the one-object
    fibre over X to the one-object fibre over Y, the way the image of f
    does.
    """
    triv = trivial_categorify(fun.target)
    return _family_over_opposite(
        fun.source,
        {x: triv.fibres[fun.obj(x)] for x in fun.source.objects},
        lambda a: {fun.obj(a.dom): fun.obj(a.cod)},
    )


def discrete_family(fun: FinFunctor, concrete: ConcreteStructure) -> IndexedFamily:
    """Underlying sets as discrete fibres over the opposite of the source,
    pulled along the action, which is strict because the action is a functor."""
    fibre = {
        x: assemble(f"disc_{x}", elements, [], {})
        for x, elements in _acted_on(fun, concrete)[0].items()
    }
    return _family_over_opposite(
        fun.source, fibre, lambda a: concrete.action[fun.mor(a.name)].mapping
    )


def grothendieck_strict(fam: IndexedFamily) -> ConstructedCategory:
    """Total category of a strict indexed family, with canonical cleavage.

    Strictness, checked on entry, makes the identity pair an identity and
    composition associative on the nose; the canonical cartesian lift of u
    at (J, Y) is (u, identity of pull(u)(Y)).
    """
    fam = validate_family(fam.base, fam.fibre, fam.pull)  # re-check strictness
    base, fibre, pull = fam.base, fam.fibre, fam.pull
    b = _Builder(f"total_{base.name}", base, "grothendieck")
    obj: dict[tuple[str, str], str] = {}
    id_of: dict[tuple[str, str, str], str] = {}
    for i in base.objects:
        for x in fibre[i].objects:
            label = (base.identity[i], fibre[i].identity[x])
            o = obj[(i, x)] = pair_id(i, x)
            id_of[(*label, x)] = b.add_object(o, (i, x), i, label)

    proposals, entries = [], []
    base_ids = base._identity_names
    for u in base.arrows:
        fib_i, obj_map = fibre[u.dom], pull[u.name].obj_map
        into, fibre_ids = fib_i._into, fib_i._identity_names
        for y in fibre[u.cod].objects:
            for v in into.get(obj_map[y], ()):
                if u.name in base_ids and v.name in fibre_ids and y == v.dom:
                    continue  # the identity pair is the identity morphism
                proposals.append((pair_id(u.name, v.name), y))
                entries.append((u, v.name, y, v.dom))
    names = _disambiguate(proposals)
    # second factors by (base domain, fibre domain), in presentation order
    seconds: dict[tuple[str, str], list[tuple[str, str, str, str]]] = {}
    for ident, (u, v, y, x) in zip(names, entries):
        id_of[(u.name, v, y)] = ident
        b.add_arrow(ident, (u.name, v), obj[(u.dom, x)], obj[(u.cod, y)], u.name)
        seconds.setdefault((u.dom, x), []).append((u.name, v, y, ident))

    base_rows = _rows(base.arrows, base.compose)
    # one row table per fibre category, however many base objects share it
    fibres = {id(fib): fib for fib in fibre.values()}
    rows_by_id = {key: _rows(fib.arrows, fib.compose) for key, fib in fibres.items()}
    rows_of = {i: rows_by_id[id(fib)] for i, fib in fibre.items()}
    for ident, (u1, v1, y1, _) in zip(names, entries):
        fibre_rows, carry = rows_of[u1.dom], pull[u1.name].mor_map
        for u2, v2, y2, m2 in seconds.get((u1.cod, y1), ()):
            u3 = base_rows[u2][u1.name]
            v3 = fibre_rows[carry[v2]][v1]
            b.table[(m2, ident)] = id_of[(u3, v3, y2)]

    lifts = {}
    for u in base.arrows:
        obj_map, units = pull[u.name].obj_map, fibre[u.dom].identity
        for y in fibre[u.cod].objects:
            lifts[(u.name, obj[(u.cod, y)])] = id_of[(u.name, units[obj_map[y]], y)]
    return b.build(cleavage=Cleavage(lifts))


def abstract_left_action(fun: FinFunctor) -> ConstructedCategory:
    """The source acting on its trivially categorified images, covariantly.

    Morphisms are pairs (f, id over the image of the codomain); the second
    components stay identities, so the whole structure is the base's.
    """
    return _one_element_fibres(
        f"lact_{fun.name}",
        "left-action",
        fun.source,
        fun.obj,
        lambda a: identity_id(fun.obj(a.cod)),
        cleavage=True,
        opcleavage=True,
    )


def abstract_right_action(fun: FinFunctor) -> ConstructedCategory:
    """The same data presented over the opposite of the source.

    A morphism f: X -> Y contributes (f_op, id over the image of Y) from
    the pair on Y to the pair on X; erasing op markers from the opposite
    of this category reproduces the left action literally.
    """
    return _one_element_fibres(
        f"ract_{fun.name}",
        "right-action",
        fun.source,
        fun.obj,
        lambda a: identity_id(fun.obj(a.cod)),
        over_opposite=True,
    )


def concrete_left_action(
    fun: FinFunctor, concrete: ConcreteStructure
) -> ConstructedCategory:
    """Elements acted on along the underlying functions, covariantly.

    A morphism f and an element x of the domain carrier contribute
    (f, y): (X, x) -> (Y, y) with y the image of x; the label carries the
    image, so colliding labels are tiebroken by the domain element. It is a
    category of elements, so the laws hold.
    """
    fibre, images = _acted_on(fun, concrete)
    return _category_of_elements(
        f"clact_{fun.name}",
        "concrete-left-action",
        fun.source,
        fibre,
        [(a, x, y, y, x) for a, x, y in images],
        opcleavage=True,
    )


def concrete_right_action(
    fun: FinFunctor, concrete: ConcreteStructure
) -> ConstructedCategory:
    """Elements acted on contravariantly, over the opposite of the source.

    A morphism f: X -> Y and an element x of the domain carrier contribute
    (f_op, y): (Y, y) -> (X, x) with y the image of x. The opposite of
    this category erases to the concrete left action byte for byte, so the
    laws hold as they do there.
    """
    fibre, images = _acted_on(fun, concrete)
    return _category_of_elements(
        f"cract_{fun.name}",
        "concrete-right-action",
        fun.source,
        fibre,
        [(a, x, y, y, x) for a, x, y in images],
        over_opposite=True,
    )


def inverse_witness(cat: FinCat) -> IsoWitness:
    """Self-duality of a groupoid: send each morphism to its tagged inverse."""
    mor_map = {}
    for a in cat.arrows:
        inv = cat.inverse_of(a.name)
        if inv is None:
            raise NoSelfDualWitness(f"morphism {a.name!r} has no inverse")
        mor_map[a.name] = op_tag(cat, inv)
    objects = {o: o for o in cat.objects}
    return relabelling(f"selfdual_{cat.name}", cat, opposite(cat), objects, mor_map)


def contravariant_via_witness(fun: FinFunctor, witness: IsoWitness) -> FinFunctor:
    """Turn a covariant functor into contravariant data along a self-duality.

    The result is presented covariantly on the opposite of the source;
    for a group acting by phi with the inverse witness this is exactly
    g |-> phi of the inverse of g.
    """
    c = fun.source
    if witness.forward.source != c or witness.forward.target != opposite(c):
        raise NoSelfDualWitness("witness is not between the source and its opposite")
    composite = compose_functors(fun, op_functor(witness.forward))
    return replace(composite, name=f"{fun.name}_contra")


def right_action_selfdual(
    fbar: FinFunctor,
    witness: IsoWitness,
    concrete: ConcreteStructure | None = None,
) -> ConstructedCategory:
    """Right action indexed directly over a self-dual base.

    ``fbar`` is the contravariant data, presented covariantly on the
    opposite of the base; the witness is what entitles the construction to
    land back over the base itself. With a concrete structure the result
    is the category of elements (X, x) with morphisms (f, x): (X, x) ->
    (Y, y) where x is carried from y against the direction of f. Either way
    it is a category of elements, so the laws hold.
    """
    c = witness.forward.source
    try:
        validate_witness(witness.forward, witness.backward)
    except ValidationError as exc:
        raise NoSelfDualWitness(str(exc)) from exc
    if witness.forward.target != opposite(c):
        raise NoSelfDualWitness("witness does not target the opposite category")
    if fbar.source != witness.forward.target:
        raise NoSelfDualWitness("contravariant data must be presented on the opposite of the base")

    if concrete is None:
        return _one_element_fibres(
            f"sdract_{fbar.name}", "selfdual-right-action", c, fbar.obj,
            lambda a: identity_id(fbar.obj(a.dom)),
        )

    # fbar's source is the opposite of c: c's objects and arrows, in c's order.
    fibre, images = _acted_on(fbar, concrete)
    carried = [(c.arrow(op_name(a.name)), x, y, x, y) for a, y, x in images]
    return _category_of_elements(
        f"sdcract_{fbar.name}", "selfdual-concrete-right-action", c, fibre, carried
    )


class GroupAction(ReadOnly):
    """A one-object groupoid acting on a finite set through functions."""

    group: FinCat
    carrier: FinSetObj
    phi: Mapping[str, FinFn]
    read_only = ("phi",)

    @property
    def star(self) -> str:
        return self.group.objects[0]


def validate_group_action(
    group: FinCat, carrier: FinSetObj, phi: Mapping[str, FinFn]
) -> GroupAction:
    """Check the acting category is a group and phi is functorial."""
    if len(group.objects) != 1:
        raise ValidationError("acting category must have exactly one object")
    if not group.is_groupoid():
        raise ValidationError("acting category must have all morphisms invertible")
    star = group.objects[0]
    concrete = validate_concrete(group, {star: carrier}, phi, allow_unfaithful=True)
    return GroupAction(group, carrier, concrete.action)


def transformation_groupoid(act: GroupAction) -> ConstructedCategory:
    """The concrete left action of the group on its carrier, objects named
    by the bare elements: (g, x) runs from x to its image.

    It is a category of elements, so the laws are the group's, read at each
    element: (g2, image of x) after (g1, x) is (g2 g1, x). Each g acts
    bijectively, so exactly one morphism above g ends at each element and
    one starts there: they are the lifts of the split cleavage and
    opcleavage it carries.
    """
    grp, elements = act.group, act.carrier.elements
    moves = [(g, x, act.phi[g.name].mapping[x], x, x) for g in grp.non_identity_arrows() for x in elements]
    return _category_of_elements(
        f"tg_{grp.name}", "transformation-groupoid", grp, {act.star: elements}, moves,
        cleavage=True, opcleavage=True, object_id=lambda _, x: x,
    )


def _build_now(construction: Callable, *args):
    return construction(*args)


def verify_prop4(act: GroupAction, build: Callable = _build_now) -> IsoWitness:
    """Match the transformation groupoid with the self-dual right action.

    The contravariant data is the action of the inverse element, the
    unique convention under which "x is carried from y" and "y is the
    image of x" agree. The witness relabels by adding or dropping the
    object component; its forward functor is validated and its inverse
    read off it. What other checks share (the transformation groupoid,
    the inverse witness) is made by ``build(construction, *args)``.
    """
    grp = act.group
    groupoid = build(transformation_groupoid, act)
    witness = build(inverse_witness, grp)
    concrete = ConcreteStructure(grp, {act.star: act.carrier}, act.phi)
    fbar = contravariant_via_witness(identity_functor(grp), witness)
    selfdual = right_action_selfdual(fbar, witness, concrete=concrete)

    objects = {x: pair_id(act.star, x) for x in act.carrier.elements}
    return _witness_by_projection(groupoid, selfdual, "tg_to_selfdual", objects, "selfdual_to_tg")


def _projection_witness(built: ConstructedCategory, back_name: str) -> IsoWitness:
    """The projection of a one-element-fibre construction, validated, with
    its inverse: the witness that the construction is isomorphic to its base."""
    p = built.projection
    return relabelling(p.name, p.source, p.target, p.obj_map, p.mor_map, back_name)


def _witness_by_projection(
    a: ConstructedCategory,
    b: ConstructedCategory,
    name: str,
    objects: Mapping[str, str] | None = None,
    back_name: str | None = None,
) -> IsoWitness:
    """Isomorphism matching two constructions over one base, identity on
    objects unless ``objects`` says otherwise: each arrow of ``a`` goes to
    the arrow of ``b`` over the same base arrow that starts at the image of
    its domain (``KeyError`` if there is none), so the witness commutes
    with the projections by construction."""
    objects = objects or {o: o for o in a.cat.objects}
    over_a, over_b = a.projection.mor_map, b.projection.mor_map
    starting = {(over_b[m.name], m.dom): m.name for m in b.cat.arrows}
    mor_map = {m.name: starting[over_a[m.name], objects[m.dom]] for m in a.cat.arrows}
    return relabelling(name, a.cat, b.cat, objects, mor_map, back_name)


class NotOnTheNose(Frozen, Refutation):
    """Why the opposite of a right action is not its left action."""

    template = "{reason}"
    reason: str


def _opposite_erases_to(
    right: ConstructedCategory, left: ConstructedCategory
) -> bool | NotOnTheNose:
    """Whether the opposite of a right action is the left action on the
    nose, op markers erased. Ids that collide once their markers are
    erased refute it, since that side has no erased presentation."""
    try:
        if same_presentation(opposite(right.cat), left.cat):
            return True
    except DuplicateId as exc:
        return NotOnTheNose(f"ids collide on {exc.ident!r} after erasing op markers")
    return NotOnTheNose("the presentations differ after erasing op markers")


def _concrete_right_erases_to(
    left: ConstructedCategory, fun: FinFunctor, concrete: ConcreteStructure
) -> bool | NotOnTheNose:
    """``_opposite_erases_to`` for the concrete right action of ``fun``
    and ``concrete`` and its left action ``left``. The right action is
    built here and dropped, so whoever keeps the verdict keeps no right
    action."""
    return _opposite_erases_to(concrete_right_action(fun, concrete), left)


def verify_main_prop(
    fun: FinFunctor,
    concrete: ConcreteStructure | None = None,
    self_dual: IsoWitness | None = None,
    build: Callable = _build_now,
) -> Report:
    """Check every leg of the isomorphism web around one functor.

    Abstract legs: the base, its graph and the left action are pairwise
    isomorphic through first-projection witnesses; with a self-duality
    witness the directly indexed right action joins them. Concrete legs:
    the element-level categories are pairwise isomorphic through
    identity-on-object, projection-commuting witnesses. The one negative
    claim is the checkable shadow of "never concretely isomorphic to the
    base": object counts must differ as soon as some carrier has two
    elements.

    What other checks share (graph, left action, concrete graph and left
    action, the concrete duality verdict) is made by ``build(construction,
    *args)``; the self-dual right actions are built here.
    """
    report = Report(f"main-prop {fun.name}")
    c = fun.source

    graph = build(graph_category, fun)
    left = build(abstract_left_action, fun)

    # Isomorphic to the base: the projection is validated and inverted.
    for claim, built in (("base~graph", graph), ("base~left-action", left)):
        try:
            _projection_witness(built, claim)
            report.add(claim, True, "witness validated")
        except ValidationError as exc:
            report.add(claim, False, str(exc))

    fbar = None
    if self_dual is not None:
        try:
            fbar = contravariant_via_witness(fun, self_dual)
            _projection_witness(right_action_selfdual(fbar, self_dual), "base~selfdual-right")
            report.add("base~selfdual-right", True, "witness validated")
        except ValidationError as exc:
            report.add("base~selfdual-right", False, str(exc))

    if concrete is not None:
        cgraph = build(concrete_graph_category, fun, concrete)
        cleft = build(concrete_left_action, fun, concrete)
        trio = [("cgraph~cleft", cgraph, cleft)]
        if fbar is not None:
            csd = right_action_selfdual(fbar, self_dual, concrete=concrete)
            trio.append(("cgraph~selfdual", cgraph, csd))
            trio.append(("cleft~selfdual", cleft, csd))
        for claim, first, second in trio:
            try:
                _witness_by_projection(first, second, claim)
                report.add(claim, True, "witness validated")
            except (ValidationError, KeyError) as exc:
                report.add(claim, False, f"no witness: {exc}")

        dual = build(_concrete_right_erases_to, cleft, fun, concrete)
        report.add(
            "cright-dual~cleft",
            dual,
            "opposite of the right action erases to the left action" if dual else str(dual),
        )

        sizes = [len(concrete.elements(fun.obj(x))) for x in c.objects]
        if any(s >= 2 for s in sizes):
            report.add(
                "concrete-not-base",
                len(cgraph.cat.objects) != len(c.objects),
                f"{len(cgraph.cat.objects)} element pairs vs {len(c.objects)} objects",
            )
        else:
            report.skip("concrete-not-base", "every carrier is a singleton")

    return report
