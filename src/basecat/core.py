"""Validated finite category and functor presentations.

A category is presented fully explicitly: every object, every morphism and
the complete composition table. Outside input (the text front end, random
generation, caller-supplied witnesses) is validated at run time by
``validate_category``, which decides each law by reading only what can
fail: one pass over the table checks each entry's ids and ends, a count
decides that every composable pair has an entry, and associativity is
proved on a set of generators (Light's test). The ordered scans of the
composable pairs and of all triples run only to name the first failure. Every category keeps its generators (``FinCat._generating``,
stored by the validator, built on first use for any other category), and
the laws of ``family`` and ``fibration`` are decided on them too: a law of
composition that holds when the outer factor is a generator holds for
every pair. So a `FinCat` value is a
proof-carrying presentation that nothing downstream re-checks, and that
nothing can change: its mappings are read-only views, and its composition
is held once, in ``compose``. A presentation derived from validated
values (an opposite, a product, every construction) satisfies the laws
by construction: ``assemble`` puts it together and checks only that its
ids are distinct. Functors between such values are built directly, and
``normalize`` only checks that relabelled ids stay distinct. The tests
compare each such build with the validating one.

"The same category" has one rule per notion: isomorphic means a validated
functor bijective on objects and morphisms, its inverse read off it
(``invert``); the same on the nose means ``same_presentation``.

Identity morphisms may be omitted from raw input; they are synthesised with
the reserved ids ``id_<object>`` together with the unit-law-forced rows of
the composition table. Any other missing composite is an error, never a
default: the table is data, not something we invent.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import islice
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    AssociativityViolation,
    CompositionNotPreserved,
    DomCodMismatch,
    DomCodNotPreserved,
    DuplicateId,
    IdentityNotPreserved,
    MissingComposite,
    NotMutuallyInverse,
    SourceTargetMismatch,
    UnitLawViolation,
    UnknownMorphism,
    UnknownObject,
    UnmappedMorphism,
    UnmappedObject,
)
from .records import Frozen

OP_MARK = "_op"
ID_PREFIX = "id_"

_OP_AT_BOUNDARY = re.compile(r"_op(?=$|[^0-9A-Za-z_])")


def op_name(name: str) -> str:
    """Tag an id with the opposite marker; tagging twice cancels."""
    if name.endswith(OP_MARK):
        return name[: -len(OP_MARK)]
    return name + OP_MARK


def op_tag(cat: FinCat, name: str) -> str:
    """The id of morphism ``name`` of ``cat`` in the opposite category:
    identities keep their ids, every other id is op-tagged."""
    return name if cat.is_identity(name) else op_name(name)


def strip_op_marks(name: str) -> str:
    """Erase every boundary-level opposite marker from an id."""
    return _OP_AT_BOUNDARY.sub("", name)


def pair_id(first: str, second: str) -> str:
    return f"({first},{second})"


def identity_id(obj: str) -> str:
    return ID_PREFIX + obj


class ReadOnly(Frozen):
    """Base of the frozen value classes whose mapping fields hold read-only
    views (``types.MappingProxyType``).

    A subclass names those fields in ``read_only``. Its constructor,
    generated from its fields (``records.Record``), sets the instance dict
    to every field and wraps each of those in a view. A plain mapping is
    wrapped, not copied, so a builder hands over a dict it created and
    keeps no other reference to; validators copy their caller's input once
    before building, so nothing outside can change a validated value
    afterwards. A view is kept as it is. Scans read the views themselves;
    no value keeps a plain copy beside one. The repr shows each view as
    the dict it wraps, so reprs read as they did with plain dicts.
    """

    read_only = ()  # not annotated: an annotation would make it a field


def dict_of(mapping: Mapping) -> dict:
    """A validator's own copy of its caller's mapping; a read-only view is
    copied as fast as the dict it wraps."""
    return mapping.copy() if type(mapping) is MappingProxyType else dict(mapping)


class Arrow(Frozen):
    """A morphism ``name``: ``dom`` -> ``cod``, held in slots."""

    __slots__ = ("name", "dom", "cod")
    name: str
    dom: str
    cod: str

    def __init__(self, name: str, dom: str, cod: str) -> None:
        # The slots are written through their descriptors, which takes
        # half the time of ``object.__setattr__`` calls; presentations
        # hold thousands of arrows.
        _set_name(self, name)
        _set_dom(self, dom)
        _set_cod(self, cod)

    def __reduce__(self):
        # Copies and pickles are rebuilt through the constructor, since
        # the slots refuse assignment.
        return Arrow, (self.name, self.dom, self.cod)


_set_name, _set_dom, _set_cod = Arrow.name.__set__, Arrow.dom.__set__, Arrow.cod.__set__


class FinCat(ReadOnly):
    """An explicit finite category presentation.

    ``compose`` maps ``(g, f)`` with ``cod f = dom g`` to the name of
    ``g`` after ``f``. Both mappings are read-only, so a value is
    immutable once validated; all operations in this package are pure
    functions of their inputs. Composition is held once, in ``compose``:
    a scan that reads it row by row builds its own rows (``_rows``) once
    per call. The indexes below are built from the fields on first use
    (``functools.cached_property``); none copies ``compose``.
    """

    name: str
    objects: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    identity: Mapping[str, str]
    compose: Mapping[tuple[str, str], str]
    read_only = ("identity", "compose")

    @cached_property
    def _by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _identity_names(self) -> frozenset[str]:
        return frozenset(self.identity.values())

    @cached_property
    def _generating(self) -> frozenset[str]:
        """Names of non-identity arrows that generate every arrow under
        composition (``_generators``): a law of composition that holds
        when the outer (or the inner) factor is one of them holds for
        every pair."""
        rows = _rows(self.arrows, self.compose)
        return frozenset(a.name for a in _generators(self.arrows, self._identity_names, rows))

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownMorphism(name) from None

    def has_arrow(self, name: str) -> bool:
        return name in self._by_name

    def dom(self, name: str) -> str:  # ``arrow`` runs only to raise UnknownMorphism
        return (self._by_name.get(name) or self.arrow(name)).dom

    def cod(self, name: str) -> str:
        return (self._by_name.get(name) or self.arrow(name)).cod

    def is_identity(self, name: str) -> bool:
        return name in self._identity_names

    def non_identity_arrows(self) -> tuple[Arrow, ...]:
        ids = self._identity_names
        return tuple(a for a in self.arrows if a.name not in ids)

    # Indexes are built on first use, each in presentation order, so every
    # tuple they return equals the filter over ``arrows`` it replaces.

    @cached_property
    def _homs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        return _group(((a.dom, a.cod), a.name) for a in self.arrows)

    @cached_property
    def _into(self) -> dict[str, tuple[Arrow, ...]]:
        return _group((a.cod, a) for a in self.arrows)

    @cached_property
    def _from(self) -> dict[str, tuple[Arrow, ...]]:
        return _group((a.dom, a) for a in self.arrows)

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._homs.get((x, y), ())

    def arrows_into(self, obj: str) -> tuple[Arrow, ...]:
        return self._into.get(obj, ())

    def arrows_from(self, obj: str) -> tuple[Arrow, ...]:
        return self._from.get(obj, ())

    def inverse_of(self, name: str) -> str | None:
        """Two-sided inverse of a morphism, or None."""
        a = self.arrow(name)
        for b in self.hom(a.cod, a.dom):
            if (
                self.compose.get((b, name)) == self.identity[a.dom]
                and self.compose.get((name, b)) == self.identity[a.cod]
            ):
                return b
        return None

    def is_groupoid(self) -> bool:
        return all(self.inverse_of(a.name) is not None for a in self.arrows)

    @cached_property
    def _opposite(self) -> FinCat:
        return _reversed(self)


def _group(pairs: Iterable[tuple]) -> dict:
    """Values grouped by key into tuples, both in first-seen order."""
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return {key: tuple(values) for key, values in out.items()}


def _rows(arrows: Iterable[Arrow], table: Mapping[tuple[str, str], str]) -> dict[str, dict[str, str]]:
    """``rows[g][f]`` is ``table[(g, f)]``; every arrow has a row."""
    rows: dict[str, dict[str, str]] = {a.name: {} for a in arrows}
    for (g, f), h in table.items():
        rows[g][f] = h
    return rows


RawArrow = Arrow | tuple[str, str, str]


def _as_arrows(arrows: Iterable[RawArrow]) -> list[Arrow]:
    out = []
    for a in arrows:
        out.append(a if isinstance(a, Arrow) else Arrow(*a))
    return out


def _distinct(ids: Iterable[str]) -> set[str]:
    """The set of ``ids``; the first id seen twice raises ``DuplicateId``."""
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise DuplicateId(i)
        seen.add(i)
    return seen


def _with_identities(objects: Sequence[str], declared: Sequence[Arrow], identity: dict) -> tuple:
    """Complete ``identity`` with ``id_<object>`` for each object it lacks,
    and return the arrows with those identities first, in object order;
    an identity id that is already declared is not synthesised again."""
    missing = [o for o in objects if o not in identity]
    names = {a.name for a in declared} if missing else set()
    synthesised = []
    for o in missing:
        ident = identity[o] = identity_id(o)
        if ident not in names:
            synthesised.append(Arrow(ident, o, o))
    return (*synthesised, *declared)


def _fill_unit_rows(table: dict, arrows: Iterable[Arrow], identity: Mapping[str, str]) -> None:
    """Add the rows the unit laws force, after the entries ``table`` has."""
    for a in arrows:
        table.setdefault((identity[a.cod], a.name), a.name)
        table.setdefault((a.name, identity[a.dom]), a.name)


def validate_category(
    name: str,
    objects: Sequence[str],
    arrows: Iterable[RawArrow],
    compose: Mapping[tuple[str, str], str] | None = None,
    identity: Mapping[str, str] | None = None,
) -> FinCat:
    """Check a raw presentation against the category laws.

    Raises the first violated law together with the witnessing ids.
    Synthesised identities are placed before the declared morphisms, in
    object order, so that canonical searches meet identities first.

    The table is checked in one pass, and a count decides that every
    composable pair has an entry (``_checked_table``); the composable
    pairs are scanned only to name a missing one.

    Associativity is proved on generators (Light's test, as in Clifford
    and Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2,
    adapted to partial composition). Let T be the set of arrows a with
    x∘(a∘y) = (x∘a)∘y for every composable x and y. T holds every
    identity, because the unit laws are checked first. T is closed under
    composition: for a and b in T,
    x∘((a∘b)∘y) = x∘(a∘(b∘y)) = (x∘a)∘(b∘y) = ((x∘a)∘b)∘y = (x∘(a∘b))∘y.
    So once T holds a set of arrows that generates every arrow
    (``_generators``), T is every arrow. Only when a generator fails is
    every composable triple scanned, in table order, so that the
    violation reported is the first one that scan meets.
    """
    objects = tuple(objects)
    declared = _as_arrows(arrows)
    seen_obj = _distinct(objects)
    identity = dict_of(identity) if identity else {}
    all_arrows = _with_identities(objects, declared, identity)

    by_name: dict[str, Arrow] = {}
    into: dict[str, list[str]] = {o: [] for o in objects}
    outof: dict[str, list[str]] = {o: [] for o in objects}
    for a in all_arrows:
        if a.name in by_name:
            raise DuplicateId(a.name)
        if a.dom not in seen_obj:
            raise UnknownObject(a.dom)
        if a.cod not in seen_obj:
            raise UnknownObject(a.cod)
        by_name[a.name] = a
        into[a.cod].append(a.name)
        outof[a.dom].append(a.name)

    for o in objects:
        ident = identity[o]
        if ident not in by_name:
            raise UnknownMorphism(ident)
        ia = by_name[ident]
        if ia.dom != o or ia.cod != o:
            raise UnitLawViolation(ident)

    table, rows = _checked_table(compose, by_name, all_arrows, identity, into, outof)

    for a in all_arrows:
        if table[(identity[a.cod], a.name)] != a.name:
            raise UnitLawViolation(a.name)
        if table[(a.name, identity[a.dom])] != a.name:
            raise UnitLawViolation(a.name)

    # With identities only, the unit laws already give associativity.
    generators: list[Arrow] = []
    if len(all_arrows) > len(objects):
        generators = _generators(all_arrows, {identity[o] for o in objects}, rows)
        if not _associative_at(generators, rows, outof):
            # Name the violation that an ordered scan of all triples meets first.
            for (g, f), gf in table.items():
                for h in outof[by_name[g].cod]:
                    row = rows[h]
                    if row[gf] != rows[row[g]][f]:
                        raise AssociativityViolation(h, g, f)

    # Checked last, so that input breaking a law still reports that law.
    if len(identity) > len(objects):
        raise UnknownObject(next(o for o in identity if o not in seen_obj))
    cat = FinCat(name, objects, all_arrows, identity, table)
    # The indexes ``_by_name`` and ``_generating`` would build.
    vars(cat)["_by_name"] = by_name
    vars(cat)["_generating"] = frozenset(a.name for a in generators)
    return cat


def _checked_table(
    compose: Mapping | None, by_name: dict[str, Arrow], arrows: Sequence[Arrow], identity: dict, into: dict, outof: dict
) -> tuple[dict[tuple[str, str], str], dict[str, dict[str, str]]]:
    """The table completed with its unit rows, and its rows (``_rows``).

    One pass over the entries, in table order, raises an unknown id or a
    pair that is not composable where it meets it, and remembers the first
    composite with the wrong ends. Every entry is then a distinct composable
    pair, so every composable pair has an entry exactly when the table has
    Σ over objects of |arrows into|·|arrows out of| entries; only when it
    has fewer are the pairs scanned, in presentation order, for the first
    missing one. The unit rows always have the right ends, so the composite
    remembered is the first one a scan of the completed table would meet;
    it is raised last, as that scan came last.
    """
    table = dict_of(compose) if compose else {}
    rows: dict[str, dict[str, str]] = {a.name: {} for a in arrows}
    wrong_ends = None
    for (g, f), h in table.items():
        try:
            ga, fa, ha = by_name[g], by_name[f], by_name[h]
        except KeyError:
            raise UnknownMorphism(next(m for m in (g, f, h) if m not in by_name)) from None
        if fa.cod != ga.dom:
            raise DomCodMismatch(g, f, "pair is not composable")
        if wrong_ends is None and (ha.dom != fa.dom or ha.cod != ga.cod):
            wrong_ends = g, f, h
        rows[g][f] = h

    # Unit-law-forced rows may be omitted from the input table.
    given = len(table)
    _fill_unit_rows(table, arrows, identity)
    if len(table) != sum(len(into[o]) * len(outof[o]) for o in into):
        for g in arrows:
            for f in into[g.dom]:
                if (g.name, f) not in table:
                    raise MissingComposite(g.name, f)
    if wrong_ends is not None:
        g, f, h = wrong_ends
        raise DomCodMismatch(g, f, f"composite {h!r} has the wrong dom/cod")
    for (g, f), h in islice(table.items(), given, None):
        rows[g][f] = h
    return table, rows


def _generators(arrows: Sequence[Arrow], ids: set[str], rows: dict[str, dict[str, str]]) -> list[Arrow]:
    """Non-identity arrows that, with the identities ``ids``, generate every
    arrow under composition.

    These are the irreducible arrows (no composite of two non-identities)
    in presentation order, then, while their closure misses an arrow, the
    first arrow it misses. The closure is grown by composing each arrow
    reached with a generator after it; that is a subset of the closure
    under every composite, so it proves generation whether or not the
    table is associative.
    """
    generators: list[Arrow] = []
    others: list[Arrow] = []
    composites: set[str] = set()
    for a in arrows:
        if a.name not in ids:
            others.append(a)
            for f, h in rows[a.name].items():
                if f not in ids:
                    composites.add(h)
    for a in others:
        if a.name not in composites:
            generators.append(a)
    if len(generators) == len(others):
        return generators

    reached = set(ids)
    after: dict[str, list[Arrow]] = {}  # generators by domain
    todo: list[tuple[str, str]] = []  # arrows reached, each with its codomain
    for s in generators:
        reached.add(s.name)
        after.setdefault(s.dom, []).append(s)
        todo.append((s.cod, s.name))
    missed = iter(others)
    while True:
        while todo:
            cod, w = todo.pop()
            for g in after.get(cod, ()):
                gw = rows[g.name][w]
                if gw not in reached:
                    reached.add(gw)
                    todo.append((g.cod, gw))
        if len(reached) == len(arrows):
            return generators
        # Closed but short of every arrow: the first arrow missed is added,
        # with its composites after the arrows already reached.
        s = next(a for a in missed if a.name not in reached)
        generators.append(s)
        after.setdefault(s.dom, []).append(s)
        for w, sw in rows[s.name].items():
            if w in reached and sw not in reached:
                reached.add(sw)
                todo.append((s.cod, sw))


def _associative_at(generators: Iterable[Arrow], rows: dict, outof: dict) -> bool:
    """Whether x∘(a∘y) = (x∘a)∘y for each generator a, every x out of
    cod a and every y into dom a (the keys of a's row)."""
    for a in generators:
        row = rows[a.name]
        left = itemgetter(*row.values())  # x∘(a∘y) read off x's row
        right = itemgetter(*row)  # (x∘a)∘y read off the row of x∘a
        for x in outof[a.cod]:
            rx = rows[x]
            if left(rx) != right(rows[rx[a.name]]):
                return False
    return True


def assemble(
    name: str, objects: Sequence[str], arrows: Sequence[Arrow], table: dict, identity: dict | None = None
) -> FinCat:
    """A category whose laws its builder proves from validated inputs, so
    none is checked. A builder that passes ``identity`` has put every
    identity in ``arrows`` and every unit-law row in ``table``; without it,
    both are completed as ``validate_category`` completes raw input
    (identities before ``arrows``, unit rows after the entries of
    ``table``). A repeated object or arrow id raises ``DuplicateId``, and
    the builder's own ``table`` and ``identity`` dicts become the value's."""
    objects, arrows = tuple(objects), tuple(arrows)
    if len(set(objects)) < len(objects):
        _distinct(objects)
    if identity is None:
        identity = {}
        arrows = _with_identities(objects, arrows, identity)
        _fill_unit_rows(table, arrows, identity)
    by_name = {a.name: a for a in arrows}
    if len(by_name) < len(arrows):
        _distinct(a.name for a in arrows)
    cat = FinCat(name, objects, arrows, identity, table)
    vars(cat)["_by_name"] = by_name
    return cat


class FinFunctor(ReadOnly):
    """Object and morphism maps between two categories, both read-only."""

    name: str
    source: FinCat
    target: FinCat
    obj_map: Mapping[str, str]
    mor_map: Mapping[str, str]
    read_only = ("obj_map", "mor_map")

    def obj(self, x: str) -> str:
        return self.obj_map[x]

    def mor(self, m: str) -> str:
        return self.mor_map[m]


def validate_functor(
    name: str,
    source: FinCat,
    target: FinCat,
    obj_map: Mapping[str, str],
    mor_map: Mapping[str, str],
) -> FinFunctor:
    """Check the three functor laws exhaustively.

    Images of identity morphisms may be omitted; they are completed from
    the object map. Keys that name nothing in the source are rejected.
    """
    obj_map = dict_of(obj_map)
    mor_map = dict_of(mor_map)

    source_ids, target_ids, target_arrows = source.identity, target.identity, target._by_name
    for x in source.objects:
        if x not in obj_map:
            raise UnmappedObject(x)
        if obj_map[x] not in target.objects:
            raise UnknownObject(obj_map[x])
        mor_map.setdefault(source_ids[x], target_ids[obj_map[x]])

    for a in source.arrows:
        if a.name not in mor_map:
            raise UnmappedMorphism(a.name)
        img = mor_map[a.name]
        ia = target_arrows.get(img)
        if ia is None:
            raise UnknownMorphism(img)
        if ia.dom != obj_map[a.dom] or ia.cod != obj_map[a.cod]:
            raise DomCodNotPreserved(a.name)

    for x in source.objects:
        if mor_map[source_ids[x]] != target_ids[obj_map[x]]:
            raise IdentityNotPreserved(x)

    table = target.compose
    for (g, f), h in source.compose.items():
        if table[(mor_map[g], mor_map[f])] != mor_map[h]:
            raise CompositionNotPreserved(g, f)

    _reject_unknown_keys(source, obj_map, mor_map)
    return FinFunctor(name, source, target, obj_map, mor_map)


def _reject_unknown_keys(cat: FinCat, objects: Mapping[str, object], arrows: Mapping[str, object]) -> None:
    """Reject a key of ``objects`` or ``arrows`` that names no object or
    arrow of ``cat``. A validator calls it last, once every object and
    arrow is known to be a key, so that input breaking a law still reports
    that law."""
    if len(objects) > len(cat.objects):
        raise UnknownObject(next(o for o in objects if o not in cat.objects))
    if len(arrows) > len(cat.arrows):
        raise UnknownMorphism(next(m for m in arrows if not cat.has_arrow(m)))


def identity_functor(cat: FinCat) -> FinFunctor:
    return FinFunctor(
        f"id_{cat.name}",
        cat,
        cat,
        {o: o for o in cat.objects},
        {a.name: a.name for a in cat.arrows},
    )


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    """Pointwise composite ``g`` after ``f``."""
    if f.target != g.source:
        raise SourceTargetMismatch(f"{f.name} lands in {f.target.name}, {g.name} starts at {g.source.name}")
    return FinFunctor(
        f"{g.name}*{f.name}",
        f.source,
        g.target,
        {x: g.obj(f.obj(x)) for x in f.source.objects},
        {a.name: g.mor(f.mor(a.name)) for a in f.source.arrows},
    )


class IsoWitness(Frozen):
    forward: FinFunctor
    backward: FinFunctor


def validate_witness(forward: FinFunctor, backward: FinFunctor) -> IsoWitness:
    """Check that two functors are mutually inverse on the nose."""
    if forward.source != backward.target or forward.target != backward.source:
        raise SourceTargetMismatch("witness functors do not point between the same two categories")
    for there, back in ((forward, backward), (backward, forward)):
        for x in there.source.objects:
            if back.obj(there.obj(x)) != x:
                raise NotMutuallyInverse(f"object {x!r} does not round-trip")
        for a in there.source.arrows:
            if back.mor(there.mor(a.name)) != a.name:
                raise NotMutuallyInverse(f"morphism {a.name!r} does not round-trip")
    return IsoWitness(forward, backward)


def invert(forward: FinFunctor, back_name: str) -> IsoWitness:
    """The witness of a functor bijective on objects and on morphisms, its
    backward functor read off the forward maps.

    The inverse G of a bijective functor F needs no check: F(a) runs from
    F(dom a) to F(cod a), so G preserves dom/cod; F(id_x) = id_Fx, so G
    preserves identities; F(a2∘a1) = F(a2)∘F(a1), so G preserves
    composites. The round trips hold by construction. A map that is not
    bijective raises ``NotMutuallyInverse`` naming the first target object,
    then morphism, with no preimage or with several.
    """
    target = forward.target
    obj_back = _preimages(forward.obj_map, target.objects, "object")
    mor_back = _preimages(forward.mor_map, [a.name for a in target.arrows], "morphism")
    return IsoWitness(forward, FinFunctor(back_name, target, forward.source, obj_back, mor_back))


def _preimages(image_of: Mapping[str, str], targets: Sequence[str], kind: str) -> dict[str, str]:
    back = {y: x for x, y in image_of.items()}
    if len(back) == len(image_of) == len(targets):
        return back
    count = Counter(image_of.values())
    y = next(y for y in targets if count[y] != 1)
    raise NotMutuallyInverse(f"{kind} {y!r} has {count[y] or 'no'} preimages")


def relabelling(
    name: str,
    a: FinCat,
    b: FinCat,
    obj_map: Mapping[str, str],
    mor_map: Mapping[str, str],
    back_name: str | None = None,
) -> IsoWitness:
    """Validate a bijective relabelling of ``a`` as ``b``; its inverse is
    read off it (``invert``)."""
    return invert(validate_functor(name, a, b, obj_map, mor_map), back_name or name + "_back")


def opposite(cat: FinCat) -> FinCat:
    """Reverse every morphism; non-identities are tagged with the op marker.

    Tagging twice cancels, so the operation is involutive on the nose. The
    reverse of a category satisfies the laws; what can fail is that tagging
    makes two ids equal, as for an identity ``id_X`` and an ``id_X_op``.
    A presentation cannot change, so its opposite is built once.
    """
    return cat._opposite


def _reversed(cat: FinCat) -> FinCat:
    ids, names, arrows = cat._identity_names, {}, []  # identities keep their ids
    for a in cat.arrows:
        m = names[a.name] = a.name if a.name in ids else op_name(a.name)
        arrows.append(Arrow(m, a.cod, a.dom))
    table = {(names[f], names[g]): names[h] for (g, f), h in cat.compose.items()}
    return assemble(op_name(cat.name), cat.objects, arrows, table, cat.identity.copy())


def op_functor(fun: FinFunctor) -> FinFunctor:
    """The same maps, read between the opposite categories."""
    mor_map = {
        op_tag(fun.source, a.name): op_tag(fun.target, fun.mor(a.name))
        for a in fun.source.arrows
    }
    return FinFunctor(
        op_name(fun.name), opposite(fun.source), opposite(fun.target), fun.obj_map, mor_map
    )


def product_category(c: FinCat, d: FinCat) -> tuple[FinCat, FinFunctor, FinFunctor]:
    """Componentwise product with its two projections.

    Pairs compose componentwise, so each law holds because it holds in
    both factors, and each projection preserves it by reading one
    component."""
    obj_of = {(x, y): pair_id(x, y) for x in c.objects for y in d.objects}
    arrows = []
    identity = {}
    names: dict[tuple[str, str], str] = {}
    for f in c.arrows:
        for g in d.arrows:
            if c.is_identity(f.name) and d.is_identity(g.name):
                obj = obj_of[(f.dom, g.dom)]
                nm = identity[obj] = identity_id(obj)
            else:
                nm = pair_id(f.name, g.name)
            names[(f.name, g.name)] = nm
            arrows.append(Arrow(nm, obj_of[(f.dom, g.dom)], obj_of[(f.cod, g.cod)]))
    table = {}
    for (g1, f1), h1 in c.compose.items():
        for (g2, f2), h2 in d.compose.items():
            table[(names[(g1, g2)], names[(f1, f2)])] = names[(h1, h2)]
    prod = assemble(pair_id(c.name, d.name), obj_of.values(), arrows, table, identity)
    p1 = FinFunctor("p1", prod, c, {o: x for (x, _), o in obj_of.items()}, {m: f for (f, _), m in names.items()})
    p2 = FinFunctor("p2", prod, d, {o: y for (_, y), o in obj_of.items()}, {m: g for (_, g), m in names.items()})
    return prod, p1, p2


def coproduct_categories(cats: Sequence[FinCat]) -> tuple[FinCat, list[FinFunctor]]:
    """Disjoint union; ids are relabelled with their summand index.

    No arrow of one summand composes with another's, so each law is a law
    of one summand, and each injection is that summand relabelled."""
    objects = []
    arrows = []
    identity = {}
    table = {}
    tag_obj: list[dict[str, str]] = []
    tag_mor: list[dict[str, str]] = []
    for i, cat in enumerate(cats):
        objs = {o: pair_id(str(i), o) for o in cat.objects}
        mors = {}
        for a in cat.arrows:
            if cat.is_identity(a.name):
                mors[a.name] = identity_id(objs[a.dom])
            else:
                mors[a.name] = pair_id(str(i), a.name)
        objects.extend(objs[o] for o in cat.objects)
        arrows.extend(Arrow(mors[a.name], objs[a.dom], objs[a.cod]) for a in cat.arrows)
        identity.update({objs[o]: mors[m] for o, m in cat.identity.items()})
        table.update({(mors[g], mors[f]): mors[h] for (g, f), h in cat.compose.items()})
        tag_obj.append(objs)
        tag_mor.append(mors)
    name = "(" + "+".join(cat.name for cat in cats) + ")"
    total = assemble(name, objects, arrows, table, identity)
    injections = [
        FinFunctor(f"inj{i}", cat, total, tag_obj[i], tag_mor[i]) for i, cat in enumerate(cats)
    ]
    return total, injections


def _erased(ids: Iterable[str]) -> dict[str, str]:
    """Each id with its op markers erased; two ids that erase to the same
    one collide, and that id is reported."""
    erased = {i: strip_op_marks(i) for i in ids}
    if len(set(erased.values())) != len(erased):
        raise DuplicateId(next(e for e, n in Counter(erased.values()).items() if n > 1))
    return erased


def normalize(cat: FinCat, name: str | None = None) -> FinCat:
    """Canonical presentation: op markers erased, everything sorted by id.

    Two constructions agree "on the nose" exactly when their normalized
    presentations are equal (``same_presentation``). A bijective
    relabelling of a valid category is valid, so once the relabelling is
    known to be injective the copy is built without validating it again.
    """
    obj_names = _erased(cat.objects)
    mor_names = _erased(a.name for a in cat.arrows)
    objects = tuple(sorted(obj_names[o] for o in cat.objects))
    arrows = tuple(sorted(
        (Arrow(mor_names[a.name], obj_names[a.dom], obj_names[a.cod]) for a in cat.arrows),
        key=lambda a: a.name,
    ))
    identity = {obj_names[o]: mor_names[m] for o, m in cat.identity.items()}
    table = {
        (mor_names[g], mor_names[f]): mor_names[h] for (g, f), h in cat.compose.items()
    }
    return FinCat(name if name is not None else cat.name, objects, arrows, identity, table)


def same_presentation(a: FinCat, b: FinCat) -> bool:
    """Equality of normalized presentations, ignoring the category name.

    Equal raw presentations normalize alike, so they are compared first;
    when an id holds an op marker, both are still normalized, so that ids
    colliding once their markers are erased raise ``DuplicateId``."""
    if (
        a.objects == b.objects
        and a.arrows == b.arrows
        and a.identity == b.identity
        and a.compose == b.compose
        and not any(OP_MARK in o for o in a.objects)
        and not any(OP_MARK in m for m in a._by_name)
    ):
        return True
    return normalize(a, name="_") == normalize(b, name="_")
