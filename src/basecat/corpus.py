"""Desk-scale verification corpus: bundled fixtures plus seeded random
instances.

Random categories are drawn from families that are valid by construction
(thin categories from preorders, small groups, their products and
opposites), so generation never has to reject a bad composition table.
Random concrete structures use pointed constant actions on thin
categories, free choices along chains, and permutation actions on groups;
each recipe is functorial by construction and faithfulness is checked at
validation time as usual. Bounds stay at four base objects, twelve base
morphisms and four-element carriers.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import field
from pathlib import Path

from .constructions import GroupAction, discrete_family, family_from_functor, inverse_witness
from .constructions import validate_group_action
from .core import (
    FinCat,
    FinFunctor,
    IsoWitness,
    identity_functor,
    opposite,
    product_category,
    validate_category,
    validate_functor,
)
from .dsl import Env, elaborate, parse, read_source
from .family import IndexedFamily, validate_family
from .records import Record
from .sets import ConcreteStructure, FinFn, FinSetObj, validate_concrete

MAX_OBJECTS = 4
MAX_MORPHISMS = 12
MAX_CARRIER = 4
RANDOM_FUNCTORS = 20
RANDOM_CONCRETE = 10
RANDOM_ACTIONS = 4


def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


class Corpus(Record):
    """The instances the suites check, and what has been built from them.

    Validated values are read-only, so a construction made from them can
    be shared: ``_built`` makes it once per corpus for the same argument
    objects. The suites build through it only what more than one of them
    reads, so the rest goes as soon as its check is done. Entries are
    keyed by the construction and the identities of its arguments and
    keep the arguments alive, so no id in a key is reused while the
    corpus lives; everything goes when the corpus does.
    """

    env: Env
    functors: list[FinFunctor] = field(default_factory=list)
    concrete_pairs: list[tuple[FinFunctor, ConcreteStructure]] = field(default_factory=list)
    actions: list[GroupAction] = field(default_factory=list)
    families: list[IndexedFamily] = field(default_factory=list)
    _memo: dict[Callable, dict[tuple[int, ...], tuple]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _built(self, construction: Callable, *args):
        """``construction(*args)``, made once per corpus for these arguments."""
        made = self._memo.setdefault(construction, {})
        key = tuple(map(id, args))
        entry = made.get(key)
        if entry is None:
            entry = made[key] = (construction(*args), *args)
        return entry[0]

    def selfdual_witness(self, cat: FinCat) -> IsoWitness | None:
        if cat.is_groupoid():
            return self._built(inverse_witness, cat)
        return None


def fixture_paths(directory: Path) -> list[Path]:
    """The ``.bcat`` files of a corpus directory, negative examples left out."""
    return [
        path for path in sorted(directory.glob("*.bcat"))
        if not path.name.startswith("negative_")
    ]


_elaborated: dict[Path, tuple[str, Env]] = {}  # the last text read at a path, elaborated


def load_fixture_env(directory: Path | None = None) -> Env:
    """A fresh ``Env`` of the directory's fixtures. Every file is read, but
    elaborated only when its text changed: calls share read-only values."""
    env = Env()
    for path in fixture_paths(directory or fixtures_dir()):
        text = read_source(path)
        seen = _elaborated.get(path)
        if seen is None or seen[0] != text:
            seen = _elaborated[path] = (text, elaborate(parse(text, str(path))))
        for mine, elaborated in zip(vars(env).values(), vars(seen[1]).values()):
            mine.update(elaborated)
    return env


# Random generation recipes.


def _thin_from_relation(name: str, n: int, related: set[tuple[int, int]]) -> FinCat:
    # transitive closure; reflexive pairs are the identities
    closed = set(related)
    changed = True
    while changed:
        changed = False
        for i, j in list(closed):
            for j2, k in list(closed):
                if j2 == j and (i, k) not in closed and i != k:
                    closed.add((i, k))
                    changed = True
    objects = [f"o{i}" for i in range(n)]
    arrows = [(f"e{i}{j}", f"o{i}", f"o{j}") for i, j in sorted(closed)]
    table = {}
    for i, j in closed:
        for j2, k in closed:
            if j2 == j:
                table[(f"e{j}{k}", f"e{i}{j}")] = f"e{i}{k}"
    return validate_category(name, objects, arrows, table)


def rand_poset(rng: random.Random, name: str) -> FinCat:
    """Random thin category from a random strict partial order."""
    while True:
        n = rng.randint(1, MAX_OBJECTS)
        related = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        }
        cat = _thin_from_relation(name, n, related)
        if len(cat.arrows) <= MAX_MORPHISMS:
            return cat


_GROUP_TABLES = {
    "Z2": (["s"], {("s", "s"): "id_*"}),
    "Z3": (
        ["r1", "r2"],
        {("r1", "r1"): "r2", ("r1", "r2"): "id_*", ("r2", "r1"): "id_*", ("r2", "r2"): "r1"},
    ),
    "Z4": (
        ["q1", "q2", "q3"],
        {
            ("q1", "q1"): "q2", ("q1", "q2"): "q3", ("q1", "q3"): "id_*",
            ("q2", "q1"): "q3", ("q2", "q2"): "id_*", ("q2", "q3"): "q1",
            ("q3", "q1"): "id_*", ("q3", "q2"): "q1", ("q3", "q3"): "q2",
        },
    ),
    "K4": (
        ["a", "b", "c"],
        {
            ("a", "a"): "id_*", ("b", "b"): "id_*", ("c", "c"): "id_*",
            ("a", "b"): "c", ("b", "a"): "c", ("a", "c"): "b",
            ("c", "a"): "b", ("b", "c"): "a", ("c", "b"): "a",
        },
    ),
}


def group_category(which: str, name: str | None = None) -> FinCat:
    gens, table = _GROUP_TABLES[which]
    return validate_category(
        name or which, ["*"], [(g, "*", "*") for g in gens], table
    )


def rand_category(rng: random.Random, name: str) -> FinCat:
    kind = rng.choice(["poset", "poset", "group", "op", "product"])
    if kind == "poset":
        return rand_poset(rng, name)
    if kind == "group":
        return group_category(rng.choice(list(_GROUP_TABLES)), name)
    if kind == "op":
        inner = rand_poset(rng, name + "_inner")
        out = opposite(inner)
        return out
    small = group_category(rng.choice(["Z2", "Z3"]), name + "_g")
    disc = _thin_from_relation(name + "_d", rng.randint(1, 2), set())
    prod, _, _ = product_category(small, disc)
    if len(prod.arrows) > MAX_MORPHISMS:
        return small
    return prod


def _monotone_functor(rng: random.Random, name: str, src: FinCat, tgt: FinCat) -> FinFunctor | None:
    """Random structure-preserving map between thin categories, if any."""
    for _ in range(40):
        obj_map = {x: rng.choice(tgt.objects) for x in src.objects}
        images = [tgt.hom(obj_map[a.dom], obj_map[a.cod]) for a in src.arrows]
        if all(images):
            mor_map = {a.name: hom[0] for a, hom in zip(src.arrows, images)}
            return validate_functor(name, src, tgt, obj_map, mor_map)
    return None


def rand_functor(rng: random.Random, name: str) -> FinFunctor:
    roll = rng.random()
    if roll < 0.35:
        src = rand_poset(rng, f"{name}_src")
        tgt = rand_poset(rng, f"{name}_tgt")
        fun = _monotone_functor(rng, name, src, tgt)
        if fun is not None:
            return fun
        return identity_functor(src)
    if roll < 0.55:
        grp = group_category(rng.choice(list(_GROUP_TABLES)), f"{name}_g")
        power = rng.randint(0, 3)
        mor_map = {}
        for a in grp.arrows:
            img = grp.identity["*"]
            for _ in range(power):
                img = grp.compose[(img, a.name)]
            mor_map[a.name] = img
        return validate_functor(name, grp, grp, {"*": "*"}, mor_map)
    if roll < 0.75:
        src = rand_category(rng, f"{name}_src")
        tgt = rand_category(rng, f"{name}_tgt")
        point = rng.choice(tgt.objects)
        return validate_functor(
            name,
            src,
            tgt,
            {x: point for x in src.objects},
            {a.name: tgt.identity[point] for a in src.arrows},
        )
    src = rand_category(rng, f"{name}_src")
    return identity_functor(src)


def pointed_concrete(rng: random.Random, cat: FinCat) -> ConcreteStructure:
    """Carriers with a chosen point; every action is constant at the point.

    Constant functions compose to constant functions, so functoriality is
    automatic; faithfulness holds because thin categories have singleton
    hom-sets.
    """
    carrier = {}
    point = {}
    for o in cat.objects:
        size = rng.randint(1, MAX_CARRIER)
        carrier[o] = FinSetObj(f"set_{o}", tuple(f"{o}e{i}" for i in range(size)))
        point[o] = rng.choice(carrier[o].elements)
    action = {}
    for a in cat.arrows:
        if cat.is_identity(a.name):
            continue
        action[a.name] = FinFn(
            carrier[a.dom],
            carrier[a.cod],
            {x: point[a.cod] for x in carrier[a.dom].elements},
        )
    return validate_concrete(cat, carrier, action)


def permutation_concrete(rng: random.Random, grp: FinCat) -> ConcreteStructure:
    """A group acting faithfully-if-possible by conjugated regular moves."""
    order = len(grp.arrows)
    elems = tuple(f"p{i}" for i in range(order))
    carrier = FinSetObj("pset", elems)
    shuffle = list(range(order))
    rng.shuffle(shuffle)
    names = [a.name for a in grp.arrows]
    index = {n: i for i, n in enumerate(names)}
    action = {}
    for a in grp.arrows:
        mapping = {}
        for i, n in enumerate(names):
            translated = grp.compose[(a.name, n)]
            mapping[elems[shuffle[i]]] = elems[shuffle[index[translated]]]
        action[a.name] = FinFn(carrier, carrier, mapping)
    return validate_concrete(grp, {"*": carrier}, action)


def rand_group_action(rng: random.Random, name: str) -> GroupAction:
    which = rng.choice(["Z2", "Z3", "K4"])
    grp = group_category(which, name)
    concrete = permutation_concrete(rng, grp)
    return validate_group_action(grp, concrete.carrier["*"], concrete.action)


def constant_family(cat: FinCat, fibre: FinCat) -> IndexedFamily:
    return validate_family(
        cat,
        {o: fibre for o in cat.objects},
        {a.name: identity_functor(fibre) for a in cat.arrows},
    )


def build_corpus(seed: int = 7, directory: Path | None = None) -> Corpus:
    """Bundled fixtures plus seeded random instances; deterministic."""
    env = load_fixture_env(directory)
    corpus = Corpus(env)
    rng = random.Random(seed)

    corpus.functors.extend(env.functors.values())
    for fun in env.functors.values():
        for concrete in env.concretes.values():
            if concrete.over == fun.target:
                corpus.concrete_pairs.append((fun, concrete))
                break
    corpus.actions.extend(env.actions.values())
    corpus.families.extend(env.families.values())

    for i in range(RANDOM_FUNCTORS):
        corpus.functors.append(rand_functor(rng, f"rf{i}"))

    for i in range(RANDOM_CONCRETE):
        cat = rand_poset(rng, f"rc{i}")
        concrete = pointed_concrete(rng, cat)
        corpus.concrete_pairs.append((identity_functor(cat), concrete))
    for which in ("Z2", "Z3", "K4"):
        grp = group_category(which, f"rg_{which}")
        concrete = permutation_concrete(rng, grp)
        corpus.concrete_pairs.append((identity_functor(grp), concrete))

    for i in range(RANDOM_ACTIONS):
        corpus.actions.append(rand_group_action(rng, f"ra{i}"))

    # Families: bundled, constant, trivially categorified, discrete.
    one = validate_category("RPoint", ["*"], [])
    for cat in list(env.categories.values())[:3]:
        corpus.families.append(constant_family(cat, one))
    for fun in list(env.functors.values())[:4]:
        corpus.families.append(family_from_functor(fun))
    for fun, concrete in corpus.concrete_pairs[:4]:
        corpus.families.append(discrete_family(fun, concrete))

    return corpus
