"""Seeded input generation, independent of the program under test.

Everything here is plain data built with the standard library: a
presentation is a `Pres` of object ids, non-identity arrows and the
composition entries between non-identity arrows; a document is a `.bcat`
string. basecat only ever receives what these functions return, so a
change to basecat cannot change its own inputs.

Identities follow the `.bcat` convention: the identity of object `o` is
named `id_o` and is never declared, and unit-law composites are omitted.
The seed changes ids and declaration order, never sizes.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

CORE_BCAT = Path(__file__).parent / "inputs" / "core.bcat"

# Rung sizes. Seeds never change these.
VALIDATE_GROUPS = (8, 16, 32, 48, 64)
CHAINS = (6, 10, 14, 20)
GROUPOIDS = (8, 12, 16)
FAMILIES = ((6, 3), (8, 4), (10, 4))
CYCLIC_VS_PRODUCT = (2, 4, 6, 10)  # Z_2n against Z2 x Z_n, n even
CYCLIC_RELABEL = (8, 12, 16)
PULLBACKS = ((3, 3, 2), (4, 3, 3), (4, 5, 3), (5, 5, 3))  # |A|, |B|, |C|
NEGATIVE_CHAIN = 8
PROBE = 3

CORPUS_SEEDS_PER_PASS = 20
TEXT_CORRUPT_PER_PASS = 240  # half chunk deletions, half one-character edits
EDIT_ALPHABET = "aXz09_*'(),.:=->|{}# \n"


@dataclass(frozen=True)
class Pres:
    """A raw category presentation as `.bcat` declares it."""

    name: str
    objects: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    compose: tuple[tuple[str, str, str], ...]  # (g, f, h) means g . f = h

    def table(self) -> dict[tuple[str, str], str]:
        return {(g, f): h for g, f, h in self.compose}

    def all_arrows(self) -> list[tuple[str, str, str]]:
        return [(identity(o), o, o) for o in self.objects] + list(self.arrows)


def identity(obj: str) -> str:
    return "id_" + obj


def pair(a: str, b: str) -> str:
    return f"({a},{b})"


def work_counts(p: Pres) -> tuple[int, int]:
    """Composable pairs and composable triples, identities included."""
    into = {o: 0 for o in p.objects}
    out = {o: 0 for o in p.objects}
    for _, d, c in p.all_arrows():
        out[d] += 1
        into[c] += 1
    pairs = sum(into[o] * out[o] for o in p.objects)
    triples = sum(into[d] * out[c] for _, d, c in p.all_arrows())
    return pairs, triples


class Namer:
    """Fresh seeded ids: a random tag per rung, numbers in random order."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def tag(self) -> str:
        while True:
            t = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(3))
            if t not in self.used and not t.startswith("id"):
                self.used.add(t)
                return t

    def labels(self, count: int) -> list[str]:
        t = self.tag()
        nums = list(range(count))
        self.rng.shuffle(nums)
        return [f"{t}{k}" for k in nums]


def _shuffled(rng: random.Random, items) -> tuple:
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def cyclic(rng: random.Random, namer: Namer, n: int, name: str) -> Pres:
    """Z_n as a one-object category; element k is named at random."""
    return _cyclic_named(rng, ["id_*"] + namer.labels(n - 1), name)


def _cyclic_named(rng: random.Random, names: list[str], name: str) -> Pres:
    n = len(names)
    arrows = [(names[k], "*", "*") for k in range(1, n)]
    comp = [
        (names[a], names[b], names[(a + b) % n])
        for a in range(1, n)
        for b in range(1, n)
    ]
    return Pres(name, ("*",), _shuffled(rng, arrows), _shuffled(rng, comp))


def z2_times_cyclic(rng: random.Random, namer: Namer, n: int, name: str) -> Pres:
    elems = [(a, b) for a in range(2) for b in range(n)]
    labels = namer.labels(len(elems) - 1)
    names = {e: ("id_*" if e == (0, 0) else labels[i - 1]) for i, e in enumerate(elems)}
    arrows = [(names[e], "*", "*") for e in elems[1:]]
    comp = [
        (names[x], names[y], names[((x[0] + y[0]) % 2, (x[1] + y[1]) % n)])
        for x in elems[1:]
        for y in elems[1:]
    ]
    return Pres(name, ("*",), _shuffled(rng, arrows), _shuffled(rng, comp))


def chain(rng: random.Random, namer: Namer, n: int, name: str) -> Pres:
    """The thin category 0 < 1 < ... < n-1 under seeded object ids."""
    obj = namer.labels(n)
    t = namer.tag()
    arr = {(i, j): f"{t}{obj[i]}_{obj[j]}" for i in range(n) for j in range(i + 1, n)}
    arrows = [(arr[(i, j)], obj[i], obj[j]) for i, j in arr]
    comp = [
        (arr[(j, k)], arr[(i, j)], arr[(i, k)])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    ]
    return Pres(name, _shuffled(rng, obj), _shuffled(rng, arrows), _shuffled(rng, comp))


def chain_index(p: Pres) -> dict[str, int]:
    """Position of each object of a chain, read off its arrow count."""
    outgoing = {o: 0 for o in p.objects}
    for _, d, _ in p.arrows:
        outgoing[d] += 1
    n = len(p.objects)
    return {o: n - 1 - k for o, k in outgoing.items()}


def regular_groupoid(rng: random.Random, namer: Namer, n: int, name: str) -> Pres:
    """Transformation groupoid of Z_n acting on itself, under fresh ids."""
    elems = namer.labels(n)
    t = namer.tag()
    arr = {(k, i): f"{t}{k}_{elems[i]}" for k in range(1, n) for i in range(n)}

    def name_of(k: int, i: int) -> str:
        return identity(elems[i]) if k == 0 else arr[(k, i)]

    arrows = [(arr[(k, i)], elems[i], elems[(i + k) % n]) for k, i in arr]
    comp = [
        (arr[(k2, (i + k1) % n)], arr[(k1, i)], name_of((k1 + k2) % n, i))
        for k1 in range(1, n)
        for k2 in range(1, n)
        for i in range(n)
    ]
    return Pres(name, _shuffled(rng, elems), _shuffled(rng, arrows), _shuffled(rng, comp))


@dataclass(frozen=True)
class GroupoidRung:
    n: int
    group: Pres
    elements: tuple[str, ...]
    phi: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    relabelled: Pres  # the same groupoid under other ids


def groupoid_rung(rng: random.Random, namer: Namer, n: int) -> GroupoidRung:
    """Z_n acting on n elements by rotation: element k moves i to i + k."""
    names = ["id_*"] + namer.labels(n - 1)
    elems = namer.labels(n)
    phi = tuple(
        (names[k], tuple((elems[i], elems[(i + k) % n]) for i in range(n)))
        for k in _shuffled(rng, range(1, n))
    )
    return GroupoidRung(
        n,
        _cyclic_named(rng, names, f"Z{n}"),
        _shuffled(rng, elems),
        phi,
        regular_groupoid(rng, namer, n, f"TG{n}"),
    )


@dataclass(frozen=True)
class FamilyRung:
    base: Pres
    fibre: Pres


@dataclass(frozen=True)
class IsoRung:
    kind: str  # "cyclic-vs-product" or "cyclic-relabel"
    left: Pres
    right: Pres
    isomorphic: bool


@dataclass(frozen=True)
class PullbackRung:
    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...]
    f: tuple[tuple[str, str], ...]
    g: tuple[tuple[str, str], ...]

    def expected_size(self) -> int:
        f, g = dict(self.f), dict(self.g)
        return sum(1 for x in self.a for y in self.b if f[x] == g[y])


@dataclass(frozen=True)
class NegativeRung:
    whole: Pres
    part: Pres  # the full subcategory on the even positions
    obj_map: tuple[tuple[str, str], ...]
    mor_map: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Ladder:
    validate: tuple[Pres, ...]
    chains: tuple[tuple[Pres, Pres], ...]  # (chain, relabelled copy)
    groupoids: tuple[GroupoidRung, ...]
    families: tuple[FamilyRung, ...]
    isos: tuple[IsoRung, ...]
    pullbacks: tuple[PullbackRung, ...]
    negative: NegativeRung


def _pullback_rung(rng: random.Random, namer: Namer, sizes) -> PullbackRung:
    a, b, c = (tuple(namer.labels(k)) for k in sizes)
    # Every element of C is hit by both sides, so the square is never empty.
    fa = list(c) + [rng.choice(c) for _ in range(len(a) - len(c))]
    fb = list(c) + [rng.choice(c) for _ in range(len(b) - len(c))]
    rng.shuffle(fa)
    rng.shuffle(fb)
    return PullbackRung(
        _shuffled(rng, a), _shuffled(rng, b), _shuffled(rng, c),
        tuple(zip(a, fa)), tuple(zip(b, fb)),
    )


def _negative_rung(rng: random.Random, namer: Namer) -> NegativeRung:
    whole = chain(rng, namer, NEGATIVE_CHAIN, f"chain{NEGATIVE_CHAIN}")
    pos = chain_index(whole)
    by_pos = {k: o for o, k in pos.items()}
    evens = [by_pos[k] for k in range(0, NEGATIVE_CHAIN, 2)]
    part_objects = {o: f"{o}e" for o in evens}
    part_arrows = {
        name: (f"{name}e", d, c)
        for name, d, c in whole.arrows
        if d in part_objects and c in part_objects
    }
    arrows = [(new, part_objects[d], part_objects[c]) for new, d, c in part_arrows.values()]
    comp = [
        (part_arrows[g][0], part_arrows[f][0], part_arrows[h][0])
        for g, f, h in whole.compose
        if g in part_arrows and f in part_arrows
    ]
    part = Pres(
        "evens", _shuffled(rng, part_objects.values()), _shuffled(rng, arrows), _shuffled(rng, comp)
    )
    obj_map = tuple((v, k) for k, v in part_objects.items())
    mor_map = tuple((v[0], k) for k, v in part_arrows.items())
    return NegativeRung(whole, part, obj_map, mor_map)


def ladder_inputs(seed: int, pass_index: int) -> Ladder:
    rng = random.Random(f"ladder:{seed}:{pass_index}")
    namer = Namer(rng)
    validate = tuple(cyclic(rng, namer, n, f"Z{n}") for n in VALIDATE_GROUPS)
    chains = tuple(
        (chain(rng, namer, n, f"chain{n}"), chain(rng, namer, n, f"chain{n}r")) for n in CHAINS
    )
    groupoids = tuple(groupoid_rung(rng, namer, n) for n in GROUPOIDS)
    families = tuple(
        FamilyRung(chain(rng, namer, n, f"base{n}"), chain(rng, namer, m, f"fibre{m}"))
        for n, m in FAMILIES
    )
    isos = tuple(
        IsoRung(
            "cyclic-vs-product",
            cyclic(rng, namer, 2 * n, f"Z{2 * n}"),
            z2_times_cyclic(rng, namer, n, f"Z2xZ{n}"),
            False,
        )
        for n in CYCLIC_VS_PRODUCT
    ) + tuple(
        IsoRung(
            "cyclic-relabel",
            cyclic(rng, namer, n, f"Z{n}a"),
            cyclic(rng, namer, n, f"Z{n}b"),
            True,
        )
        for n in CYCLIC_RELABEL
    )
    pullbacks = tuple(_pullback_rung(rng, namer, s) for s in PULLBACKS)
    return Ladder(validate, chains, groupoids, families, isos, pullbacks, _negative_rung(rng, namer))


# Printing `.bcat`, in the layout the program's own printer uses.


def print_category(p: Pres) -> str:
    lines = [f"category {p.name} {{", "  objects: " + ", ".join(p.objects)]
    if p.arrows:
        lines.append("  arrows:")
        lines.extend(f"    {n}: {d} -> {c}" for n, d, c in p.arrows)
    if p.compose:
        lines.append("  compose:")
        lines.extend(f"    {g} . {f} = {h}" for g, f, h in p.compose)
    lines.append("}")
    return "\n".join(lines)


def _maplets(pairs) -> str:
    return ", ".join(f"{a} |-> {b}" for a, b in pairs)


def print_identity_functor(name: str, p: Pres) -> str:
    lines = [f"functor {name} : {p.name} -> {p.name} {{"]
    lines.append("  objects: " + _maplets((o, o) for o in p.objects))
    if p.arrows:
        lines.append("  arrows:")
        lines.extend(f"    {a} |-> {a}" for a, _, _ in p.arrows)
    lines.append("}")
    return "\n".join(lines)


def print_action(name: str, rung: GroupoidRung) -> str:
    lines = [f"action {name} {{", f"  group: {rung.group.name}"]
    lines.append("  set: { " + ", ".join(rung.elements) + " }")
    lines.extend(f"  phi: {g}: " + _maplets(m) for g, m in rung.phi)
    lines.append("}")
    return "\n".join(lines)


def print_constant_family(name: str, base: Pres, fibre_name: str, functor: str) -> str:
    lines = [f"indexed {name} over {base.name} {{"]
    lines.extend(f"  fibre {o} = {fibre_name}" for o in base.objects)
    lines.extend(f"  pull {a} = {functor}" for a, _, _ in base.arrows)
    lines.append("}")
    return "\n".join(lines)


def document(*decls: str) -> str:
    return "\n\n".join(decls) + "\n"


def ladder_documents(ladder: Ladder) -> dict[str, str]:
    """Every rung printed as `.bcat`, keyed by rung; used to pin inputs."""
    docs = {}
    for p in ladder.validate:
        docs[f"validate/{p.name}"] = document(print_category(p))
    for p, q in ladder.chains:
        docs[f"chain/{p.name}"] = document(print_category(p), print_category(q))
    for r in ladder.groupoids:
        docs[f"groupoid/{r.n}"] = document(
            print_category(r.group), print_action(f"act{r.n}", r), print_category(r.relabelled)
        )
    for r in ladder.families:
        docs[f"family/{r.base.name}x{r.fibre.name}"] = document(
            print_category(r.base),
            print_category(r.fibre),
            print_identity_functor("idF", r.fibre),
            print_constant_family("fam", r.base, r.fibre.name, "idF"),
        )
    for r in ladder.isos:
        docs[f"iso/{r.kind}/{r.left.name}"] = document(print_category(r.left), print_category(r.right))
    for i, r in enumerate(ladder.pullbacks):
        docs[f"pullback/{i}"] = repr(r) + "\n"
    neg = ladder.negative
    docs["negative"] = document(print_category(neg.whole), print_category(neg.part))
    return docs


# The text workload.


def product_of_chains(rng: random.Random, namer: Namer, n: int, m: int, name: str) -> Pres:
    """chain_n x chain_m with pair ids, as a Grothendieck total prints."""
    c, d = chain(rng, namer, n, "c"), chain(rng, namer, m, "d")

    def comp_with_ids(p: Pres) -> dict[tuple[str, str], str]:
        table = p.table()
        for a, dom, cod in p.all_arrows():
            table[(identity(cod), a)] = a
            table[(a, identity(dom))] = a
        return table

    objects = [pair(x, y) for x in c.objects for y in d.objects]
    names = {}
    arrows = []
    for u, ud, uc in c.all_arrows():
        for v, vd, vc in d.all_arrows():
            if u == identity(ud) and v == identity(vd):
                names[(u, v)] = identity(pair(ud, vd))
                continue
            names[(u, v)] = pair(u, v)
            arrows.append((pair(u, v), pair(ud, vd), pair(uc, vc)))
    ct, dt = comp_with_ids(c), comp_with_ids(d)
    comp = []
    for (g1, f1), h1 in ct.items():
        for (g2, f2), h2 in dt.items():
            g, f = names[(g1, g2)], names[(f1, f2)]
            if g.startswith("id_") or f.startswith("id_"):
                continue
            comp.append((g, f, names[(h1, h2)]))
    return Pres(name, _shuffled(rng, objects), _shuffled(rng, arrows), _shuffled(rng, comp))


@dataclass(frozen=True)
class ValidDoc:
    name: str
    text: str
    principal: str  # category exported to DOT, or "" for the family total
    family: str  # indexed family whose total is exported, or ""
    counts: tuple[tuple[str, int, int], ...]  # (category, objects, arrows incl. identities)


@dataclass(frozen=True)
class Corruption:
    kind: str  # "delete" or "edit"
    start: int
    end: int
    replacement: str
    text: str


@dataclass(frozen=True)
class TextInputs:
    valid: tuple[ValidDoc, ...]
    corrupt: tuple[Corruption, ...]


def _counts(*ps: Pres) -> tuple[tuple[str, int, int], ...]:
    return tuple((p.name, len(p.objects), len(p.objects) + len(p.arrows)) for p in ps)


def valid_documents(rng: random.Random, namer: Namer) -> tuple[ValidDoc, ...]:
    total = product_of_chains(rng, namer, 10, 4, "total")
    big = chain(rng, namer, 20, "chain20")
    z = cyclic(rng, namer, 32, "Z32")
    act = groupoid_rung(rng, namer, 16)
    base, fibre = chain(rng, namer, 6, "base6"), chain(rng, namer, 3, "fibre3")
    return (
        ValidDoc("total10x4", document(print_category(total)), "total", "", _counts(total)),
        ValidDoc(
            "groups",
            document(print_category(z), print_category(act.group), print_action("reg16", act)),
            "Z32",
            "",
            _counts(z, act.group),
        ),
        ValidDoc("chain20", document(print_category(big)), "chain20", "", _counts(big)),
        ValidDoc(
            "family6x3",
            document(
                print_category(base),
                print_category(fibre),
                print_identity_functor("idF", fibre),
                print_constant_family("fam", base, fibre.name, "idF"),
            ),
            "",
            "fam",
            _counts(base, fibre),
        ),
    )


def corruptions(rng: random.Random, text: str, count: int) -> tuple[Corruption, ...]:
    chunks = [m.span() for m in re.finditer(r"\S+", text)]
    out = []
    for k in range(count):
        if k % 2 == 0:
            start, end = rng.choice(chunks)
            out.append(Corruption("delete", start, end, "", text[:start] + text[end:]))
        else:
            pos = rng.randrange(len(text))
            ch = rng.choice([c for c in EDIT_ALPHABET if c != text[pos]])
            out.append(Corruption("edit", pos, pos + 1, ch, text[:pos] + ch + text[pos + 1:]))
    return tuple(out)


def text_inputs(seed: int, pass_index: int) -> TextInputs:
    rng = random.Random(f"text:{seed}:{pass_index}")
    namer = Namer(rng)
    valid = valid_documents(rng, namer)
    corrupt = corruptions(rng, CORE_BCAT.read_text(), TEXT_CORRUPT_PER_PASS)
    return TextInputs(valid, corrupt)


def corpus_seeds(seed: int, pass_index: int) -> range:
    """Consecutive corpus seeds; pass 0 of seed 0 covers seed 7."""
    start = seed + pass_index * CORPUS_SEEDS_PER_PASS
    return range(start, start + CORPUS_SEEDS_PER_PASS)
