"""Shared fixtures and independent brute-force oracles.

The oracles re-derive expected values straight from raw presentation data
(total scans, exhaustive enumeration of functors), never through the code
paths they are used to check, or are the implementations that a faster
path replaced, kept as they were.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    ParseError,
    SourceSpan,
    UnitLawViolation,
    UnknownMorphism,
    UnknownObject,
)
from basecat.fibration import (
    CounterexampleCartesian,
    CounterexampleOpCartesian,
    FunctorOver,
)


@pytest.fixture(scope="session")
def env():
    path = fixtures_dir() / "core.bcat"
    return elaborate(parse(path.read_text(), str(path)))


@pytest.fixture(scope="session")
def chunk_deletions():
    """Every fixture with one whitespace-separated chunk deleted, each
    parsed once: (file name, corrupted text, the ``Document`` or the
    ``ParseError`` raised)."""
    out = []
    for path in sorted(fixtures_dir().glob("*.bcat")):
        text = path.read_text()
        for match in re.finditer(r"\S+", text):
            start, end = match.span()
            corrupted = text[:start] + text[end:]
            try:
                outcome = parse(corrupted, path.name)
            except ParseError as exc:
                # Kept without its traceback, which would hold every
                # parser's token list alive for the session.
                outcome = exc.with_traceback(None)
            out.append((path.name, corrupted, outcome))
    return out


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


# The character-at-a-time tokenizer of the text front-end, kept as the
# reference for the compiled one in ``basecat.dsl``.

KEYWORDS = {
    "category", "functor", "concrete", "action", "indexed",
    "over", "objects", "arrows", "compose", "group", "set", "phi",
    "fibre", "pull",
}

_SIMPLE_ID = re.compile(r"[A-Za-z0-9_*']+")
_PAIR_BODY = re.compile(r"[A-Za-z0-9_*'|,@()]+")


@dataclass(frozen=True)
class Token:
    kind: str  # 'id', 'kw', or a literal punctuation string
    text: str
    span: SourceSpan


def oracle_tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def span(length: int) -> SourceSpan:
        return SourceSpan(filename, line, col, max(1, length))

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        # Identity ids of pair-named objects look like id_(X,x): a reserved
        # prefix glued to a balanced pair token.
        prefix = "id_(" if text.startswith("id_(", i) else "(" if ch == "(" else None
        if prefix is not None:
            depth = 0
            j = i + len(prefix) - 1
            while j < n:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif text[j] in " \t\r\n":
                    raise ParseError(span(j - i), "a balanced pair id", "whitespace inside '('")
                j += 1
            if depth != 0:
                raise ParseError(span(n - i), "a closing ')'", "end of input")
            body = text[i : j + 1]
            inner = body[len(prefix) : -1]
            if inner and not _PAIR_BODY.fullmatch(inner):
                raise ParseError(span(len(body)), "a pair id", repr(body))
            tokens.append(Token("id", body, span(len(body))))
            col += len(body)
            i = j + 1
            continue
        m = _SIMPLE_ID.match(text, i)
        if m:
            word = m.group(0)
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, span(len(word))))
            i = m.end()
            col += len(word)
            continue
        for punct in ("|->", "->", "{", "}", ":", ",", ".", "="):
            if text.startswith(punct, i):
                tokens.append(Token(punct, punct, span(len(punct))))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(span(1), "a token", repr(ch))
    return tokens


# The cartesian scan of ``basecat.fibration`` as it was before the mediating
# morphisms were counted once per call: the list is rebuilt for every
# (g, w) pair.


def _oracle_composable(cat: FinCat, m: str, op: bool) -> list[tuple[str, str, str]]:
    if op:
        return [(x.name, x.cod, cat.compose[(x.name, m)]) for x in cat.arrows_from(cat.cod(m))]
    return [(x.name, x.dom, cat.compose[(m, x.name)]) for x in cat.arrows_into(cat.dom(m))]


def oracle_cartesian_scan(p: FunctorOver, f: str, op: bool):
    total, over = p.total, p.proj.mor_map
    fa = total.arrow(f)  # raises UnknownMorphism
    ws = _oracle_composable(p.base, over[f], op)
    hs = [(h, z, over[h], fh) for h, z, fh in _oracle_composable(total, f, op)]
    if op:
        outer = [(g.name, g.cod) for g in total.arrows_from(fa.dom)]
    else:
        outer = [(g.name, g.dom) for g in total.arrows_into(fa.cod)]
    for g, z in outer:
        pz, pg = p.proj.obj_map[z], over[g]
        for w, wz, uw in ws:
            if wz != pz or uw != pg:
                continue
            mediating = [h for h, hz, ph, fh in hs if hz == z and ph == w and fh == g]
            if len(mediating) != 1:
                found = CounterexampleOpCartesian if op else CounterexampleCartesian
                return found(f, g, w, len(mediating))
    return True
