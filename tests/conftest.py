"""Shared fixtures and independent brute-force oracles.

The oracles re-derive expected values straight from raw presentation data
(total scans, exhaustive enumeration of functors), never through the code
paths they are used to check, or are the implementations that a faster
path replaced, kept as they were.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Mapping, Sequence

import pytest

import basecat as bc
from basecat.core import (
    Arrow,
    FinCat,
    FinFunctor,
    IsoWitness,
    RawArrow,
    _as_arrows,
    _rows,
    assemble,
    identity_functor,
    identity_id,
    normalize,
    op_name,
    op_tag,
    opposite,
    pair_id,
    validate_category,
    validate_functor,
    validate_witness,
)
from basecat.constructions import ConstructedCategory, GroupAction, _Builder
from basecat.corpus import build_corpus, fixtures_dir, group_category
from basecat.dsl import decl_of_category, elaborate, format_declaration, parse
from basecat.errors import (
    AssociativityViolation,
    DomCodMismatch,
    DuplicateId,
    MissingComposite,
    NotSplit,
    NotStrict,
    ParseError,
    SourceSpan,
    SourceTargetMismatch,
    UnitLawViolation,
    UnknownMorphism,
    UnknownObject,
    ValidationError,
)
from basecat.family import IndexedFamily, validate_family
from basecat.fibration import (
    Cleavage,
    Counterexample,
    CounterexampleCartesian,
    CounterexampleOpCartesian,
    FunctorOver,
    MissingLift,
    MissingOpLift,
    OpCleavage,
    SplitViolation,
    _vertical_factors,
    check_split,
)
from basecat.iso import DEFAULT_BUDGET, SIGNATURE_ROUNDS, BudgetExhausted, NotIsomorphic, _intern
from basecat.sets import ConeCounterexample, FinFn, FinSetObj, PullbackSquare


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


def corpus_categories(seed: int) -> list[bc.FinCat]:
    """Every category a corpus holds, each once."""
    corpus = build_corpus(seed=seed)
    found = list(corpus.env.categories.values())
    for fun in corpus.functors:
        found += [fun.source, fun.target]
    for fun, concrete in corpus.concrete_pairs:
        found += [fun.source, concrete.over]
    found += [act.group for act in corpus.actions]
    for fam in corpus.families:
        found += [fam.base, *fam.fibre.values()]
    unique = {id(cat): cat for cat in found}
    return list(unique.values())


@pytest.fixture(scope="session")
def corpus_cats() -> list[bc.FinCat]:
    """The categories of corpus seeds 0-9."""
    cats = []
    for seed in range(10):
        cats += corpus_categories(seed)
    return cats


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


# The isomorphism search as it was before power-type colours, kept as the
# reference for ``iso.find_isomorphism``: buckets by hom-profile signature
# only, every non-identity candidate of a hom-set tried.

_ORACLE_SIGNATURE_ROUNDS = 2


def _oracle_signatures(cat: FinCat) -> dict[str, tuple]:
    hom = {
        (x, y): len(cat.hom(x, y)) for x in cat.objects for y in cat.objects
    }
    sig: dict[str, tuple] = {
        x: (hom[(x, x)],
            tuple(sorted(hom[(x, y)] for y in cat.objects)),
            tuple(sorted(hom[(y, x)] for y in cat.objects)))
        for x in cat.objects
    }
    for _ in range(_ORACLE_SIGNATURE_ROUNDS):
        sig = {
            x: (sig[x], tuple(sorted((sig[y], hom[(x, y)], hom[(y, x)]) for y in cat.objects)))
            for x in cat.objects
        }
    return sig


# ``iso._signatures`` as it was before it read the hom-set sizes into
# rows and columns once: one ``hom`` call per ordered pair of objects,
# and sorted generator expressions in every round.


def oracle_signatures(cat: FinCat, palette: dict) -> dict[str, int]:
    objs = cat.objects
    hom = {(x, y): len(cat.hom(x, y)) for x in objs for y in objs}
    sig = {
        x: _intern(palette, ("sig", 0, hom[(x, x)],
                             tuple(sorted(hom[(x, y)] for y in objs)),
                             tuple(sorted(hom[(y, x)] for y in objs))))
        for x in objs
    }
    for k in range(1, SIGNATURE_ROUNDS + 1):
        sig = {
            x: _intern(palette, ("sig", k, sig[x],
                                 tuple(sorted((sig[y], hom[(x, y)], hom[(y, x)]) for y in objs))))
            for x in objs
        }
    return sig


class _OracleSearch:
    def __init__(self, c: FinCat, d: FinCat, budget: int):
        self.c = c
        self.d = d
        self.c_rows = _rows(c.arrows, c.compose)
        self.d_rows = _rows(d.arrows, d.compose)
        self.budget = budget
        self.nodes = 0
        self.out_of_budget = False

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.budget:
            self.out_of_budget = True
            return False
        return True

    def match_objects(self, i: int, assign: dict[str, str], used: set[str],
                      buckets: dict[str, list[str]]) -> dict[str, str] | None:
        if i == len(self.c.objects):
            return self.match_all_morphisms(assign)
        x = self.c.objects[i]
        for y in buckets[x]:
            if y in used:
                continue
            if not self.tick():
                return None
            assign[x] = y
            used.add(y)
            result = self.match_objects(i + 1, assign, used, buckets)
            if result is not None or self.out_of_budget:
                return result
            del assign[x]
            used.discard(y)
        return None

    def match_all_morphisms(self, objs: dict[str, str]) -> dict[str, str] | None:
        c, d = self.c, self.d
        for x in c.objects:
            for y in c.objects:
                if len(c.hom(x, y)) != len(d.hom(objs[x], objs[y])):
                    return None
        todo = [a for a in c.arrows if not c.is_identity(a.name)]
        assign = {
            c.identity[x]: d.identity[objs[x]] for x in c.objects
        }
        used = set(assign.values())
        return self.match_morphisms(todo, 0, objs, assign, used)

    def match_morphisms(self, todo, i, objs, assign, used) -> dict[str, str] | None:
        c, d = self.c, self.d
        if i == len(todo):
            return dict(assign)
        a = todo[i]
        for cand in d.hom(objs[a.dom], objs[a.cod]):
            if cand in used or d.is_identity(cand):
                continue
            if not self.tick():
                return None
            assign[a.name] = cand
            used.add(cand)
            if self.consistent(a.name, assign):
                result = self.match_morphisms(todo, i + 1, objs, assign, used)
                if result is not None or self.out_of_budget:
                    return result
            del assign[a.name]
            used.discard(cand)
        return None

    def consistent(self, new: str, assign: dict[str, str]) -> bool:
        # Check every composite whose factors are both assigned already.
        c_after, d_after = self.c_rows, self.d_rows
        new_row, new_img = c_after[new], assign[new]
        d_new_row = d_after[new_img]
        for other, img in assign.items():
            h = new_row.get(other)
            if h is not None and h in assign and d_new_row[img] != assign[h]:
                return False
            h = c_after[other].get(new)
            if h is not None and h in assign and d_after[img][new_img] != assign[h]:
                return False
        return True


def oracle_find_isomorphism(
    c: FinCat, d: FinCat, budget: int = DEFAULT_BUDGET
) -> tuple[IsoWitness | NotIsomorphic | BudgetExhausted, int | None]:
    """``iso.find_isomorphism`` without colours, with the node count of its
    search (None when it rejects before searching)."""
    if len(c.objects) != len(d.objects):
        return NotIsomorphic("object counts differ"), None
    if len(c.arrows) != len(d.arrows):
        return NotIsomorphic("morphism counts differ"), None

    sig_c = _oracle_signatures(c)
    sig_d = _oracle_signatures(d)
    if sorted(sig_c.values()) != sorted(sig_d.values()):
        return NotIsomorphic("hom-profile signatures differ"), None
    buckets = {
        x: [y for y in d.objects if sig_d[y] == sig_c[x]] for x in c.objects
    }

    search = _OracleSearch(c, d, budget)
    assignment = search.match_objects(0, {}, set(), buckets)
    if search.out_of_budget:
        return BudgetExhausted(search.nodes), search.nodes
    if assignment is None:
        return NotIsomorphic("no structure-preserving bijection exists"), search.nodes

    objs = {x: d.arrow(assignment[c.identity[x]]).dom for x in c.objects}
    witness = oracle_relabelling(
        f"{c.name}~{d.name}", c, d, objs, assignment, back_name=f"{d.name}~{c.name}"
    )
    return witness, search.nodes


# The ways "the same category" was decided before ``core.invert`` and
# ``same_presentation`` decided them: by validating both functors of a
# witness, by rebuilding a projection's inverse from labels and keys, and by
# comparing printed declarations.


def oracle_relabelling(
    name: str,
    a: FinCat,
    b: FinCat,
    obj_map: Mapping[str, str],
    mor_map: Mapping[str, str],
    back_name: str | None = None,
) -> IsoWitness:
    """``core.relabelling`` validating the inverse maps as a functor, then
    both round trips."""
    forward = validate_functor(name, a, b, obj_map, mor_map)
    backward = validate_functor(
        back_name or name + "_back",
        b,
        a,
        {v: k for k, v in obj_map.items()},
        {v: k for k, v in mor_map.items()},
    )
    return validate_witness(forward, backward)


def oracle_projection_witness(c: FinCat, built, name: str) -> IsoWitness:
    """The base ``c`` relabelled as the one-element-fibre construction
    ``built``: each object to the first object labelled with it, each arrow
    to the arrow over it."""
    by_over = {over: ident for ident, over in built.projection.mor_map.items()}
    obj_map = {
        x: next(o for o, lbl in built.object_labels.items() if lbl[0] == x)
        for x in c.objects
    }
    mor_map = {a.name: by_over[a.name] for a in c.arrows if a.name in by_over}
    for x in c.objects:
        mor_map[c.identity[x]] = built.cat.identity[obj_map[x]]
    return oracle_relabelling(name, c, built.cat, obj_map, mor_map)


def oracle_base_leg(c: FinCat, built, name: str, commutes: bool = True) -> bool:
    """A base leg of ``verify_main_prop``: the witness validates and, with
    ``commutes``, the projection undoes it."""
    try:
        w = oracle_projection_witness(c, built, name)
    except ValidationError:
        return False
    return not commutes or all(
        built.projection.mor(w.forward.mor(a.name)) == a.name for a in c.arrows
    )


def oracle_printed(cat: FinCat) -> str:
    return format_declaration(decl_of_category(normalize(cat, name="cmp")))


def oracle_duality(right: FinCat, left: FinCat) -> bool:
    """Whether the opposite of ``right`` prints as ``left`` once both are
    normalized."""
    return oracle_printed(opposite(right)) == oracle_printed(left)


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


# The span of an offset as ``basecat.dsl`` found it before spans were
# counted: from a table of line starts, by bisection.


def oracle_span(filename: str, text: str, offset: int, length: int) -> SourceSpan:
    line_starts = [0, *(m.end() for m in re.finditer("\n", text))]
    line = bisect_right(line_starts, offset)
    return SourceSpan(filename, line, offset - line_starts[line - 1] + 1, length)


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


# The lift scan of ``basecat.fibration`` as it was before discrete
# (op)fibrations were decided by counting lifts: at each pair, the
# candidates are scanned in presentation order until one is (op)cartesian.


def oracle_lift_scan(p: FunctorOver, op: bool):
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
                if over[cand.name] == u and oracle_cartesian_scan(p, cand.name, op) is True:
                    lifts[(u, y)] = cand.name
                    break
            else:
                return (MissingOpLift if op else MissingLift)(u, y)
    return (OpCleavage if op else Cleavage)(lifts)


# The split check of ``basecat.fibration`` as it was before the objects
# were grouped once per projection and every verdict was read through one
# memo: each base composite walks every total object, and the lifts are
# taken as (op)cartesian without a scan when they are all the arrows.


def oracle_split_scan(p: FunctorOver, lift: Mapping[tuple[str, str], str], op: bool):
    total, base = p.total, p.base
    lift, table, obj_over = dict(lift), total.compose, p.proj.obj_map
    kind = "op-lift" if op else "lift"
    above: dict[str, list[str]] = {}
    for y in total.objects:
        above.setdefault(obj_over[y], []).append(y)
        key = (base.identity[obj_over[y]], y)
        if key not in lift:
            return SplitViolation(f"no {kind} of the identity at {y!r}")
        if lift[key] != total.identity[y]:
            return SplitViolation(f"{kind} of the identity at {y!r} is {lift[key]!r}")
    for (g, f), gf in base.compose.items():
        if base.is_identity(g) or base.is_identity(f):
            continue
        first, second, end = (f, g, base.dom(f)) if op else (g, f, base.cod(g))
        for z in total.objects:
            if obj_over[z] != end:
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
            if table[(far, near) if op else (near, far)] != direct:
                return SplitViolation(
                    f"{kind}s of ({g!r}, {f!r}) at {z!r} do not compose to the {kind} of {gf!r}"
                )
    over, end = p.proj.mor_map, total.dom if op else total.cod
    chosen = []
    for u in base.arrows:
        for y in above.get(u.dom if op else u.cod, ()):
            f = lift.get((u.name, y))
            if over.get(f) != u.name or end(f) != y:
                return SplitViolation(f"no {kind} of {u.name!r} at {y!r}")
            chosen.append((u.name, y, f))
    if len(chosen) < len(total.arrows):
        notion = "opcartesian" if op else "cartesian"
        for u, y, f in chosen:
            if oracle_cartesian_scan(p, f, op) is not True:
                return SplitViolation(f"{kind} {f!r} of {u!r} at {y!r} is not {notion}")
    return True


# The lemma check of ``basecat.fibration`` as it was before each base
# arrow's invertibility was decided once per call.


def oracle_cartesian_over_iso(p: FunctorOver):
    cartesian = p.cartesian()
    for a in p.total.arrows:
        if not cartesian[a.name]:
            continue
        if p.base.inverse_of(p.over(a.name)) is None:
            continue
        if p.total.inverse_of(a.name) is None:
            return Counterexample(
                f"{a.name!r} lies above an isomorphism but has no inverse"
            )
    return True


# The structural operations of ``basecat.core`` as they were when each one
# validated its result again: the reference for the direct builders.


def oracle_opposite(cat: FinCat) -> FinCat:
    names = {
        a.name: (a.name if cat.is_identity(a.name) else op_name(a.name))
        for a in cat.arrows
    }
    arrows = tuple(Arrow(names[a.name], a.cod, a.dom) for a in cat.arrows)
    identity = {o: names[m] for o, m in cat.identity.items()}
    table = {
        (names[f], names[g]): names[h] for (g, f), h in cat.compose.items()
    }
    return validate_category(op_name(cat.name), cat.objects, arrows, table, identity)


def oracle_op_functor(fun: FinFunctor) -> FinFunctor:
    src = oracle_opposite(fun.source)
    tgt = oracle_opposite(fun.target)
    mor_map = {}
    for a in fun.source.arrows:
        key = a.name if fun.source.is_identity(a.name) else op_name(a.name)
        img = fun.mor(a.name)
        mor_map[key] = img if fun.target.is_identity(img) else op_name(img)
    return validate_functor(op_name(fun.name), src, tgt, dict(fun.obj_map), mor_map)


def oracle_compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    if f.target != g.source:
        raise SourceTargetMismatch(f"{f.name} lands in {f.target.name}, {g.name} starts at {g.source.name}")
    return validate_functor(
        f"{g.name}*{f.name}",
        f.source,
        g.target,
        {x: g.obj(f.obj(x)) for x in f.source.objects},
        {a.name: g.mor(f.mor(a.name)) for a in f.source.arrows},
    )


# ``core._reversed`` as it was before it read the identity names and the
# identity map straight off the category: one ``op_tag`` call per arrow,
# and the identity map re-read through the tags.


def oracle_reversed(cat: FinCat) -> FinCat:
    names = {a.name: op_tag(cat, a.name) for a in cat.arrows}
    arrows = [Arrow(names[a.name], a.cod, a.dom) for a in cat.arrows]
    identity = {o: names[m] for o, m in cat.identity.items()}
    table = {
        (names[f], names[g]): names[h] for (g, f), h in cat.compose.items()
    }
    return assemble(op_name(cat.name), cat.objects, arrows, table, identity)


# ``fibration._vertical_factors`` as it was before it read the total's
# indexes directly: the hom-set and both domains through the accessors,
# and each candidate's verticality through ``is_identity``.


def oracle_vertical_factors(p: FunctorOver, top: str, outer: str) -> list[str]:
    total, base, over = p.total, p.base, p.proj.mor_map
    table = total.compose
    return [
        h
        for h in total.hom(total.dom(outer), total.dom(top))
        if base.is_identity(over[h]) and table[(top, h)] == outer
    ]


# ``constructions._Builder.build`` as it was before derived presentations
# were assembled: the category and its projection validated again.


def oracle_build(builder, cleavage=None, opcleavage=None) -> ConstructedCategory:
    cat = validate_category(builder.name, builder.objects, builder.arrows, builder.table)
    projection = validate_functor(
        f"proj_{builder.name}", cat, builder.base, builder.proj_obj, builder.proj_mor
    )
    labels = (builder.object_labels, builder.arrow_labels)
    return ConstructedCategory(cat, projection, builder.provenance, *labels, cleavage, opcleavage)


def built_form(value) -> tuple:
    """What a build yields, every mapping in insertion order: a category's
    ids and table, a functor's maps, a construction's fields, or an
    error's class and ids."""
    if isinstance(value, BaseException):
        return (type(value), value)
    if isinstance(value, FinCat):
        return (value.name, value.objects, value.arrows, [*value.identity.items()], [*value.compose.items()])
    if isinstance(value, FinFunctor):
        ends = (built_form(value.source), built_form(value.target))
        return (value.name, ends, [*value.obj_map.items()], [*value.mor_map.items()])
    lifts = [None if c is None else [*c.lift.items()] for c in (value.cleavage, value.opcleavage)]
    labels = [[*m.items()] for m in (value.object_labels, value.arrow_labels)]
    return (built_form(value.cat), built_form(value.projection), value.provenance, labels, lifts)


# ``constructions.transformation_groupoid`` as it was before it was built
# as a category of elements: its own builder, objects labelled ``(x,)``,
# no cleavages.


def oracle_transformation_groupoid(act: GroupAction) -> ConstructedCategory:
    """Objects are the set's elements; (g, x) runs from x to its image.

    Composition follows the action: (g2, image of x) after (g1, x) is
    (g2 g1, x), so the laws are the group's, read at each element. The
    morphism count is the group order times the set size.
    """
    grp = act.group
    b = _Builder(f"tg_{grp.name}", grp, "transformation-groupoid")
    for x in act.carrier.elements:
        b.add_object(x, (x,), act.star)
    name_of = {}
    for g in grp.arrows:
        if grp.is_identity(g.name):
            for x in act.carrier.elements:
                name_of[(g.name, x)] = identity_id(x)
            continue
        for x in act.carrier.elements:
            ident = pair_id(g.name, x)
            name_of[(g.name, x)] = ident
            b.add_arrow(ident, (g.name, x), x, act.phi[g.name].mapping[x], g.name)
    for (g2, g1), g3 in grp.compose.items():
        if grp.is_identity(g2) or grp.is_identity(g1):
            continue
        for x in act.carrier.elements:
            mid = act.phi[g1].mapping[x]
            b.table[(name_of[(g2, mid)], name_of[(g1, x)])] = name_of[(g3, x)]
    return b.build()


# ``basecat.fibration.recover_indexed`` as it was before the objects,
# vertical arrows and vertical composites were grouped once per call: every
# base object and every base arrow scans the whole total category.


def oracle_recover_indexed(
    p: FunctorOver,
    c: Cleavage,
    object_labels: dict[str, tuple[str, ...]] | None = None,
    arrow_labels: dict[str, tuple[str, ...]] | None = None,
) -> IndexedFamily:
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


# The universal-property check of ``basecat.sets`` as it was before cones
# were counted point by point: every cone from every probe of size up to
# ``probe`` is enumerated, smallest probes first.


def _all_functions(dom: FinSetObj, cod: FinSetObj) -> Iterable[FinFn]:
    if not dom.elements:
        yield FinFn(dom, cod, {})
        return
    for images in iproduct(cod.elements, repeat=len(dom.elements)):
        yield FinFn(dom, cod, dict(zip(dom.elements, images)))


def oracle_verify_pullback_universal(square: PullbackSquare, probe: int = 3):
    f, g, apex, p1, p2 = square.f, square.g, square.apex, square.p1, square.p2
    for e in apex.elements:
        if f.mapping[p1.mapping[e]] != g.mapping[p2.mapping[e]]:
            raise ValidationError("square does not commute")

    for size in range(probe + 1):
        d = FinSetObj(f"probe{size}", tuple(f"d{i}" for i in range(size)))
        for q1 in _all_functions(d, f.dom):
            for q2 in _all_functions(d, g.dom):
                if any(
                    f.mapping[q1.mapping[x]] != g.mapping[q2.mapping[x]]
                    for x in d.elements
                ):
                    continue
                count = 1
                for x in d.elements:
                    candidates = [
                        e
                        for e in apex.elements
                        if p1.mapping[e] == q1.mapping[x]
                        and p2.mapping[e] == q2.mapping[x]
                    ]
                    count *= len(candidates)
                    if count == 0:
                        break
                if count != 1:
                    return ConeCounterexample(d, q1, q2, count)
    return True


# The strictness check of ``basecat.family`` as it was before strictness
# was proved on generator pairs: every pair of the base table is compared,
# in table order.


def oracle_validate_family(
    base: FinCat,
    fibre: Mapping[str, FinCat],
    pull: Mapping[str, FinFunctor],
) -> IndexedFamily:
    fibre = dict(fibre)
    pull = dict(pull)
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

    if len(fibre) > len(base.objects):
        raise UnknownObject(next(o for o in fibre if o not in base.objects))
    if len(pull) > len(base.arrows):
        raise UnknownMorphism(next(m for m in pull if not base.has_arrow(m)))
    return IndexedFamily(base, fibre, pull)


# ``core.same_presentation`` as it was before equal raw presentations were
# compared first: both sides are always normalized.


def oracle_same_presentation(a: FinCat, b: FinCat) -> bool:
    na = normalize(a, name="_")
    nb = normalize(b, name="_")
    return (
        na.objects == nb.objects
        and na.arrows == nb.arrows
        and na.identity == nb.identity
        and na.compose == nb.compose
    )
