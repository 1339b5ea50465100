"""Text front-end: parse ``.bcat`` declarations, print them back canonically.

The printer preserves declaration and item order and normalises only the
layout, so parsing what was printed gives back the same document, and
printing is idempotent. Identity morphisms are never written down: they
are synthesised during elaboration under the reserved ``id_<object>``
names, and composition entries may refer to them.

Ids are either simple tokens over ``[A-Za-z0-9_*']`` or balanced
parenthesised pair labels as emitted by the constructions.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .constructions import GroupAction, validate_group_action
from .core import FinCat, FinFunctor, identity_id, validate_category, validate_functor
from .errors import ParseError, SourceSpan, UnknownObject, UnresolvedReference
from .family import IndexedFamily, validate_family
from .sets import ConcreteStructure, FinFn, FinSetObj, validate_concrete

KEYWORDS = {
    "category", "functor", "concrete", "action", "indexed",
    "over", "objects", "arrows", "compose", "group", "set", "phi",
    "fibre", "pull",
}

# One match per token, whitespace and comments before it included. A pair id
# matches only up to its first "(", and ``_pair_end`` finds where it closes.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|\#[^\n]*)*
    (?:(?P<pair>(?:id_)?\()
    |(?P<word>[A-Za-z0-9_*']+)
    |(?P<punct>\|->|->|[{}:,.=])
    |(?P<end>\Z)
    |(?P<bad>.))""",
    re.VERBOSE | re.DOTALL,
)
_PAIR_STOP = re.compile(r"[()]|[ \t\r\n]")
_PAIR_BODY = re.compile(r"[A-Za-z0-9_*'|,@()]+")
_NEWLINE = re.compile(r"\n")


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in _NEWLINE.finditer(text))]


def _span(filename: str, line_starts: list[int], offset: int, length: int) -> SourceSpan:
    """Lines are counted at newlines only; a tab or carriage return is one column."""
    line = bisect_right(line_starts, offset)
    return SourceSpan(filename, line, offset - line_starts[line - 1] + 1, length)


def _error_at(
    text: str, filename: str, offset: int, length: int, expected: str, found: str
) -> ParseError:
    return ParseError(_span(filename, _line_starts(text), offset, length), expected, found)


def _pair_end(text: str, filename: str, start: int, opening: int) -> int:
    """The end of the pair id at ``start``: where the brackets from ``opening`` balance."""
    depth = 0
    for m in _PAIR_STOP.finditer(text, opening):
        if m.group() == "(":
            depth += 1
        elif m.group() == ")":
            depth -= 1
            if depth == 0:
                end = m.end()
                inner = text[opening + 1 : end - 1]
                if inner and not _PAIR_BODY.fullmatch(inner):
                    raise _error_at(
                        text, filename, start, end - start, "a pair id", repr(text[start:end])
                    )
                return end
        else:
            raise _error_at(
                text, filename, start, m.start() - start,
                "a balanced pair id", "whitespace inside '('",
            )
    raise _error_at(text, filename, start, len(text) - start, "a closing ')'", "end of input")


def _tokenize(text: str, filename: str) -> list[tuple[str, str, int]]:
    """Each token as a plain (kind, text, offset) tuple: kind is 'id', 'kw'
    or the punctuation itself, and offset is where the text starts."""
    tokens = []
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.start(kind), m.end()
        if kind == "word":
            word = m.group(kind)
            tokens.append(("kw" if word in KEYWORDS else "id", word, start))
        elif kind == "punct":
            punct = m.group(kind)
            tokens.append((punct, punct, start))
        elif kind == "pair":
            # Identity ids of pair-named objects look like id_(X,x): a
            # reserved prefix glued to a balanced pair token.
            pos = _pair_end(text, filename, start, pos - 1)
            tokens.append(("id", text[start:pos], start))
        elif kind == "end":
            return tokens
        else:
            raise _error_at(text, filename, start, 1, "a token", repr(text[start]))


# The parser reads past the last token only onto this one.
_END = ("end of input", "", -1)


# Declarations. Spans do not take part in structural equality.


@dataclass(frozen=True)
class CategoryDecl:
    name: str
    objects: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    compose: tuple[tuple[str, str, str], ...]  # (g, f, h) meaning g . f = h
    span: SourceSpan = field(compare=False)


@dataclass(frozen=True)
class FunctorDecl:
    name: str
    source: str
    target: str
    objects: tuple[tuple[str, str], ...]
    arrows: tuple[tuple[str, str], ...]
    span: SourceSpan = field(compare=False)


@dataclass(frozen=True)
class ConcreteDecl:
    name: str
    over: str
    carriers: tuple[tuple[str, tuple[str, ...]], ...]
    actions: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    span: SourceSpan = field(compare=False)


@dataclass(frozen=True)
class ActionDecl:
    name: str
    group: str
    elements: tuple[str, ...]
    phi: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    span: SourceSpan = field(compare=False)


@dataclass(frozen=True)
class IndexedDecl:
    name: str
    base: str
    fibres: tuple[tuple[str, str], ...]
    pulls: tuple[tuple[str, str], ...]
    span: SourceSpan = field(compare=False)


Declaration = CategoryDecl | FunctorDecl | ConcreteDecl | ActionDecl | IndexedDecl


@dataclass(frozen=True)
class Document:
    declarations: tuple[Declaration, ...]

    def of_kind(self, cls) -> list:
        return [d for d in self.declarations if isinstance(d, cls)]


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.tokens.append(_END)
        self.pos = 0

    @cached_property
    def line_starts(self) -> list[int]:
        return _line_starts(self.text)

    def span(self, i: int) -> SourceSpan:
        """The span of the ``i``-th token."""
        _, text, offset = self.tokens[i]
        return _span(self.filename, self.line_starts, offset, len(text))

    def error(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        if tok is _END:
            lines = self.text.splitlines() or [""]
            eof_span = SourceSpan(self.filename, len(lines), max(1, len(lines[-1])), 1)
            return ParseError(eof_span, expected, "end of input")
        return ParseError(self.span(self.pos), expected, repr(tok[1]))

    def take(self, kind: str, expected: str | None = None) -> str:
        """The text of the next token, which must be of ``kind``."""
        tok_kind, text, _ = self.tokens[self.pos]
        if tok_kind != kind:
            raise self.error(expected or repr(kind))
        self.pos += 1
        return text

    def take_kw(self, word: str) -> None:
        if self.tokens[self.pos][:2] != ("kw", word):
            raise self.error(repr(word))
        self.pos += 1

    def at_kw(self, *words: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "kw" and text in words

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def skip_commas(self) -> None:
        while self.at(","):
            self.pos += 1

    def ident(self, expected: str = "an identifier") -> str:
        return self.take("id", expected)

    def name(self, expected: str) -> tuple[str, SourceSpan]:
        """A declaration's name, and its span."""
        return self.ident(expected), self.span(self.pos - 1)

    # Declarations

    def document(self) -> Document:
        decls: list[Declaration] = []
        known: dict[str, set[str]] = {
            "category": set(), "functor": set(), "concrete": set(),
            "action": set(), "indexed": set(),
        }
        while self.tokens[self.pos] is not _END:
            if not self.at_kw("category", "functor", "concrete", "action", "indexed"):
                raise self.error("a declaration keyword")
            kind = self.take("kw")  # each decl_* method starts at the name
            decl = getattr(self, "decl_" + kind)(known)
            if decl.name in known[kind]:
                raise ParseError(decl.span, f"a fresh {kind} name", repr(decl.name))
            known[kind].add(decl.name)
            decls.append(decl)
        return Document(tuple(decls))

    def _ref(self, kind: str, known: dict[str, set[str]]) -> str:
        name = self.ident(f"the name of a {kind}")
        if name not in known[kind]:
            raise UnresolvedReference(name, self.span(self.pos - 1))
        return name

    def decl_category(self, known) -> CategoryDecl:
        name, span = self.name("a category name")
        self.take("{")
        self.take_kw("objects")
        self.take(":")
        objects = self.id_list()
        arrows: list[tuple[str, str, str]] = []
        if self.at_kw("arrows"):
            self.pos += 1
            self.take(":")
            while self.at("id"):
                nm = self.ident()
                self.take(":")
                dom = self.ident("a domain object")
                self.take("->")
                cod = self.ident("a codomain object")
                arrows.append((nm, dom, cod))
                self.skip_commas()
        compose: list[tuple[str, str, str]] = []
        if self.at_kw("compose"):
            self.pos += 1
            self.take(":")
            while self.at("id"):
                g = self.ident()
                self.take(".")
                f = self.ident("the earlier morphism")
                self.take("=")
                h = self.ident("the composite morphism")
                compose.append((g, f, h))
                self.skip_commas()
        self.take("}")
        return CategoryDecl(name, tuple(objects), tuple(arrows), tuple(compose), span)

    def decl_functor(self, known) -> FunctorDecl:
        name, span = self.name("a functor name")
        self.take(":")
        source = self._ref("category", known)
        self.take("->")
        target = self._ref("category", known)
        self.take("{")
        self.take_kw("objects")
        self.take(":")
        objects = self.maplet_list()
        arrows: tuple[tuple[str, str], ...] = ()
        if self.at_kw("arrows"):
            self.pos += 1
            self.take(":")
            arrows = self.maplet_list()
        self.take("}")
        return FunctorDecl(name, source, target, tuple(objects), tuple(arrows), span)

    def decl_concrete(self, known) -> ConcreteDecl:
        name, span = self.name("a concrete structure name")
        self.take_kw("over")
        over = self._ref("category", known)
        self.take("{")
        carriers: list[tuple[str, tuple[str, ...]]] = []
        actions: list[tuple[str, tuple[tuple[str, str], ...]]] = []
        while self.at("id"):
            nm = self.ident()
            self.take(":")
            if self.at("{"):
                self.pos += 1
                elems = self.id_list()
                self.take("}")
                carriers.append((nm, tuple(elems)))
            else:
                actions.append((nm, tuple(self.maplet_list())))
        self.take("}")
        return ConcreteDecl(name, over, tuple(carriers), tuple(actions), span)

    def decl_action(self, known) -> ActionDecl:
        name, span = self.name("an action name")
        self.take("{")
        self.take_kw("group")
        self.take(":")
        group = self._ref("category", known)
        self.take_kw("set")
        self.take(":")
        self.take("{")
        elements = self.id_list()
        self.take("}")
        phi: list[tuple[str, tuple[tuple[str, str], ...]]] = []
        while self.at_kw("phi"):
            self.pos += 1
            self.take(":")
            nm = self.ident("a group morphism")
            self.take(":")
            phi.append((nm, tuple(self.maplet_list())))
        self.take("}")
        return ActionDecl(name, group, tuple(elements), tuple(phi), span)

    def decl_indexed(self, known) -> IndexedDecl:
        name, span = self.name("an indexed family name")
        self.take_kw("over")
        base = self._ref("category", known)
        self.take("{")
        fibres: list[tuple[str, str]] = []
        pulls: list[tuple[str, str]] = []
        while self.at_kw("fibre", "pull"):
            which = self.take("kw")
            nm = self.ident()
            self.take("=")
            if which == "fibre":
                fibres.append((nm, self._ref("category", known)))
            else:
                pulls.append((nm, self._ref("functor", known)))
        self.take("}")
        return IndexedDecl(name, base, tuple(fibres), tuple(pulls), span)

    def id_list(self) -> list[str]:
        out = []
        while self.at("id"):
            out.append(self.ident())
            self.skip_commas()
        return out

    def maplet_list(self) -> list[tuple[str, str]]:
        # An id opens a maplet only when "|->" follows; otherwise it is the
        # head of the next block (e.g. another carrier or action entry).
        out = []
        while self.at("id"):
            if self.tokens[self.pos + 1][0] != "|->":
                break
            lhs = self.ident()
            self.take("|->")
            rhs = self.ident("the image")
            out.append((lhs, rhs))
            self.skip_commas()
        return out


def parse(text: str, filename: str = "<string>") -> Document:
    """Parse a `.bcat` document; errors carry a span inside the input."""
    return _Parser(text, filename).document()


# Printing.


def _fmt_maplets(maplets) -> str:
    return ", ".join(f"{a} |-> {b}" for a, b in maplets)


def format_declaration(decl: Declaration) -> str:
    if isinstance(decl, CategoryDecl):
        lines = [f"category {decl.name} {{"]
        lines.append("  objects: " + ", ".join(decl.objects))
        if decl.arrows:
            lines.append("  arrows:")
            lines.extend(f"    {n}: {d} -> {c}" for n, d, c in decl.arrows)
        if decl.compose:
            lines.append("  compose:")
            lines.extend(f"    {g} . {f} = {h}" for g, f, h in decl.compose)
        lines.append("}")
        return "\n".join(lines)
    if isinstance(decl, FunctorDecl):
        lines = [f"functor {decl.name} : {decl.source} -> {decl.target} {{"]
        lines.append("  objects: " + _fmt_maplets(decl.objects))
        if decl.arrows:
            lines.append("  arrows:")
            lines.extend(f"    {a} |-> {b}" for a, b in decl.arrows)
        lines.append("}")
        return "\n".join(lines)
    if isinstance(decl, ConcreteDecl):
        lines = [f"concrete {decl.name} over {decl.over} {{"]
        for obj, elems in decl.carriers:
            lines.append(f"  {obj}: {{ " + ", ".join(elems) + " }"
                         if elems else f"  {obj}: {{ }}")
        for mor, maplets in decl.actions:
            lines.append(f"  {mor}: " + _fmt_maplets(maplets))
        lines.append("}")
        return "\n".join(lines)
    if isinstance(decl, ActionDecl):
        lines = [f"action {decl.name} {{"]
        lines.append(f"  group: {decl.group}")
        lines.append("  set: { " + ", ".join(decl.elements) + " }")
        for mor, maplets in decl.phi:
            lines.append(f"  phi: {mor}: " + _fmt_maplets(maplets))
        lines.append("}")
        return "\n".join(lines)
    if isinstance(decl, IndexedDecl):
        lines = [f"indexed {decl.name} over {decl.base} {{"]
        lines.extend(f"  fibre {o} = {c}" for o, c in decl.fibres)
        lines.extend(f"  pull {m} = {f}" for m, f in decl.pulls)
        lines.append("}")
        return "\n".join(lines)
    raise TypeError(f"not a declaration: {decl!r}")


def format_document(doc: Document) -> str:
    """Canonical text; layout is normalised, order is preserved."""
    return "\n\n".join(format_declaration(d) for d in doc.declarations) + "\n"


_NOWHERE = SourceSpan("<built>", 1, 1, 1)


def decl_of_category(cat: FinCat, name: str | None = None) -> CategoryDecl:
    """Presentation as a declaration: identities and unit-forced composites
    are dropped, since elaboration synthesises them back."""
    arrows = tuple(
        (a.name, a.dom, a.cod) for a in cat.arrows if not cat.is_identity(a.name)
    )
    order = {a.name: i for i, a in enumerate(cat.arrows)}
    entries = sorted(
        (
            (g, f, h)
            for (g, f), h in cat.compose.items()
            if not cat.is_identity(g) and not cat.is_identity(f)
        ),
        key=lambda e: (order[e[0]], order[e[1]]),
    )
    for obj, ident in cat.identity.items():
        if ident != identity_id(obj):
            raise ValueError(
                f"cannot print category {cat.name!r}: identity of {obj!r} is named {ident!r}"
            )
    return CategoryDecl(name or cat.name, cat.objects, arrows, tuple(entries), _NOWHERE)


# Elaboration: declarations to validated values.


@dataclass
class Env:
    categories: dict[str, FinCat] = field(default_factory=dict)
    functors: dict[str, FinFunctor] = field(default_factory=dict)
    concretes: dict[str, ConcreteStructure] = field(default_factory=dict)
    actions: dict[str, GroupAction] = field(default_factory=dict)
    families: dict[str, IndexedFamily] = field(default_factory=dict)


def elaborate_declaration(decl: Declaration, env: Env, allow_unfaithful: bool = False):
    """Validate one declaration against the environment built so far."""
    if isinstance(decl, CategoryDecl):
        value = validate_category(
            decl.name,
            decl.objects,
            decl.arrows,
            {(g, f): h for g, f, h in decl.compose},
        )
        env.categories[decl.name] = value
        return value
    if isinstance(decl, FunctorDecl):
        value = validate_functor(
            decl.name,
            env.categories[decl.source],
            env.categories[decl.target],
            dict(decl.objects),
            dict(decl.arrows),
        )
        env.functors[decl.name] = value
        return value
    if isinstance(decl, ConcreteDecl):
        over = env.categories[decl.over]
        carrier = {
            obj: FinSetObj(f"{decl.name}_{obj}", elems) for obj, elems in decl.carriers
        }
        action = {}
        for mor, maplets in decl.actions:
            endpoints = (over.dom(mor), over.cod(mor))
            for obj in endpoints:
                if obj not in carrier:
                    raise UnknownObject(obj)
            action[mor] = FinFn(carrier[endpoints[0]], carrier[endpoints[1]], dict(maplets))
        value = validate_concrete(over, carrier, action, allow_unfaithful)
        env.concretes[decl.name] = value
        return value
    if isinstance(decl, ActionDecl):
        group = env.categories[decl.group]
        carrier = FinSetObj(f"{decl.name}_set", decl.elements)
        phi = {
            mor: FinFn(carrier, carrier, dict(maplets)) for mor, maplets in decl.phi
        }
        value = validate_group_action(group, carrier, phi)
        env.actions[decl.name] = value
        return value
    if isinstance(decl, IndexedDecl):
        base = env.categories[decl.base]
        fibres = {obj: env.categories[cat] for obj, cat in decl.fibres}
        pulls = {mor: env.functors[fun] for mor, fun in decl.pulls}
        value = validate_family(base, fibres, pulls)
        env.families[decl.name] = value
        return value
    raise TypeError(f"not a declaration: {decl!r}")


def elaborate(doc: Document, allow_unfaithful: bool = False) -> Env:
    env = Env()
    for decl in doc.declarations:
        elaborate_declaration(decl, env, allow_unfaithful)
    return env
