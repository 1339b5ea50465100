"""Text front-end: parse ``.bcat`` declarations, print them back canonically.

The printer preserves declaration and item order and normalises only the
layout, so parsing what was printed gives back the same document, and
printing is idempotent. Identity morphisms are never written down: they
are synthesised during elaboration under the reserved ``id_<object>``
names, and composition entries may refer to them.

Ids are either simple tokens over ``[A-Za-z0-9_*']`` or balanced
parenthesised pair labels as emitted by the constructions.

The whole text is tokenized before parsing, so a lexical error anywhere
wins over a parse error. Tokens come in bulk: one ``findall`` of a
compiled pattern per window of about 8 KB cut at a newline, kinds from one
dict lookup each, and the text skipped before each token kept. A pair id
nested deeper than the pattern takes is measured by bracket counting, and
the window's matches after it are read on, not rescanned. A token's offset
is counted from the lengths before it, and its line and column from the
text, only for an error or a declaration's name.
"""

from __future__ import annotations

import re
from dataclasses import field
from itertools import repeat
from operator import itemgetter
from pathlib import Path

from .constructions import GroupAction, validate_group_action
from .core import FinCat, FinFunctor, identity_id, validate_category, validate_functor
from .errors import ParseError, SourceSpan, UnknownObject, UnresolvedReference, UsageError
from .family import IndexedFamily, validate_family
from .records import Frozen, Record
from .sets import ConcreteStructure, FinFn, FinSetObj, validate_concrete

KEYWORDS = {
    "category", "functor", "concrete", "action", "indexed",
    "over", "objects", "arrows", "compose", "group", "set", "phi",
    "fibre", "pull",
}

# Pair ids nested up to this depth are tokens of the pattern itself.
_PAIR_DEPTH = 4
_PAIR_CHAR = "[A-Za-z0-9_*'|,@]"
_PAIR = rf"\({_PAIR_CHAR}*\)"
for _ in range(_PAIR_DEPTH - 1):
    _PAIR = rf"\({_PAIR_CHAR}*(?:{_PAIR}{_PAIR_CHAR}*)*\)"

# One match per token: (skipped whitespace and comments, token). Where no
# ordinary token starts, the token is the "(" or "id_(" of a pair the
# pattern cannot take, another character a pair may hold, or empty: at any
# other character and at the end. Matches stay contiguous up to the first
# empty token, so a token's offset is the sum of the lengths before it.
_TOKEN = re.compile(
    rf"""([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    ((?!id_\()[A-Za-z0-9_*']+|\|->|->|[{{}}:,.=]|(?:id_)?{_PAIR}|(?:id_)?\(|[)|@]|)""",
    re.VERBOSE,
)

# A token's kind is its entry here, or 'id' (words and pair ids alike);
# None marks where no ordinary token starts.
_KINDS = {
    **dict.fromkeys(KEYWORDS, "kw"),
    **{p: p for p in ("|->", "->", "{", "}", ":", ",", ".", "=")},
    **dict.fromkeys(("", "(", "id_(", ")", "|", "@")),
}
_PAIR_STOP = re.compile(r"[()]|[ \t\r\n]")
_PAIR_BODY = re.compile(r"[A-Za-z0-9_*'|,@()]+")

# Every token ends before a newline, so a window cut just after one is
# tokenized as it would be in the whole text.
_WINDOW = 8192


def _span(filename: str, text: str, offset: int, length: int) -> SourceSpan:
    """Lines are counted at newlines only; a tab or carriage return is one column."""
    return SourceSpan(
        filename, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset), length
    )


def _error_at(
    text: str, filename: str, offset: int, length: int, expected: str, found: str
) -> ParseError:
    return ParseError(_span(filename, text, offset, length), expected, found)


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


class _Offsets:
    """Where each token starts, counted when read: on from the last token
    read, or from the start, by the lengths of the texts and skips between."""

    def __init__(self, texts: list[str], skips: list[str]):
        self.texts, self.skips = texts, skips
        self.counted = (0, 0)  # a token, and where the text skipped before it starts

    def __len__(self) -> int:
        return len(self.skips)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self.skips):
            i = range(len(self.skips))[i]  # counted from the end, or IndexError
        j, start = self.counted if i >= self.counted[0] else (0, 0)
        start += len("".join(self.texts[j:i])) + len("".join(self.skips[j:i]))
        self.counted = (i, start)
        return start + len(self.skips[i])


def _tokenize(text: str, filename: str) -> tuple[list[str], list[str], _Offsets]:
    """The kind, text and offset of every token, as three parallel
    sequences: kind is 'id', 'kw' or the punctuation itself, and offset is
    where the text starts, counted only when read."""
    kinds: list[str] = []
    texts: list[str] = []
    skips: list[str] = []
    run = 0  # where the text skipped before a window's first token starts
    findall, size, pos = _TOKEN.findall, len(text), 0
    while pos < size:
        cut = text.find("\n", pos + _WINDOW) + 1 or size
        found = findall(text, pos, cut)
        gaps = list(map(itemgetter(0), found))
        words = list(map(itemgetter(1), found))
        window = list(map(_KINDS.get, words, repeat("id")))
        first, i, at = len(skips), 0, pos  # match i starts at ``at``
        while True:
            k = window.index(None, i)
            kinds += window[i:k]
            texts += words[i:k]
            skips += gaps[i:k]
            # Skipped text alone ends a window; findall adds an empty match after a non-empty one.
            if not words[k] and len(found) - k == (2 if gaps[k] else 1):
                break
            start = at + len("".join(words[i:k])) + len("".join(gaps[i : k + 1]))
            if words[k] not in ("(", "id_("):
                raise _error_at(text, filename, start, 1, "a token", repr(text[start]))
            # Identity ids of pair-named objects look like id_(X,x): a
            # reserved prefix glued to a balanced pair token.
            end = _pair_end(text, filename, start, start + len(words[k]) - 1)
            kinds.append("id")
            texts.append(text[start:end])
            skips.append(gaps[k])
            # The pair's text alone holds its matches here, plus one empty match.
            i, at = k + len(findall(text, start + len(words[k]), end)), end
        if len(skips) > first:
            skips[first], run = text[run : pos + len(gaps[0])], cut - len(gaps[k])
        pos = cut
    return kinds, texts, _Offsets(texts, skips)


# The parser reads past the last token only onto a token of this kind.
_END = "end of input"


# Declarations. Spans do not take part in structural equality.


class CategoryDecl(Frozen):
    name: str
    objects: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    compose: tuple[tuple[str, str, str], ...]  # (g, f, h) meaning g . f = h
    span: SourceSpan = field(compare=False)


class FunctorDecl(Frozen):
    name: str
    source: str
    target: str
    objects: tuple[tuple[str, str], ...]
    arrows: tuple[tuple[str, str], ...]
    span: SourceSpan = field(compare=False)


class ConcreteDecl(Frozen):
    name: str
    over: str
    carriers: tuple[tuple[str, tuple[str, ...]], ...]
    actions: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    span: SourceSpan = field(compare=False)


class ActionDecl(Frozen):
    name: str
    group: str
    elements: tuple[str, ...]
    phi: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    span: SourceSpan = field(compare=False)


class IndexedDecl(Frozen):
    name: str
    base: str
    fibres: tuple[tuple[str, str], ...]
    pulls: tuple[tuple[str, str], ...]
    span: SourceSpan = field(compare=False)


Declaration = CategoryDecl | FunctorDecl | ConcreteDecl | ActionDecl | IndexedDecl


class Document(Frozen):
    declarations: tuple[Declaration, ...]


# The kinds of a list item's tokens, and what each is expected to be.
_ARROW = (["id", ":", "id", "->", "id"],
          ("an identifier", None, "a domain object", None, "a codomain object"))
_COMPOSITE = (["id", ".", "id", "=", "id"],
              ("an identifier", None, "the earlier morphism", None, "the composite morphism"))
_MAPLET = (["id", "|->", "id"], ("an identifier", None, "the image"))


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.kinds, self.texts, self.offsets = _tokenize(text, filename)
        self.kinds.append(_END)
        self.texts.append("")
        self.pos = 0
        # An offset, and the newlines before it: spans are asked for in
        # text order, so each counts on from the last.
        self.counted = (0, 0)

    def span(self, i: int) -> SourceSpan:
        """The span of the ``i``-th token."""
        offset = self.offsets[i]
        start, lines = self.counted if offset >= self.counted[0] else (0, 0)
        lines += self.text.count("\n", start, offset)
        self.counted = (offset, lines)
        column = offset - self.text.rfind("\n", 0, offset)
        return SourceSpan(self.filename, lines + 1, column, len(self.texts[i]))

    def error(self, expected: str) -> ParseError:
        if self.kinds[self.pos] == _END:
            body = self.text.removesuffix("\n")  # a final newline starts no line
            eof_span = _span(self.filename, body, max(len(body) - 1, body.rfind("\n") + 1), 1)
            return ParseError(eof_span, expected, "end of input")
        return ParseError(self.span(self.pos), expected, repr(self.texts[self.pos]))

    def take(self, kind: str, expected: str | None = None) -> str:
        """The text of the next token, which must be of ``kind``."""
        if self.kinds[self.pos] != kind:
            raise self.error(expected or repr(kind))
        self.pos += 1
        return self.texts[self.pos - 1]

    def take_kw(self, word: str) -> None:
        if not self.at_kw(word):
            raise self.error(repr(word))
        self.pos += 1

    def at_kw(self, *words: str) -> bool:
        return self.kinds[self.pos] == "kw" and self.texts[self.pos] in words

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def ident(self, expected: str = "an identifier") -> str:
        return self.take("id", expected)

    def name(self, expected: str) -> tuple[str, SourceSpan]:
        """A declaration's name, and its span."""
        return self.ident(expected), self.span(self.pos - 1)

    def items(
        self, item: tuple[list[str], tuple[str | None, ...]], lead: int = 1
    ) -> list[tuple[str, ...]]:
        """The ids of each item of a comma-separated list, while the next
        ``lead`` tokens have the kinds an item starts with. An item's ids
        are every other token of it, from the first."""
        shape, expected = item
        kinds, texts, width, head = self.kinds, self.texts, len(shape), shape[:lead]
        out = []
        i = self.pos
        while kinds[i : i + lead] == head:
            if kinds[i : i + width] != shape:
                self.pos = i
                for kind, what in zip(shape, expected):
                    self.take(kind, what)  # raises at the first token out of shape
            out.append(tuple(texts[i : i + width : 2]))
            i += width
            while kinds[i] == ",":
                i += 1
        self.pos = i
        return out

    # Declarations

    def document(self) -> Document:
        decls: list[Declaration] = []
        known: dict[str, set[str]] = {
            "category": set(), "functor": set(), "concrete": set(),
            "action": set(), "indexed": set(),
        }
        while self.kinds[self.pos] != _END:
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
        arrows: list[tuple[str, ...]] = []
        if self.at_kw("arrows"):
            self.pos += 1
            self.take(":")
            arrows = self.items(_ARROW)
        compose: list[tuple[str, ...]] = []
        if self.at_kw("compose"):
            self.pos += 1
            self.take(":")
            compose = self.items(_COMPOSITE)
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
        kinds, texts = self.kinds, self.texts
        out = []
        i = self.pos
        while kinds[i] == "id":
            out.append(texts[i])
            i += 1
            while kinds[i] == ",":
                i += 1
        self.pos = i
        return out

    def maplet_list(self) -> list[tuple[str, ...]]:
        # An id opens a maplet only when "|->" follows; otherwise it is the
        # head of the next block (e.g. another carrier or action entry).
        return self.items(_MAPLET, lead=2)


def parse(text: str, filename: str = "<string>") -> Document:
    """Parse a `.bcat` document; errors carry a span inside the input."""
    return _Parser(text, filename).document()


def read_source(path: str | Path) -> str:
    """The text of a ``.bcat`` file; a file that cannot be read as UTF-8
    text is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise UsageError(str(exc)) from None


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


class Env(Record):
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
