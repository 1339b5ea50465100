"""The tokenizer and the parser's errors, differentially.

``conftest.oracle_tokenize`` is the character-at-a-time tokenizer that the
compiled one replaced. On every fixture, on characters inserted into them,
on hand-written edge cases and on every tenth chunk deletion, both tokenize
the input, and every token (kind, text, line, column, length) and every
tokenizer error (class, span, expected, found) must agree; a parser error
must name an oracle token or the end of input. The parse outcome of every
input, errors and declaration spans included, is pinned by a digest
recorded from the character-at-a-time front end on the same inputs.
"""

from __future__ import annotations

import hashlib

from basecat import dsl
from basecat.corpus import fixtures_dir
from basecat.errors import ParseError

from conftest import KEYWORDS, oracle_tokenize

INSERTED = ("(", ")", "\t", "\r", "#", "\f", "é")

EDGE_CASES = (
    "",
    "\n",
    "\n\n\n",
    "id_(a,(b,c))",
    "((a,b)",
    "(a b)",
    "(a,{b)",
    "xid_(a,b)",
    "id_(",
    "a\vb",
    "category C { objects: id_(a,(b,c)) }",
    "category C { objects: ((a,b) }",
    "category C { objects: (a b) }",
    "category C { objects: (a,{b) }",
    "category C { objects: xid_(a,b) }",
    "category C { objects: id_(",
    "category C { objects: a\vb }",
    "category C {\r\n\tobjects: a,\tb\r\n}\r\n",
    "category C {\r\tobjects: a\r}",
    "category C { objects: a }\n# trailing comment",
    "category C { objects: a }\n\n\n",
    "category C { objects: a arrows: f: a -> a compose: f . f =",
    "category C { objects: () id_() (x|y,@z) }",
)

# The oracle takes about 6 ms per copy of core.bcat, so it tokenizes every
# tenth chunk deletion; the digest below covers the parse outcome of each.
ORACLE_STRIDE = 10

# sha256 over the parse outcome of every input of ``_inputs()``, recorded
# from the character-at-a-time front end.
OUTCOME_DIGEST = "e8822a947e3065af3498d1b5886482945c79d900f9b74136394104f848f1738b"


def _fixture_texts() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(fixtures_dir().glob("*.bcat"))}


def _insertions(text: str):
    stride = max(1, len(text) // 24)
    for offset in range(0, len(text) + 1, stride):
        for ch in INSERTED:
            yield f"+{ch!r}@{offset}", text[:offset] + ch + text[offset:]


def _inputs(chunk_deletions):
    """(label, file name, text, parse outcome, whether the oracle runs) for
    every input of the differential set; the outcome is a ``Document`` or a
    ``ParseError``."""
    for name, text in _fixture_texts().items():
        yield "fixture", name, text, _parse(text, name), True
        for label, changed in _insertions(text):
            yield label, name, changed, _parse(changed, name), True
    for i, (name, corrupted, outcome) in enumerate(chunk_deletions):
        yield f"-chunk{i}", name, corrupted, outcome, i % ORACLE_STRIDE == 0
    for i, text in enumerate(EDGE_CASES):
        yield f"edge{i}", "edge.bcat", text, _parse(text, "edge.bcat"), True


def _parse(text: str, name: str):
    try:
        return dsl.parse(text, name)
    except ParseError as exc:
        return exc


def _tokens(tokenize, view, text: str, name: str):
    """Each token as (kind, text, line, column, length), or the error."""
    try:
        tokens = tokenize(text, name)
    except ParseError as exc:
        return _error(exc)
    return view(tokens, text)


def _oracle_view(tokens, text: str) -> list[tuple]:
    return [(t.kind, t.text, t.span.line, t.span.column, t.span.length) for t in tokens]


def _view(tokens, text: str) -> list[tuple]:
    """Line and column of each token's offset, counted at newlines only."""
    out, line, counted = [], 1, 0
    for kind, word, offset in tokens:
        line += text.count("\n", counted, offset)
        counted = offset
        out.append((kind, word, line, offset - text.rfind("\n", 0, offset), len(word)))
    return out


def _error(exc: ParseError) -> tuple:
    s = exc.span
    return (type(exc).__name__, s.file, s.line, s.column, s.length, exc.expected, exc.found)


def _outcome_line(label: str, name: str, outcome) -> bytes:
    shown = _error(outcome) if isinstance(outcome, ParseError) else outcome
    return f"{label}\t{name}\t{shown!r}\n".encode()


def _eof_span(text: str) -> tuple[int, int, int]:
    lines = text.splitlines() or [""]
    return (len(lines), max(1, len(lines[-1])), 1)


def test_keywords_match_the_oracle():
    assert dsl.KEYWORDS == KEYWORDS


def test_tokens_errors_and_outcomes_match_the_oracle(chunk_deletions):
    checked = lex_errors = parse_errors = 0
    digest = hashlib.sha256()
    for label, name, text, outcome, oracle in _inputs(chunk_deletions):
        digest.update(_outcome_line(label, name, outcome))
        got = _error(outcome) if isinstance(outcome, ParseError) else None
        if not oracle:
            continue
        expected = _tokens(oracle_tokenize, _oracle_view, text, name)
        assert _tokens(dsl._tokenize, _view, text, name) == expected, (label, name)
        if isinstance(expected, tuple):
            # The tokenizer's error is the parse error.
            lex_errors += 1
            assert got == expected, (label, name)
        elif got is not None:
            # A parser error names the token it stopped at, or the end.
            parse_errors += 1
            where = got[2:5]
            if got[6] == "end of input":
                assert where == _eof_span(text), (label, name)
            else:
                assert (got[6], *where) in {
                    (repr(t[1]), *t[2:]) for t in expected
                }, (label, name)
        checked += 1
    assert (checked, lex_errors, parse_errors) == (860, 326, 220)
    assert digest.hexdigest() == OUTCOME_DIGEST
