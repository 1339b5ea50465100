"""The tokenizer and the parser's errors, differentially.

``conftest.oracle_tokenize`` is the character-at-a-time tokenizer that the
compiled one replaced. On every fixture, on characters inserted into them,
on hand-written edge cases and on every tenth chunk deletion, both tokenize
the input, and every token (kind, text, line, column, length) and every
tokenizer error (class, span, expected, found) must agree; a parser error
must name an oracle token or the end of input. The parse outcome of every
input, errors and declaration spans included, is pinned by a digest
recorded from the character-at-a-time front end on the same inputs.

Pair ids nested past the depth the compiled pattern takes are measured by
bracket counting; they are compared with the oracle separately, and two
inputs full of them or of comments must tokenize in linear time. Spans,
counted from the text, are compared with ``conftest.oracle_span`` at every
offset.
"""

from __future__ import annotations

import hashlib
import time

from basecat import dsl
from basecat.corpus import fixtures_dir
from basecat.errors import ParseError

from conftest import KEYWORDS, oracle_span, oracle_tokenize

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
    for kind, word, offset in zip(*tokens):
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
    """The span of the last character; lines end at newlines only, and a
    final newline starts none."""
    lines = text.removesuffix("\n").split("\n")
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


def _nested(depth: int, prefix: str = "") -> str:
    """A pair id ``depth`` brackets deep, each level with its own ids and
    the characters a pair id may hold that are no token on their own."""
    body = "y"
    for level in range(1, depth + 1):
        body = f"(x{level},{body},z{level}|@)"
    return prefix + body


def _pair_cases():
    """(depth, text) of pair ids in and out of context, broken and not."""
    for depth in range(1, 9):
        for prefix in ("", "id_"):
            pair = _nested(depth, prefix)
            cases = [pair, f"category C {{ objects: {pair} }}"]
            for after in ("(", ")", "w", "|->", "(a,b)", "\f", "\v", "\ufeff", "\x00", "é"):
                cases += [pair + after, f"category C {{ objects: a, {pair}{after} }}"]
            # Unbalanced at the end of input, by one bracket and by all.
            cases += [f"category C {{ objects: {pair[:-1]}", f"objects: {pair[:len(prefix) + 4]}"]
            # Whitespace, or a character no id holds, inside at each depth.
            for level in range(depth):
                cut = pair.index("(x", len(prefix) + 4 * level) + 1
                cases += [pair[:cut] + ch + pair[cut:] for ch in (" ", "\t", "\n", "\r", "\f", "é")]
            yield from ((depth, text) for text in cases)


def test_pair_ids_at_every_depth_match_the_oracle():
    depths, outcomes = set(), set()
    for depth, text in _pair_cases():
        expected = _tokens(oracle_tokenize, _oracle_view, text, "pairs.bcat")
        assert _tokens(dsl._tokenize, _view, text, "pairs.bcat") == expected, text
        depths.add(depth)
        outcomes.add(expected[5] if isinstance(expected, tuple) else "tokens")
    assert max(depths) > dsl._PAIR_DEPTH
    assert outcomes == {"tokens", "a token", "a pair id", "a balanced pair id", "a closing ')'"}


def test_deep_pair_ids_in_later_windows_match_the_oracle():
    # Ids before and after a deep pair, far enough in for the text to be
    # cut into windows, and the pair's end read on without a rescan.
    filler = "".join(f"  a{i}: X -> Y\n" for i in range(900))
    deep = _nested(dsl._PAIR_DEPTH + 2, "id_")
    for text in (
        f"{filler}{deep} -> {deep}, b\n{filler}# {deep}\n{deep}",
        f"{filler}{deep}{deep}(a,b) {deep}é",
        filler + "(" * 12,
    ):
        expected = _tokens(oracle_tokenize, _oracle_view, text, "windows.bcat")
        assert _tokens(dsl._tokenize, _view, text, "windows.bcat") == expected


def test_tokenizing_is_linear_in_deep_pairs_and_comments():
    # A rescan of the rest of the text after each deep id, or after each
    # comment, would take tens of seconds on these.
    deep = _nested(dsl._PAIR_DEPTH + 3)
    ids = "category C { objects: " + ", ".join([deep] * 5000) + " }"
    comments = "".join(f"# comment {i} with (a,b) and id_(\n" for i in range(5000)) + "category C { }"
    for text, count in ((ids, 10005), (comments, 4)):
        start = time.perf_counter()
        kinds, texts, offsets = dsl._tokenize(text, "linear.bcat")
        assert time.perf_counter() - start < 3.0
        assert len(kinds) == len(texts) == len(offsets) == count


SPAN_TEXTS = (
    "",
    "a",
    "\n",
    "category C {\r\n\tobjects: a,\tb\r\n}\r\n",
    "category C {\r\tobjects: a\r}",
    "a\n\n\tb\n  c",
    "\t\t\n\r\n\r",
)


def test_counted_spans_match_the_line_start_table():
    for text in SPAN_TEXTS:
        for offset in range(len(text) + 1):
            assert dsl._span("s.bcat", text, offset, 2) == oracle_span("s.bcat", text, offset, 2)


def test_parser_spans_match_the_line_start_table_in_any_order():
    # The parser counts lines on from the last span it made, and from the
    # start again when asked for an earlier one.
    for text in (*SPAN_TEXTS[1:], (fixtures_dir() / "core.bcat").read_text()):
        parser = dsl._Parser(text, "s.bcat")
        count = len(parser.offsets)
        for i in [*range(count), *reversed(range(count)), *range(0, count, 7)]:
            expected = oracle_span("s.bcat", text, parser.offsets[i], len(parser.texts[i]))
            assert parser.span(i) == expected


# Characters ``str.splitlines`` also breaks lines at; only a newline does.
LINE_BREAKS_BUT_NEWLINE = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _error_of(text: str) -> ParseError:
    try:
        dsl.parse(text, "x.bcat")
    except ParseError as exc:
        return exc
    raise AssertionError(f"{text!r} parsed")


def _end_of_input(text: str) -> tuple[int, int, int]:
    """The span of the parse error of ``text``, found at the end of input."""
    exc = _error_of(text)
    assert exc.found == "end of input", exc
    return (exc.span.line, exc.span.column, exc.span.length)


def test_end_of_input_counts_lines_at_newlines_only():
    text = "category A {\r  objects: a"
    assert _end_of_input(text) == _eof_span(text) == (1, 25, 1)
    # One token more, the error names that token on the same line.
    assert str(_error_of(text + " :")) == "x.bcat:1:27: expected '}', found ':'"
    text = "category A {\n  objects: a # form\ffeed\n  arrows: f"
    assert _end_of_input(text) == _eof_span(text) == (3, 11, 1)
    for char in LINE_BREAKS_BUT_NEWLINE:
        text = f"category A {{ objects: a # x{char}y\n"
        assert _end_of_input(text) == _eof_span(text) == (1, len(text) - 1, 1), repr(char)
    # A carriage return before a newline is one more column.
    text = "category A {\r\n  objects: a\r\n"
    assert _end_of_input(text) == _eof_span(text) == (2, 13, 1)
