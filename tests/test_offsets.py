"""Token offsets, differentially, where the tokenizer's windows are cut.

The text is tokenized in windows of about ``dsl._WINDOW`` characters, cut
just after a newline. Each input below puts a window cut where the offsets
are easy to get wrong: inside a run of whitespace and comments, around a
window that holds no token, and before a pair id nested deeper than the
compiled pattern takes, as the first token of a later window and followed
by a lexical error. The offsets ``dsl._tokenize`` returns are read in
forward, reverse and strided order, and each must be where the token of
``conftest.oracle_tokenize`` starts.
"""

from __future__ import annotations

import pytest

from basecat import dsl
from basecat.errors import ParseError

from conftest import oracle_tokenize
from test_tokenize import _error, _nested


def _cuts(text: str) -> list[int]:
    """Where the tokenizer's windows end: just after the first newline at
    least ``dsl._WINDOW`` characters into each window, or at the end."""
    cuts, pos = [], 0
    while pos < len(text):
        pos = text.find("\n", pos + dsl._WINDOW) + 1 or len(text)
        cuts.append(pos)
    return cuts


def _lines(count: int, tag: str = "a") -> str:
    return "".join(f"  {tag}{i}: X -> Y, ({tag}{i},b) |-> id_({tag},{i})\n" for i in range(count))


def _filler() -> str:
    """Token lines reaching past the first window's cut."""
    return _lines(dsl._WINDOW // 30)


def _run_across_cut() -> str:
    # Tokens end before the first cut, and a run of whitespace and
    # comments reaches past it.
    head = _lines(dsl._WINDOW // 45)
    run = "\n \t\r\n# a comment with (a,b) and id_(\n\n" * (dsl._WINDOW // 200)
    text = head + run + _lines(40, "c")
    assert len(head) < _cuts(text)[0] < len(head) + len(run)
    return text


def _empty_window() -> str:
    # A run of comments longer than two windows: one window holds none of
    # the tokens.
    head = _lines(20)
    run = ("# " + "x" * 60 + "\n") * (3 * dsl._WINDOW // 63)
    text = head + run + _lines(20, "c")
    cuts = _cuts(text)
    assert len(head) < cuts[0] and cuts[1] < len(head) + len(run)
    return text


def _deep_pair_first(between: str, after: str) -> str:
    # A deep pair id is the first token of the second window.
    filler = _filler()
    cut = _cuts(filler)[0]
    text = filler[:cut] + between + _nested(dsl._PAIR_DEPTH + 2, "id_") + after
    assert _cuts(text)[0] == cut
    return text


CASES = {
    "run across a cut": _run_across_cut,
    "window without a token": _empty_window,
    "deep pair at a cut": lambda: _deep_pair_first("", " -> b, c\n" + _lines(30, "c")),
    "deep pair after a run": lambda: _deep_pair_first(" \t# c\n\n ", ": X\n" + _lines(30, "c")),
    "deep pair, then an error": lambda: _deep_pair_first("", " -> b\n  c é d\n" + _lines(5, "c")),
    "run, deep pair, error": lambda: _deep_pair_first("\n# c\n\t", "(a,b)\x00" + _lines(5, "c")),
}


def _line_starts(text: str) -> list[int]:
    return [0, *(i + 1 for i, ch in enumerate(text) if ch == "\n")]


def _orders(count: int) -> list[int]:
    return [*range(count), *reversed(range(count)), *range(0, count, 7), *range(count - 1, -1, -5)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_offsets_at_window_cuts_match_the_oracle(case):
    text = CASES[case]()
    assert len(_cuts(text)) >= 2
    try:
        expected = oracle_tokenize(text, "cuts.bcat")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            dsl._tokenize(text, "cuts.bcat")
        assert _error(got.value) == _error(exc)
        return
    starts = _line_starts(text)
    kinds, texts, offsets = dsl._tokenize(text, "cuts.bcat")
    assert kinds == [t.kind for t in expected]
    assert texts == [t.text for t in expected]
    where = [starts[t.span.line - 1] + t.span.column - 1 for t in expected]
    assert len(offsets) == len(where)
    assert list(offsets) == where
    for i in _orders(len(where)):
        assert offsets[i] == where[i], i


def test_every_case_has_its_outcome():
    # Two cases end in a lexical error past the deep pair; the others tokenize.
    outcomes = {}
    for case, make in CASES.items():
        try:
            dsl._tokenize(make(), "cuts.bcat")
            outcomes[case] = "tokens"
        except ParseError as exc:
            outcomes[case] = exc.expected
    assert sorted(outcomes.values()) == ["a token", "a token", *["tokens"] * 4]
