"""Fixtures are elaborated once per text.

``corpus.load_fixture_env`` reads every file of a corpus directory on every
call and elaborates one again only when its text differs from the last text
read at its path. An edit is seen even when it keeps the file's size and
timestamp; unchanged files give the very same values in a fresh ``Env``;
a file that does not parse fails on every call; and ``verify --corpus``
keeps its exit codes as the files change under it.
"""

from __future__ import annotations

import os
import shutil

import pytest

from basecat.cli import main
from basecat.corpus import build_corpus, fixture_paths, fixtures_dir
from basecat.errors import ParseError

EXTRA = "category Qa { objects: a, b arrows: f: a -> b }\n"
# The same size, a different category name.
EDITED = "category Qb { objects: a, b arrows: f: a -> b }\n"
BROKEN = "category Qc { objects: a, b arrows: f: a -> }\n"
# ``f`` and ``f_op`` erase to one id, which fails one duality claim.
COLLIDING = (
    "category C { objects: X, Y arrows: f: X -> Y, f_op: X -> Y }\n"
    "functor idC : C -> C { objects: X |-> X, Y |-> Y arrows: f |-> f, f_op |-> f_op }\n"
)


@pytest.fixture
def corpus_dir(tmp_path):
    for path in fixture_paths(fixtures_dir()):
        shutil.copy(path, tmp_path / path.name)
    (tmp_path / "extra.bcat").write_text(EXTRA)
    return tmp_path


def _rewrite_in_place(path, text: str) -> None:
    """Write ``text`` and put the old timestamps back, as two writes within
    one tick of the file system's clock would leave them."""
    before = os.stat(path)
    path.write_text(text)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def test_an_edit_of_the_same_size_and_time_is_seen(corpus_dir):
    first = build_corpus(7, directory=corpus_dir)
    assert "Qa" in first.env.categories
    _rewrite_in_place(corpus_dir / "extra.bcat", EDITED)
    assert len(EDITED) == len(EXTRA)
    second = build_corpus(7, directory=corpus_dir)
    assert "Qb" in second.env.categories and "Qa" not in second.env.categories


def test_unchanged_files_share_values_in_a_fresh_env(corpus_dir):
    first = build_corpus(7, directory=corpus_dir).env
    second = build_corpus(7, directory=corpus_dir).env
    assert first is not second
    for kind in ("categories", "functors", "concretes", "actions", "families"):
        mine, theirs = getattr(first, kind), getattr(second, kind)
        assert mine is not theirs and list(mine) == list(theirs)
        assert all(mine[name] is theirs[name] for name in mine)
    assert first.categories


def test_a_file_that_does_not_parse_fails_on_every_call(corpus_dir):
    build_corpus(7, directory=corpus_dir)
    _rewrite_in_place(corpus_dir / "extra.bcat", BROKEN)
    for _ in range(2):
        with pytest.raises(ParseError):
            build_corpus(7, directory=corpus_dir)
    _rewrite_in_place(corpus_dir / "extra.bcat", EXTRA)
    assert "Qa" in build_corpus(7, directory=corpus_dir).env.categories


def test_verify_keeps_its_exit_codes_as_files_change(capsys, corpus_dir):
    extra = corpus_dir / "extra.bcat"
    argv = ["--format", "machine", "verify", "duality", "--corpus", str(corpus_dir)]
    for text, code in [
        (EXTRA, 0), (COLLIDING, 1), (BROKEN, 2), (BROKEN, 2), (COLLIDING, 1), (EDITED, 0),
    ]:
        _rewrite_in_place(extra, text)
        assert main(argv) == code, text
        err = capsys.readouterr().err
        assert err == (f"parse error: {extra}:1:45: expected a codomain object, found '}}'\n"
                       if code == 2 else "")
