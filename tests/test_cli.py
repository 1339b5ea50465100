"""Command-line contract: exit codes, reports, artifact idempotence."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import basecat

from basecat.cli import main
from basecat.corpus import build_corpus, fixtures_dir
from basecat.suites import run_suite

CORE = str(fixtures_dir() / "core.bcat")


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_good_file_exits_zero(self, capsys):
        code, out = run(capsys, "--format", "machine", "validate", CORE)
        assert code == 0
        assert all(
            line.split("\t")[1] == "pass" for line in out.strip().splitlines()
        )

    def test_validation_failure_exits_one(self, capsys):
        bad = str(fixtures_dir() / "negative_assoc.bcat")
        code, out = run(capsys, "--format", "machine", "validate", bad)
        assert code == 1
        assert "associativity fails on triple" in out

    def test_parse_error_exits_two(self, capsys, tmp_path):
        broken = tmp_path / "broken.bcat"
        broken.write_text("category C { objects: X arrows: f: X -> }")
        code, _ = run(capsys, "validate", str(broken))
        assert code == 2

    @pytest.mark.parametrize("argv", [["validate", "{}"], ["export", "{}", "C"]])
    def test_unreadable_input_is_a_usage_error(self, capsys, tmp_path, argv):
        # A directory, then bytes that are not UTF-8: one error line, exit 2.
        bad = tmp_path / "bad.bcat"
        bad.write_bytes(b"category C { objects: \xff }\n")
        for path, reason in ((tmp_path, "Is a directory"), (bad, "not UTF-8 text")):
            code = main([arg.format(path) for arg in argv])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert reason in captured.err

    def test_allow_unfaithful_flag(self, capsys, tmp_path):
        text = (
            "category Z2 { objects: * arrows: s: * -> * compose: s . s = id_* }\n"
            "concrete T over Z2 { *: { 0 } s: 0 |-> 0 }\n"
        )
        path = tmp_path / "unfaithful.bcat"
        path.write_text(text)
        code, _ = run(capsys, "validate", str(path))
        assert code == 1
        code, _ = run(capsys, "--allow-unfaithful", "validate", str(path))
        assert code == 0

    STRAY_BASES = (
        "category Z2 { objects: * arrows: s: * -> * compose: s . s = id_* }\n"
        "category One { objects: * }\n"
        "category Two { objects: X, Y arrows: f: X -> Y }\n"
        "functor idOne : One -> One { objects: * |-> * }\n"
        "functor idZ2 : Z2 -> Z2 { objects: * |-> * arrows: s |-> s }\n"
    )

    @pytest.mark.parametrize(
        "decl, kind, message",
        [
            ("action a { group: Z2 set: { 0, 1 } "
             "phi: s: 0 |-> 1, 1 |-> 0 phi: bogus: 0 |-> 0, 1 |-> 1 }",
             "action:a", "no morphism named 'bogus'"),
            ("concrete U over Two { X: { x1, x2 } Y: { y1 } Z: { z } "
             "f: x1 |-> y1, x2 |-> y1 }",
             "concrete:U", "no object named 'Z'"),
            ("indexed fam over Two { fibre X = One fibre Y = One fibre Q = Two "
             "pull f = idOne }",
             "indexed:fam", "no object named 'Q'"),
            ("indexed fam over Two { fibre X = One fibre Y = One "
             "pull f = idOne pull bogus = idZ2 }",
             "indexed:fam", "no morphism named 'bogus'"),
        ],
        ids=["action-phi", "concrete-carrier", "family-fibre", "family-pull"],
    )
    def test_stray_keys_are_rejected(self, capsys, tmp_path, decl, kind, message):
        path = tmp_path / "stray.bcat"
        path.write_text(self.STRAY_BASES + decl + "\n")
        code, out = run(capsys, "--format", "machine", "validate", str(path))
        assert code == 1
        assert out.splitlines()[-1] == f"validate:{kind}\tfail\t{message}"

    def test_a_broken_law_is_reported_before_a_stray_key(self, capsys, tmp_path):
        path = tmp_path / "stray.bcat"
        path.write_text(
            self.STRAY_BASES
            + "action a { group: Z2 set: { 0, 1 } "
            "phi: s: 0 |-> 1, 1 |-> 1 phi: bogus: 0 |-> 0, 1 |-> 1 }\n"
            "concrete U over Two { X: { x1 } Y: { y1 } Z: { z } f: x1 |-> y1 }\n"
            "indexed fam over Two { fibre X = One fibre Y = Two fibre Q = Two "
            "pull f = idOne }\n"
        )
        code, out = run(capsys, "--format", "machine", "validate", str(path))
        assert code == 1
        assert out.splitlines()[-3:] == [
            "validate:action:a\tfail\tassigned functions break composition on ('s', 's')",
            "validate:concrete:U\tfail\tno object named 'Z'",
            "validate:indexed:fam\tfail\tindexed family is not strict on base pair ('f', 'f')",
        ]


class TestConstruct:
    def test_trans_groupoid_counts(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "construct", "trans-groupoid", CORE, "z2swap"
        )
        assert code == 0
        assert "objects=2 morphisms=4" in out

    def test_graph_counts(self, capsys):
        code, out = run(capsys, "--format", "machine", "construct", "graph", CORE, "idTwo")
        assert code == 0
        assert "objects=2 morphisms=3" in out

    def test_grothendieck_constant_family_counts(self, capsys, tmp_path):
        text = (
            "category B { objects: X, Y arrows: f: X -> Y }\n"
            "category Pt { objects: p }\n"
            "functor idPt : Pt -> Pt { objects: p |-> p }\n"
            "indexed fam over B { fibre X = Pt fibre Y = Pt pull f = idPt }\n"
        )
        path = tmp_path / "fam.bcat"
        path.write_text(text)
        code, out = run(
            capsys, "--format", "machine", "construct", "grothendieck", str(path), "fam"
        )
        assert code == 0
        assert "objects=2 morphisms=3" in out

    def test_out_artifact_revalidates_and_reproduces(self, capsys, tmp_path):
        out_path = tmp_path / "tg.bcat"
        code, first = run(
            capsys,
            "--format",
            "machine",
            "construct",
            "trans-groupoid",
            CORE,
            "z2swap",
            "--out",
            str(out_path),
        )
        assert code == 0
        code, _ = run(capsys, "validate", str(out_path))
        assert code == 0
        text_before = out_path.read_text()
        code, second = run(
            capsys,
            "--format",
            "machine",
            "construct",
            "trans-groupoid",
            CORE,
            "z2swap",
            "--out",
            str(out_path),
        )
        assert second == first
        assert out_path.read_text() == text_before

    def test_dot_output(self, capsys, tmp_path):
        dot_path = tmp_path / "g.dot"
        code, _ = run(
            capsys, "construct", "graph", CORE, "idTwo", "--dot", str(dot_path)
        )
        assert code == 0
        assert dot_path.read_text().startswith("digraph")

    @pytest.mark.parametrize(
        "kind,names,expected",
        [
            ("graph", ["idTwo"], "objects=2 morphisms=3"),
            ("concrete-graph", ["idTwo", "U"], "objects=3 morphisms=5"),
            ("left", ["idTwo"], "objects=2 morphisms=3"),
            ("right", ["idTwo"], "objects=2 morphisms=3"),
            ("concrete-left", ["idTwo", "U"], "objects=3 morphisms=5"),
            ("concrete-right", ["idTwo", "U"], "objects=3 morphisms=5"),
            ("selfdual", ["z3inv"], "objects=1 morphisms=3"),
            ("grothendieck", ["famTwo"], "objects=3 morphisms=4"),
            ("trans-groupoid", ["z2double"], "objects=4 morphisms=8"),
        ],
    )
    def test_every_kind_constructs(self, capsys, tmp_path, kind, names, expected):
        out_path = tmp_path / "out.bcat"
        code, out = run(
            capsys,
            "--format",
            "machine",
            "construct",
            kind,
            CORE,
            *names,
            "--out",
            str(out_path),
        )
        assert code == 0
        assert expected in out
        code, _ = run(capsys, "validate", str(out_path))
        assert code == 0

    def test_selfdual_requires_a_groupoid(self, capsys):
        code, _ = run(capsys, "construct", "selfdual", CORE, "idTwo")
        assert code == 1
        code, out = run(
            capsys, "--format", "machine", "construct", "selfdual", CORE, "z3inv", "UZ3"
        )
        assert code == 0
        assert "objects=3 morphisms=9" in out


class TestConstructionNames:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "concrete-graph", CORE, "idTwo"],
            ["construct", "graph", CORE, "idTwo", "U"],
            ["construct", "selfdual", CORE, "z3inv", "UZ3", "UZ3"],
            ["check", "fibration", CORE, "concrete-left(idTwo)"],
            ["check", "fibration", CORE, "graph()"],
            ["check", "fibration", CORE, "graph(idTwo,extra)"],
            ["export", CORE, "grothendieck()"],
        ],
        ids=[
            "construct-too-few", "construct-too-many", "selfdual-too-many",
            "inline-too-few", "inline-none", "inline-too-many", "export-none",
        ],
    )
    def test_a_wrong_name_count_is_a_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert " takes " in captured.err

    def test_an_unknown_inline_kind_is_a_validation_failure(self, capsys):
        code = main(["check", "fibration", CORE, "nokind(idTwo)"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: unknown construction kind 'nokind'\n"


class TestCheck:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fibration", CORE, "graph(idTwo)", "junk"],
            ["opfibration", CORE, "graph(idTwo)", "junk"],
            ["split", CORE, "graph(idTwo)", "junk"],
            ["cartesian", CORE, "graph(idTwo)", "id_(X,X)", "junk"],
            ["iso", CORE, "Two", "Two", "junk"],
            ["cartesian", CORE, "graph(idTwo)"],
            ["iso", CORE, "Two"],
        ],
        ids=[
            "fibration-extra", "opfibration-extra", "split-extra", "cartesian-extra",
            "iso-extra", "cartesian-short", "iso-short",
        ],
    )
    def test_a_wrong_argument_count_is_a_usage_error(self, capsys, argv):
        code = main(["check", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"check {argv[0]} takes " in captured.err

    def test_fibration_of_graph(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "check", "fibration", CORE, "graph(idTwo)"
        )
        assert code == 0

    def test_missing_lift_fails_naming_the_pair(self, capsys):
        path = str(fixtures_dir() / "negative_missing_lift.bcat")
        code, out = run(
            capsys, "--format", "machine", "check", "fibration", path, "partialTotal"
        )
        assert code == 1
        assert "no cartesian lift of 'f' ends at '*'" in out

    def test_noncartesian_fixture(self, capsys):
        path = str(fixtures_dir() / "negative_noncartesian.bcat")
        code, out = run(
            capsys, "--format", "machine", "check", "cartesian", path, "twinProj", "f1"
        )
        assert code == 1
        assert "'f1' is not cartesian: 0 morphisms over 'id_X' factor 'f2'" in out

    def test_iso_prints_a_witness(self, capsys, tmp_path):
        text = (
            "category Two { objects: X, Y arrows: f: X -> Y }\n"
            "category TwoOp { objects: A, B arrows: g: B -> A }\n"
        )
        path = tmp_path / "iso.bcat"
        path.write_text(text)
        code, out = run(capsys, "--format", "machine", "check", "iso", str(path), "Two", "TwoOp")
        assert code == 0
        assert "X->B" in out and "Y->A" in out

    ISO_PAIRS = (
        "category K4 { objects: * arrows: a: * -> *, b: * -> *, c: * -> * "
        "compose: a . a = id_*, b . b = id_*, c . c = id_*, "
        "a . b = c, b . a = c, a . c = b, c . a = b, b . c = a, c . b = a }\n"
        "category K4b { objects: o arrows: x: o -> o, y: o -> o, z: o -> o "
        "compose: x . x = id_o, y . y = id_o, z . z = id_o, "
        "x . y = z, y . x = z, x . z = y, z . x = y, y . z = x, z . y = x }\n"
        "category Z4 { objects: * arrows: r: * -> *, s: * -> *, t: * -> * "
        "compose: r . r = s, r . s = t, s . r = t, r . t = id_*, t . r = id_*, "
        "s . s = id_*, s . t = r, t . s = r, t . t = s }\n"
        "category Two { objects: X, Y arrows: f: X -> Y }\n"
        "category Loop { objects: X, Y arrows: e: X -> X compose: e . e = e }\n"
    )

    @pytest.mark.parametrize(
        "fmt, pair, code, expected",
        [
            ("human", "K4 K4b", 0,
             "# check iso\n[  ok] check:iso:K4~K4b  objects: *->o\n# 1 passed, 0 failed, 0 skipped\n"),
            ("human", "K4 Z4", 1,
             "# check iso\n[FAIL] check:iso:K4~Z4  "
             "not isomorphic: no structure-preserving bijection exists\n"
             "# 0 passed, 1 failed, 0 skipped\n"),
            ("human", "Two Loop", 1,
             "# check iso\n[FAIL] check:iso:Two~Loop  "
             "not isomorphic: hom-profile signatures differ\n"
             "# 0 passed, 1 failed, 0 skipped\n"),
            ("machine", "K4 K4b", 0, "check:iso:K4~K4b\tpass\tobjects: *->o\n"),
            ("machine", "K4 Z4", 1,
             "check:iso:K4~Z4\tfail\tnot isomorphic: no structure-preserving bijection exists\n"),
            ("machine", "Two Loop", 1,
             "check:iso:Two~Loop\tfail\tnot isomorphic: hom-profile signatures differ\n"),
        ],
    )
    def test_iso_reports_are_pinned(self, capsys, tmp_path, fmt, pair, code, expected):
        # A witness, a refutation by search and one by hom profiles.
        path = tmp_path / "pairs.bcat"
        path.write_text(self.ISO_PAIRS)
        assert run(capsys, "--format", fmt, "check", "iso", str(path), *pair.split()) == (code, expected)

    def test_split_check_on_concrete_graph(self, capsys):
        code, _ = run(
            capsys, "check", "split", CORE, "concrete-graph(idTwo,U)"
        )
        assert code == 0

    def test_split_of_trans_groupoid_checks_both_cleavages(self, capsys):
        # The transformation groupoid carries its cleavage and opcleavage.
        assert run(
            capsys, "--format", "machine", "check", "split", CORE, "trans-groupoid(z2swap)"
        ) == (0, "check:split:trans-groupoid(z2swap)\tpass\tcleavage; opcleavage\n")

    def test_split_of_a_non_fibration_has_no_cleavage(self, capsys):
        # No cleavage is built and none is found, so there is nothing to check.
        path = str(fixtures_dir() / "negative_missing_lift.bcat")
        assert run(capsys, "--format", "machine", "check", "split", path, "partialTotal") == (
            1,
            "check:split:partialTotal\tfail\tno cleavage available\n",
        )

    def test_opfibration_of_trans_groupoid(self, capsys):
        code, _ = run(
            capsys, "check", "opfibration", CORE, "trans-groupoid(z2swap)"
        )
        assert code == 0


def _holding_non_utf8(d: Path) -> Path:
    (d / "bad.bcat").write_bytes(b"category \xff {}\n")
    return d


def _holding_bcat_directory(d: Path) -> Path:
    (d / "x.bcat").mkdir()
    return d


class TestVerify:
    @pytest.mark.parametrize("suite", ["prop2", "prop3", "prop4", "duality"])
    def test_suites_pass(self, capsys, suite):
        code, out = run(capsys, "--format", "machine", "verify", suite, "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all("\tfail\t" not in line for line in lines)

    def test_reports_are_deterministic_for_a_seed(self, capsys):
        _, first = run(capsys, "--format", "machine", "verify", "prop4", "--seed", "3")
        _, second = run(capsys, "--format", "machine", "verify", "prop4", "--seed", "3")
        assert first == second

    def test_verify_all_machine_report_is_pinned(self, capsys):
        # The byte-identity gate: any change to a claim id, verdict or
        # detail of the seed-7 run changes the digest.
        code, out = run(capsys, "--format", "machine", "verify", "all", "--seed", "7")
        assert code == 0
        assert (len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()) == (
            575,
            "de97bdd7f8c716114b7b6065a77149714b604db061474a89b09ce74964995094",
        )

    def test_verify_all_passes_within_a_minute(self, capsys):
        import time

        start = time.monotonic()
        code, out = run(capsys, "--format", "machine", "verify", "all")
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 60.0
        assert len(out.strip().splitlines()) > 300

    def test_custom_corpus_directory(self, capsys, tmp_path):
        (tmp_path / "mini.bcat").write_text(
            "category Z2 { objects: * arrows: s: * -> * compose: s . s = id_* }\n"
            "functor idZ2 : Z2 -> Z2 { objects: * |-> * arrows: s |-> s }\n"
            "concrete UZ2 over Z2 { *: { 0, 1 } s: 0 |-> 1, 1 |-> 0 }\n"
            "action sw { group: Z2 set: { 0, 1 } phi: s: 0 |-> 1, 1 |-> 0 }\n"
        )
        code, out = run(
            capsys,
            "--format",
            "machine",
            "verify",
            "prop4",
            "--corpus",
            str(tmp_path),
            "--seed",
            "5",
        )
        assert code == 0
        assert "prop4:Z2:witness\tpass" in out

    @pytest.mark.parametrize("suite", ["duality", "appendixC", "all"])
    def test_ids_colliding_after_erasing_op_markers_fail_one_claim(self, capsys, tmp_path, suite):
        # ``f`` and ``f_op`` erase to one id: the abstract duality of idC
        # fails, naming it, the round trips compare ids as they are, and
        # every other claim is still decided.
        (tmp_path / "c.bcat").write_text(
            "category C { objects: X, Y arrows: f: X -> Y, f_op: X -> Y }\n"
            "functor idC : C -> C { objects: X |-> X, Y |-> Y arrows: f |-> f, f_op |-> f_op }\n"
        )
        code = main(["--format", "machine", "verify", suite, "--corpus", str(tmp_path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        claims = [line.split("\t") for line in captured.out.splitlines()]
        failed = [c for c in claims if c[1] == "fail"]
        collision = ["duality:idC:abstract", "fail", "ids collide on '(f,id_Y)' after erasing op markers"]
        assert failed == ([] if suite == "appendixC" else [collision])
        assert code == (0 if suite == "appendixC" else 1)
        fresh = build_corpus(seed=7, directory=tmp_path)
        assert len(claims) == len(run_suite(suite, fresh).claims)
        roundtrips = [c for c in claims if c[0].startswith("appendixC:roundtrip")]
        assert all(c[1] == "pass" for c in roundtrips)
        assert bool(roundtrips) == (suite != "duality")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda d: d / "missing", "no such corpus directory"),
            (lambda d: Path(CORE), "not a directory"),
            (lambda d: d, "no .bcat file to load"),
            (_holding_non_utf8, "not UTF-8 text"),
            (_holding_bcat_directory, "Is a directory"),
        ],
        ids=["missing", "file", "no-bcat", "not-utf8", "bcat-directory"],
    )
    def test_bad_corpus_directory_is_a_usage_error(self, capsys, tmp_path, make, message):
        # The empty directory holds only files the corpus loader skips.
        (tmp_path / "notes.txt").write_text("category C { objects: X }\n")
        (tmp_path / "negative_x.bcat").write_text("category C { objects: X }\n")
        code = main(["verify", "prop2", "--corpus", str(make(tmp_path))])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err


class TestBudget:
    def test_budget_cuts_off_the_iso_search(self, capsys, tmp_path):
        text = (
            "category K4 { objects: * arrows: a: * -> *, b: * -> *, c: * -> * "
            "compose: a . a = id_*, b . b = id_*, c . c = id_*, "
            "a . b = c, b . a = c, a . c = b, c . a = b, b . c = a, c . b = a }\n"
            "category K4b { objects: o arrows: x: o -> o, y: o -> o, z: o -> o "
            "compose: x . x = id_o, y . y = id_o, z . z = id_o, "
            "x . y = z, y . x = z, x . z = y, z . x = y, y . z = x, z . y = x }\n"
        )
        path = tmp_path / "pair.bcat"
        path.write_text(text)
        code, out = run(
            capsys, "--format", "machine", "check", "iso", str(path), "K4", "K4b",
            "--budget", "2",
        )
        assert code == 1
        assert "undecided: the search gave up after 3 nodes" in out
        code, _ = run(capsys, "check", "iso", str(path), "K4", "K4b")
        assert code == 0

    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    def test_bad_budget_flag_is_a_usage_error(self, capsys, value):
        assert main(["verify", "prop2", "--budget", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --budget must be a positive integer, got {value!r}\n"

    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    def test_bad_budget_variable_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BASECAT_BUDGET", value)
        assert main(["verify", "prop2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: BASECAT_BUDGET must be a positive integer, got {value!r}\n"


class TestOutputFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "graph", CORE, "idTwo", "--out", "{}"],
            ["construct", "graph", CORE, "idTwo", "--dot", "{}"],
            ["export", CORE, "graph(idTwo)", "--out", "{}"],
        ],
        ids=["construct-out", "construct-dot", "export-out"],
    )
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv):
        code = main([arg.format(tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Is a directory" in captured.err


class TestExport:
    def test_export_to_stdout_is_pure_dot(self, capsys):
        code, out = run(capsys, "export", CORE, "Two")
        assert code == 0
        assert out.startswith("digraph")
        assert "passed" not in out

    def test_export_construction_with_clusters(self, capsys, tmp_path):
        out_path = tmp_path / "g.dot"
        code, _ = run(
            capsys,
            "export",
            CORE,
            "graph(idTwo)",
            "--out",
            str(out_path),
            "--cluster-by-fibre",
        )
        assert code == 0
        assert "subgraph cluster_0" in out_path.read_text()

    def test_usage_error_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, expected", [(["verify", "prop2"], 0), (["frobnicate"], 2)])
    def test_python_dash_m_runs_the_cli(self, argv, expected):
        src = str(Path(basecat.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "basecat", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == expected, done.stderr
