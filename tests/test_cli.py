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
from basecat.corpus import fixtures_dir

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


class TestCheck:
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
        assert "u='f'" in out and "obj='*'" in out

    def test_noncartesian_fixture(self, capsys):
        path = str(fixtures_dir() / "negative_noncartesian.bcat")
        code, out = run(
            capsys, "--format", "machine", "check", "cartesian", path, "twinProj", "f1"
        )
        assert code == 1
        assert "mediating_count=0" in out

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

    def test_split_check_on_concrete_graph(self, capsys):
        code, _ = run(
            capsys, "check", "split", CORE, "concrete-graph(idTwo,U)"
        )
        assert code == 0

    def test_opfibration_of_trans_groupoid(self, capsys):
        code, _ = run(
            capsys, "check", "opfibration", CORE, "trans-groupoid(z2swap)"
        )
        assert code == 0


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
        assert "BudgetExhausted" in out
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
