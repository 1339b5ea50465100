"""Acceptance criteria, one test per criterion, one printed line each.

Time limits and instance counts are pinned here; a criterion fails loudly
rather than being weakened.
"""

from __future__ import annotations

import random
import time

import pytest

import basecat as bc
from basecat import dsl
from basecat.corpus import build_corpus, fixtures_dir
from basecat.errors import AssociativityViolation, ParseError
from basecat.fibration import (
    Cleavage,
    CounterexampleCartesian,
    MissingLift,
    OpCleavage,
)
from basecat.report import FAIL, PASS
from basecat.sets import FinFn, FinSetObj
from basecat.suites import run_suite

from conftest import oracle_assoc_violations


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(seed=7)


def record(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {name}{extra}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_1_prop2_suite(corpus):
    start = time.monotonic()
    assert len(corpus.functors) >= 25
    assert all(len(f.source.objects) <= 4 for f in corpus.functors)
    assert all(len(f.source.arrows) <= 12 for f in corpus.functors)
    report = run_suite("prop2", corpus)
    elapsed = time.monotonic() - start
    passed, failed, _ = report.counts()
    record(
        1,
        "graph projections are split (op)fibrations",
        failed == 0 and elapsed < 10.0,
        f"{len(corpus.functors)} functors, {passed} claims, {elapsed:.2f}s",
    )


def test_criterion_2_prop3_suite(corpus):
    start = time.monotonic()
    assert len(corpus.concrete_pairs) >= 15
    assert all(
        all(len(c.elements(o)) <= 4 for o in c.over.objects)
        for _, c in corpus.concrete_pairs
    )
    report = run_suite("prop3", corpus)
    elapsed = time.monotonic() - start
    passed, failed, _ = report.counts()
    record(
        2,
        "element-level graph projections are split opfibrations",
        failed == 0 and elapsed < 10.0,
        f"{len(corpus.concrete_pairs)} pairs, {passed} claims, {elapsed:.2f}s",
    )


def test_criterion_3_prop4_bundled_actions(env):
    start = time.monotonic()
    expected = {"z2swap": 4, "z2trivial": 4, "z3reg": 9, "s3nat": 18}
    ok = True
    details = []
    for name, count in expected.items():
        act = env.actions[name]
        witness = bc.verify_prop4(act)
        groupoid = bc.transformation_groupoid(act)
        good = (
            len(groupoid.cat.arrows) == count
            and len(witness.forward.source.arrows) == count
            and len(witness.forward.target.arrows) == count
        )
        ok = ok and good
        details.append(f"{name}={len(groupoid.cat.arrows)}")
    elapsed = time.monotonic() - start
    record(
        3,
        "transformation groupoids match their element-level categories",
        ok and elapsed < 5.0,
        ", ".join(details) + f", {elapsed:.2f}s",
    )


def test_criterion_4_main_prop_suite(corpus):
    start = time.monotonic()
    report = run_suite("main", corpus)
    elapsed = time.monotonic() - start
    passed, failed, _ = report.counts()
    selfdual_bases = [
        fun.name for fun, _ in corpus.concrete_pairs if fun.source.is_groupoid()
    ]
    assert selfdual_bases, "corpus must contain groupoid bases"
    for name in selfdual_bases:
        claim_ids = {c.claim_id for c in report.claims}
        assert f"main:{name}:cgraph~selfdual" in claim_ids
        assert f"main:{name}:cleft~selfdual" in claim_ids
    trio_claims = [
        c for c in report.claims
        if c.claim_id.endswith(("cgraph~cleft", "cgraph~selfdual", "cleft~selfdual"))
    ]
    record(
        4,
        "the isomorphism web holds on every corpus functor",
        failed == 0 and elapsed < 20.0 and all(c.status == PASS for c in trio_claims),
        f"{passed} claims, {len(trio_claims)} concrete legs, {elapsed:.2f}s",
    )


def test_criterion_5_duality_byte_for_byte(corpus):
    report = run_suite("duality", corpus)
    passed, failed, _ = report.counts()
    record(
        5,
        "printed opposites of right actions equal left actions",
        failed == 0,
        f"{passed} printed equalities",
    )


def test_criterion_6_appendix_lemmas(corpus):
    report = run_suite("appendixC", corpus)
    lemma_claims = [
        c for c in report.claims if not c.claim_id.startswith("appendixC:roundtrip")
    ]
    failed = [c for c in lemma_claims if c.status == FAIL]
    record(
        6,
        "factorization, closure and iso-lifting hold with zero counterexamples",
        not failed,
        f"{len(lemma_claims)} scans",
    )


def test_criterion_7_grothendieck_round_trip(corpus):
    assert len(corpus.families) >= 10
    ok = True
    for fam in corpus.families:
        total = bc.grothendieck_strict(fam)
        recovered = bc.recover_indexed(
            total.over(), total.cleavage, total.object_labels, total.arrow_labels
        )
        again = bc.grothendieck_strict(recovered)
        ok = ok and bc.same_presentation(again.cat, total.cat)
    record(
        7,
        "rebuilding a recovered family reproduces the total category",
        ok,
        f"{len(corpus.families)} families",
    )


def test_criterion_8_finset_pullback():
    A = FinSetObj("A", ("a1", "a2"))
    B = FinSetObj("B", ("b1", "b2", "b3"))
    C = FinSetObj("C", ("c1", "c2"))
    f = FinFn(A, C, {"a1": "c1", "a2": "c2"})
    g = FinFn(B, C, {"b1": "c1", "b2": "c1", "b3": "c2"})
    square = bc.pullback_finset(f, g)
    exact = square.apex.elements == ("(a1,b1)", "(a1,b2)", "(a2,b3)")
    universal = bc.verify_pullback_universal(square, probe=3) is True

    rng = random.Random(42)
    counts_ok = True
    for _ in range(50):
        sizes = [rng.randint(1, 5) for _ in range(3)]
        dom_a = FinSetObj("A", tuple(f"a{k}" for k in range(sizes[0])))
        dom_b = FinSetObj("B", tuple(f"b{k}" for k in range(sizes[1])))
        cod = FinSetObj("C", tuple(f"c{k}" for k in range(sizes[2])))
        rf = FinFn(dom_a, cod, {x: rng.choice(cod.elements) for x in dom_a.elements})
        rg = FinFn(dom_b, cod, {x: rng.choice(cod.elements) for x in dom_b.elements})
        expected = sum(
            sum(1 for a in dom_a.elements if rf.mapping[a] == c)
            * sum(1 for b in dom_b.elements if rg.mapping[b] == c)
            for c in cod.elements
        )
        counts_ok = counts_ok and len(bc.pullback_finset(rf, rg).apex) == expected
    record(
        8,
        "the pullback instance is exact and universally unique",
        exact and universal and counts_ok,
        "3-element apex, probe 3, 50 random squares",
    )


def test_criterion_9_parser_round_trip_and_spans(chunk_deletions):
    texts = {
        p.name: p.read_text() for p in sorted(fixtures_dir().glob("*.bcat"))
    }
    round_trips = all(
        dsl.parse(dsl.format_document(dsl.parse(text, name)), name)
        == dsl.parse(text, name)
        for name, text in texts.items()
    )
    spans_ok = True
    checked = 0
    for _, corrupted, outcome in chunk_deletions:
        if isinstance(outcome, ParseError):
            checked += 1
            lines = corrupted.splitlines() or [""]
            span = outcome.span
            inside = (
                1 <= span.line <= len(lines)
                and 1 <= span.column <= max(1, len(lines[span.line - 1]) + 1)
            )
            spans_ok = spans_ok and inside
    record(
        9,
        "printing round-trips and corrupted files fail inside themselves",
        round_trips and spans_ok and checked > 0,
        f"{len(texts)} files, {checked} corruptions diagnosed",
    )


def test_criterion_10_negative_controls():
    env_lift = dsl.elaborate(
        dsl.parse(
            (fixtures_dir() / "negative_missing_lift.bcat").read_text(),
            "negative_missing_lift.bcat",
        )
    )
    lift_result = bc.check_fibration(bc.FunctorOver(env_lift.functors["partialTotal"]))
    lift_ok = isinstance(lift_result, MissingLift) and (
        lift_result.u,
        lift_result.obj,
    ) == ("f", "*")

    env_twin = dsl.elaborate(
        dsl.parse(
            (fixtures_dir() / "negative_noncartesian.bcat").read_text(),
            "negative_noncartesian.bcat",
        )
    )
    twin_result = bc.is_cartesian(
        bc.FunctorOver(env_twin.functors["twinProj"]), "f1"
    )
    twin_ok = (
        isinstance(twin_result, CounterexampleCartesian)
        and twin_result.mediating_count == 0
    )

    doc = dsl.parse(
        (fixtures_dir() / "negative_assoc.bcat").read_text(), "negative_assoc.bcat"
    )
    assoc_ok = False
    try:
        dsl.elaborate(doc)
    except AssociativityViolation as exc:
        decl = doc.declarations[0]
        full_arrows = list(decl.arrows) + [("id_*", "*", "*")]
        table = {(g, f): h for g, f, h in decl.compose}
        for name, _, _ in full_arrows:
            table.setdefault(("id_*", name), name)
            table.setdefault((name, "id_*"), name)
        violations = oracle_assoc_violations(full_arrows, table)
        assoc_ok = (exc.h, exc.g, exc.f) in violations
    record(
        10,
        "all three negative controls fail exactly as specified",
        lift_ok and twin_ok and assoc_ok,
        "missing lift (f,*), zero mediating morphisms, associativity triple",
    )
