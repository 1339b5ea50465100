"""Finite-set layer: faithful structures and pullbacks."""

from __future__ import annotations

import random

import pytest

import basecat as bc
from basecat import errors
from basecat.sets import ConeCounterexample, FinFn, FinSetObj, PullbackSquare
from conftest import oracle_verify_pullback_universal


@pytest.fixture
def bits():
    return FinSetObj("bits", ("0", "1"))


class TestValidateConcrete:
    def test_z2_swap_is_faithful(self, z2, bits):
        swap = FinFn(bits, bits, {"0": "1", "1": "0"})
        structure = bc.validate_concrete(z2, {"*": bits}, {"s": swap})
        assert structure.apply("s", "0") == "1"
        assert not structure.warnings

    def test_z2_trivial_action_is_not_faithful(self, z2, bits):
        same = FinFn(bits, bits, {"0": "0", "1": "1"})
        with pytest.raises(errors.NotFaithful) as exc:
            bc.validate_concrete(z2, {"*": bits}, {"s": same})
        assert {exc.value.f1, exc.value.f2} == {"id_*", "s"}

    def test_allow_unfaithful_downgrades_to_warning(self, z2, bits):
        same = FinFn(bits, bits, {"0": "0", "1": "1"})
        structure = bc.validate_concrete(
            z2, {"*": bits}, {"s": same}, allow_unfaithful=True
        )
        assert structure.warnings

    def test_singleton_homsets_make_constants_faithful(self, two):
        cx = FinSetObj("cx", ("x1", "x2"))
        cy = FinSetObj("cy", ("y1",))
        const = FinFn(cx, cy, {"x1": "y1", "x2": "y1"})
        structure = bc.validate_concrete(two, {"X": cx, "Y": cy}, {"f": const})
        assert structure.apply("f", "x2") == "y1"

    def test_partial_function(self, two):
        cx = FinSetObj("cx", ("x1", "x2"))
        cy = FinSetObj("cy", ("y1",))
        with pytest.raises(errors.PartialFunction) as exc:
            bc.validate_concrete(
                two, {"X": cx, "Y": cy}, {"f": FinFn(cx, cy, {"x1": "y1"})}
            )
        assert exc.value.element == "x2"

    def test_not_functorial(self, z3):
        g3 = FinSetObj("g3", ("a", "b", "c"))
        rot = FinFn(g3, g3, {"a": "b", "b": "c", "c": "a"})
        with pytest.raises(errors.NotFunctorial):
            bc.validate_concrete(z3, {"*": g3}, {"r1": rot, "r2": rot})

    def test_missing_action(self, two):
        cx = FinSetObj("cx", ("x1",))
        with pytest.raises(errors.PartialFunction) as exc:
            bc.validate_concrete(two, {"X": cx, "Y": cx}, {})
        assert exc.value.f == "f"
        assert exc.value.element is None


class TestPullback:
    def paper_square(self):
        A = FinSetObj("A", ("a1", "a2"))
        B = FinSetObj("B", ("b1", "b2", "b3"))
        C = FinSetObj("C", ("c1", "c2"))
        f = FinFn(A, C, {"a1": "c1", "a2": "c2"})
        g = FinFn(B, C, {"b1": "c1", "b2": "c1", "b3": "c2"})
        return f, g

    def test_figure_instance(self):
        f, g = self.paper_square()
        square = bc.pullback_finset(f, g)
        assert square.apex.elements == ("(a1,b1)", "(a1,b2)", "(a2,b3)")
        for e in square.apex.elements:
            assert f.mapping[square.p1.mapping[e]] == g.mapping[square.p2.mapping[e]]

    def test_pulling_back_along_identity_gives_the_domain(self):
        f, _ = self.paper_square()
        c = f.cod
        square = bc.pullback_finset(f, bc.identity_fn(c))
        assert len(square.apex) == len(f.dom)
        assert sorted(square.p1.mapping.values()) == sorted(f.dom.elements)

    def test_disjoint_images_give_empty(self):
        A = FinSetObj("A", ("a",))
        B = FinSetObj("B", ("b",))
        C = FinSetObj("C", ("c1", "c2"))
        square = bc.pullback_finset(
            FinFn(A, C, {"a": "c1"}), FinFn(B, C, {"b": "c2"})
        )
        assert square.apex.elements == ()

    def test_codomain_mismatch(self):
        A = FinSetObj("A", ("a",))
        B = FinSetObj("B", ("b",))
        with pytest.raises(errors.CodomainMismatch):
            bc.pullback_finset(FinFn(A, A, {"a": "a"}), FinFn(B, B, {"b": "b"}))


class TestUniversalProperty:
    def test_paper_square_ok(self):
        f, g = TestPullback().paper_square()
        square = bc.pullback_finset(f, g)
        assert bc.verify_pullback_universal(square, probe=2) is True

    def test_padded_apex_fails_uniqueness(self):
        f, g = TestPullback().paper_square()
        honest = bc.pullback_finset(f, g)
        padded = FinSetObj("P+", honest.apex.elements + ("extra",))
        p1 = FinFn(padded, f.dom, {**honest.p1.mapping, "extra": "a1"})
        p2 = FinFn(padded, g.dom, {**honest.p2.mapping, "extra": "b1"})
        broken = PullbackSquare(f, g, padded, p1, p2)
        result = bc.verify_pullback_universal(broken, probe=2)
        assert isinstance(result, ConeCounterexample)
        assert result.mediating_count != 1

    def test_empty_square_ok(self):
        A = FinSetObj("A", ("a",))
        B = FinSetObj("B", ("b",))
        C = FinSetObj("C", ("c1", "c2"))
        square = bc.pullback_finset(
            FinFn(A, C, {"a": "c1"}), FinFn(B, C, {"b": "c2"})
        )
        assert bc.verify_pullback_universal(square, probe=1) is True


def random_fn(rng, dom: FinSetObj, cod: FinSetObj) -> FinFn:
    return FinFn(dom, cod, {x: rng.choice(cod.elements) for x in dom.elements})


def test_fiberwise_count_on_random_squares():
    rng = random.Random(99)
    for i in range(50):
        sizes = [rng.randint(1, 5) for _ in range(3)]
        A = FinSetObj("A", tuple(f"a{k}" for k in range(sizes[0])))
        B = FinSetObj("B", tuple(f"b{k}" for k in range(sizes[1])))
        C = FinSetObj("C", tuple(f"c{k}" for k in range(sizes[2])))
        f = random_fn(rng, A, C)
        g = random_fn(rng, B, C)
        square = bc.pullback_finset(f, g)
        # oracle: the fiberwise product count, computed directly
        expected = sum(
            sum(1 for a in A.elements if f.mapping[a] == c)
            * sum(1 for b in B.elements if g.mapping[b] == c)
            for c in C.elements
        )
        assert len(square.apex) == expected
        assert bc.fiberwise_count(f, g) == expected


def test_pullbacks_always_satisfy_universal_property():
    rng = random.Random(7)
    for _ in range(10):
        sizes = [rng.randint(0, 4) for _ in range(3)]
        A = FinSetObj("A", tuple(f"a{k}" for k in range(sizes[0])))
        B = FinSetObj("B", tuple(f"b{k}" for k in range(sizes[1])))
        C = FinSetObj("C", tuple(f"c{k}" for k in range(max(1, sizes[2]))))
        f = random_fn(rng, A, C)
        g = random_fn(rng, B, C)
        square = bc.pullback_finset(f, g)
        assert bc.verify_pullback_universal(square, probe=3) is True


def random_apex_square(rng, kind: str) -> PullbackSquare:
    """A commuting square over random legs (empty domains and non-injective
    legs included) whose apex is the pullback, the pullback less one
    element, the pullback with one element doubled over its pair, or the
    pullback with each element dropped, kept or doubled at random; the
    apex order is shuffled."""
    A = FinSetObj("A", tuple(f"a{k}" for k in range(rng.randint(0, 3))))
    B = FinSetObj("B", tuple(f"b{k}" for k in range(rng.randint(0, 3))))
    C = FinSetObj("C", tuple(f"c{k}" for k in range(rng.randint(1, 3))))
    f, g = random_fn(rng, A, C), random_fn(rng, B, C)
    honest = bc.pullback_finset(f, g)
    legs = {e: (honest.p1.mapping[e], honest.p2.mapping[e]) for e in honest.apex.elements}
    if legs and kind == "missing":
        del legs[rng.choice(sorted(legs))]
    if legs and kind == "doubled":
        e = rng.choice(sorted(legs))
        legs[e + "'"] = legs[e]
    if kind == "mixed":
        for e in sorted(legs):
            copies = rng.choice((0, 1, 1, 2))
            if copies != 1:
                legs[e + "'"] = legs[e]
            if copies == 0:
                del legs[e], legs[e + "'"]
    elements = sorted(legs)
    rng.shuffle(elements)
    apex = FinSetObj("P", tuple(elements))
    p1 = FinFn(apex, A, {e: legs[e][0] for e in elements})
    p2 = FinFn(apex, B, {e: legs[e][1] for e in elements})
    return PullbackSquare(f, g, apex, p1, p2)


def test_counting_matches_the_cone_enumeration():
    rng = random.Random(2024)
    outcomes = set()
    seen = set()
    for i in range(400):
        kind = ("honest", "missing", "doubled", "mixed")[i % 4]
        square = random_apex_square(rng, kind)
        if not square.f.dom.elements or not square.g.dom.elements:
            seen.add("empty domain")
        if len(set(square.f.mapping.values())) < len(square.f.dom):
            seen.add("non-injective leg")
        if len(square.apex) != bc.fiberwise_count(square.f, square.g):
            seen.add(kind)
        for probe in range(4):
            expected = oracle_verify_pullback_universal(square, probe)
            result = bc.verify_pullback_universal(square, probe)
            assert type(result) is type(expected) and result == expected, (square, probe)
            outcomes.add(bool(result))
    assert outcomes == {True, False}
    assert seen == {"empty domain", "non-injective leg", "missing", "doubled", "mixed"}


def test_a_square_that_does_not_commute_is_rejected_like_the_enumeration():
    A = FinSetObj("A", ("a",))
    C = FinSetObj("C", ("c1", "c2"))
    f = FinFn(A, C, {"a": "c1"})
    g = FinFn(A, C, {"a": "c2"})
    apex = FinSetObj("P", ("p",))
    square = PullbackSquare(f, g, apex, FinFn(apex, A, {"p": "a"}), FinFn(apex, A, {"p": "a"}))
    for check in (bc.verify_pullback_universal, oracle_verify_pullback_universal):
        with pytest.raises(errors.ValidationError, match="square does not commute"):
            check(square, 0)
