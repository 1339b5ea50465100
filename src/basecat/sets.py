"""Finite sets, functions, faithful structures over a category, pullbacks.

The pullback apex is enumerated in lexicographic pair order and then
checked against its universal property over all cones from probe sets of
bounded size, so correctness never rests on the enumeration alone; the
cones are counted point by point, not enumerated.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from .core import FinCat, ReadOnly, _reject_unknown_keys, dict_of, pair_id
from .errors import (
    CodomainMismatch,
    NotFaithful,
    NotFunctorial,
    PartialFunction,
    Refutation,
    UnknownObject,
    ValidationError,
)
from .records import Frozen


class FinSetObj(Frozen):
    name: str
    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError(f"duplicate elements in set {self.name!r}")

    def __len__(self) -> int:
        return len(self.elements)


class FinFn(ReadOnly):
    dom: FinSetObj
    cod: FinSetObj
    mapping: Mapping[str, str]
    read_only = ("mapping",)

    def __call__(self, x: str) -> str:
        return self.mapping[x]


def check_total(fn: FinFn, label: str) -> None:
    for x in fn.dom.elements:
        if x not in fn.mapping:
            raise PartialFunction(label, x)
    for x, y in fn.mapping.items():
        if x not in fn.dom.elements:
            raise PartialFunction(label, x)
        if y not in fn.cod.elements:
            raise ValidationError(f"function {label!r} sends {x!r} outside its codomain")


def identity_fn(s: FinSetObj) -> FinFn:
    return FinFn(s, s, {x: x for x in s.elements})


def compose_fn(g: FinFn, f: FinFn) -> FinFn:
    if f.cod != g.dom:
        raise CodomainMismatch(f"cannot compose through {f.cod.name!r} vs {g.dom.name!r}")
    return FinFn(f.dom, g.cod, {x: g.mapping[f.mapping[x]] for x in f.dom.elements})


class ConcreteStructure(ReadOnly):
    """Sets and functions assigned to a category, the underlying functor.

    Faithfulness is the default contract; `warnings` carries the colliding
    pairs when validation ran with `allow_unfaithful`.
    """

    over: FinCat
    carrier: Mapping[str, FinSetObj]
    action: Mapping[str, FinFn]
    warnings: tuple[str, ...] = ()
    read_only = ("carrier", "action")

    def elements(self, obj: str) -> tuple[str, ...]:
        return self.carrier[obj].elements

    def apply(self, morphism: str, x: str) -> str:
        return self.action[morphism].mapping[x]


def validate_concrete(
    over: FinCat,
    carrier: Mapping[str, FinSetObj],
    action: Mapping[str, FinFn],
    allow_unfaithful: bool = False,
) -> ConcreteStructure:
    """Check identity, functoriality and faithfulness exhaustively.

    With `allow_unfaithful`, colliding parallel pairs are downgraded to
    warnings; the functions still define a category action.
    """
    carrier = dict_of(carrier)
    action = dict_of(action)
    for o in over.objects:
        if o not in carrier:
            raise UnknownObject(o)
        ident = over.identity[o]
        if ident not in action:
            action[ident] = identity_fn(carrier[o])
    for a in over.arrows:
        if a.name not in action:
            raise PartialFunction(a.name, None)
        fn = action[a.name]
        if fn.dom != carrier[a.dom] or fn.cod != carrier[a.cod]:
            raise ValidationError(
                f"function for {a.name!r} is not between the assigned carriers"
            )
        check_total(fn, a.name)
        # A function built directly wraps its caller's dict; keep a copy.
        action[a.name] = FinFn(fn.dom, fn.cod, dict_of(fn.mapping))

    for o in over.objects:
        fn = action[over.identity[o]]
        if fn.mapping != {x: x for x in carrier[o].elements}:
            raise NotFunctorial(over.identity[o], over.identity[o])

    for (g, f), h in over.compose.items():
        second, first = action[g].mapping, action[f].mapping
        if action[h].mapping != {x: second[y] for x, y in first.items()}:
            raise NotFunctorial(g, f)

    warnings = []
    for x in over.objects:
        for y in over.objects:
            hom = over.hom(x, y)
            for i, f1 in enumerate(hom):
                for f2 in hom[i + 1:]:
                    if action[f1].mapping == action[f2].mapping:
                        if allow_unfaithful:
                            warnings.append(f"unfaithful pair ({f1}, {f2})")
                        else:
                            raise NotFaithful(f1, f2)

    _reject_unknown_keys(over, carrier, action)
    return ConcreteStructure(over, carrier, action, tuple(warnings))


class PullbackSquare(Frozen):
    """A commuting square over two functions with a shared codomain."""

    f: FinFn
    g: FinFn
    apex: FinSetObj
    p1: FinFn
    p2: FinFn


class ConeCounterexample(Frozen, Refutation):
    template = "not a pullback: the cone from {probe.name!r} has {mediating_count} mediating maps"
    probe: FinSetObj
    q1: FinFn
    q2: FinFn
    mediating_count: int


def pullback_finset(f: FinFn, g: FinFn, name: str | None = None) -> PullbackSquare:
    """Fibered product of two functions, enumerated in (a, b) pair order."""
    if f.cod != g.cod:
        raise CodomainMismatch(f"{f.cod.name!r} vs {g.cod.name!r}")
    pairs = [
        (a, b)
        for a in f.dom.elements
        for b in g.dom.elements
        if f.mapping[a] == g.mapping[b]
    ]
    apex = FinSetObj(
        name if name is not None else pair_id(f.dom.name, g.dom.name),
        tuple(pair_id(a, b) for a, b in pairs),
    )
    p1 = FinFn(apex, f.dom, {pair_id(a, b): a for a, b in pairs})
    p2 = FinFn(apex, g.dom, {pair_id(a, b): b for a, b in pairs})
    return PullbackSquare(f, g, apex, p1, p2)


def verify_pullback_universal(
    square: PullbackSquare, probe: int = 3
) -> bool | ConeCounterexample:
    """The universal property over probes of size <= `probe`, decided by
    counting.

    A cone (q1, q2) from a probe D has as many mediating functions as the
    product, over the points x of D, of the number of apex elements over
    (q1(x), q2(x)). So when every compatible pair (a, b) has exactly one
    apex element over it, every cone of every size has exactly one
    mediating function; otherwise the one-point cone on the first such
    pair, in (a, b) order, is the first cone with zero or several, which
    is what a scan of all cones by size finds first. The empty probe
    always has exactly one. A counterexample is a result, not an error.
    """
    f, g, apex, p1, p2 = square.f, square.g, square.apex, square.p1, square.p2
    for e in apex.elements:
        if f.mapping[p1.mapping[e]] != g.mapping[p2.mapping[e]]:
            raise ValidationError("square does not commute")
    if probe < 1:
        return True

    over = Counter((p1.mapping[e], p2.mapping[e]) for e in apex.elements)
    for a in f.dom.elements:
        for b in g.dom.elements:
            if f.mapping[a] == g.mapping[b] and over[(a, b)] != 1:
                d = FinSetObj("probe1", ("d0",))
                return ConeCounterexample(
                    d, FinFn(d, f.dom, {"d0": a}), FinFn(d, g.dom, {"d0": b}), over[(a, b)]
                )
    return True


def fiberwise_count(f: FinFn, g: FinFn) -> int:
    """Predicted pullback size: sum over the base of |fiber| * |fiber|."""
    na = Counter(f.mapping[a] for a in f.dom.elements)
    nb = Counter(g.mapping[b] for b in g.dom.elements)
    return sum(na[c] * nb[c] for c in f.cod.elements)
