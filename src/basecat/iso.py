"""Exhaustive isomorphism search between finite category presentations.

Every object and morphism gets a colour that any isomorphism preserves,
in the manner of the invariant colourings of nauty (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014), reduced to
what a composition table makes cheap:

- the *power type* of an endomorphism a is the pair (index, period) of the
  sequence a, a∘a, a∘a∘a, …, read off a's composition row; in a group it
  is (0, order), and it is defined for idempotents and other
  non-invertible elements too;
- an object's colour is its iterated hom-profile signature with the
  sorted power types of its endomorphisms;
- a morphism's colour is its domain's and codomain's colours with its
  power type, if it is an endomorphism.

An isomorphism F maps hom(x, y) bijectively onto hom(Fx, Fy), commutes
with composition and sends identities to identities, so it preserves
hom-set sizes, hence signatures, and F(a∘…∘a) = Fa∘…∘Fa, hence power
types; so F preserves every colour. Two presentations whose object
colour multisets differ are therefore not isomorphic.

Otherwise the search backtracks over object bijections within a colour
class, then over morphism bijections hom-set by hom-set, trying only
candidates of the morphism's power type, in hom-set order, and checking
the composites of each new morphism with those assigned before it. A
completed assignment is checked against the whole composition table, for
the composites whose result was assigned after both of their factors;
one that fails is a dead end and the search goes on. A witness is
re-validated before being handed back.

Compared with the search that tries every candidate, this one tries the
same candidates in the same order less those of another colour, which
lead to no isomorphism. Wherever that search decides, this one visits a
subsequence of its nodes and returns the same verdict and the same first
witness; where that search completed an assignment that is no
isomorphism and stopped with an exception in re-validation, this one
passes over it. The search is complete: within budget it either returns
a witness or a definite rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import FinCat, IsoWitness, relabelling
from .errors import Refutation

DEFAULT_BUDGET = 100_000
SIGNATURE_ROUNDS = 2


@dataclass(frozen=True)
class NotIsomorphic(Refutation):
    reason: str


@dataclass(frozen=True)
class BudgetExhausted(Refutation):
    nodes: int


def _intern(palette: dict, key: tuple) -> int:
    return palette.setdefault(key, len(palette))


def _signatures(cat: FinCat, palette: dict) -> dict[str, int]:
    """Iterated hom-profile signatures, interned in ``palette``.

    Round 0 is (|hom(x, x)|, sorted out-sizes, sorted in-sizes); each later
    round adds the sorted (signature, |hom(x, y)|, |hom(y, x)|) over every y.
    A round's key holds the previous round's numbers, so keys stay flat and
    equal numbers mean equal nested signatures.
    """
    objs = cat.objects
    hom = {(x, y): len(cat.hom(x, y)) for x in objs for y in objs}
    sig = {
        x: _intern(palette, ("sig", 0, hom[(x, x)],
                             tuple(sorted(hom[(x, y)] for y in objs)),
                             tuple(sorted(hom[(y, x)] for y in objs))))
        for x in objs
    }
    for k in range(1, SIGNATURE_ROUNDS + 1):
        sig = {
            x: _intern(palette, ("sig", k, sig[x],
                                 tuple(sorted((sig[y], hom[(x, y)], hom[(y, x)]) for y in objs))))
            for x in objs
        }
    return sig


def _power_types(cat: FinCat, endos: tuple[str, ...]) -> dict[str, tuple[int, int]]:
    """(index, period) of the sequence a, a∘a, … of each endomorphism a.

    Each walk also types the powers it passes: if a has index i and period
    p, then a^k has index ⌊i/k⌋ and period p/gcd(k, p).
    """
    types: dict[str, tuple[int, int]] = {}
    for a in endos:
        if a in types:
            continue
        row, exponent, p = cat.after[a], {}, a
        while p not in exponent:
            exponent[p] = len(exponent) + 1
            p = row[p]
        index = exponent[p] - 1
        period = len(exponent) - index
        for b, k in exponent.items():
            types.setdefault(b, (index // k, period // gcd(k, period)))
    return types


def _colours(cat: FinCat, sig: dict[str, int], palette: dict) -> tuple[dict[str, int], dict[str, tuple[int, int]]]:
    """Object colours, interned in ``palette``, and power types."""
    obj: dict[str, int] = {}
    power: dict[str, tuple[int, int]] = {}
    for x in cat.objects:
        types = _power_types(cat, cat.hom(x, x))
        power.update(types)
        obj[x] = _intern(palette, ("obj", sig[x], tuple(sorted(types.values()))))
    return obj, power


class _Search:
    def __init__(self, c: FinCat, d: FinCat, budget: int, c_power: dict[str, tuple[int, int]],
                 d_power: dict[str, tuple[int, int]]):
        self.c = c
        self.d = d
        self.budget = budget
        self.power = c_power
        # d's morphisms by domain, codomain and power type, in hom-set order.
        self.candidates: dict[tuple[str, str, tuple[int, int] | None], list[str]] = {}
        for a in d.arrows:
            self.candidates.setdefault((a.dom, a.cod, d_power.get(a.name)), []).append(a.name)
        self.nodes = 0
        self.out_of_budget = False

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.budget:
            self.out_of_budget = True
            return False
        return True

    def match_objects(self, i: int, assign: dict[str, str], used: set[str],
                      buckets: dict[str, list[str]]) -> dict[str, str] | None:
        if i == len(self.c.objects):
            return self.match_all_morphisms(assign)
        x = self.c.objects[i]
        for y in buckets[x]:
            if y in used:
                continue
            if not self.tick():
                return None
            assign[x] = y
            used.add(y)
            result = self.match_objects(i + 1, assign, used, buckets)
            if result is not None or self.out_of_budget:
                return result
            del assign[x]
            used.discard(y)
        return None

    def match_all_morphisms(self, objs: dict[str, str]) -> dict[str, str] | None:
        c, d = self.c, self.d
        for x in c.objects:
            for y in c.objects:
                if len(c.hom(x, y)) != len(d.hom(objs[x], objs[y])):
                    return None
        todo = [a for a in c.arrows if not c.is_identity(a.name)]
        assign = {
            c.identity[x]: d.identity[objs[x]] for x in c.objects
        }
        used = set(assign.values())
        return self.match_morphisms(todo, 0, objs, assign, used)

    def match_morphisms(self, todo, i, objs, assign, used) -> dict[str, str] | None:
        if i == len(todo):
            return dict(assign) if self.preserves_composition(assign) else None
        a = todo[i]
        for cand in self.candidates.get((objs[a.dom], objs[a.cod], self.power.get(a.name)), ()):
            if cand in used:
                continue
            if not self.tick():
                return None
            assign[a.name] = cand
            used.add(cand)
            if self.consistent(a.name, assign):
                result = self.match_morphisms(todo, i + 1, objs, assign, used)
                if result is not None or self.out_of_budget:
                    return result
            del assign[a.name]
            used.discard(cand)
        return None

    def consistent(self, new: str, assign: dict[str, str]) -> bool:
        # Check every composite whose factors are both assigned already.
        c_after, d_after = self.c.after, self.d.after
        new_row, new_img = c_after[new], assign[new]
        d_new_row = d_after[new_img]
        for other, img in assign.items():
            h = new_row.get(other)
            if h is not None and h in assign and d_new_row[img] != assign[h]:
                return False
            h = c_after[other].get(new)
            if h is not None and h in assign and d_after[img][new_img] != assign[h]:
                return False
        return True

    def preserves_composition(self, assign: dict[str, str]) -> bool:
        # ``consistent`` sees a composite when its later factor is assigned,
        # if its result is assigned by then; one whose result comes after
        # both of its factors is first checked here.
        d_after = self.d.after
        return all(d_after[assign[g]][assign[f]] == assign[h] for (g, f), h in self.c.compose.items())


def find_isomorphism(
    c: FinCat, d: FinCat, budget: int = DEFAULT_BUDGET
) -> IsoWitness | NotIsomorphic | BudgetExhausted:
    """Search for an isomorphism of presentations.

    Sound (any witness is re-validated) and complete within the node
    budget; `BudgetExhausted` means undecided, never "no".
    """
    if len(c.objects) != len(d.objects):
        return NotIsomorphic("object counts differ")
    if len(c.arrows) != len(d.arrows):
        return NotIsomorphic("morphism counts differ")

    # One numbering for both sides, so that equal numbers are equal colours.
    palette: dict = {}
    sig_c = _signatures(c, palette)
    sig_d = _signatures(d, palette)
    if sorted(sig_c.values()) != sorted(sig_d.values()):
        return NotIsomorphic("hom-profile signatures differ")
    obj_c, power_c = _colours(c, sig_c, palette)
    obj_d, power_d = _colours(d, sig_d, palette)
    if sorted(obj_c.values()) != sorted(obj_d.values()):
        return NotIsomorphic("no structure-preserving bijection exists")
    buckets = {
        x: [y for y in d.objects if obj_d[y] == obj_c[x]] for x in c.objects
    }

    search = _Search(c, d, budget, power_c, power_d)
    assignment = search.match_objects(0, {}, set(), buckets)
    if search.out_of_budget:
        return BudgetExhausted(search.nodes)
    if assignment is None:
        return NotIsomorphic("no structure-preserving bijection exists")

    objs = {x: d.arrow(assignment[c.identity[x]]).dom for x in c.objects}
    return relabelling(
        f"{c.name}~{d.name}", c, d, objs, assignment, back_name=f"{d.name}~{c.name}"
    )
