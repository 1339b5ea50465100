"""Exhaustive isomorphism search between finite category presentations.

Backtracking over object bijections pruned by iterated hom-profile
signatures, then over morphism bijections hom-set by hom-set, checking the
composition table incrementally. The search is complete: within budget it
either returns a witness (re-validated before being handed back) or a
definite rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _signatures(cat: FinCat) -> dict[str, tuple]:
    hom = {
        (x, y): len(cat.hom(x, y)) for x in cat.objects for y in cat.objects
    }
    sig: dict[str, tuple] = {
        x: (hom[(x, x)],
            tuple(sorted(hom[(x, y)] for y in cat.objects)),
            tuple(sorted(hom[(y, x)] for y in cat.objects)))
        for x in cat.objects
    }
    for _ in range(SIGNATURE_ROUNDS):
        sig = {
            x: (sig[x], tuple(sorted((sig[y], hom[(x, y)], hom[(y, x)]) for y in cat.objects)))
            for x in cat.objects
        }
    return sig


class _Search:
    def __init__(self, c: FinCat, d: FinCat, budget: int):
        self.c = c
        self.d = d
        self.budget = budget
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
        c, d = self.c, self.d
        if i == len(todo):
            return dict(assign)
        a = todo[i]
        for cand in d.hom(objs[a.dom], objs[a.cod]):
            if cand in used or d.is_identity(cand):
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

    sig_c = _signatures(c)
    sig_d = _signatures(d)
    if sorted(sig_c.values()) != sorted(sig_d.values()):
        return NotIsomorphic("hom-profile signatures differ")
    buckets = {
        x: [y for y in d.objects if sig_d[y] == sig_c[x]] for x in c.objects
    }

    search = _Search(c, d, budget)
    assignment = search.match_objects(0, {}, set(), buckets)
    if search.out_of_budget:
        return BudgetExhausted(search.nodes)
    if assignment is None:
        return NotIsomorphic("no structure-preserving bijection exists")

    objs = {x: d.arrow(assignment[c.identity[x]]).dom for x in c.objects}
    return relabelling(
        f"{c.name}~{d.name}", c, d, objs, assignment, back_name=f"{d.name}~{c.name}"
    )
