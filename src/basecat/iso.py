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
the composites of each new morphism with those assigned before it. Those
composites are read off the new morphism's composition row and column
(a column index built once per search), not off every assigned morphism.
A completed assignment is accepted when its witness validates
(``core.relabelling`` checks every composite, so the composites whose
result was assigned after both of their factors are checked there, and a
decided search reads the table once); one that fails is a dead end and the
search goes on. The search keeps its own stack, so its depth (one level
per object and per arrow) is not bounded by the interpreter's recursion
limit. The inverse of the witness is read off its validated forward
functor (``core.invert``).

Compared with the search that tries every candidate, this one tries the
same candidates in the same order less those of another colour, which
lead to no isomorphism. Wherever that search decides, this one visits a
subsequence of its nodes and returns the same verdict and the same first
witness; where that search completed an assignment that is no
isomorphism and stopped with an exception in validation, this one
passes over it. The search is complete: within budget it either returns
a witness or a definite rejection.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .core import FinCat, IsoWitness, _rows, relabelling
from .errors import CompositionNotPreserved, Refutation
from .records import Frozen

DEFAULT_BUDGET = 100_000
SIGNATURE_ROUNDS = 2


class NotIsomorphic(Frozen, Refutation):
    template = "not isomorphic: {reason}"
    reason: str


class BudgetExhausted(Frozen, Refutation):
    template = "undecided: the search gave up after {nodes} nodes"
    nodes: int


def _intern(palette: dict, key: tuple) -> int:
    return palette.setdefault(key, len(palette))


def _signatures(cat: FinCat, palette: dict) -> dict[str, int]:
    """Iterated hom-profile signatures, interned in ``palette``.

    Round 0 is (|hom(x, x)|, sorted out-sizes, sorted in-sizes); each later
    round adds the sorted (signature, |hom(x, y)|, |hom(y, x)|) over every y.
    A round's key holds the previous round's numbers, so keys stay flat and
    equal numbers mean equal nested signatures. The hom-set sizes are read
    once into rows (out of each object) and columns (into it), in object
    order.
    """
    objs = cat.objects
    index = {x: i for i, x in enumerate(objs)}
    out = [[0] * len(objs) for _ in objs]
    for (x, y), names in cat._homs.items():
        out[index[x]][index[y]] = len(names)
    into = list(zip(*out))
    sig = [
        _intern(palette, ("sig", 0, row[i], tuple(sorted(row)), tuple(sorted(col))))
        for i, (row, col) in enumerate(zip(out, into))
    ]
    for k in range(1, SIGNATURE_ROUNDS + 1):
        sig = [
            _intern(palette, ("sig", k, sig[i], tuple(sorted(zip(sig, row, col)))))
            for i, (row, col) in enumerate(zip(out, into))
        ]
    return dict(zip(objs, sig))


def _power_types(rows: dict[str, dict[str, str]], endos: tuple[str, ...]) -> dict[str, tuple[int, int]]:
    """(index, period) of the sequence a, a∘a, … of each endomorphism a.

    Each walk also types the powers it passes: if a has index i and period
    p, then a^k has index ⌊i/k⌋ and period p/gcd(k, p).
    """
    types: dict[str, tuple[int, int]] = {}
    for a in endos:
        if a in types:
            continue
        row, exponent, p = rows[a], {}, a
        while p not in exponent:
            exponent[p] = len(exponent) + 1
            p = row[p]
        index = exponent[p] - 1
        period = len(exponent) - index
        for b, k in exponent.items():
            types.setdefault(b, (index // k, period // gcd(k, period)))
    return types


def _colours(
    cat: FinCat, rows: dict[str, dict[str, str]], sig: dict[str, int], palette: dict
) -> tuple[dict[str, int], dict[str, tuple[int, int]]]:
    """Object colours, interned in ``palette``, and power types read off
    the composition ``rows`` of ``cat``."""
    obj: dict[str, int] = {}
    power: dict[str, tuple[int, int]] = {}
    for x in cat.objects:
        types = _power_types(rows, cat.hom(x, x))
        power.update(types)
        obj[x] = _intern(palette, ("obj", sig[x], tuple(sorted(types.values()))))
    return obj, power


class _Search:
    def __init__(self, c: FinCat, d: FinCat, c_rows: dict[str, dict[str, str]],
                 d_rows: dict[str, dict[str, str]], budget: int,
                 c_power: dict[str, tuple[int, int]], d_power: dict[str, tuple[int, int]]):
        self.c = c
        self.d = d
        self.c_rows = c_rows
        self.d_rows = d_rows
        # c's composition by inner factor: c_cols[f][g] is g∘f.
        self.c_cols: dict[str, dict[str, str]] = {a.name: {} for a in c.arrows}
        for g, row in c_rows.items():
            for f, h in row.items():
                self.c_cols[f][g] = h
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

    def run(self, buckets: dict[str, list[str]]) -> IsoWitness | None:
        """Backtrack with one explicit stack of candidate iterators, so the
        depth of the search is not bounded by the interpreter's recursion
        limit. Level i < n places the i-th object of ``c`` within its colour
        bucket; once every object is placed, the identities follow and level
        n + j places the j-th non-identity arrow. Candidates are tried, and
        nodes counted, depth first in bucket and hom-set order, as a
        recursive search would try them. A completed assignment is the
        witness when it validates (``relabelling`` checks every composite);
        one that breaks a composite is a dead end."""
        c, d = self.c, self.d
        objects = c.objects
        todo = [a for a in c.arrows if not c.is_identity(a.name)]
        n, depth = len(objects), len(objects) + len(todo)
        objs: dict[str, str] = {}
        used_objs: set[str] = set()
        assign: dict[str, str] = {}
        used: set[str] = set()
        stack: list[Iterator[str]] = []
        while True:
            # Open the level above the stack, unless the last placement
            # leads nowhere or completes an assignment.
            level = len(stack)
            opened = True
            if level == n:
                opened = self.homs_agree(objs)
                if opened:
                    assign = {c.identity[x]: d.identity[objs[x]] for x in objects}
                    used = set(assign.values())
            if opened and level == depth:
                try:
                    return relabelling(
                        f"{c.name}~{d.name}", c, d, objs, assign, back_name=f"{d.name}~{c.name}"
                    )
                except CompositionNotPreserved:
                    opened = False
            if opened:
                if level < n:
                    stack.append(iter(buckets[objects[level]]))
                else:
                    a = todo[level - n]
                    key = (objs[a.dom], objs[a.cod], self.power.get(a.name))
                    stack.append(iter(self.candidates.get(key, ())))
            # Move the top level to its next candidate, dropping the levels
            # that run out of candidates.
            while stack:
                top = len(stack) - 1
                if top < n:
                    moved = self.place(objects[top], stack[-1], objs, used_objs, _anywhere)
                else:
                    moved = self.place(todo[top - n].name, stack[-1], assign, used, self.consistent)
                if moved or self.out_of_budget:
                    break
                stack.pop()
            if not stack or self.out_of_budget:
                return None

    def place(self, key: str, candidates: Iterator[str], placed: dict[str, str],
              used: set[str], fits) -> bool:
        """Undo the placement of ``key``, then place it on the next unused
        candidate that ``fits``; False when none is left or the budget has
        run out."""
        if key in placed:
            used.discard(placed.pop(key))
        for cand in candidates:
            if cand in used:
                continue
            if not self.tick():
                return False
            placed[key] = cand
            used.add(cand)
            if fits(key, placed):
                return True
            del placed[key]
            used.discard(cand)
        return False

    def homs_agree(self, objs: dict[str, str]) -> bool:
        c, d = self.c, self.d
        return all(
            len(c.hom(x, y)) == len(d.hom(objs[x], objs[y])) for x in c.objects for y in c.objects
        )

    def consistent(self, new: str, assign: dict[str, str]) -> bool:
        # Check every composite of ``new`` with an assigned arrow, either
        # way round, whose result is assigned: ``new``'s row holds the
        # composites new∘f, its column those g∘new.
        d_rows, new_img = self.d_rows, assign[new]
        d_new_row = d_rows[new_img]
        for f, h in self.c_rows[new].items():
            if f in assign and h in assign and d_new_row[assign[f]] != assign[h]:
                return False
        for g, h in self.c_cols[new].items():
            if g in assign and h in assign and d_rows[assign[g]][new_img] != assign[h]:
                return False
        return True


def _anywhere(key: str, placed: dict[str, str]) -> bool:
    return True


def find_isomorphism(
    c: FinCat, d: FinCat, budget: int = DEFAULT_BUDGET
) -> IsoWitness | NotIsomorphic | BudgetExhausted:
    """Search for an isomorphism of presentations.

    Sound (a witness's forward functor is validated) and complete within
    the node budget; `BudgetExhausted` means undecided, never "no".
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
    # Composition rows, built once per side for the colours and the search.
    rows_c, rows_d = _rows(c.arrows, c.compose), _rows(d.arrows, d.compose)
    obj_c, power_c = _colours(c, rows_c, sig_c, palette)
    obj_d, power_d = _colours(d, rows_d, sig_d, palette)
    if sorted(obj_c.values()) != sorted(obj_d.values()):
        return NotIsomorphic("no structure-preserving bijection exists")
    buckets = {
        x: [y for y in d.objects if obj_d[y] == obj_c[x]] for x in c.objects
    }

    search = _Search(c, d, rows_c, rows_d, budget, power_c, power_d)
    witness = search.run(buckets)
    if search.out_of_budget:
        return BudgetExhausted(search.nodes)
    if witness is None:
        return NotIsomorphic("no structure-preserving bijection exists")
    return witness
