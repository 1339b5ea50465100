"""One pass of each workload: timed calls into basecat, each result checked.

A pass receives inputs from `gen` and a `Recorder`. Every call into a
basecat function goes through `Recorder.task`, which times it and, in a
traced pass, records a span; every result is then compared with an answer
known from the inputs. A wrong answer is recorded with `Recorder.check`
and fails the run; an exception that is not a `BasecatError` propagates
and fails it at once.

Building basecat's value types (`FinSetObj`, `FinFn`, `FunctorOver`,
`Report`) from generated data is not a task: those constructors only
hold the data the next task receives. Nor are the accessors (`dom`,
`is_identity`, a function's `__call__`) that the checks read results with.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import gen

SUITE_ORDER = ("prop2", "prop3", "prop4", "main", "duality", "appendixC")
SEED7_SHA256 = "de97bdd7f8c716114b7b6065a77149714b604db061474a89b09ce74964995094"
SEED7_CLAIMS = 575
DEFAULT_SEED = 0
# Outcome digest of the corrupt mix of pass 0 under the default seed: every
# error class and parse-error span must stay byte-identical.
CORRUPT_DIGEST = "ae6df3aa9caa32f57437c059d3c7d94b9550e65d27c88c0db138e5eb91975d32"


class Recorder:
    """Times tasks, counts work and verdicts, and keeps spans when traced."""

    def __init__(self):
        self.traced = False
        self.durations: list[float] = []  # every task of the current pass
        self.by_key: Counter = Counter()  # task seconds by metric key, this pass
        self.work: Counter = Counter()  # work counts by name, this pass
        self.spans: list[tuple] = []
        self.parent: int | None = None
        self.next_id = 0
        self.attempted = 0
        self.searches = 0  # isomorphism searches, decided or not
        self.undecided = 0
        self.failures: list[str] = []

    def task(self, key: str, func, *args, **kwargs):
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = perf_counter()
            self.durations.append(end - start)
            self.by_key[key] += end - start
            self.attempted += 1
            if self.traced:
                self.spans.append(
                    (self._new_id(), self.parent, key, func.__qualname__, start, end)
                )

    @contextmanager
    def group(self, kind: str, label):
        """Span for the seed, rung or document that the tasks inside belong to."""
        if not self.traced:
            yield
            return
        ident, outer = self._new_id(), self.parent
        self.parent = ident
        start = perf_counter()
        try:
            yield
        finally:
            self.parent = outer
            self.spans.append((ident, outer, f"bench.{kind}", str(label), start, perf_counter()))

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def count(self, name: str, amount: float) -> None:
        self.work[name] += amount

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


# corpus


def corpus_inputs(root, seed: int, pass_index: int):
    fixtures = root / "src" / "basecat" / "fixtures"
    controls = {
        name: (fixtures / f"negative_{name}.bcat").read_text()
        for name in ("missing_lift", "noncartesian", "assoc")
    }
    return gen.corpus_seeds(seed, pass_index), controls


def corpus_pass(rec: Recorder, bc, inputs) -> None:
    from basecat.corpus import build_corpus
    from basecat.report import PASS, SKIP
    from basecat.suites import SUITES

    seeds, controls = inputs
    rec.check(tuple(SUITES) == SUITE_ORDER, f"suite order is {tuple(SUITES)}")
    for s in seeds:
        with rec.group("seed", s):
            corpus = rec.task("corpus.build_corpus", build_corpus, seed=s)
            reports = [rec.task(f"suites.{name}", SUITES[name], corpus) for name in SUITE_ORDER]
            combined = bc.Report("verify all", [c for r in reports for c in r.claims])
            text = rec.task("report.render", combined.render, "machine")
            bad = [c.claim_id for c in combined.claims if c.status not in (PASS, SKIP)]
            rec.check(not bad, f"seed {s}: claims not passed: {bad[:3]}")
            rec.check(text.count("\n") == len(combined.claims), f"seed {s}: one line per claim")
            if s == 7:
                digest = hashlib.sha256(text.encode()).hexdigest()
                rec.check(
                    digest == SEED7_SHA256 and len(combined.claims) == SEED7_CLAIMS,
                    f"seed 7: sha256 {digest} with {len(combined.claims)} claims",
                )
    with rec.group("controls", "negative"):
        _negative_controls(rec, bc, controls)


def _parse(rec: Recorder, dsl, text: str, name: str):
    rec.count("parse_bytes", len(text.encode()))
    return rec.task("dsl.parse", dsl.parse, text, name)


def _negative_controls(rec: Recorder, bc, controls: dict[str, str]) -> None:
    from basecat import dsl
    from basecat.errors import AssociativityViolation
    from basecat.fibration import CounterexampleCartesian

    doc = _parse(rec, dsl, controls["missing_lift"], "negative_missing_lift.bcat")
    env = rec.task("dsl.elaborate", dsl.elaborate, doc)
    got = rec.task(
        "fibration.check_fibration", bc.check_fibration, bc.FunctorOver(env.functors["partialTotal"])
    )
    rec.check(
        isinstance(got, bc.MissingLift) and (got.u, got.obj) == ("f", "*"),
        f"negative_missing_lift: {got!r}",
    )

    doc = _parse(rec, dsl, controls["noncartesian"], "negative_noncartesian.bcat")
    env = rec.task("dsl.elaborate", dsl.elaborate, doc)
    got = rec.task(
        "fibration.is_cartesian", bc.is_cartesian, bc.FunctorOver(env.functors["twinProj"]), "f1"
    )
    rec.check(
        isinstance(got, CounterexampleCartesian) and got.mediating_count == 0,
        f"negative_noncartesian: {got!r}",
    )

    doc = _parse(rec, dsl, controls["assoc"], "negative_assoc.bcat")
    try:
        rec.task("dsl.elaborate", dsl.elaborate, doc)
        rec.check(False, "negative_assoc elaborated")
    except AssociativityViolation as exc:
        decl = doc.declarations[0]
        table = {(g, f): h for g, f, h in decl.compose}
        for name in [a for a, _, _ in decl.arrows] + ["id_*"]:
            table.setdefault(("id_*", name), name)
            table.setdefault((name, "id_*"), name)
        h, g, f = exc.h, exc.g, exc.f
        rec.check(
            table[(h, table[(g, f)])] != table[(table[(h, g)], f)],
            f"negative_assoc: ({h}, {g}, {f}) is associative",
        )


# ladder


def _validate(rec: Recorder, bc, p: gen.Pres):
    cat = rec.task(
        "core.validate_category", bc.validate_category, p.name, p.objects, p.arrows, p.table()
    )
    pairs, triples = gen.work_counts(p)
    rec.count("composites", pairs)
    rec.count("triples", triples)
    rec.check(
        len(cat.objects) == len(p.objects)
        and len(cat.arrows) == len(p.objects) + len(p.arrows)
        and len(cat.compose) == pairs,
        f"{p.name}: validated sizes",
    )
    return cat


def _witness_ok(w, c, d) -> bool:
    """A witness maps objects bijectively and preserves every composite."""
    f = w.forward
    if f.source is not c or f.target is not d:
        return False
    if sorted(f.obj_map.values()) != sorted(d.objects):
        return False
    return all(f.mor_map[h] == d.compose[(f.mor_map[g], f.mor_map[k])] for (g, k), h in c.compose.items())


def _iso(rec: Recorder, bc, c, d, isomorphic: bool) -> None:
    got = rec.task("iso.find_isomorphism", bc.find_isomorphism, c, d)
    rec.searches += 1
    if isinstance(got, bc.BudgetExhausted):
        rec.undecided += 1
        rec.count("iso_nodes", got.nodes)
        rec.count("iso_undecided_s", rec.durations[-1])
    elif isinstance(got, bc.NotIsomorphic):
        rec.check(not isomorphic, f"{c.name} ~ {d.name}: rejected an isomorphic pair")
    else:
        rec.check(isomorphic and _witness_ok(got, c, d), f"{c.name} ~ {d.name}: bad witness")


def _constructed(rec: Recorder, key: str, func, arg, objects: int, arrows: int, composites: int):
    built = rec.task(key, func, arg)
    rec.count("constructed_composites", composites)
    rec.count("constructed_s", rec.durations[-1])
    rec.check(
        len(built.cat.objects) == objects and len(built.cat.arrows) == arrows,
        f"{built.cat.name}: {len(built.cat.objects)} objects, {len(built.cat.arrows)} arrows",
    )
    return built


def _fibration_checks(rec: Recorder, bc, p, lifts: int) -> None:
    cl = rec.task("fibration.check_fibration", bc.check_fibration, p)
    ok = isinstance(cl, bc.Cleavage) and len(cl.lift) == lifts
    rec.check(ok, f"{p.total.name}: cleavage {cl!r:.80}")
    if ok:
        rec.count("lifts", lifts)
        rec.count("check_fibration_s", rec.durations[-1])
    op = rec.task("fibration.check_opfibration", bc.check_opfibration, p)
    rec.check(
        isinstance(op, bc.OpCleavage) and len(op.lift) == lifts,
        f"{p.total.name}: opcleavage {op!r:.80}",
    )
    if ok:
        rec.check(rec.task("fibration.check_split", bc.check_split, p, cl) is True, f"{p.total.name}: split")
    if isinstance(op, bc.OpCleavage):
        rec.check(
            rec.task("fibration.check_split", bc.check_split_op, p, op) is True,
            f"{p.total.name}: split op",
        )


def ladder_pass(rec: Recorder, bc, ladder: gen.Ladder) -> None:
    from basecat.sets import FinFn, FinSetObj

    for p in ladder.validate:
        with rec.group("rung", f"validate/{p.name}"):
            _validate(rec, bc, p)

    for p, q in ladder.chains:
        with rec.group("rung", f"chain/{p.name}"):
            _iso(rec, bc, _validate(rec, bc, p), _validate(rec, bc, q), True)

    for r in ladder.groupoids:
        with rec.group("rung", f"groupoid/{r.n}"):
            n = r.n
            group = _validate(rec, bc, r.group)
            carrier = FinSetObj(f"set{n}", r.elements)
            phi = {g: FinFn(carrier, carrier, dict(m)) for g, m in r.phi}
            act = rec.task("constructions.validate_group_action", bc.validate_group_action, group, carrier, phi)
            tg = _constructed(rec, "constructions.transformation_groupoid", bc.transformation_groupoid, act, n, n * n, n**3)
            p = bc.FunctorOver(tg.projection)
            _fibration_checks(rec, bc, p, n * n)
            for lemma in (bc.property_cartesian_compose, bc.property_cartesian_over_iso):
                rec.check(rec.task("fibration.closure", lemma, p) is True, f"TG{n}: {lemma.__name__}")
            _iso(rec, bc, tg.cat, _validate(rec, bc, r.relabelled), True)

    for r in ladder.families:
        with rec.group("rung", f"family/{r.base.name}x{r.fibre.name}"):
            _family(rec, bc, r)

    for r in ladder.isos:
        with rec.group("rung", f"iso/{r.kind}/{r.left.name}"):
            _iso(rec, bc, _validate(rec, bc, r.left), _validate(rec, bc, r.right), r.isomorphic)

    for i, r in enumerate(ladder.pullbacks):
        with rec.group("rung", f"pullback/{i}"):
            a, b, c = (FinSetObj(nm, els) for nm, els in (("A", r.a), ("B", r.b), ("C", r.c)))
            square = rec.task("sets.pullback_finset", bc.pullback_finset, FinFn(a, c, dict(r.f)), FinFn(b, c, dict(r.g)))
            legs = {(square.p1(e), square.p2(e)) for e in square.apex.elements}
            f, g = dict(r.f), dict(r.g)
            rec.check(
                len(legs) == len(square.apex.elements) == r.expected_size()
                and all(f[x] == g[y] for x, y in legs),
                f"pullback {i}: apex",
            )
            got = rec.task("sets.verify_pullback_universal", bc.verify_pullback_universal, square, gen.PROBE)
            rec.check(got is True, f"pullback {i}: {got!r:.80}")
            rec.count("cones", sum((len(r.a) * len(r.b)) ** k for k in range(gen.PROBE + 1)))
            rec.count("verify_pullback_s", rec.durations[-1])

    with rec.group("rung", "negative"):
        _negative(rec, bc, ladder.negative)


def _family(rec: Recorder, bc, r: gen.FamilyRung) -> None:
    base = _validate(rec, bc, r.base)
    fibre = _validate(rec, bc, r.fibre)
    ident = rec.task(
        "core.validate_functor", bc.validate_functor, "idF", fibre, fibre,
        {o: o for o in r.fibre.objects}, {a: a for a, _, _ in r.fibre.arrows},
    )
    fam = rec.task(
        "family.validate_family", bc.validate_family, base,
        {o: fibre for o in r.base.objects}, {a: ident for a, _, _ in r.base.arrows},
    )
    n, m = len(r.base.objects), len(r.fibre.objects)
    arrows_b = n + len(r.base.arrows)
    composites = gen.work_counts(r.base)[0] * gen.work_counts(r.fibre)[0]
    total = _constructed(
        rec, "constructions.grothendieck_strict", bc.grothendieck_strict, fam,
        n * m, arrows_b * (m + len(r.fibre.arrows)), composites,
    )
    p = bc.FunctorOver(total.projection)
    _fibration_checks(rec, bc, p, m * arrows_b)
    for a in total.cat.arrows:
        h, f = rec.task("fibration.factor_vertical_cartesian", bc.factor_vertical_cartesian, p, total.cleavage, a.name)
        rec.check(
            total.cat.compose[(f, h)] == a.name and p.is_vertical(h),
            f"{total.cat.name}: factorization of {a.name}",
        )
    recovered = rec.task(
        "fibration.recover_indexed", bc.recover_indexed, p, total.cleavage,
        total.object_labels, total.arrow_labels,
    )
    rec.check(
        sorted(recovered.fibre) == sorted(r.base.objects)
        and all(len(c.objects) == m for c in recovered.fibre.values()),
        f"{total.cat.name}: recovered fibres",
    )
    again = _constructed(
        rec, "constructions.grothendieck_strict", bc.grothendieck_strict, recovered,
        n * m, len(total.cat.arrows), composites,
    )
    rec.check(
        rec.task("core.same_presentation", bc.same_presentation, again.cat, total.cat) is True,
        f"{total.cat.name}: round trip",
    )


def _negative(rec: Recorder, bc, r: gen.NegativeRung) -> None:
    whole = _validate(rec, bc, r.whole)
    part = _validate(rec, bc, r.part)
    obj_map = dict(r.obj_map)
    inclusion = rec.task(
        "core.validate_functor", bc.validate_functor, "incl", part, whole, obj_map, dict(r.mor_map)
    )
    p = bc.FunctorOver(inclusion)
    hit = set(obj_map.values())
    got = rec.task("fibration.check_fibration", bc.check_fibration, p)
    rec.check(
        isinstance(got, bc.MissingLift)
        and whole.dom(got.u) not in hit
        and obj_map[got.obj] == whole.cod(got.u),
        f"evens in chain8: {got!r:.80}",
    )
    got = rec.task("fibration.check_opfibration", bc.check_opfibration, p)
    rec.check(
        isinstance(got, bc.MissingOpLift)
        and whole.cod(got.u) not in hit
        and obj_map[got.obj] == whole.dom(got.u),
        f"evens in chain8 (op): {got!r:.80}",
    )


# text


def text_pass(rec: Recorder, bc, inputs: gen.TextInputs, pin_digest: bool) -> None:
    from basecat import dsl
    from basecat.dot import export_dot
    from basecat.errors import BasecatError, ParseError

    for doc in inputs.valid:
        with rec.group("document", doc.name):
            parsed = _parse(rec, dsl, doc.text, doc.name)
            env = rec.task("dsl.elaborate", dsl.elaborate, parsed)
            for name, objects, arrows in doc.counts:
                cat = env.categories[name]
                rec.check(
                    (len(cat.objects), len(cat.arrows)) == (objects, arrows),
                    f"{doc.name}: sizes of {name}",
                )
            printed = rec.task("dsl.format_document", dsl.format_document, parsed)
            again = _parse(rec, dsl, printed, doc.name)
            rec.check(again == parsed, f"{doc.name}: print-reparse round trip")
            if doc.family:
                family = env.families[doc.family]
                target = rec.task("constructions.grothendieck_strict", bc.grothendieck_strict, family)
                cat, clusters = target.cat, len(family.base.objects)
            else:
                target = cat = env.categories[doc.principal]
                clusters = 0
            edges = sum(1 for a in cat.arrows if not cat.is_identity(a.name))
            for by_fibre in (False, True):
                out = rec.task("dot.export_dot", export_dot, target, False, by_fibre)
                rec.count("dot_bytes", len(out.encode()))
                rec.check(
                    out.count('" -> "') == edges
                    and out.count("subgraph cluster_") == (clusters if by_fibre else 0),
                    f"{doc.name}: DOT edges and clusters",
                )

    digest = hashlib.sha256()
    for i, c in enumerate(inputs.corrupt):
        with rec.group("document", f"corrupt/{i}"):
            try:
                parsed = rec.task("dsl.parse_error", dsl.parse, c.text, "core.bcat")
                rec.task("dsl.elaborate", dsl.elaborate, parsed)
                outcome = "ok"
            except ParseError as exc:
                lines = c.text.splitlines() or [""]
                s = exc.span
                inside = 1 <= s.line <= len(lines) and 1 <= s.column <= len(lines[s.line - 1]) + 1
                rec.check(inside, f"corrupt {i}: span {s} outside its text")
                outcome = f"{type(exc).__name__}:{s.line}:{s.column}:{s.length}"
            except BasecatError as exc:
                outcome = type(exc).__name__
        rec.count("corrupt_inputs", 1)
        digest.update(f"{i}\t{c.kind}\t{outcome}\n".encode())
    if pin_digest:
        rec.check(digest.hexdigest() == CORRUPT_DIGEST, f"corrupt-mix digest {digest.hexdigest()}")
