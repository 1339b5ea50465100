"""Theorem suites over the corpus: every claim is an exhaustive check at
desk scale, reported one line per instance.

Each claim is decided by the one function that checks it. What more
than one suite reads (the graphs, left actions, concrete graphs,
transformation groupoids, inverse witnesses and the concrete duality
verdict) is made through the corpus (``Corpus._built``), once per
corpus; the theorem checks take ``_built`` as their ``build`` hook.
Everything else a check builds goes once it is done."""

from __future__ import annotations

from .constructions import (
    ConstructedCategory,
    _concrete_right_erases_to,
    _opposite_erases_to,
    abstract_left_action,
    abstract_right_action,
    concrete_graph_category,
    concrete_left_action,
    graph_category,
    grothendieck_strict,
    transformation_groupoid,
    verify_main_prop,
    verify_prop4,
)
from .corpus import Corpus
from .errors import BasecatError
from .family import IndexedFamily
from .fibration import (
    FunctorOver,
    check_fibration,
    check_opfibration,
    check_split,
    check_split_op,
    factor_vertical_cartesian,
    property_cartesian_compose,
    property_cartesian_over_iso,
    recover_indexed,
)
from .report import Claim, Report


def _add_under(report: Report, prefix: str, sub: Report) -> None:
    """Add the claims of ``sub`` to ``report``, each id under ``prefix``."""
    report.claims.extend(Claim(prefix + c.claim_id, c.status, c.detail) for c in sub.claims)


def suite_prop2(corpus: Corpus) -> Report:
    """Graph projections are split fibrations and split opfibrations."""
    report = Report("verify prop2")
    for fun in corpus.functors:
        built = corpus._built(graph_category, fun)
        p = built.over()
        report.add(f"prop2:{fun.name}:fibration", check_fibration(p))
        report.add(f"prop2:{fun.name}:opfibration", check_opfibration(p))
        report.add(f"prop2:{fun.name}:split", check_split(p, built.cleavage))
        report.add(f"prop2:{fun.name}:split-op", check_split_op(p, built.opcleavage))
    return report


def suite_prop3(corpus: Corpus) -> Report:
    """Concrete graph projections are split opfibrations."""
    report = Report("verify prop3")
    for fun, concrete in corpus.concrete_pairs:
        built = corpus._built(concrete_graph_category, fun, concrete)
        p = built.over()
        report.add(f"prop3:{fun.name}:opfibration", check_opfibration(p))
        report.add(f"prop3:{fun.name}:split-op", check_split_op(p, built.opcleavage))
    return report


def suite_prop4(corpus: Corpus) -> Report:
    """Transformation groupoids are base structured categories."""
    report = Report("verify prop4")
    for act in corpus.actions:
        name = act.group.name
        size = len(act.group.arrows) * len(act.carrier.elements)
        try:
            groupoid = verify_prop4(act, corpus._built).forward.source
            report.add(f"prop4:{name}:witness", True, f"morphisms={len(groupoid.arrows)}")
            report.add(f"prop4:{name}:count", len(groupoid.arrows) == size, f"expected {size}")
        except BasecatError as exc:
            report.add(f"prop4:{name}:witness", False, str(exc))
    return report


def suite_main(corpus: Corpus) -> Report:
    """The full isomorphism web for every corpus functor."""
    report = Report("verify main")
    seen_concrete = {id(f) for f, _ in corpus.concrete_pairs}
    abstract_only = [(f, None) for f in corpus.functors if id(f) not in seen_concrete]
    for fun, concrete in corpus.concrete_pairs + abstract_only:
        witness = corpus.selfdual_witness(fun.source)
        web = verify_main_prop(fun, concrete, witness, corpus._built)
        _add_under(report, f"main:{fun.name}:", web)
    return report


def suite_duality(corpus: Corpus) -> Report:
    """Right actions are opposite to left actions on the nose. The
    concrete verdict is the one ``verify_main_prop`` reads, made once."""
    report = Report("verify duality")
    built = corpus._built
    for fun in corpus.functors:
        verdict = _opposite_erases_to(abstract_right_action(fun), built(abstract_left_action, fun))
        report.add(f"duality:{fun.name}:abstract", verdict, "" if verdict else str(verdict))
    for fun, concrete in corpus.concrete_pairs:
        left = built(concrete_left_action, fun, concrete)
        verdict = built(_concrete_right_erases_to, left, fun, concrete)
        report.add(f"duality:{fun.name}:concrete", verdict, "" if verdict else str(verdict))
    return report


def _lemmas(built: ConstructedCategory, p: FunctorOver) -> Report:
    """Cartesian closure and vertical-cartesian factorization for the
    projection ``p`` of ``built``, through its cleavage, each claim named
    by its lemma."""
    report = Report("lemmas")
    report.add("cartesian-compose", property_cartesian_compose(p))
    report.add("cartesian-over-iso", property_cartesian_over_iso(p))
    ok = True
    detail = ""
    for a in built.cat.arrows:
        try:
            factor_vertical_cartesian(p, built.cleavage, a.name)
        except BasecatError as exc:
            ok = False
            detail = f"{a.name}: {exc}"
            break
    report.add("factorization", ok, detail)
    return report


def _family_claims(fam: IndexedFamily) -> tuple[Report, bool]:
    """The lemmas for the Grothendieck total of ``fam``, and whether the
    family read back off its split cleavage rebuilds the same total, id
    for id."""
    total = grothendieck_strict(fam)
    p = total.over()
    recovered = recover_indexed(p, total.cleavage, total.object_labels, total.arrow_labels)
    return _lemmas(total, p), grothendieck_strict(recovered).cat == total.cat


def suite_appendix_c(corpus: Corpus) -> Report:
    """Factorization, closure and iso-lifting lemmas, plus the strict
    round trip between split fibrations and indexed families."""
    report = Report("verify appendixC")
    families = [_family_claims(fam) for fam in corpus.families]
    for fun in corpus.functors:
        graph = corpus._built(graph_category, fun)
        _add_under(report, f"appendixC:graph_{fun.name}:", _lemmas(graph, graph.over()))
    for index, (lemmas, _) in enumerate(families):
        _add_under(report, f"appendixC:total{index}:", lemmas)
    for act in corpus.actions[:4]:
        built = corpus._built(transformation_groupoid, act)
        _add_under(report, f"appendixC:tg_{act.group.name}:", _lemmas(built, built.over()))
    for index, (_, round_trip) in enumerate(families):
        report.add(f"appendixC:roundtrip{index}", round_trip)
    return report


SUITES = {
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "main": suite_main,
    "duality": suite_duality,
    "appendixC": suite_appendix_c,
}


def run_suite(name: str, corpus: Corpus) -> Report:
    if name == "all":
        report = Report("verify all")
        for suite in SUITES.values():
            report.extend(suite(corpus))
        return report
    return SUITES[name](corpus)
