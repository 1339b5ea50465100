"""Theorem suites over the corpus: every claim is an exhaustive check at
desk scale, reported one line per instance.

Constructions that more than one check reads are made through the corpus
(``Corpus._built``), once per corpus. A check that builds something only
it reads is kept by the corpus too, by its claims (``Corpus._checked``
hands it the shared constructions), so what it built goes once it is
done, and a suite run a second time on the same corpus builds nothing."""

from __future__ import annotations

from typing import Callable

from .constructions import (
    ConstructedCategory,
    GroupAction,
    _main_prop,
    _opposite_erases_to,
    _prop4_witness,
    abstract_left_action,
    abstract_right_action,
    concrete_graph_category,
    concrete_left_action,
    concrete_right_action,
    graph_category,
    grothendieck_strict,
    transformation_groupoid,
)
from .core import FinFunctor, same_presentation
from .corpus import Corpus
from .errors import BasecatError
from .family import IndexedFamily
from .fibration import (
    check_fibration,
    check_opfibration,
    check_split,
    check_split_op,
    factor_vertical_cartesian,
    find_cleavage,
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


def _prop4_claims(act: GroupAction, build: Callable) -> Report:
    name = act.group.name
    report = Report(f"prop4 {name}")
    size = len(act.group.arrows) * len(act.carrier.elements)
    try:
        groupoid = _prop4_witness(act, build).forward.source
        count_ok = len(groupoid.arrows) == size
        report.add(f"prop4:{name}:witness", True, f"morphisms={len(groupoid.arrows)}")
        report.add(f"prop4:{name}:count", count_ok, f"expected {size}")
    except BasecatError as exc:
        report.add(f"prop4:{name}:witness", False, str(exc))
    return report


def suite_prop4(corpus: Corpus) -> Report:
    """Transformation groupoids are base structured categories."""
    report = Report("verify prop4")
    for act in corpus.actions:
        report.extend(corpus._checked(_prop4_claims, act))
    return report


def suite_main(corpus: Corpus) -> Report:
    """The full isomorphism web for every corpus functor."""
    report = Report("verify main")
    seen_concrete = {id(f) for f, _ in corpus.concrete_pairs}
    abstract_only = [(f, None) for f in corpus.functors if id(f) not in seen_concrete]
    for fun, concrete in corpus.concrete_pairs + abstract_only:
        witness = corpus.selfdual_witness(fun.source)
        _add_under(report, f"main:{fun.name}:", corpus._checked(_main_prop, fun, concrete, witness))
    return report


def _abstract_duality(fun: FinFunctor, build: Callable) -> bool:
    return _opposite_erases_to(abstract_right_action(fun), build(abstract_left_action, fun))


def suite_duality(corpus: Corpus) -> Report:
    """Right actions are opposite to left actions on the nose. The
    concrete verdict is the one ``verify_main_prop`` reads, made once."""
    report = Report("verify duality")
    built = corpus._built
    for fun in corpus.functors:
        report.add(f"duality:{fun.name}:abstract", corpus._checked(_abstract_duality, fun))
    for fun, concrete in corpus.concrete_pairs:
        right = built(concrete_right_action, fun, concrete)
        left = built(concrete_left_action, fun, concrete)
        report.add(f"duality:{fun.name}:concrete", built(_opposite_erases_to, right, left))
    return report


def _lemmas(built: ConstructedCategory) -> Report:
    """Cartesian closure and vertical-cartesian factorization for one
    projection, each claim named by its lemma."""
    report = Report("lemmas")
    p = built.over()
    report.add("cartesian-compose", property_cartesian_compose(p))
    report.add("cartesian-over-iso", property_cartesian_over_iso(p))
    cleavage = find_cleavage(p, built.cleavage)
    if cleavage is None:
        report.skip("factorization", "not a fibration")
        return report
    ok = True
    detail = ""
    for a in built.cat.arrows:
        try:
            h, f = factor_vertical_cartesian(p, cleavage, a.name)
        except BasecatError as exc:
            ok = False
            detail = f"{a.name}: {exc}"
            break
        if built.cat.compose[(f, h)] != a.name:
            ok = False
            detail = f"{a.name}: factorization does not recompose"
            break
    report.add("factorization", ok, detail)
    return report


def _family_claims(fam: IndexedFamily) -> tuple[Report, bool]:
    """The lemmas for the Grothendieck total of ``fam``, and whether the
    family read back off its split cleavage rebuilds the same total."""
    total = grothendieck_strict(fam)
    recovered = recover_indexed(
        total.over(), total.cleavage, total.object_labels, total.arrow_labels
    )
    return _lemmas(total), same_presentation(grothendieck_strict(recovered).cat, total.cat)


def suite_appendix_c(corpus: Corpus) -> Report:
    """Factorization, closure and iso-lifting lemmas, plus the strict
    round trip between split fibrations and indexed families."""
    report = Report("verify appendixC")
    families = [corpus._built(_family_claims, fam) for fam in corpus.families]
    for fun in corpus.functors:
        _add_under(report, f"appendixC:graph_{fun.name}:", _lemmas(corpus._built(graph_category, fun)))
    for index, (lemmas, _) in enumerate(families):
        _add_under(report, f"appendixC:total{index}:", lemmas)
    for act in corpus.actions[:4]:
        built = corpus._built(transformation_groupoid, act)
        _add_under(report, f"appendixC:tg_{act.group.name}:", _lemmas(built))
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
