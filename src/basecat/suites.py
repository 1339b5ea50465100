"""Theorem suites over the corpus: every claim is an exhaustive check at
desk scale, reported one line per instance."""

from __future__ import annotations

from .constructions import (
    ConstructedCategory,
    concrete_graph_category,
    graph_category,
    grothendieck_strict,
    transformation_groupoid,
    verify_main_prop,
    verify_prop4,
    abstract_left_action,
    abstract_right_action,
    concrete_left_action,
    concrete_right_action,
)
from .core import normalize, opposite, same_presentation
from .corpus import Corpus
from .dsl import decl_of_category, format_declaration
from .errors import BasecatError
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
from .report import Report


def suite_prop2(corpus: Corpus) -> Report:
    """Graph projections are split fibrations and split opfibrations."""
    report = Report("verify prop2")
    for fun in corpus.functors:
        built = graph_category(fun)
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
        built = concrete_graph_category(fun, concrete)
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
            groupoid = verify_prop4(act).forward.source
            count_ok = len(groupoid.arrows) == size
            report.add(f"prop4:{name}:witness", True, f"morphisms={len(groupoid.arrows)}")
            report.add(f"prop4:{name}:count", count_ok, f"expected {size}")
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
        sub = verify_main_prop(fun, concrete=concrete, self_dual=witness)
        for claim in sub.claims:
            report.claims.append(
                type(claim)(f"main:{fun.name}:{claim.claim_id}", claim.status, claim.detail)
            )
    return report


def _printed(cat) -> str:
    return format_declaration(decl_of_category(normalize(cat, name="cmp")))


def suite_duality(corpus: Corpus) -> Report:
    """Right actions are opposite to left actions, byte for byte."""
    report = Report("verify duality")
    for fun in corpus.functors:
        lhs = _printed(opposite(abstract_right_action(fun).cat))
        rhs = _printed(abstract_left_action(fun).cat)
        report.add(f"duality:{fun.name}:abstract", lhs == rhs)
    for fun, concrete in corpus.concrete_pairs:
        lhs = _printed(opposite(concrete_right_action(fun, concrete).cat))
        rhs = _printed(concrete_left_action(fun, concrete).cat)
        report.add(f"duality:{fun.name}:concrete", lhs == rhs)
    return report


def _corpus_fibrations(
    corpus: Corpus, totals: list[ConstructedCategory]
) -> list[tuple[str, ConstructedCategory]]:
    out = []
    for fun in corpus.functors:
        out.append((f"graph_{fun.name}", graph_category(fun)))
    for fam_index, total in enumerate(totals):
        out.append((f"total{fam_index}", total))
    for act in corpus.actions[:4]:
        out.append((f"tg_{act.group.name}", transformation_groupoid(act)))
    return out


def suite_appendix_c(corpus: Corpus) -> Report:
    """Factorization, closure and iso-lifting lemmas, plus the strict
    round trip between split fibrations and indexed families."""
    report = Report("verify appendixC")
    totals = [grothendieck_strict(fam) for fam in corpus.families]
    for name, built in _corpus_fibrations(corpus, totals):
        p = built.over()
        report.add(f"appendixC:{name}:cartesian-compose", property_cartesian_compose(p))
        report.add(f"appendixC:{name}:cartesian-over-iso", property_cartesian_over_iso(p))
        cleavage = find_cleavage(p, built.cleavage)
        if cleavage is None:
            report.skip(f"appendixC:{name}:factorization", "not a fibration")
            continue
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
        report.add(f"appendixC:{name}:factorization", ok, detail)

    for index, total in enumerate(totals):
        recovered = recover_indexed(
            total.over(), total.cleavage, total.object_labels, total.arrow_labels
        )
        again = grothendieck_strict(recovered)
        report.add(
            f"appendixC:roundtrip{index}",
            same_presentation(again.cat, total.cat),
        )
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
