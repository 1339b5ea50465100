"""Command-line front-end: validate .bcat files, run constructions, check
fibration structure, run the theorem suites, export diagrams.

Exit codes are a stable contract: 0 all claims passed, 1 a claim or
validation failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import constructions as cons
from .core import FinCat, FinFunctor
from .corpus import build_corpus, fixture_paths
from .dot import export_dot
from .dsl import (
    Env,
    decl_of_category,
    elaborate,
    elaborate_declaration,
    format_declaration,
    parse,
    read_source,
)
from .errors import BasecatError, ParseError, UsageError, ValidationError
from .fibration import (
    FunctorOver,
    check_fibration,
    check_opfibration,
    check_split,
    check_split_op,
    is_cartesian,
)
from .iso import DEFAULT_BUDGET, find_isomorphism
from .report import Report
from .sets import ConcreteStructure
from .suites import SUITES, run_suite


def _load(path: str, allow_unfaithful: bool = False) -> Env:
    return elaborate(parse(read_source(path), path), allow_unfaithful)


def _selfdual(fun: FinFunctor, concrete: ConcreteStructure | None = None):
    witness = cons.inverse_witness(fun.source)
    fbar = cons.contravariant_via_witness(fun, witness)
    return cons.right_action_selfdual(fbar, witness, concrete)


# What a name given to a construction refers to: the declarations it is
# looked up in, and the noun an unknown name is reported with.
FUNCTOR = ("functors", "functor")
CONCRETE = ("concretes", "concrete structure")

# Each construction kind: its builder, the names it takes, and how many of
# them it needs at least (the rest may be left off).
CONSTRUCTIONS = {
    "graph": (cons.graph_category, (FUNCTOR,), 1),
    "concrete-graph": (cons.concrete_graph_category, (FUNCTOR, CONCRETE), 2),
    "left": (cons.abstract_left_action, (FUNCTOR,), 1),
    "right": (cons.abstract_right_action, (FUNCTOR,), 1),
    "concrete-left": (cons.concrete_left_action, (FUNCTOR, CONCRETE), 2),
    "concrete-right": (cons.concrete_right_action, (FUNCTOR, CONCRETE), 2),
    "selfdual": (_selfdual, (FUNCTOR, CONCRETE), 1),
    "grothendieck": (cons.grothendieck_strict, (("families", "indexed family"),), 1),
    "trans-groupoid": (cons.transformation_groupoid, (("actions", "action"),), 1),
}


def _construct(kind: str, names: list[str], env: Env) -> cons.ConstructedCategory:
    if kind not in CONSTRUCTIONS:
        raise ValidationError(f"unknown construction kind {kind!r}")
    build, takes, least = CONSTRUCTIONS[kind]
    if not least <= len(names) <= len(takes):
        many = f"{least} or {len(takes)}" if least < len(takes) else str(least)
        raise UsageError(f"{kind} takes {many} name{'s' * (len(takes) > 1)}, got {len(names)}")
    args = []
    for name, (table, noun) in zip(names, takes):
        declared = getattr(env, table)
        if name not in declared:
            raise ValidationError(f"no {noun} named {name!r}")
        args.append(declared[name])
    return build(*args)


def _resolve_over(expr: str, env: Env) -> tuple[FunctorOver, cons.ConstructedCategory | None]:
    """``NAME`` for a declared functor, or ``kind(name,...)`` inline."""
    expr = expr.strip()
    if "(" in expr and expr.endswith(")"):
        kind, inner = expr.split("(", 1)
        names = [n.strip() for n in inner[:-1].split(",") if n.strip()]
        built = _construct(kind.strip(), names, env)
        return built.over(), built
    if expr in env.functors:
        return FunctorOver(env.functors[expr]), None
    raise ValidationError(f"cannot resolve {expr!r} to a functor")


def cmd_validate(args) -> Report:
    report = Report("validate")
    for path in args.files:
        doc = parse(read_source(path), path)
        env = Env()
        for decl in doc.declarations:
            kind = type(decl).__name__.removesuffix("Decl").lower()
            claim = f"validate:{kind}:{decl.name}"
            try:
                elaborate_declaration(decl, env, args.allow_unfaithful)
                report.add(claim, True)
            except BasecatError as exc:
                report.add(claim, False, str(exc))
    return report


def cmd_construct(args) -> Report:
    report = Report(f"construct {args.kind}")
    env = _load(args.file, args.allow_unfaithful)
    built = _construct(args.kind, args.names, env)
    detail = f"objects={len(built.cat.objects)} morphisms={len(built.cat.arrows)}"
    if args.out:
        Path(args.out).write_text(
            format_declaration(decl_of_category(built.cat)) + "\n"
        )
        detail += f" out={args.out}"
    if args.dot:
        Path(args.dot).write_text(
            export_dot(built, args.show_identities, args.cluster_by_fibre)
        )
        detail += f" dot={args.dot}"
    report.add(f"construct:{args.kind}:{'+'.join(args.names)}", True, detail)
    return report


def cmd_check(args) -> Report:
    needed = 2 if args.kind in ("iso", "cartesian") else 1
    if len(args.args) != needed:
        raise UsageError(
            f"check {args.kind} takes {needed} argument{'s' * (needed > 1)}, got {len(args.args)}"
        )
    report = Report(f"check {args.kind}")
    env = _load(args.file, args.allow_unfaithful)
    # Each verdict comes with what to say when it holds; a refutation says
    # why it does not.
    if args.kind == "iso":
        for name in args.args:
            if name not in env.categories:
                raise ValidationError(f"no category named {name!r}")
        c, d = (env.categories[n] for n in args.args)
        claim = f"check:iso:{args.args[0]}~{args.args[1]}"
        verdicts = [(
            find_isomorphism(c, d, args.budget),
            lambda w: "objects: " + ", ".join(f"{k}->{v}" for k, v in w.forward.obj_map.items()),
        )]
    else:
        over, built = _resolve_over(args.args[0], env)
        claim = f"check:{args.kind}:{args.args[0]}"
        if args.kind in ("fibration", "opfibration"):
            scan = check_fibration if args.kind == "fibration" else check_opfibration
            verdicts = [(scan(over), lambda cleavage: f"lifts={len(cleavage.lift)}")]
        elif args.kind == "cartesian":
            claim += f":{args.args[1]}"
            verdicts = [(is_cartesian(over, args.args[1]), lambda _: "")]
        elif args.kind == "split":
            verdicts = []
            cleavage = (built and built.cleavage) or check_fibration(over)
            if cleavage:
                verdicts.append((check_split(over, cleavage), lambda _: "cleavage"))
            if built and built.opcleavage:
                verdicts.append((check_split_op(over, built.opcleavage), lambda _: "opcleavage"))
        else:
            raise ValidationError(f"unknown check kind {args.kind!r}")
    if not verdicts:
        report.add(claim, False, "no cleavage available")
    else:
        report.add(
            claim,
            all(v for v, _ in verdicts),
            "; ".join(said(v) if v else str(v) for v, said in verdicts),
        )
    return report


def cmd_verify(args) -> Report:
    directory = None
    if args.corpus:
        directory = Path(args.corpus)
        if not directory.exists():
            raise UsageError(f"{directory}: no such corpus directory")
        if not directory.is_dir():
            raise UsageError(f"{directory}: not a directory")
        if not fixture_paths(directory):
            raise UsageError(f"{directory}: no .bcat file to load")
    corpus = build_corpus(seed=args.seed, directory=directory)
    return run_suite(args.suite, corpus)


def cmd_export(args) -> Report:
    report = Report("export")
    env = _load(args.file, args.allow_unfaithful)
    if args.name in env.categories:
        target: FinCat | cons.ConstructedCategory = env.categories[args.name]
    else:
        _, built = _resolve_over(args.name, env)
        if built is None:
            raise ValidationError(f"cannot resolve {args.name!r}")
        target = built
    text = export_dot(target, args.show_identities, args.cluster_by_fibre)
    if args.out:
        Path(args.out).write_text(text)
        report.add(f"export:{args.name}", True, f"out={args.out}")
    else:
        sys.stdout.write(text)
        report.add(f"export:{args.name}", True)
        report.quiet = True  # the DOT text owns stdout
    return report


def _fill_global_defaults(args: argparse.Namespace) -> None:
    # Global flags live on both the top parser and every subparser (so they
    # may appear on either side of the subcommand); unset ones are filled
    # here rather than by argparse defaults, which would clobber values
    # parsed on the other side.
    defaults = {
        "format": "human",
        "seed": 7,
        "allow_unfaithful": False,
    }
    for key, value in defaults.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if hasattr(args, "budget"):
        args.budget = _positive_budget(args.budget, "--budget")
    elif "BASECAT_BUDGET" in os.environ:
        args.budget = _positive_budget(os.environ["BASECAT_BUDGET"], "BASECAT_BUDGET")
    else:
        args.budget = DEFAULT_BUDGET


def _positive_budget(text: str, source: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise UsageError(f"{source} must be a positive integer, got {text!r}")
    return budget


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("human", "machine"))
    common.add_argument("--seed", type=int)
    common.add_argument("--budget")
    common.add_argument("--allow-unfaithful", action="store_true")

    top = argparse.ArgumentParser(
        prog="basecat",
        description="finite category constructions and fibration checking",
        parents=[common],
    )
    sub = top.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="parse and validate .bcat files", parents=[common]
    )
    validate.add_argument("files", nargs="+")
    validate.set_defaults(run=cmd_validate)

    construct = sub.add_parser(
        "construct", help="build a category from declarations", parents=[common]
    )
    construct.add_argument("kind", choices=tuple(CONSTRUCTIONS))
    construct.add_argument("file")
    construct.add_argument("names", nargs="+")
    construct.add_argument("--out")
    construct.add_argument("--dot")
    construct.add_argument("--show-identities", action="store_true")
    construct.add_argument("--cluster-by-fibre", action="store_true")
    construct.set_defaults(run=cmd_construct)

    check = sub.add_parser(
        "check", help="run a fibration or isomorphism check", parents=[common]
    )
    check.add_argument("kind", choices=("fibration", "opfibration", "cartesian", "split", "iso"))
    check.add_argument("file")
    check.add_argument("args", nargs="+")
    check.set_defaults(run=cmd_check)

    verify = sub.add_parser(
        "verify", help="run a theorem suite over the corpus", parents=[common]
    )
    verify.add_argument("suite", choices=tuple(SUITES) + ("all",))
    verify.add_argument("--corpus")
    verify.set_defaults(run=cmd_verify)

    export = sub.add_parser("export", help="render a category to DOT", parents=[common])
    export.add_argument("file")
    export.add_argument("name")
    export.add_argument("--out")
    export.add_argument("--show-identities", action="store_true")
    export.add_argument("--cluster-by-fibre", action="store_true")
    export.set_defaults(run=cmd_export)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _fill_global_defaults(args)
        report = args.run(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (OSError, UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BasecatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if not getattr(report, "quiet", False):
        sys.stdout.write(report.render(args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
