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
from .core import FinCat
from .corpus import build_corpus
from .dot import export_dot
from .dsl import (
    Env,
    decl_of_category,
    elaborate,
    elaborate_declaration,
    format_declaration,
    parse,
)
from .errors import BasecatError, ParseError, ValidationError
from .fibration import (
    Cleavage,
    FunctorOver,
    OpCleavage,
    check_fibration,
    check_opfibration,
    check_split,
    check_split_op,
    is_cartesian,
)
from .iso import DEFAULT_BUDGET, find_isomorphism
from .report import Report
from .suites import SUITES, run_suite

CONSTRUCT_KINDS = (
    "graph",
    "concrete-graph",
    "left",
    "right",
    "concrete-left",
    "concrete-right",
    "selfdual",
    "grothendieck",
    "trans-groupoid",
)


def _read(path: str) -> str:
    """The text of a ``.bcat`` file; a file that cannot be read as UTF-8
    text is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise UsageError(str(exc)) from None


def _load(path: str, allow_unfaithful: bool = False) -> Env:
    return elaborate(parse(_read(path), path), allow_unfaithful)


def _construct(kind: str, names: list[str], env: Env) -> cons.ConstructedCategory:
    def functor(name: str):
        if name not in env.functors:
            raise ValidationError(f"no functor named {name!r}")
        return env.functors[name]

    def concrete(name: str):
        if name not in env.concretes:
            raise ValidationError(f"no concrete structure named {name!r}")
        return env.concretes[name]

    if kind == "graph":
        return cons.graph_category(functor(names[0]))
    if kind == "concrete-graph":
        return cons.concrete_graph_category(functor(names[0]), concrete(names[1]))
    if kind == "left":
        return cons.abstract_left_action(functor(names[0]))
    if kind == "right":
        return cons.abstract_right_action(functor(names[0]))
    if kind == "concrete-left":
        return cons.concrete_left_action(functor(names[0]), concrete(names[1]))
    if kind == "concrete-right":
        return cons.concrete_right_action(functor(names[0]), concrete(names[1]))
    if kind == "selfdual":
        fun = functor(names[0])
        witness = cons.inverse_witness(fun.source)
        fbar = cons.contravariant_via_witness(fun, witness)
        structure = concrete(names[1]) if len(names) > 1 else None
        return cons.right_action_selfdual(fbar, witness, concrete=structure)
    if kind == "grothendieck":
        if names[0] not in env.families:
            raise ValidationError(f"no indexed family named {names[0]!r}")
        return cons.grothendieck_strict(env.families[names[0]])
    if kind == "trans-groupoid":
        if names[0] not in env.actions:
            raise ValidationError(f"no action named {names[0]!r}")
        return cons.transformation_groupoid(env.actions[names[0]])
    raise ValidationError(f"unknown construction kind {kind!r}")


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
        doc = parse(_read(path), path)
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


class UsageError(Exception):
    pass


def cmd_check(args) -> Report:
    needed = 2 if args.kind in ("iso", "cartesian") else 1
    if len(args.args) < needed:
        raise UsageError(f"check {args.kind} takes {needed} arguments")
    report = Report(f"check {args.kind}")
    env = _load(args.file, args.allow_unfaithful)
    if args.kind == "iso":
        for name in args.args[:2]:
            if name not in env.categories:
                raise ValidationError(f"no category named {name!r}")
        c, d = (env.categories[n] for n in args.args[:2])
        result = find_isomorphism(c, d, args.budget)
        from .core import IsoWitness

        if isinstance(result, IsoWitness):
            detail = "objects: " + ", ".join(
                f"{k}->{v}" for k, v in result.forward.obj_map.items()
            )
            report.add(f"check:iso:{args.args[0]}~{args.args[1]}", True, detail)
        else:
            report.add(f"check:iso:{args.args[0]}~{args.args[1]}", False, str(result))
        return report

    over, built = _resolve_over(args.args[0], env)
    claim = f"check:{args.kind}:{args.args[0]}"
    if args.kind == "fibration":
        result = check_fibration(over)
        ok = isinstance(result, Cleavage)
        report.add(claim, ok, f"lifts={len(result.lift)}" if ok else str(result))
    elif args.kind == "opfibration":
        result = check_opfibration(over)
        ok = isinstance(result, OpCleavage)
        report.add(claim, ok, f"lifts={len(result.lift)}" if ok else str(result))
    elif args.kind == "cartesian":
        morphism = args.args[1]
        result = is_cartesian(over, morphism)
        report.add(
            f"{claim}:{morphism}",
            result is True,
            "" if result is True else str(result),
        )
    elif args.kind == "split":
        checked = False
        ok = True
        detail = []
        cleavage = built.cleavage if built else None
        if cleavage is None:
            found = check_fibration(over)
            cleavage = found if isinstance(found, Cleavage) else None
        if cleavage is not None:
            verdict = check_split(over, cleavage)
            checked = True
            ok = ok and verdict is True
            detail.append("cleavage" if verdict is True else str(verdict))
        if built is not None and built.opcleavage is not None:
            verdict = check_split_op(over, built.opcleavage)
            checked = True
            ok = ok and verdict is True
            detail.append("opcleavage" if verdict is True else str(verdict))
        if not checked:
            report.add(claim, False, "no cleavage available")
        else:
            report.add(claim, ok, "; ".join(detail))
    else:
        raise ValidationError(f"unknown check kind {args.kind!r}")
    return report


def cmd_verify(args) -> Report:
    directory = Path(args.corpus) if args.corpus else None
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
    construct.add_argument("kind", choices=CONSTRUCT_KINDS)
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
    except (FileNotFoundError, UsageError) as exc:
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
