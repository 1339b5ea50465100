"""Source hygiene checks read off the syntax tree of each package module."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import basecat

PACKAGE = sorted(Path(basecat.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    """Every name read in the module, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "import os, os.path as osp\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: 'Mapping') -> None:\n"
        "    'Sequence'\n"
    )
    used = _used(tree)
    assert {name for name in _imported(tree) if name not in used} == {"os", "osp", "Sequence"}


def _referenced(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, looks up as an attribute or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unreferenced_private(trees: dict[str, ast.Module]) -> set[str]:
    """``module.name`` of each module-level function or class whose name
    starts with one underscore and that no other top-level statement of any
    module references."""
    statements = [(module, node, _referenced(node)) for module, tree in trees.items() for node in tree.body]
    found = set()
    for module, node, _ in statements:
        if not isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if not any(other is not node and node.name in names for _, other, names in statements):
            found.add(f"{module}.{node.name}")
    return found


def test_every_private_helper_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in PACKAGE}
    assert not _unreferenced_private(trees)


def test_an_unreferenced_private_helper_is_found():
    trees = {
        "a": ast.parse(
            "def _named(): pass\n"
            "def _looked_up(): pass\n"
            "class _Imported: pass\n"
            "def _recursive(): return _recursive()\n"
            "def __dunder__(): pass\n"
            "def public(): pass\n"
            "x = _named\n"
        ),
        "b": ast.parse("import a\nfrom a import _Imported\na._looked_up()\n"),
    }
    assert _unreferenced_private(trees) == {"a._recursive"}


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The innermost function around each reference to ``name``, read as a
    name or an attribute; ``<module>`` outside every function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                found.add(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef) else owner)

    visit(tree, "<module>")
    return found


def test_every_cartesian_verdict_goes_through_the_memo():
    # Inside ``fibration``, only the memo and the two public scans run the
    # cartesian scan, so discrete (op)fibrations are decided in one place.
    path = Path(basecat.__file__).parent / "fibration.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _callers(tree, "_cartesian_scan") <= {"_verdict", "is_cartesian", "is_opcartesian"}


def test_a_cartesian_scan_outside_the_memo_is_found():
    tree = ast.parse(
        "def _verdict(p, f, op): return _cartesian_scan(p, f, op)\n"
        "class FunctorOver:\n"
        "    def cartesian(self): return {a: _cartesian_scan(self, a, False) for a in ()}\n"
        "def _lift_scan(p, op):\n"
        "    scan = fibration._cartesian_scan\n"
        "default = _cartesian_scan\n"
    )
    assert _callers(tree, "_cartesian_scan") == {"_verdict", "cartesian", "_lift_scan", "<module>"}


_VALIDATORS = ("validate_category", "validate_functor", "validate_family")


def _validating_functions(tree: ast.Module) -> set[str]:
    """``function: validator`` for each function that refers to a validator."""
    return {
        f"{owner}: {name}" for name in _VALIDATORS for owner in _callers(tree, name) if owner != "<module>"
    }


def test_fibration_validates_nothing():
    # A split cleavage proves the family read off it, and every value a
    # check reads is validated already, so ``fibration`` builds and checks
    # but never validates.
    path = Path(basecat.__file__).parent / "fibration.py"
    assert not _validating_functions(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def test_a_validator_called_from_a_function_is_found():
    tree = ast.parse(
        "from .core import validate_category\n"
        "def recover(p): return validate_family(p.base, {}, {})\n"
        "class Over:\n"
        "    def fibre(self): return core.validate_functor('f', a, b, {}, {})\n"
        "def build(p): return assemble(p.name, (), (), {})\n"
    )
    assert _validating_functions(tree) == {"recover: validate_family", "fibre: validate_functor"}


def _generator_pickers(trees: dict[str, ast.Module]) -> set[str]:
    """``module.function`` of each reference to ``_generators``."""
    return {f"{module}.{owner}" for module, tree in trees.items() for owner in _callers(tree, "_generators")}


def test_only_the_validator_and_the_index_pick_generators():
    # A category's generators are picked once: ``validate_category`` stores
    # the set it proves associativity on, and ``FinCat._generating`` builds
    # it for any other category; every law decided on generators reads that.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES}
    assert _generator_pickers(trees) == {"core.validate_category", "core._generating"}


def test_a_generator_picker_elsewhere_is_found():
    trees = {
        "core": ast.parse(
            "def validate_category(): return _generators(a, ids, rows)\n"
            "class FinCat:\n"
            "    def _generating(self): return _generators(self.arrows, ids, rows)\n"
        ),
        "family": ast.parse(
            "from .core import _generators\n"
            "def validate_family(base): return core._generators(base.arrows, ids, rows)\n"
        ),
    }
    assert _generator_pickers(trees) == {
        "core.validate_category", "core._generating", "family.validate_family"
    }


def _descriptor_classes(tree: ast.Module) -> set[str]:
    """Each class that defines ``__get__``, which makes it a descriptor."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__get__" for f in node.body)
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_defines_a_descriptor(path):
    # Values derived on first use keep to ``functools.cached_property``.
    found = _descriptor_classes(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not found, f"{path.name}: descriptor classes {found}"


def test_a_descriptor_class_is_found():
    tree = ast.parse(
        "class Lazy:\n"
        "    def __get__(self, obj, owner=None): return self\n"
        "class Plain:\n"
        "    def get(self): pass\n"
        "    class Inner:\n"
        "        def __get__(self, obj, owner=None): pass\n"
    )
    assert _descriptor_classes(tree) == {"Lazy", "Inner"}


def _read_only_constructors(trees: list[ast.Module]) -> set[str]:
    """``Class.method`` for each ``__init__`` or ``__post_init__`` defined
    by ``ReadOnly`` or by a class deriving from it, a base named plainly or
    as an attribute."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    read_only = {"ReadOnly"}
    grown = True
    while grown:
        grown = False
        for node in classes:
            bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
            if node.name not in read_only and bases & read_only:
                read_only.add(node.name)
                grown = True
    return {
        f"{node.name}.{f.name}"
        for node in classes if node.name in read_only
        for f in node.body
        if isinstance(f, ast.FunctionDef) and f.name in ("__init__", "__post_init__")
    }


def test_no_read_only_value_writes_its_own_constructor():
    # ``ReadOnly`` generates each subclass's one constructor from its fields.
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES]
    assert not _read_only_constructors(trees)


def test_a_read_only_constructor_is_found():
    tree = ast.parse(
        "class ReadOnly:\n"
        "    def __post_init__(self): pass\n"
        "class Cat(ReadOnly):\n"
        "    def __init__(self, name): pass\n"
        "class Fun(core.ReadOnly):\n"
        "    def __post_init__(self): pass\n"
        "class Sub(Cat):\n"
        "    def __init__(self, name): pass\n"
        "class Plain:\n"
        "    def __init__(self): pass\n"
        "    def __post_init__(self): pass\n"
        "class Quiet(ReadOnly):\n"
        "    def __repr__(self): return ''\n"
    )
    assert _read_only_constructors([tree]) == {
        "ReadOnly.__post_init__", "Cat.__init__", "Fun.__post_init__", "Sub.__init__"
    }


# Possessive quantifiers and atomic groups, which need Python 3.11; the
# package supports 3.10.
_NEWER_REGEX_SYNTAX = re.compile(r"[*+?}]\+|\(\?>")


def _newer_regex_syntax(pattern: str) -> list[str]:
    """Each possessive quantifier or atomic group in ``pattern``, read with
    escapes and character classes blanked out."""
    plain = re.sub(r"\\.", "e", pattern)
    plain = re.sub(r"\[\^?\]?[^\]]*\]", "c", plain)
    return _NEWER_REGEX_SYNTAX.findall(plain)


def _regex_sources(path: Path):
    """The pattern of every compiled regex a module binds at its top level,
    and every string literal it passes straight to a ``re`` function."""
    module = importlib.import_module(f"basecat.{path.stem}")
    yield from (v.pattern for v in vars(module).values() if isinstance(v, re.Pattern))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_regex_needs_a_newer_python(path):
    found = [(pattern, _newer_regex_syntax(pattern)) for pattern in _regex_sources(path)]
    assert not [f for f in found if f[1]], f"{path.name}: {found}"


def test_newer_regex_syntax_is_found():
    assert _newer_regex_syntax(r"a*+b++c?+d{2}+(?>e)") == ["*+", "++", "?+", "}+", "(?>"]
    assert _newer_regex_syntax(r"\++[*+?]+[^\]+]+(?:x)+(?=y)") == []


# The loops that run once per arrow or per pair read ``FinCat``'s and the
# projection's indexes directly (``_by_name``, ``_homs``, ``_into``,
# ``_identity_names``, ``mor_map``, ``obj_map``), not one accessor call
# per element.
_PER_ARROW_LOOPS = {
    "constructions": {"_category_of_elements", "grothendieck_strict"},
    "fibration": {"recover_indexed", "_split_scan", "_vertical_factors"},
}
_ACCESSORS = {
    "arrow", "dom", "cod", "is_identity", "hom", "arrows_into", "arrows_from", "over", "obj_over", "is_vertical"
}


def _repeated_parts(loop: ast.AST) -> list[ast.AST]:
    """What a loop or comprehension evaluates once per element: all of it
    but the iterable of a ``for`` and of its first generator."""
    if isinstance(loop, ast.For | ast.AsyncFor):
        return [*loop.body, *loop.orelse]
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body, *loop.orelse]
    first, *rest = loop.generators
    exprs = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
    return [*exprs, *first.ifs, *rest]


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _accessor_calls_in_loops(tree: ast.Module, functions: set[str]) -> set[str]:
    """``function: accessor`` for each call of an accessor method inside a
    loop or comprehension of one of the module-level ``functions``; each
    function named must be found."""
    found, seen = set(), set()
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in functions:
            continue
        seen.add(node.name)
        for loop in ast.walk(node):
            if not isinstance(loop, _LOOPS):
                continue
            for part in _repeated_parts(loop):
                for call in ast.walk(part):
                    if isinstance(call, ast.Call) and getattr(call.func, "attr", None) in _ACCESSORS:
                        found.add(f"{node.name}: {call.func.attr}")
    assert seen == functions, f"not found: {functions - seen}"
    return found


@pytest.mark.parametrize("module", sorted(_PER_ARROW_LOOPS))
def test_per_arrow_loops_read_indexes_not_accessors(module):
    path = Path(basecat.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert not _accessor_calls_in_loops(tree, _PER_ARROW_LOOPS[module])


def test_an_accessor_call_in_a_per_arrow_loop_is_found():
    tree = ast.parse(
        "def _misplaced(p, lift):\n"
        "    end = p.total.dom\n"
        "    for u in p.base.arrows_from(x):\n"
        "        for y in p.total.arrows_into(u.cod):\n"
        "            if p.is_vertical(y) or end(y):\n"
        "                return u\n"
        "    while p.over(x):\n"
        "        pass\n"
        "    return [p.total.dom(a) for a in p.total.hom(x, y)], {a: 1 for a in b if cat.is_identity(a)}\n"
        "def elsewhere(p):\n"
        "    for a in p.arrows:\n"
        "        p.dom(a)\n"
    )
    assert _accessor_calls_in_loops(tree, {"_misplaced"}) == {
        "_misplaced: arrows_into", "_misplaced: is_vertical", "_misplaced: over",
        "_misplaced: dom", "_misplaced: is_identity",
    }


# The tokenizer keeps the text each token skips and counts an offset only
# when one is read, so it computes no running sums of match lengths.
_RUNNING_SUMS = {"accumulate", "array"}


def _running_sums(tree: ast.Module, function: str = "_tokenize") -> set[str]:
    """Each call of ``accumulate`` or ``array``, and each ``map(len, ...)``,
    in the module-level ``function``, which must be found."""
    found, seen = set(), False
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name != function:
            continue
        seen = True
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in _RUNNING_SUMS:
                found.add(name)
            elif name == "map" and call.args and getattr(call.args[0], "id", None) == "len":
                found.add("map(len)")
    assert seen, f"not found: {function}"
    return found


def test_the_tokenizer_sums_no_lengths():
    path = Path(basecat.__file__).parent / "dsl.py"
    assert not _running_sums(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def test_running_sums_in_the_tokenizer_are_found():
    # The window loop of ``_tokenize`` when every token's offset was the
    # running sum of the lengths before it.
    tree = ast.parse(
        "def _tokenize(text, filename):\n"
        "    offsets = array('q')\n"
        "    while pos < size:\n"
        "        found = findall(text, pos, cut)\n"
        "        bounds = list(accumulate(map(len, chain.from_iterable(found)), initial=pos))\n"
        "        starts = array.array('q', bounds[1::2])\n"
        "        offsets += starts[i:k]\n"
        "def elsewhere(found):\n"
        "    return list(itertools.accumulate(map(len, found)))\n"
    )
    assert _running_sums(tree) == {"accumulate", "array", "map(len)"}
    assert _running_sums(tree, "elsewhere") == {"accumulate", "map(len)"}
    with pytest.raises(AssertionError, match="not found"):
        _running_sums(tree, "missing")
