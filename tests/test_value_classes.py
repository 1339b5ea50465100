"""The behaviour every dataclass of the package shares, pinned class by class.

Classes are found by introspection: every class of a ``basecat`` module
that ``dataclasses.is_dataclass`` accepts, subclasses that add no field
included. Each is built from a fixed set of values chosen by field type;
a field that holds another value class gets a placeholder (``Stand``)
with a short repr. For every class the test pins ``repr`` and ``str``,
equality against an equal copy, a copy that differs in one field and an
instance of another class, hashing (or the exact ``TypeError`` of an
unhashable class), construction by position, by keyword, with defaults
left out and through ``dataclasses.replace``, which classes refuse
assignment and deletion of a field, and the ``fields()`` each declares.
"""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace
from functools import cache

import pytest

import basecat


class Stand:
    """A placeholder for a value of another class: a short repr, and the
    attributes constructors and templates read off such values."""

    def __init__(self, label: str) -> None:
        self.label = self.name = label
        self.source = self.target = self

    def __repr__(self) -> str:
        return f"<{self.label}>"


@cache
def _stand(label: str) -> Stand:
    return Stand(label)


def _value(field, variant: int = 0):
    """The fixed value of ``field``; variant 1 differs from variant 0."""
    kind = field.type
    if kind == "int":
        return 2 + variant
    if kind.startswith("str"):
        return f"{field.name}'s" + "2" * variant
    if kind.startswith("tuple["):
        return ("a", "bc"[variant])
    if kind.startswith(("Mapping[", "dict[")):
        return {"k": "vw"[variant]}
    if kind.startswith("list["):
        return ["xy"[variant]]
    return _stand(kind.split(" ")[0] + "2" * variant)


def _classes() -> list[type]:
    for module in pkgutil.iter_modules(basecat.__path__):
        importlib.import_module(f"basecat.{module.name}")
    found = {
        cls
        for name, module in sys.modules.items() if name.startswith("basecat")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name and is_dataclass(cls)
    }
    return sorted(found, key=lambda cls: cls.__qualname__)


CLASSES = _classes()
IDS = [cls.__qualname__ for cls in CLASSES]


def _given(cls, variant: int = 0) -> dict:
    return {f.name: _value(f, variant) for f in fields(cls) if f.init}


def _build(cls, variant: int = 0):
    return cls(**_given(cls, variant))


def _field_form(f) -> str:
    form = f.name
    if f.default is not MISSING:
        form += f"={f.default!r}"
    if f.default_factory is not MISSING:
        form += f"={f.default_factory.__name__}()"
    flags = [flag for flag in ("init", "repr", "compare") if not getattr(f, flag)]
    return " ".join([form, *(f"{flag}=False" for flag in flags)])


def _str_unless_repr(value) -> str | None:
    return None if str(value) == repr(value) else str(value)


def _hash_outcome(value) -> str:
    try:
        hash(value)
    except TypeError as exc:
        return str(exc)
    return "hashable"


FROZEN = {
    "ActionDecl", "Arrow", "BudgetExhausted", "CategoryDecl", "Cleavage", "ConcreteDecl",
    "ConcreteStructure", "ConeCounterexample", "ConstructedCategory", "Counterexample",
    "CounterexampleCartesian", "CounterexampleOpCartesian", "Document", "FinCat", "FinFn",
    "FinFunctor", "FinSetObj", "FunctorDecl", "FunctorOver", "GroupAction", "IndexedDecl",
    "IndexedFamily", "IsoWitness", "MissingLift", "MissingOpLift", "NotIsomorphic",
    "NotOnTheNose", "OpCleavage", "PullbackSquare", "SourceSpan", "SplitViolation",
    "TrivialCategorification", "_Detailed", "_Factorization", "_Unlifted", "Claim",
}

# qualname: (fields(), repr, str or None where it is the repr, hashing)
PINNED: dict[str, tuple[tuple[str, ...], str, str | None, str]] = {
    'ActionDecl': (
        ('name', 'group', 'elements', 'phi', 'span compare=False'),
        'ActionDecl(name="name\'s", group="group\'s", elements=(\'a\', \'b\'), phi=(\'a\', \'b\'), span=<SourceSpan>)',
        None,
        'hashable',
    ),
    'Arrow': (
        ('name', 'dom', 'cod'),
        'Arrow(name="name\'s", dom="dom\'s", cod="cod\'s")',
        None,
        'hashable',
    ),
    'AssociativityViolation': (
        ('h', 'g', 'f'),
        'AssociativityViolation(h="h\'s", g="g\'s", f="f\'s")',
        'associativity fails on triple ("h\'s", "g\'s", "f\'s")',
        "unhashable type: 'AssociativityViolation'",
    ),
    'BudgetExhausted': (
        ('nodes',),
        'BudgetExhausted(nodes=2)',
        'undecided: the search gave up after 2 nodes',
        'hashable',
    ),
    'CategoryDecl': (
        ('name', 'objects', 'arrows', 'compose', 'span compare=False'),
        'CategoryDecl(name="name\'s", objects=(\'a\', \'b\'), arrows=(\'a\', \'b\'), compose=(\'a\', \'b\'), span=<SourceSpan>)',
        None,
        'hashable',
    ),
    'Claim': (
        ('claim_id', 'status', "detail=''"),
        'Claim(claim_id="claim_id\'s", status="status\'s", detail="detail\'s")',
        None,
        'hashable',
    ),
    'Cleavage': (
        ('lift',),
        "Cleavage(lift={'k': 'v'})",
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'CodomainMismatch': (
        ("detail=''",),
        'CodomainMismatch(detail="detail\'s")',
        "functions do not share a codomain: detail's",
        "unhashable type: 'CodomainMismatch'",
    ),
    'CompositionNotPreserved': (
        ('g', 'f'),
        'CompositionNotPreserved(g="g\'s", f="f\'s")',
        'composite of ("g\'s" after "f\'s") is not preserved',
        "unhashable type: 'CompositionNotPreserved'",
    ),
    'ConcreteDecl': (
        ('name', 'over', 'carriers', 'actions', 'span compare=False'),
        'ConcreteDecl(name="name\'s", over="over\'s", carriers=(\'a\', \'b\'), actions=(\'a\', \'b\'), span=<SourceSpan>)',
        None,
        'hashable',
    ),
    'ConcreteStructure': (
        ('over', 'carrier', 'action', 'warnings=()'),
        "ConcreteStructure(over=<FinCat>, carrier={'k': 'v'}, action={'k': 'v'}, warnings=('a', 'b'))",
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'ConeCounterexample': (
        ('probe', 'q1', 'q2', 'mediating_count'),
        'ConeCounterexample(probe=<FinSetObj>, q1=<FinFn>, q2=<FinFn>, mediating_count=2)',
        "not a pullback: the cone from 'FinSetObj' has 2 mediating maps",
        'hashable',
    ),
    'ConstructedCategory': (
        ('cat', 'projection', 'provenance', 'object_labels', 'arrow_labels', 'cleavage=None', 'opcleavage=None'),
        'ConstructedCategory(cat=<FinCat>, projection=<FinFunctor>, provenance="provenance\'s", object_labels={\'k\': \'v\'}, arrow_labels={\'k\': \'v\'}, cleavage=<Cleavage>, opcleavage=<OpCleavage>)',
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'Corpus': (
        ('env', 'functors=list()', 'concrete_pairs=list()', 'actions=list()', 'families=list()', '_memo=dict() init=False repr=False compare=False'),
        "Corpus(env=<Env>, functors=['x'], concrete_pairs=['x'], actions=['x'], families=['x'])",
        None,
        "unhashable type: 'Corpus'",
    ),
    'Counterexample': (
        ('detail',),
        'Counterexample(detail="detail\'s")',
        "a closure property of cartesian morphisms fails: detail's",
        'hashable',
    ),
    'CounterexampleCartesian': (
        ('f', 'g', 'w', 'mediating_count'),
        'CounterexampleCartesian(f="f\'s", g="g\'s", w="w\'s", mediating_count=2)',
        '"f\'s" is not cartesian: 2 morphisms over "w\'s" factor "g\'s" through it',
        'hashable',
    ),
    'CounterexampleOpCartesian': (
        ('f', 'g', 'w', 'mediating_count'),
        'CounterexampleOpCartesian(f="f\'s", g="g\'s", w="w\'s", mediating_count=2)',
        '"f\'s" is not opcartesian: 2 morphisms over "w\'s" factor "g\'s" through it',
        'hashable',
    ),
    'Document': (
        ('declarations',),
        "Document(declarations=('a', 'b'))",
        None,
        'hashable',
    ),
    'DomCodMismatch': (
        ('g', 'f', "detail=''"),
        'DomCodMismatch(g="g\'s", f="f\'s", detail="detail\'s")',
        'dom/cod mismatch on pair ("g\'s", "f\'s"): detail\'s',
        "unhashable type: 'DomCodMismatch'",
    ),
    'DomCodNotPreserved': (
        ('f',),
        'DomCodNotPreserved(f="f\'s")',
        'image of "f\'s" has the wrong dom/cod',
        "unhashable type: 'DomCodNotPreserved'",
    ),
    'DuplicateId': (
        ('ident',),
        'DuplicateId(ident="ident\'s")',
        'duplicate id "ident\'s"',
        "unhashable type: 'DuplicateId'",
    ),
    'Env': (
        ('categories=dict()', 'functors=dict()', 'concretes=dict()', 'actions=dict()', 'families=dict()'),
        "Env(categories={'k': 'v'}, functors={'k': 'v'}, concretes={'k': 'v'}, actions={'k': 'v'}, families={'k': 'v'})",
        None,
        "unhashable type: 'Env'",
    ),
    'FinCat': (
        ('name', 'objects', 'arrows', 'identity', 'compose'),
        'FinCat(name="name\'s", objects=(\'a\', \'b\'), arrows=(\'a\', \'b\'), identity={\'k\': \'v\'}, compose={\'k\': \'v\'})',
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'FinFn': (
        ('dom', 'cod', 'mapping'),
        "FinFn(dom=<FinSetObj>, cod=<FinSetObj>, mapping={'k': 'v'})",
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'FinFunctor': (
        ('name', 'source', 'target', 'obj_map', 'mor_map'),
        'FinFunctor(name="name\'s", source=<FinCat>, target=<FinCat>, obj_map={\'k\': \'v\'}, mor_map={\'k\': \'v\'})',
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'FinSetObj': (
        ('name', 'elements'),
        'FinSetObj(name="name\'s", elements=(\'a\', \'b\'))',
        None,
        'hashable',
    ),
    'FunctorDecl': (
        ('name', 'source', 'target', 'objects', 'arrows', 'span compare=False'),
        'FunctorDecl(name="name\'s", source="source\'s", target="target\'s", objects=(\'a\', \'b\'), arrows=(\'a\', \'b\'), span=<SourceSpan>)',
        None,
        'hashable',
    ),
    'FunctorOver': (
        ('proj',),
        'FunctorOver(proj=<FinFunctor>)',
        None,
        'hashable',
    ),
    'GroupAction': (
        ('group', 'carrier', 'phi'),
        "GroupAction(group=<FinCat>, carrier=<FinSetObj>, phi={'k': 'v'})",
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'IdentityNotPreserved': (
        ('obj',),
        'IdentityNotPreserved(obj="obj\'s")',
        'identity of "obj\'s" is not sent to an identity',
        "unhashable type: 'IdentityNotPreserved'",
    ),
    'IndexedDecl': (
        ('name', 'base', 'fibres', 'pulls', 'span compare=False'),
        'IndexedDecl(name="name\'s", base="base\'s", fibres=(\'a\', \'b\'), pulls=(\'a\', \'b\'), span=<SourceSpan>)',
        None,
        'hashable',
    ),
    'IndexedFamily': (
        ('base', 'fibre', 'pull'),
        "IndexedFamily(base=<FinCat>, fibre={'k': 'v'}, pull={'k': 'v'})",
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'IsoWitness': (
        ('forward', 'backward'),
        'IsoWitness(forward=<FinFunctor>, backward=<FinFunctor>)',
        None,
        'hashable',
    ),
    'MissingComposite': (
        ('g', 'f'),
        'MissingComposite(g="g\'s", f="f\'s")',
        'composite of ("g\'s" after "f\'s") is not in the table',
        "unhashable type: 'MissingComposite'",
    ),
    'MissingLift': (
        ('u', 'obj'),
        'MissingLift(u="u\'s", obj="obj\'s")',
        'no cartesian lift of "u\'s" ends at "obj\'s"',
        'hashable',
    ),
    'MissingOpLift': (
        ('u', 'obj'),
        'MissingOpLift(u="u\'s", obj="obj\'s")',
        'no opcartesian lift of "u\'s" starts at "obj\'s"',
        'hashable',
    ),
    'NoLiftInCleavage': (
        ('u', 'obj'),
        'NoLiftInCleavage(u="u\'s", obj="obj\'s")',
        'cleavage has no lift for base morphism "u\'s" at "obj\'s"',
        "unhashable type: 'NoLiftInCleavage'",
    ),
    'NoSelfDualWitness': (
        ('detail',),
        'NoSelfDualWitness(detail="detail\'s")',
        "self-duality witness rejected: detail's",
        "unhashable type: 'NoSelfDualWitness'",
    ),
    'NotFaithful': (
        ('f1', 'f2'),
        'NotFaithful(f1="f1\'s", f2="f2\'s")',
        'parallel morphisms "f1\'s" and "f2\'s" share one function',
        "unhashable type: 'NotFaithful'",
    ),
    'NotFunctorial': (
        ('g', 'f'),
        'NotFunctorial(g="g\'s", f="f\'s")',
        'assigned functions break composition on ("g\'s", "f\'s")',
        "unhashable type: 'NotFunctorial'",
    ),
    'NotIsomorphic': (
        ('reason',),
        'NotIsomorphic(reason="reason\'s")',
        "not isomorphic: reason's",
        'hashable',
    ),
    'NotMutuallyInverse': (
        ('detail',),
        'NotMutuallyInverse(detail="detail\'s")',
        "functor pair is not mutually inverse: detail's",
        "unhashable type: 'NotMutuallyInverse'",
    ),
    'NotOnTheNose': (
        ('reason',),
        'NotOnTheNose(reason="reason\'s")',
        "reason's",
        'hashable',
    ),
    'NotSplit': (
        ('detail',),
        'NotSplit(detail="detail\'s")',
        "cleavage is not split: detail's",
        "unhashable type: 'NotSplit'",
    ),
    'NotStrict': (
        ('v', 'u'),
        'NotStrict(v="v\'s", u="u\'s")',
        'indexed family is not strict on base pair ("v\'s", "u\'s")',
        "unhashable type: 'NotStrict'",
    ),
    'OpCleavage': (
        ('lift',),
        "OpCleavage(lift={'k': 'v'})",
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'PartialFunction': (
        ('f', 'element'),
        'PartialFunction(f="f\'s", element="element\'s")',
        'function for "f\'s" is undefined at "element\'s"',
        "unhashable type: 'PartialFunction'",
    ),
    'PullbackSquare': (
        ('f', 'g', 'apex', 'p1', 'p2'),
        'PullbackSquare(f=<FinFn>, g=<FinFn>, apex=<FinSetObj>, p1=<FinFn>, p2=<FinFn>)',
        None,
        'hashable',
    ),
    'Report': (
        ('command', 'claims=list()'),
        'Report(command="command\'s", claims=[\'x\'])',
        None,
        "unhashable type: 'Report'",
    ),
    'SourceSpan': (
        ('file', 'line', 'column', 'length=1'),
        'SourceSpan(file="file\'s", line=2, column=2, length=2)',
        "file's:2:2",
        'hashable',
    ),
    'SourceTargetMismatch': (
        ("detail=''",),
        'SourceTargetMismatch(detail="detail\'s")',
        "source/target categories do not line up: detail's",
        "unhashable type: 'SourceTargetMismatch'",
    ),
    'SplitViolation': (
        ('detail',),
        'SplitViolation(detail="detail\'s")',
        "cleavage is not split: detail's",
        'hashable',
    ),
    'TrivialCategorification': (
        ('fibres', 'functors'),
        "TrivialCategorification(fibres={'k': 'v'}, functors={'k': 'v'})",
        None,
        "unhashable type: 'mappingproxy'",
    ),
    'UnitLawViolation': (
        ('f',),
        'UnitLawViolation(f="f\'s")',
        'unit law fails at "f\'s"',
        "unhashable type: 'UnitLawViolation'",
    ),
    'UnknownMorphism': (
        ('ident',),
        'UnknownMorphism(ident="ident\'s")',
        'no morphism named "ident\'s"',
        "unhashable type: 'UnknownMorphism'",
    ),
    'UnknownObject': (
        ('ident',),
        'UnknownObject(ident="ident\'s")',
        'no object named "ident\'s"',
        "unhashable type: 'UnknownObject'",
    ),
    'UnmappedMorphism': (
        ('ident',),
        'UnmappedMorphism(ident="ident\'s")',
        'morphism "ident\'s" has no image',
        "unhashable type: 'UnmappedMorphism'",
    ),
    'UnmappedObject': (
        ('ident',),
        'UnmappedObject(ident="ident\'s")',
        'object "ident\'s" has no image',
        "unhashable type: 'UnmappedObject'",
    ),
    '_Detailed': (
        ('detail',),
        '_Detailed(detail="detail\'s")',
        None,
        'hashable',
    ),
    '_Factorization': (
        ('f', 'g', 'w', 'mediating_count'),
        '_Factorization(f="f\'s", g="g\'s", w="w\'s", mediating_count=2)',
        None,
        'hashable',
    ),
    '_Unlifted': (
        ('u', 'obj'),
        '_Unlifted(u="u\'s", obj="obj\'s")',
        None,
        'hashable',
    ),
}


def test_every_dataclass_is_pinned():
    assert len(CLASSES) == 61
    assert sorted(PINNED) == IDS
    assert FROZEN < set(IDS)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_repr_str_and_hash_are_pinned(cls):
    value = _build(cls)
    got = (tuple(_field_form(f) for f in fields(cls)), repr(value), _str_unless_repr(value), _hash_outcome(value))
    assert got == PINNED[cls.__qualname__]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_reads_the_compared_fields_of_one_class(cls):
    value, copy = _build(cls), _build(cls)
    assert value == copy and not value != copy
    if _hash_outcome(value) == "hashable":
        assert hash(value) == hash(copy)
    for f in fields(cls):
        if not f.init:
            continue
        other = cls(**{**_given(cls), f.name: _value(f, 1)})
        assert (other == value) is (not f.compare), f.name
        assert (other != value) is f.compare, f.name
    stranger = _stand("stranger")
    assert value.__eq__(stranger) is NotImplemented
    assert value != stranger and not value == stranger


def _twins() -> list[tuple[type, type]]:
    """Pairs of distinct classes whose fields carry the same names."""
    names = {cls: [f.name for f in fields(cls)] for cls in CLASSES}
    return [(a, b) for a in CLASSES for b in CLASSES if a is not b and names[a] == names[b]]


def test_an_instance_of_another_class_is_never_equal():
    twins = _twins()
    assert (basecat.Cleavage, basecat.OpCleavage) in twins and len(twins) >= 10
    for a, b in twins:
        left, right = _build(a), _build(b)
        assert left.__eq__(right) is NotImplemented and left != right, (a, b)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_position_keyword_defaults_and_replace_build_equal_values(cls):
    value = _build(cls)
    given = _given(cls)
    by_position = cls(*given.values())
    required = {f.name: given[f.name] for f in fields(cls)
                if f.init and f.default is MISSING and f.default_factory is MISSING}
    defaulted = cls(*required.values())
    for f in fields(cls):
        if f.init and f.name not in required:
            expected = f.default if f.default is not MISSING else f.default_factory()
            assert getattr(defaulted, f.name) == expected, f.name
    for built in (by_position, cls(**given), replace(value)):
        assert type(built) is cls and built == value and repr(built) == repr(value)
    for f in fields(cls):
        if not f.init:
            assert getattr(value, f.name) == f.default_factory()
    with pytest.raises(TypeError):
        cls(*given.values(), "one too many")
    if required:
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_frozen_classes_refuse_assignment_and_deletion(cls):
    value = _build(cls)
    for f in fields(cls):
        new = _value(f, 1)
        if cls.__qualname__ in FROZEN:
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{f.name}'$"):
                setattr(value, f.name, new)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{f.name}'$"):
                delattr(value, f.name)
            assert getattr(value, f.name) == _value(f, 0) or not f.init
        else:
            setattr(value, f.name, new)
            assert getattr(value, f.name) == new
            delattr(value, f.name)
            assert f.name not in vars(value)


def test_a_projection_keeps_its_two_categories_and_its_memos():
    proj = _stand("FinFunctor")
    over = basecat.FunctorOver(proj)
    assert over.total is proj.source and over.base is proj.target
    assert over._verdicts == ({}, {}) and over._lifts == {}
    assert list(vars(over)) == ["proj", "total", "base", "_verdicts", "_lifts"]


def test_an_arrow_survives_copying_and_pickling():
    arrow = basecat.Arrow("f", "x", "y")
    for again in (copy.copy(arrow), copy.deepcopy(arrow), pickle.loads(pickle.dumps(arrow))):
        assert type(again) is basecat.Arrow and again == arrow and repr(again) == repr(arrow)


def print_pins() -> None:  # pragma: no cover - writes the table above
    for cls in CLASSES:
        value = _build(cls)
        print(f"    {cls.__qualname__!r}: (")
        print(f"        {tuple(_field_form(f) for f in fields(cls))!r},")
        for text in (repr(value), _str_unless_repr(value), _hash_outcome(value)):
            print(f"        {text!r},")
        print("    ),")
