"""Every error message and every refutation, pinned byte for byte.

Error classes are found by introspection: every dataclass in ``errors``
that is a ``BasecatError``. Each class is built from a fixed value set,
one value per field type, plus ``None`` for an optional field and the
default for a field that has one. ``str`` and ``repr`` must match the
recorded table, and every refutation must be falsy.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import MISSING, fields, is_dataclass

import pytest

import basecat
from basecat import dsl, errors
from basecat.corpus import fixtures_dir
from basecat.fibration import (
    Cleavage,
    Counterexample,
    CounterexampleCartesian,
    CounterexampleOpCartesian,
    FunctorOver,
    MissingLift,
    MissingOpLift,
    SplitViolation,
    check_split,
)
from basecat.iso import BudgetExhausted, NotIsomorphic
from basecat.sets import ConeCounterexample, FinFn, FinSetObj

_PROBE = FinSetObj("probe1", ("d0",))
_A = FinSetObj("A", ("a0", "a1"))
_B = FinSetObj("B", ("b0",))


def _values(field) -> list:
    """The fixed values tried for one field; ``MISSING`` stands for
    "leave the default in place"."""
    if field.type == "int":
        options = [2]
    elif field.type == "FinSetObj":
        options = [_PROBE]
    elif field.type == "FinFn":
        leg = {"q1": (_A, "a1"), "q2": (_B, "b0")}[field.name]
        options = [FinFn(_PROBE, leg[0], {"d0": leg[1]})]
    else:
        # Strings carry a quote, so ``!r`` and plain formatting differ.
        options = [f"{field.name}'s"]
        if "None" in field.type:
            options.append(None)
    if field.default is not MISSING:
        options.append(MISSING)
    return options


def _cases(cls) -> list[tuple[str, object]]:
    """Every combination of the fixed values, labelled by the fields that
    took ``None`` or their default."""
    cases = [("", {})]
    for field in fields(cls):
        step = []
        for label, kwargs in cases:
            for v in _values(field):
                if v is MISSING:
                    step.append((f"{label}[{field.name}=default]", kwargs))
                elif v is None:
                    step.append((f"{label}[{field.name}=None]", {**kwargs, field.name: v}))
                else:
                    step.append((label, {**kwargs, field.name: v}))
        cases = step
    return [(cls.__name__ + label, cls(**kwargs)) for label, kwargs in cases]


ERROR_CLASSES = sorted(
    (
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and is_dataclass(cls) and issubclass(cls, errors.BasecatError)
    ),
    key=lambda cls: cls.__name__,
)

REFUTATION_CLASSES = [
    CounterexampleCartesian,
    CounterexampleOpCartesian,
    MissingLift,
    MissingOpLift,
    SplitViolation,
    Counterexample,
    ConeCounterexample,
    NotIsomorphic,
    BudgetExhausted,
]



def _produced_cases() -> list[tuple[str, object]]:
    """Refutations as the checks word them, each on an input that
    produces it."""
    path = fixtures_dir() / "negative_noncartesian.bcat"
    twin = FunctorOver(dsl.elaborate(dsl.parse(path.read_text(), path.name)).functors["twinProj"])
    not_cartesian = Cleavage({
        ("id_X", "Z"): "id_Z", ("id_X", "X0"): "id_X0",
        ("id_Y", "Y0"): "id_Y0", ("f", "Y0"): "f1",
    })
    return [("SplitViolation[lift not cartesian]", check_split(twin, not_cartesian))]


ERROR_CASES = [case for cls in ERROR_CLASSES for case in _cases(cls)]
REFUTATION_CASES = [case for cls in REFUTATION_CLASSES for case in _cases(cls)] + _produced_cases()

PINNED: dict[str, tuple[str, str]] = {
    'AssociativityViolation': (
        'associativity fails on triple ("h\'s", "g\'s", "f\'s")',
        'AssociativityViolation(h="h\'s", g="g\'s", f="f\'s")',
    ),
    'CodomainMismatch': (
        "functions do not share a codomain: detail's",
        'CodomainMismatch(detail="detail\'s")',
    ),
    'CodomainMismatch[detail=default]': (
        'functions do not share a codomain: ',
        "CodomainMismatch(detail='')",
    ),
    'CompositionNotPreserved': (
        'composite of ("g\'s" after "f\'s") is not preserved',
        'CompositionNotPreserved(g="g\'s", f="f\'s")',
    ),
    'DomCodMismatch': (
        'dom/cod mismatch on pair ("g\'s", "f\'s"): detail\'s',
        'DomCodMismatch(g="g\'s", f="f\'s", detail="detail\'s")',
    ),
    'DomCodMismatch[detail=default]': (
        'dom/cod mismatch on pair ("g\'s", "f\'s")',
        'DomCodMismatch(g="g\'s", f="f\'s", detail=\'\')',
    ),
    'DomCodNotPreserved': (
        'image of "f\'s" has the wrong dom/cod',
        'DomCodNotPreserved(f="f\'s")',
    ),
    'DuplicateId': (
        'duplicate id "ident\'s"',
        'DuplicateId(ident="ident\'s")',
    ),
    'IdentityNotPreserved': (
        'identity of "obj\'s" is not sent to an identity',
        'IdentityNotPreserved(obj="obj\'s")',
    ),
    'MissingComposite': (
        'composite of ("g\'s" after "f\'s") is not in the table',
        'MissingComposite(g="g\'s", f="f\'s")',
    ),
    'NoLiftInCleavage': (
        'cleavage has no lift for base morphism "u\'s" at "obj\'s"',
        'NoLiftInCleavage(u="u\'s", obj="obj\'s")',
    ),
    'NoSelfDualWitness': (
        "self-duality witness rejected: detail's",
        'NoSelfDualWitness(detail="detail\'s")',
    ),
    'NotFaithful': (
        'parallel morphisms "f1\'s" and "f2\'s" share one function',
        'NotFaithful(f1="f1\'s", f2="f2\'s")',
    ),
    'NotFunctorial': (
        'assigned functions break composition on ("g\'s", "f\'s")',
        'NotFunctorial(g="g\'s", f="f\'s")',
    ),
    'NotMutuallyInverse': (
        "functor pair is not mutually inverse: detail's",
        'NotMutuallyInverse(detail="detail\'s")',
    ),
    'NotSplit': (
        "cleavage is not split: detail's",
        'NotSplit(detail="detail\'s")',
    ),
    'NotStrict': (
        'indexed family is not strict on base pair ("v\'s", "u\'s")',
        'NotStrict(v="v\'s", u="u\'s")',
    ),
    'PartialFunction': (
        'function for "f\'s" is undefined at "element\'s"',
        'PartialFunction(f="f\'s", element="element\'s")',
    ),
    'PartialFunction[element=None]': (
        'no function assigned to morphism "f\'s"',
        'PartialFunction(f="f\'s", element=None)',
    ),
    'SourceTargetMismatch': (
        "source/target categories do not line up: detail's",
        'SourceTargetMismatch(detail="detail\'s")',
    ),
    'SourceTargetMismatch[detail=default]': (
        'source/target categories do not line up: ',
        "SourceTargetMismatch(detail='')",
    ),
    'UnitLawViolation': (
        'unit law fails at "f\'s"',
        'UnitLawViolation(f="f\'s")',
    ),
    'UnknownMorphism': (
        'no morphism named "ident\'s"',
        'UnknownMorphism(ident="ident\'s")',
    ),
    'UnknownObject': (
        'no object named "ident\'s"',
        'UnknownObject(ident="ident\'s")',
    ),
    'UnmappedMorphism': (
        'morphism "ident\'s" has no image',
        'UnmappedMorphism(ident="ident\'s")',
    ),
    'UnmappedObject': (
        'object "ident\'s" has no image',
        'UnmappedObject(ident="ident\'s")',
    ),
    'CounterexampleCartesian': (
        '"f\'s" is not cartesian: 2 morphisms over "w\'s" factor "g\'s" through it',
        'CounterexampleCartesian(f="f\'s", g="g\'s", w="w\'s", mediating_count=2)',
    ),
    'CounterexampleOpCartesian': (
        '"f\'s" is not opcartesian: 2 morphisms over "w\'s" factor "g\'s" through it',
        'CounterexampleOpCartesian(f="f\'s", g="g\'s", w="w\'s", mediating_count=2)',
    ),
    'MissingLift': (
        'no cartesian lift of "u\'s" ends at "obj\'s"',
        'MissingLift(u="u\'s", obj="obj\'s")',
    ),
    'MissingOpLift': (
        'no opcartesian lift of "u\'s" starts at "obj\'s"',
        'MissingOpLift(u="u\'s", obj="obj\'s")',
    ),
    'SplitViolation': (
        "cleavage is not split: detail's",
        'SplitViolation(detail="detail\'s")',
    ),
    'Counterexample': (
        "a closure property of cartesian morphisms fails: detail's",
        'Counterexample(detail="detail\'s")',
    ),
    'ConeCounterexample': (
        "not a pullback: the cone from 'probe1' has 2 mediating maps",
        "ConeCounterexample(probe=FinSetObj(name='probe1', elements=('d0',)), q1=FinFn(dom=FinSetObj(name='probe1', elements=('d0',)), cod=FinSetObj(name='A', elements=('a0', 'a1')), mapping={'d0': 'a1'}), q2=FinFn(dom=FinSetObj(name='probe1', elements=('d0',)), cod=FinSetObj(name='B', elements=('b0',)), mapping={'d0': 'b0'}), mediating_count=2)",
    ),
    'NotIsomorphic': (
        "not isomorphic: reason's",
        'NotIsomorphic(reason="reason\'s")',
    ),
    'BudgetExhausted': (
        'undecided: the search gave up after 2 nodes',
        'BudgetExhausted(nodes=2)',
    ),
    'SplitViolation[lift not cartesian]': (
        "cleavage is not split: lift 'f1' of 'f' at 'Y0' is not cartesian",
        'SplitViolation(detail="lift \'f1\' of \'f\' at \'Y0\' is not cartesian")',
    ),
}


def test_every_error_class_is_found():
    assert len(ERROR_CLASSES) == 22


@pytest.mark.parametrize("label, value", ERROR_CASES + REFUTATION_CASES,
                         ids=[label for label, _ in ERROR_CASES + REFUTATION_CASES])
def test_message_and_repr_are_pinned(label, value):
    assert (str(value), repr(value)) == PINNED[label]


def test_the_table_names_no_other_case():
    assert sorted(PINNED) == sorted(label for label, _ in ERROR_CASES + REFUTATION_CASES)


@pytest.mark.parametrize("label, value", REFUTATION_CASES,
                         ids=[label for label, _ in REFUTATION_CASES])
def test_every_refutation_is_falsy(label, value):
    assert bool(value) is False


def _leaves(cls: type) -> list[type]:
    subclasses = cls.__subclasses__()
    return [leaf for sub in subclasses for leaf in _leaves(sub)] if subclasses else [cls]


def test_every_refutation_in_the_package_reads_as_a_sentence():
    for module in pkgutil.iter_modules(basecat.__path__):
        importlib.import_module(f"basecat.{module.name}")
    found = [cls for cls in _leaves(errors.Refutation) if cls.__module__.startswith("basecat.")]
    assert set(REFUTATION_CLASSES) < set(found)
    for cls in found:
        for label, value in _cases(cls):
            assert str(value) != repr(value), label
