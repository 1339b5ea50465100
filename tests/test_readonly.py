"""The one constructor ``ReadOnly`` generates for each value class.

Every ``ReadOnly`` subclass in the package is built from a value the
package made, by position, by keyword and by ``dataclasses.replace``; the
three must agree with the original. Each ``read_only`` field must hold a
view: a plain mapping passed in is wrapped, a view passed in is kept as it
is. Fields stay frozen, and defaults still apply.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import FrozenInstanceError, fields, replace
from types import MappingProxyType

import pytest

import basecat
from basecat.constructions import (
    ConstructedCategory,
    graph_category,
    transformation_groupoid,
    trivial_categorify,
)
from basecat.core import ReadOnly
from basecat.corpus import build_corpus
from basecat.sets import ConcreteStructure, identity_fn


def _samples() -> list[ReadOnly]:
    corpus = build_corpus(7)
    fun, concrete = corpus.concrete_pairs[0]
    graph = graph_category(fun)
    groupoid = transformation_groupoid(corpus.actions[0])
    return [
        fun.source, fun, concrete, identity_fn(concrete.carrier[fun.target.objects[0]]),
        corpus.families[0], corpus.actions[0], graph, groupoid, groupoid.opcleavage,
        graph.cleavage, trivial_categorify(fun.source),
    ]


SAMPLES = _samples()


def _subclasses(cls: type) -> set[type]:
    return {deeper for sub in cls.__subclasses__() for deeper in {sub} | _subclasses(sub)}


def test_every_value_class_has_a_sample():
    for module in pkgutil.iter_modules(basecat.__path__):
        importlib.import_module(f"basecat.{module.name}")
    package = {cls for cls in _subclasses(ReadOnly) if cls.__module__.startswith("basecat.")}
    assert {type(value) for value in SAMPLES} == package


def _ids(values) -> list[str]:
    return [type(value).__name__ for value in values]


@pytest.mark.parametrize("value", SAMPLES, ids=_ids(SAMPLES))
def test_position_keyword_and_replace_build_equal_values(value):
    cls = type(value)
    held = {f.name: getattr(value, f.name) for f in fields(cls)}
    by_position = cls(*held.values())
    by_keyword = cls(**held)
    for built in (by_position, by_keyword, replace(value)):
        assert type(built) is cls and built == value
        assert repr(built) == repr(value)


@pytest.mark.parametrize("value", SAMPLES, ids=_ids(SAMPLES))
def test_each_read_only_field_is_a_view_and_a_view_is_kept(value):
    cls = type(value)
    held = {f.name: getattr(value, f.name) for f in fields(cls)}
    assert cls.read_only and set(cls.read_only) <= set(held)
    plain = {name: dict(held[name]) for name in cls.read_only}
    wrapped = cls(**{**held, **plain})
    kept = cls(**held)
    assert wrapped == value
    for name in cls.read_only:
        assert type(held[name]) is MappingProxyType
        # A plain mapping is wrapped without a copy; a view is not wrapped again.
        view = getattr(wrapped, name)
        assert type(view) is MappingProxyType and view == plain[name]
        plain[name]["extra"] = None
        assert "extra" in view
        assert getattr(kept, name) is held[name]


@pytest.mark.parametrize("value", SAMPLES, ids=_ids(SAMPLES))
def test_assigning_a_field_raises(value):
    for f in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def _sample(cls: type) -> ReadOnly:
    return next(value for value in SAMPLES if type(value) is cls)


def test_defaults_apply_by_position_and_by_keyword():
    graph = _sample(ConstructedCategory)
    args = (graph.cat, graph.projection, graph.provenance, graph.object_labels, graph.arrow_labels)
    by_keyword = ConstructedCategory(*args[:3], object_labels=args[3], arrow_labels=args[4])
    for built in (ConstructedCategory(*args), by_keyword):
        assert built.cleavage is None and built.opcleavage is None
    concrete = _sample(ConcreteStructure)
    assert ConcreteStructure(concrete.over, concrete.carrier, concrete.action).warnings == ()
    with pytest.raises(TypeError):
        ConstructedCategory(*args[:4])
