"""Read-only validated values, and the per-corpus memo that shares the
constructions built from them.

Every mapping a validated value holds is a read-only view, and a validator
copies what its caller passes, so a value cannot change once it exists.
That is what lets ``Corpus`` build each construction once and hand the same
copy to every suite: the suites must report exactly what they report on
fresh corpora, a second run must rebuild nothing the memo shares, each
construction must be built once per distinct argument, the memo must keep
no report and no construction only one check reads, and it must go with
its corpus. What a construction builds from them is assembled, never
validated again.
"""

from __future__ import annotations

import gc
import sys
import weakref
from collections import Counter
from types import MappingProxyType

import pytest

import basecat as bc
from basecat import constructions, core, corpus as corpus_module, suites
from basecat.corpus import build_corpus, group_category
from basecat.suites import SUITES, run_suite


# Read-only values.


def _mappings(value) -> dict[str, object]:
    """Each read-only mapping of ``value``, by field name."""
    fields = {
        bc.FinCat: ("identity", "compose"),
        bc.FinFunctor: ("obj_map", "mor_map"),
        bc.FinFn: ("mapping",),
        bc.ConcreteStructure: ("carrier", "action"),
        bc.IndexedFamily: ("fibre", "pull"),
        bc.GroupAction: ("phi",),
        bc.ConstructedCategory: ("object_labels", "arrow_labels"),
        bc.Cleavage: ("lift",),
        bc.OpCleavage: ("lift",),
    }[type(value)]
    return {name: getattr(value, name) for name in fields}


def _values():
    """(label, value) for values from every validator and constructor."""
    two = bc.validate_category("Two", ["X", "Y"], [("f", "X", "Y")])
    z2 = group_category("Z2")
    fun = bc.validate_functor("F", two, two, {"X": "X", "Y": "Y"}, {"f": "f"})
    a, b = bc.FinSetObj("A", ("a0", "a1")), bc.FinSetObj("B", ("b0",))
    square = bc.pullback_finset(bc.FinFn(a, b, {"a0": "b0", "a1": "b0"}), bc.identity_fn(b))
    concrete = bc.validate_concrete(
        two,
        {"X": a, "Y": b},
        {"f": bc.FinFn(a, b, {"a0": "b0", "a1": "b0"})},
    )
    pset = bc.FinSetObj("P", ("p0", "p1"))
    act = bc.validate_group_action(z2, pset, {"s": bc.FinFn(pset, pset, {"p0": "p1", "p1": "p0"})})
    family = bc.family_from_functor(fun)
    graph = bc.graph_category(fun)
    total = bc.grothendieck_strict(family)
    yield from [
        ("validate_category", two),
        ("opposite", bc.opposite(two)),
        ("normalize", bc.normalize(two)),
        ("product_category", bc.product_category(two, z2)[0]),
        ("coproduct_categories", bc.coproduct_categories([two, z2])[0]),
        ("validate_functor", fun),
        ("identity_functor", bc.identity_functor(two)),
        ("compose_functors", bc.compose_functors(fun, fun)),
        ("op_functor", bc.op_functor(fun)),
        ("relabelling", bc.inverse_witness(z2).forward),
        ("FinFn", bc.FinFn(a, b, {"a0": "b0", "a1": "b0"})),
        ("identity_fn", bc.identity_fn(a)),
        ("compose_fn", bc.compose_fn(bc.identity_fn(b), square.p2)),
        ("pullback_finset", square.p1),
        ("validate_concrete", concrete),
        ("validate_group_action", act),
        ("validate_family", bc.validate_family(family.base, family.fibre, family.pull)),
        ("family_from_functor", family),
        ("discrete_family", bc.discrete_family(bc.identity_functor(two), concrete)),
        ("recover_indexed", bc.recover_indexed(total.over(), total.cleavage)),
        ("graph_category", graph),
        ("abstract_left_action", bc.abstract_left_action(fun)),
        ("abstract_right_action", bc.abstract_right_action(fun)),
        ("concrete_graph_category", bc.concrete_graph_category(bc.identity_functor(two), concrete)),
        ("concrete_left_action", bc.concrete_left_action(bc.identity_functor(two), concrete)),
        ("concrete_right_action", bc.concrete_right_action(bc.identity_functor(two), concrete)),
        ("grothendieck_strict", total),
        ("transformation_groupoid", bc.transformation_groupoid(act)),
        ("construction cleavage", graph.cleavage),
        ("construction opcleavage", graph.opcleavage),
        ("check_fibration", bc.check_fibration(graph.over())),
        ("check_opfibration", bc.check_opfibration(graph.over())),
    ]


VALUES = list(_values())


@pytest.mark.parametrize("label, value", VALUES, ids=[label for label, _ in VALUES])
def test_every_mapping_of_a_value_is_read_only(label, value):
    values = [value, *(getattr(value, f) for f in ("cat", "projection") if hasattr(value, f))]
    checked = 0
    for v in values:
        for name, mapping in _mappings(v).items():
            assert type(mapping) is MappingProxyType, (label, name)
            key = next(iter(mapping), "absent")
            with pytest.raises(TypeError):
                mapping[key] = "changed"
            with pytest.raises(TypeError):
                del mapping[key]
            # A read-only view has no ``update``; the dict method refuses it.
            with pytest.raises(AttributeError):
                mapping.update({})
            with pytest.raises(TypeError):
                dict.update(mapping, {})
            checked += 1
    assert checked >= 1


def _copies(value) -> list[str]:
    """Each attribute of ``value`` that is a plain dict equal to a read-only
    mapping it holds (a projection: its functor's), or to the composition
    table of a category it maps from or to."""
    views = list(_mappings(value.proj if isinstance(value, bc.FunctorOver) else value).values())
    for end in ("source", "target", "total", "base"):
        cat = getattr(value, end, None)
        if isinstance(cat, bc.FinCat):
            views.append(cat.compose)
    return [
        name
        for name, attr in vars(value).items()
        if type(attr) is dict and any(attr == view for view in views)
    ]


def test_no_value_keeps_a_copy_of_a_mapping_it_holds():
    values = dict(VALUES)
    graph_over, fun_over = values["graph_category"].over(), bc.FunctorOver(values["validate_functor"])
    for p in (graph_over, fun_over):
        # fills every cache a projection keeps: its verdicts and lift
        # indexes in both directions, and its objects by base object
        p.cartesian()
        bc.check_opfibration(p)
        assert bc.check_split(p, bc.check_fibration(p)) is True
    checked = [
        (label, v)
        for label, value in [*VALUES, ("graph over", graph_over), ("functor over", fun_over)]
        for v in (value, *(getattr(value, f) for f in ("cat", "projection", "proj") if hasattr(value, f)))
    ]
    copies = [(label, type(v).__name__, name) for label, v in checked for name in _copies(v)]
    assert not copies, copies

    # Writing through every dict a validated functor holds leaves its maps alone.
    two = bc.validate_category("Two", ["X", "Y"], [("f", "X", "Y")])
    fun = bc.validate_functor("F", two, two, {"X": "X", "Y": "Y"}, {"f": "f"})
    before = dict(fun.obj_map), dict(fun.mor_map)
    for attr in vars(fun).values():
        if isinstance(attr, dict):
            for key in attr:
                attr[key] = "Y"
    assert (dict(fun.obj_map), dict(fun.mor_map)) == before
    assert fun.obj("X") == "X" and fun.mor("f") == "f"


def test_a_read_only_value_prints_as_before():
    fn = bc.FinFn(bc.FinSetObj("A", ("a",)), bc.FinSetObj("A", ("a",)), {"a": "a"})
    assert repr(fn) == (
        "FinFn(dom=FinSetObj(name='A', elements=('a',)), "
        "cod=FinSetObj(name='A', elements=('a',)), mapping={'a': 'a'})"
    )


def test_changing_what_was_passed_to_a_validator_leaves_the_value_alone():
    arrows = [("iX", "X", "X"), ("f", "X", "Y"), ("g", "Y", "Z"), ("h", "X", "Z")]
    compose = {("g", "f"): "h"}
    identity = {"X": "iX"}
    cat = bc.validate_category("C", ["X", "Y", "Z"], arrows, compose, identity)
    compose[("g", "f")] = "f"
    identity["X"] = "f"
    assert cat.compose[("g", "f")] == "h" and cat.identity["X"] == "iX"

    obj_map = {x: x for x in cat.objects}
    mor_map = {a.name: a.name for a in cat.arrows}
    fun = bc.validate_functor("I", cat, cat, obj_map, mor_map)
    obj_map["X"] = "Y"
    mor_map["f"] = "g"
    assert fun.obj("X") == "X" and fun.mor("f") == "f"
    assert fun.obj_map["X"] == "X" and fun.mor_map["f"] == "f"

    a = bc.FinSetObj("A", ("a0", "a1"))
    swap = {"a0": "a1", "a1": "a0"}
    z2 = group_category("Z2")
    phi = {"s": bc.FinFn(a, a, swap)}
    act = bc.validate_group_action(z2, a, phi)
    carrier = {"*": a}
    action = {"s": bc.FinFn(a, a, swap)}
    concrete = bc.validate_concrete(z2, carrier, action)
    phi["s"] = bc.identity_fn(a)
    action["s"] = bc.identity_fn(a)
    carrier["*"] = bc.FinSetObj("B", ("b",))
    swap["a0"] = "a0"  # the dict both functions were built from
    for value in (act.phi, concrete.action):
        assert dict(value["s"].mapping) == {"a0": "a1", "a1": "a0"}
    assert concrete.carrier["*"] == a

    one = bc.validate_category("One", ["*"], [])
    fibre = {x: one for x in cat.objects}
    pull = {a.name: bc.identity_functor(one) for a in cat.arrows}
    fam = bc.validate_family(cat, fibre, pull)
    fibre["X"] = cat
    del pull["f"]
    assert fam.fibre["X"] is one and "f" in fam.pull


def test_no_category_exposes_a_writable_index():
    # Composition is held once, in the read-only ``compose``; what a
    # category builds on first use stays private to it.
    two = bc.validate_category("Two", ["X", "Y"], [("f", "X", "Y")])
    cats = {
        "validated": two,
        "assembled": bc.product_category(two, group_category("Z2"))[0],
        "constructed": bc.graph_category(bc.identity_functor(two)).cat,
    }
    for label, cat in cats.items():
        for a in cat.arrows:
            cat.arrow(a.name), cat.is_identity(a.name), cat.inverse_of(a.name)
        for x in cat.objects:
            cat.arrows_into(x), cat.arrows_from(x)
            for y in cat.objects:
                cat.hom(x, y)
        bc.opposite(cat)
        assert {"_by_name", "_identity_names", "_homs", "_into", "_from", "_opposite"} <= set(vars(cat))
        public = {name: getattr(cat, name) for name in dir(cat) if not name.startswith("_")}
        writable = [name for name, attr in public.items() if isinstance(attr, dict | list)]
        assert not writable, (label, writable)


# The per-corpus memo.

BUILDERS = (
    "graph_category",
    "abstract_left_action",
    "abstract_right_action",
    "concrete_graph_category",
    "concrete_left_action",
    "concrete_right_action",
    "transformation_groupoid",
    "grothendieck_strict",
    "inverse_witness",
    "right_action_selfdual",
    "contravariant_via_witness",
)


@pytest.fixture
def builds(monkeypatch):
    """Count calls of each construction, by the identities of its arguments.

    One counting wrapper per construction replaces it in every module that
    names it, so the memo sees one function, as it does unpatched. The
    arguments are kept, so no id is reused while the test runs."""
    counts: Counter = Counter()
    kept = []

    def counting(name, build):
        def wrapper(*args, **kwargs):
            kept.append((args, kwargs))
            counts[(name, tuple(map(id, args)), tuple((k, id(v)) for k, v in kwargs.items()))] += 1
            return build(*args, **kwargs)
        return wrapper

    for name in BUILDERS:
        wrapper = counting(name, getattr(constructions, name))
        for module in (constructions, suites, corpus_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return counts


def test_each_construction_is_built_once_per_distinct_argument(builds):
    run_suite("all", build_corpus(seed=7))
    per_builder = Counter(name for name, _, _ in builds)
    assert set(per_builder) == set(BUILDERS), per_builder
    repeated = {key: n for key, n in builds.items() if n > 1}
    assert not repeated, repeated


# What the memo shares: the constructions ``Corpus._built`` makes, and the
# concrete right action, which the shared duality verdict builds.
SHARED = (
    "graph_category",
    "abstract_left_action",
    "concrete_graph_category",
    "concrete_left_action",
    "concrete_right_action",
    "transformation_groupoid",
    "inverse_witness",
)


def test_a_second_run_rebuilds_no_shared_construction(builds):
    corpus = build_corpus(seed=3)
    for name in SUITES:
        first = run_suite(name, corpus)
        before = sum(n for key, n in builds.items() if key[0] in SHARED)
        again = run_suite(name, corpus)
        assert sum(n for key, n in builds.items() if key[0] in SHARED) == before, name
        assert again.claims == first.claims


def _kept(value):
    """``value`` and, through tuples, everything it holds."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _kept(item)


# Built by one check and read by nothing else, so never worth keeping.
SINGLE_USE = {
    "right-action",
    "concrete-right-action",
    "selfdual-right-action",
    "selfdual-concrete-right-action",
    "grothendieck",
}


def test_the_memo_keeps_no_report_and_no_single_use_construction():
    corpus = build_corpus(seed=7)
    run_suite("all", corpus)
    kept = [
        (fn.__name__, value)
        for fn, made in corpus._memo.items()
        for entry in made.values()
        for value in _kept(entry)
    ]
    assert kept
    reports = [name for name, value in kept if isinstance(value, bc.Report)]
    assert not reports, reports
    single = [
        (name, value.provenance)
        for name, value in kept
        if isinstance(value, bc.ConstructedCategory) and value.provenance in SINGLE_USE
    ]
    assert not single, single


@pytest.mark.parametrize("seed", range(10))
def test_shared_constructions_report_what_fresh_corpora_report(seed):
    shared = build_corpus(seed=seed)
    together = [claim for name in SUITES for claim in run_suite(name, shared).claims]
    alone = [claim for name in SUITES for claim in run_suite(name, build_corpus(seed=seed)).claims]
    assert together == alone


def test_the_memo_goes_with_its_corpus():
    corpus = build_corpus(seed=7)
    run_suite("all", corpus)
    built = weakref.ref(corpus._built(bc.graph_category, corpus.functors[0]))
    assert built() is not None
    del corpus
    gc.collect()
    assert built() is None


def test_no_category_is_normalized_twice(monkeypatch):
    """The concrete duality verdict is made once per corpus pair, and the
    main proposition and the duality suite both read it."""
    normalize = core.normalize
    counts: Counter = Counter()
    kept = {}

    def counting(cat, *args, **kwargs):
        kept[id(cat)] = cat
        counts[id(cat)] += 1
        return normalize(cat, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "basecat" and getattr(module, "normalize", None) is normalize:
            monkeypatch.setattr(module, "normalize", counting)
    run_suite("all", build_corpus(seed=7))
    assert counts
    twice = {kept[key].name: n for key, n in counts.items() if n > 1}
    assert not twice, twice


def test_no_construction_validates_what_it_builds(monkeypatch):
    """Derived presentations are assembled, not validated: over a corpus
    run, no function of ``constructions`` calls a validator, and in
    ``core`` only ``relabelling`` does, for the witnesses (the base legs
    of the main proposition among them)."""
    callers: Counter = Counter()
    for name in ("validate_category", "validate_functor"):
        validate = getattr(core, name)

        def counting(*args, _validate=validate, **kwargs):
            caller, outer = sys._getframe(1), sys._getframe(2)
            callers[(caller.f_globals["__name__"], caller.f_code.co_name, outer.f_code.co_name)] += 1
            return _validate(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "basecat" and getattr(module, name, None) is validate:
                monkeypatch.setattr(module, name, counting)
    run_suite("all", build_corpus(seed=7))
    building = {
        key: n
        for key, n in callers.items()
        if key[0] == "basecat.constructions" or (key[0] == "basecat.core" and key[1] != "relabelling")
    }
    assert not building, building
    assert callers[("basecat.core", "relabelling", "_projection_witness")] > 0, callers
