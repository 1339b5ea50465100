"""The benchmark's own checks: seeded inputs and the metric names it prints.

These import only the generator and the runner, never basecat.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import gen
import run


def presentations(value):
    """Every `Pres` inside a generated input, in a fixed order."""
    if isinstance(value, gen.Pres):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from presentations(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from presentations(item)


def sizes(ladder: gen.Ladder) -> list[tuple]:
    return [(len(p.objects), len(p.arrows), len(p.compose)) for p in presentations(ladder)]


def corruption_list(inputs: gen.TextInputs) -> list[tuple]:
    return [(c.kind, c.start, c.end, c.replacement) for c in inputs.corrupt]


def test_one_seed_regenerates_byte_identical_inputs():
    assert gen.ladder_documents(gen.ladder_inputs(5, 0)) == gen.ladder_documents(gen.ladder_inputs(5, 0))
    first, again = gen.text_inputs(5, 0), gen.text_inputs(5, 0)
    assert corruption_list(first) == corruption_list(again)
    assert [d.text for d in first.valid] == [d.text for d in again.valid]


def test_another_seed_changes_ids_and_order_but_not_sizes():
    one, two = gen.ladder_inputs(0, 0), gen.ladder_inputs(1, 0)
    docs_one, docs_two = gen.ladder_documents(one), gen.ladder_documents(two)
    assert docs_one.keys() == docs_two.keys()
    assert all(docs_one[k] != docs_two[k] for k in docs_one)
    assert sizes(one) == sizes(two)

    text_one, text_two = gen.text_inputs(0, 0), gen.text_inputs(1, 0)
    assert corruption_list(text_one) != corruption_list(text_two)
    assert [c.kind for c in text_one.corrupt] == [c.kind for c in text_two.corrupt]
    assert [[n for _, n, _ in d.counts] for d in text_one.valid] == [
        [n for _, n, _ in d.counts] for d in text_two.valid
    ]
    assert [d.text for d in text_one.valid] != [d.text for d in text_two.valid]


def test_a_later_pass_gets_fresh_inputs():
    assert gen.ladder_documents(gen.ladder_inputs(0, 0)) != gen.ladder_documents(gen.ladder_inputs(0, 1))
    assert gen.corpus_seeds(0, 0) == range(0, gen.CORPUS_SEEDS_PER_PASS)
    assert 7 in gen.corpus_seeds(0, 0)
    assert gen.corpus_seeds(0, 1).start == gen.CORPUS_SEEDS_PER_PASS


def test_chain_positions_are_recovered():
    p = gen.ladder_inputs(3, 0).negative.whole
    assert sorted(gen.chain_index(p).values()) == list(range(gen.NEGATIVE_CHAIN))


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_names())
