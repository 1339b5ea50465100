"""basecat benchmark: seeded workloads, timed call by call, every result checked.

    python3 perfbench/run.py --workload {corpus,ladder,text} --seed N --seconds S --trace {0,1}

Run from the root of a source tree that holds `src/basecat`. One process
with one thread (a closed loop with one caller) repeats passes over freshly
generated inputs until `--seconds` have passed. Set-up time (process start
to the first task: interpreter, imports, input generation) is the median of
fresh-interpreter probes (`--setup-only`) run between passes. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.

With `--trace 0` the metrics are the end-to-end ones. Each timing is the
mean over the run's passes of that pass's figure (pass wall time, median
task time, tail task time); on a shared host the mean varied least from
run to run of the statistics tried. With `--trace 1` every other pass is
traced, the per-layer metrics come from those passes, and the spans and
self times are written to `perfbench/out/`.

Exit codes: 0 every answer checked out, 1 a wrong answer or a crash,
2 usage error or no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("corpus", "ladder", "text")
SETUP_SAMPLES = 8  # fresh-interpreter probes spread over the run
PROBE_LIMIT_S = 60

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms",
    "peak_rss_mb": "MB", "decided_share": "ratio",
}
# Per-layer metrics: summed task seconds per pass, by task key.
LAYER_SECONDS = (
    "core.validate_category", "core.same_presentation",
    "constructions.transformation_groupoid", "constructions.grothendieck_strict",
    "family.validate_family",
    "fibration.check_fibration", "fibration.check_opfibration", "fibration.check_split",
    "fibration.closure", "fibration.factor_vertical_cartesian", "fibration.recover_indexed",
    "iso.find_isomorphism",
    "sets.pullback_finset", "sets.verify_pullback_universal",
    "dsl.parse", "dsl.parse_error", "dsl.elaborate", "dsl.format_document",
    "dot.export_dot",
    "corpus.build_corpus",
    "suites.prop2", "suites.prop3", "suites.prop4", "suites.main", "suites.duality", "suites.appendixC",
    "report.render",
)
# Per-layer rates: work count over seconds, both summed over traced passes.
LAYER_RATES = {
    "core.validate_category.composites_per_s": ("composites", "core.validate_category"),
    "core.validate_category.triples_per_s": ("triples", "core.validate_category"),
    "constructions.composites_per_s": ("constructed_composites", "constructed_s"),
    "fibration.lifts_per_s": ("lifts", "check_fibration_s"),
    "iso.nodes_per_s": ("iso_nodes", "iso_undecided_s"),
    "sets.cones_per_s": ("cones", "verify_pullback_s"),
    "dsl.parse.bytes_per_s": ("parse_bytes", "dsl.parse"),
    "dsl.parse_error.inputs_per_s": ("corrupt_inputs", "dsl.parse_error"),
    "dot.export_dot.bytes_per_s": ("dot_bytes", "dot.export_dot"),
}


def per_layer_names() -> list[str]:
    return [f"{k}.s" for k in LAYER_SECONDS] + list(LAYER_RATES) + ["iso.undecided", "bench.trace_overhead_s"]


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=int, default=0, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_basecat():
    sys.path.insert(0, str(ROOT / "src"))
    import basecat

    if not Path(basecat.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"basecat imported from {basecat.__file__}, not from this tree")
    return basecat


def make_inputs(workload: str, seed: int, pass_index: int):
    import gen
    import workloads

    if workload == "corpus":
        return workloads.corpus_inputs(ROOT, seed, pass_index)
    if workload == "ladder":
        return gen.ladder_inputs(seed, pass_index)
    return gen.text_inputs(seed, pass_index)


def run_pass(rec, bc, workload: str, inputs, seed: int, pass_index: int) -> None:
    import workloads

    if workload == "corpus":
        workloads.corpus_pass(rec, bc, inputs)
    elif workload == "ladder":
        workloads.ladder_pass(rec, bc, inputs)
    else:
        pin = seed == workloads.DEFAULT_SEED and pass_index == 0
        workloads.text_pass(rec, bc, inputs, pin)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(per_pass_tasks: int) -> float:
    """Highest standard percentile with at least ten of one pass's samples beyond it."""
    for pct in (99.9, 99, 90, 75, 50):
        if per_pass_tasks * (1 - pct / 100) >= 10:
            return pct
    return 50


def layer_metrics(traced: list[dict], untraced_walls: list[float]) -> dict[str, dict]:
    out = {}
    for key in LAYER_SECONDS:
        out[f"{key}.s"] = {"value": statistics.median(p["seconds"].get(key, 0.0) for p in traced), "unit": "s"}
    totals: Counter = Counter()
    for p in traced:
        totals.update(p["seconds"])
        totals.update(p["work"])
    for name, (work, seconds) in LAYER_RATES.items():
        rate = totals[work] / totals[seconds] if totals[seconds] else 0.0
        out[name] = {"value": rate, "unit": "1/s"}
    out["iso.undecided"] = {"value": statistics.median(p["undecided"] for p in traced), "unit": "count"}
    overhead = statistics.median(p["wall"] for p in traced) - statistics.median(untraced_walls)
    out["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def self_times(spans: list[tuple]) -> dict[str, dict]:
    """Calls, total and self seconds by span name; self excludes child spans."""
    child: Counter = Counter()
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    table: dict[str, dict] = {}
    for ident, _, key, _, start, end in spans:
        row = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[ident]
    return dict(sorted(table.items()))


def spawn_probe(args) -> float:
    """Set-up time of a fresh interpreter: start, imports and input generation."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--t0", str(time.monotonic_ns()),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_LIMIT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return json.loads(lines[-1])["setup_s"]


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "basecat").rglob("*.py"))


def run(args) -> int:
    import resource

    import workloads

    bc = import_basecat()
    inputs = make_inputs(args.workload, args.seed, 0)
    setups: list[float] = []
    rec = workloads.Recorder()
    passes: list[dict] = []
    pct = 0.0
    deadline = time.perf_counter() + args.seconds
    k = 0
    try:
        while True:
            if not args.trace and len(setups) < SETUP_SAMPLES:
                # Probes run between passes, so they sample the host at
                # several moments; none overlaps a pass.
                setups.append(spawn_probe(args))
            rec.traced = bool(args.trace) and k % 2 == 0
            rec.durations, rec.by_key, rec.work = [], Counter(), Counter()
            undecided = rec.undecided
            start = time.perf_counter()
            with rec.group("pass", k):
                run_pass(rec, bc, args.workload, inputs, args.seed, k)
            wall = time.perf_counter() - start
            ordered = sorted(rec.durations)
            pct = pct or tail_percentile(len(ordered))
            passes.append({
                "wall": wall, "traced": rec.traced, "tasks": len(ordered),
                "p50": statistics.median(ordered), "tail": nearest_rank(ordered, pct),
                "undecided": rec.undecided - undecided,
                "seconds": dict(rec.by_key), "work": dict(rec.work),
            })
            k += 1
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and time.perf_counter() >= deadline:
                break
            inputs = make_inputs(args.workload, args.seed, k)
    except Exception:
        traceback.print_exc()
        return 1

    failed = len(rec.failures)
    for what in rec.failures[:20]:
        print(f"WRONG: {what}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]] or passes
    walls = [p["wall"] for p in plain]
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "src_basecat_lines": source_lines(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": len(passes), "tasks_per_pass": passes[0]["tasks"],
        "task_samples": sum(p["tasks"] for p in plain), "tail_percentile": pct,
        "setup_samples": len(setups), "iso_searches": rec.searches, "iso_undecided": rec.undecided,
        "pass_walls_s": [p["wall"] for p in passes],
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = layer_metrics(traced, walls)
        context["self_times"] = self_times(rec.spans)
        context["trace_file"] = str(write_trace(args, rec.spans, context["self_times"]).relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.mean(walls),
            "task_p50_ms": statistics.mean(p["p50"] for p in plain) * 1000,
            "task_tail_ms": statistics.mean(p["tail"] for p in plain) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # Over isomorphism searches only, so one more undecided search
            # shows; 1.0 on a workload that makes none.
            "decided_share": 1 - rec.undecided / rec.searches if rec.searches else 1.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": rec.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def write_trace(args, spans: list[tuple], table: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "self_times": table,
        "spans": [
            {"id": i, "parent": parent, "name": key, "function": fn, "start": s, "end": e,
             "workload": args.workload}
            for i, parent, key, fn, s, e in spans
        ],
    }))
    return trace_file


def setup_only(args) -> int:
    import_basecat()
    make_inputs(args.workload, args.seed, 0)
    print(json.dumps({"setup_s": (time.monotonic_ns() - args.t0) / 1e9}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if not (ROOT / "src" / "basecat" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'basecat'} is missing", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
