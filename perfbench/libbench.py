"""Library workloads: ``profile()`` over tall and wide relations.

A cycle over a workload's inputs does, per input and in this order:

* cold   — ``profile()`` (DHyFD, canonical cover, ranking, data-set
  redundancy); the ``reddit_star`` join goes through
  ``discover_join_fds`` instead.  The memplane partition tier is reset at
  the start of every cycle, so the first call on each input is cold;
* then three times each of
  * upload — ``Relation.from_rows`` on the generated rows;
  * warm   — ``rank_cover(top_k=10)`` on the profiled cover;
  * append — ``IncrementalFDMaintainer.append_rows`` with a fixed batch
    of ten rows (single relations only).

Every op is one sample, timed in wall seconds and scaled to the
reference host speed (``common.Clock``).

Inputs are the registry replicas at generator seed 0; the run seed only
permutes their rows.  Covers, canonical covers and rankings do not depend
on row order, so the digests in ``reference.json`` hold for every seed.
"""

from __future__ import annotations

import dataclasses
import gc
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    ROOT,
    Clock,
    RUNS_DIR,
    SRC,
    cover_lines,
    digest,
    load_reference,
    median,
    ranking_lines,
    seeded_rng,
    span,
)
from layers import (
    covers_ranking_layers,
    discovery_layers,
    median_by_key,
    print_layers,
    report_layers,
)

WORKLOAD_INPUTS = {
    "lib-tall": ("ncvoter", "letter", "adult", "reddit_star"),
    "lib-wide": ("hepatitis",),
}
#: Posts of the reddit_star virtual join (about 9,500 join rows).
STAR_POSTS = 10_000
#: Rows appended per input; taken from the replica at generator seed 1.
APPEND_ROWS = 10
#: hepatitis is profiled without its columns 1 and 2: the full 20 columns
#: take ~18 s a profile on a 2-vCPU x86_64 VM, too few samples for a run;
#: 18 columns take ~3.4 s and keep the wide regime (7,985 FDs, 1,247 in
#: the canonical cover, which takes as long as all of discovery).
HEPATITIS_DROP = (1, 2)
TOP_K = 10
SETUPS = 3
#: A sample of upload, warm or append repeats the call until this long
#: and counts its mean (one encode of hepatitis takes under a millisecond).
MIN_SHORT_OP_S = 0.03
#: Samples of each short op per input in every cycle.
SHORT_REPEATS = 3
HERE = Path(__file__).resolve().parent


@dataclass
class Table:
    names: List[str]
    rows: List[Tuple[object, ...]]


@dataclass
class LibInput:
    """One generated input: rows only, encoded afresh in every pass."""

    name: str
    tables: Dict[str, Table]
    extra: List[Tuple[object, ...]] = field(default_factory=list)

    @property
    def is_join(self) -> bool:
        return self.name == "reddit_star"


def _rows(relation) -> List[Tuple[object, ...]]:
    return [tuple(row) for row in relation.iter_rows()]


def generate(name: str, seed: Optional[int]) -> LibInput:
    """The input ``name``; rows permuted by ``seed`` (None keeps order)."""
    from repro.datasets.benchmarks import load_benchmark
    from repro.datasets.star import reddit_star_tables

    if name == "reddit_star":
        tables = {
            table: Table(list(rel.schema.names), _rows(rel))
            for table, rel in reddit_star_tables(n_posts=STAR_POSTS, seed=0).items()
        }
        extra: List[Tuple[object, ...]] = []
    else:
        rel = load_benchmark(name)
        names, rows = list(rel.schema.names), _rows(rel)
        extra = _rows(load_benchmark(name, seed=1))[:APPEND_ROWS]
        if name == "hepatitis":
            keep = [c for c in range(len(names)) if c not in HEPATITIS_DROP]
            names = [names[c] for c in keep]
            rows = [tuple(row[c] for c in keep) for row in rows]
            extra = [tuple(row[c] for c in keep) for row in extra]
        tables = {name: Table(names, rows)}
    if seed is not None:
        for table_name, table in tables.items():
            seeded_rng(seed, name, table_name).shuffle(table.rows)
    return LibInput(name, tables, extra)


def encode(inp: LibInput):
    """Encode an input: a Relation, or the star's SchemaGraph."""
    from repro.relational.relation import Relation

    if not inp.is_join:
        table = inp.tables[inp.name]
        return Relation.from_rows(table.rows, table.names)
    from repro.multitable.schema import SchemaGraph

    graph = SchemaGraph()
    for table, key in (("posts", "post_id"), ("authors", "author_id"),
                       ("subreddits", "subreddit_id")):
        data = inp.tables[table]
        graph.add_table(table, Relation.from_rows(data.rows, data.names), key=[key])
    # Mirrors repro.datasets.star.reddit_star_graph: dirty author FKs.
    graph.add_foreign_key("posts", ["author_id"], "authors", ["author_id"],
                          require_inclusion=False)
    graph.add_foreign_key("posts", ["subreddit_id"], "subreddits", ["subreddit_id"])
    return graph


def prepare(workload: str, seed: int) -> List[LibInput]:
    """Generate and encode the workload's inputs (what set-up does)."""
    import repro  # noqa: F401 — a library user imports the package first

    inputs = [generate(name, seed) for name in WORKLOAD_INPUTS[workload]]
    for inp in inputs:
        encode(inp)
    return inputs


def fresh_setup(workload: str, seed: int) -> None:
    """A fresh interpreter imports the package and runs ``prepare``.

    A library user pays the interpreter start and the imports before the
    first call, as a server pays its boot; a fresh process also keeps the
    figure large enough to time steadily.
    """
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import libbench; "
            "libbench.prepare(sys.argv[3], int(sys.argv[4]))")
    subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(SRC), workload, str(seed)],
        cwd=str(ROOT), check=True,
    )


def reference_outputs(inp: LibInput) -> Dict[str, Dict[str, object]]:
    """Digests of every checked output, computed without the pass code.

    Fresh discovery everywhere (the appended cover is rediscovered, not
    maintained) and the top-k answer is cut from the full ranking.
    """
    from repro.algorithms.registry import make_algorithm
    from repro.covers.canonical import compare_covers
    from repro.datasets.star import STAR_PATH
    from repro.multitable.discovery import discover_join_fds
    from repro.ranking.ranker import rank_cover
    from repro.ranking.redundancy import dataset_redundancy
    from repro.relational.relation import Relation

    encoded = encode(inp)
    if inp.is_join:
        result = discover_join_fds(encoded, STAR_PATH, on_dangling="pad")
        names = result.relation.schema.names
        ranked = result.ranking.ranked
        return {
            "left_reduced": digest(cover_lines(result.discovery.fds, names)),
            "ranking": digest(ranking_lines(ranked, names)),
            "top10": digest(ranking_lines(ranked[:TOP_K], names)),
        }
    names = encoded.schema.names
    fds = make_algorithm("dhyfd").discover(encoded).fds
    canonical, _ = compare_covers(fds)
    ranked = rank_cover(encoded, canonical).ranked
    red = dataset_redundancy(encoded, canonical)
    table = inp.tables[inp.name]
    appended = make_algorithm("dhyfd").discover(
        Relation.from_rows(table.rows + inp.extra, names)
    )
    return {
        "left_reduced": digest(cover_lines(fds, names)),
        "canonical": digest(cover_lines(canonical, names)),
        "ranking": digest(
            ranking_lines(ranked, names)
            + [f"red {red.red_including_null}/{red.red_excluding_null}"]
        ),
        "top10": digest(ranking_lines(ranked[:TOP_K], names)),
        "appended": digest(cover_lines(appended.fds, names)),
    }


@dataclass
class CycleResult:
    per_input: Dict[str, float]            # input -> wall seconds of its cold op
    ops: List[Tuple[str, str, bool]]       # (input, op, output correct)
    stats: List[Dict[str, object]]         # DiscoveryStats of the cold ops
    fd_counts: Dict[str, float]            # covers.* sizes summed over inputs
    tracer: object = None
    summary: Optional[Dict[str, object]] = None
    stale_fallbacks: int = 0


def run_cycle(inputs: Sequence[LibInput], reference: Dict, clock: Clock,
              tracer=None) -> CycleResult:
    """One cycle: per input, the cold op, then SHORT_REPEATS x (upload, warm, append).

    Every op is one sample on ``clock``, under the op's name and the
    input's.  A traced cycle records its cold ops on ``tracer`` and files
    their samples under ``traced-cold``.  The memplane partition tier is
    reset at the start of the cycle, and a full collection precedes each
    timed step, so a sample does not depend on how much garbage earlier
    ones left.
    """
    from repro import memplane
    from repro.datasets.star import STAR_PATH
    from repro.incremental.maintainer import IncrementalFDMaintainer
    from repro.multitable.discovery import discover_join_fds
    from repro.profiling.profiler import profile
    from repro.ranking.ranker import rank_cover
    from repro.telemetry import trace_summary, use_tracer

    per_input: Dict[str, float] = {}
    ops: List[Tuple[str, str, bool]] = []
    stats: List[Dict[str, object]] = []
    fd_counts = {"covers.left_reduced_fds": 0.0, "covers.canonical_fds": 0.0}
    cold_op = "traced-cold" if tracer is not None else "cold"
    memplane.reset_tiers()
    for inp in inputs:
        ref = reference[inp.name]
        encoded = encode(inp)
        gc.collect()

        def cold():
            if inp.is_join:
                return discover_join_fds(encoded, STAR_PATH, on_dangling="pad")
            return profile(encoded)

        if tracer is None:
            result = clock.time(cold_op, inp.name, cold)
        else:
            with use_tracer(tracer), span(tracer, "bench.cold", input=inp.name):
                result = clock.time(cold_op, inp.name, cold)
        per_input[inp.name] = clock.raw[(cold_op, inp.name)][-1]
        relation = result.relation
        names = relation.schema.names
        stats.append(dataclasses.asdict(result.discovery.stats))
        if inp.is_join:
            left_reduced, to_rank = result.discovery.fds, result.discovery.fds
            cold_ok = (
                digest(cover_lines(left_reduced, names)) == ref["left_reduced"]
                and digest(ranking_lines(result.ranking.ranked, names)) == ref["ranking"]
            )
        else:
            left_reduced, to_rank = result.left_reduced, result.canonical
            red = result.redundancy
            cold_ok = (
                digest(cover_lines(left_reduced, names)) == ref["left_reduced"]
                and digest(cover_lines(result.canonical, names)) == ref["canonical"]
                and digest(
                    ranking_lines(result.ranking.ranked, names)
                    + [f"red {red.red_including_null}/{red.red_excluding_null}"]
                ) == ref["ranking"]
            )
        fd_counts["covers.left_reduced_fds"] += len(left_reduced)
        fd_counts["covers.canonical_fds"] += len(to_rank)
        ops.append((inp.name, cold_op, cold_ok))

        for _ in range(SHORT_REPEATS):
            gc.collect()
            encoded_again = clock.time("upload", inp.name, lambda: encode(inp),
                                       MIN_SHORT_OP_S)
            ops.append((inp.name, "upload", encoded_again is not None))
            top = clock.time("warm", inp.name,
                             lambda: rank_cover(relation, to_rank, top_k=TOP_K),
                             MIN_SHORT_OP_S)
            ops.append((inp.name, "warm",
                        digest(ranking_lines(top.ranked, names)) == ref["top10"]))
            if inp.extra:
                cover = clock.time(
                    "append", inp.name,
                    lambda: IncrementalFDMaintainer(
                        relation, cover=left_reduced).append_rows(inp.extra),
                    MIN_SHORT_OP_S)
                ops.append((inp.name, "append",
                            digest(cover_lines(cover, names)) == ref["appended"]))
    result = CycleResult(per_input, ops, stats, fd_counts)
    if tracer is not None:
        result.tracer = tracer
        result.summary = trace_summary(tracer)
        result.stale_fallbacks = sum(
            int(event.attrs.get("stale_fallbacks", 0))
            for event in tracer.events
            if event.name == "partition_cache"
        )
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, report) -> None:
    from repro.telemetry import Tracer

    reference = load_reference()["lib"]
    names = WORKLOAD_INPUTS[workload]
    clock = Clock()
    setups = [clock.measure(lambda: fresh_setup(workload, seed)) for _ in range(SETUPS)]
    inputs = prepare(workload, seed)
    # Set-up data lives for the whole run: keep it out of every collection.
    gc.collect()
    gc.freeze()
    untraced: List[CycleResult] = []
    traced: List[CycleResult] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not untraced or (trace and not traced):
        untraced.append(run_cycle(inputs, reference, clock))
        if trace:
            traced.append(run_cycle(inputs, reference, clock, Tracer()))

    for cycle in untraced + traced:
        for input_name, op, ok in cycle.ops:
            report.op(ok, f"{input_name}.{op}")

    if not trace:
        report.value("setup_s", median([s[2] for s in setups]), "s", len(setups))
        report.line("raw.setup_s", median([s[1] for s in setups]), "s", len(setups),
                    note="(wall time, unscaled)")
        for op in ("upload", "cold", "warm", "append"):
            report.timings(op, clock.groups(op), clock.groups(op, scaled=False))
        cold_s = report.metrics["cold_p50_ms"]["value"] / 1000.0
        report.value("throughput_ops", len(inputs) / cold_s, "1/s",
                     len(untraced), note="(inputs profiled per second)")
        report.value("peak_rss_mb", _peak_rss_mb(), "MB", 1,
                     note="(VmHWM of this process)")
        report.alias("profile_s", "cold_p50_ms", 0.001, "s")
        for input_name in names:
            report.line(f"lib.{input_name}_s",
                        median(clock.groups("cold")[input_name]) / 1000.0, "s",
                        len(untraced))
        report.line("host.cal_ms", median(clock.calibrations) * 1000.0, "ms",
                    len(clock.calibrations), note="(calibration loop; scale = ref / this)")
        return

    rows = []
    for cycle in traced:
        row = discovery_layers(cycle.summary, cycle.stats)
        row.update(covers_ranking_layers(cycle.summary))
        row.update(cycle.fd_counts)
        rows.append(row)
    layers = median_by_key(rows)
    layers["relational.encode_s"] = sum(
        median(samples) for samples in clock.groups("upload", scaled=False).values()
    ) / 1000.0
    plain = sum(median(s) for s in clock.groups("cold").values())
    with_trace = sum(median(s) for s in clock.groups("traced-cold").values())
    layers["telemetry.overhead_frac"] = with_trace / plain - 1.0
    report_layers(report, layers, len(traced), "(per cycle)")
    extra = {
        f"lib.{name}_s": median(clock.groups("cold")[name]) / 1000.0 for name in names
    }
    extra["partitions.stale_fallbacks"] = median([c.stale_fallbacks for c in traced])
    if "reddit_star" in names:
        extra["multitable.provenance_s"] = median(
            [c.summary["spans"].get("multitable.provenance", {}).get("seconds", 0.0)
             for c in traced])
        extra["multitable.lift_s"] = median(
            [c.summary["spans"].get("multitable.lift", {}).get("seconds", 0.0)
             for c in traced])
    print_layers(report, extra, len(traced), "(per cycle)")

    from repro.telemetry import write_trace_jsonl

    RUNS_DIR.mkdir(exist_ok=True)
    path = RUNS_DIR / f"{workload}-s{seed}.trace.jsonl"
    write_trace_jsonl(traced[-1].tracer, str(path))
    report.lines.append(f"# spans of the last traced cycle: {path.relative_to(ROOT)}")


def _peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")
