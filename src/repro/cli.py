"""Command-line interface: ``repro-fd`` / ``python -m repro``.

Subcommands::

    discover   run FD discovery on a CSV file or a benchmark replica
    rank       discover + canonical cover + redundancy ranking
    covers     compare left-reduced vs canonical cover sizes
    multitable join-FD discovery across CSV tables (virtual join)
    datasets   list the built-in benchmark replicas
    generate   write a benchmark replica to a CSV file
    serve      run the repro.service discovery server (HTTP)
    submit     upload a dataset to a server and run discover/rank there
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .algorithms.registry import algorithm_names, make_algorithm
from .bench.tables import format_table
from .covers.canonical import compare_covers
from .datasets.benchmarks import benchmark_names, get_spec, load_benchmark
from .profiling.profiler import profile
from .relational.io import ON_BAD_ROW_POLICIES, read_csv, write_csv
from .relational.null import NullSemantics
from .relational.relation import Relation
from .resilience import RunBudget, parse_bytes
from .telemetry import Tracer, format_trace, use_tracer, write_trace_jsonl


def package_version() -> str:
    """The installed package version, falling back to ``repro.__version__``."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def _load_input(args: argparse.Namespace) -> Relation:
    """Resolve --csv / --benchmark inputs into a relation."""
    semantics = NullSemantics.parse(args.null_semantics)
    if args.csv:
        return read_csv(
            args.csv,
            semantics=semantics,
            max_rows=args.rows,
            on_bad_row=getattr(args, "on_bad_row", "raise"),
        )
    relation = load_benchmark(args.benchmark, n_rows=args.rows, seed=args.seed)
    if semantics is not relation.semantics:
        relation = relation.with_semantics(semantics)
    return relation


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", help="path to a CSV file with a header row")
    source.add_argument(
        "--benchmark",
        choices=benchmark_names(),
        help="name of a built-in benchmark replica",
    )
    parser.add_argument("--rows", type=int, default=None, help="row cap / fragment size")
    parser.add_argument("--seed", type=int, default=0, help="replica generator seed")
    parser.add_argument(
        "--null-semantics",
        default="eq",
        choices=["eq", "neq"],
        help="null=null (eq, default) or null!=null (neq)",
    )
    parser.add_argument(
        "--on-bad-row",
        default="raise",
        choices=list(ON_BAD_ROW_POLICIES),
        help="ragged/undecodable CSV rows: raise (default), skip "
        "(quarantine), or pad with nulls",
    )


def _parse_bytes_arg(value: str) -> int:
    """argparse type for --memory-budget: bytes or '64m'/'1g' suffixes."""
    try:
        return parse_bytes(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_limit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock cap for the run",
    )
    parser.add_argument(
        "--memory-budget",
        type=_parse_bytes_arg,
        default=None,
        metavar="BYTES",
        help="partition-memory budget (plain bytes or '64m'/'1g'); "
        "pressure degrades the run before aborting",
    )
    parser.add_argument(
        "--on-limit",
        default="raise",
        choices=["raise", "partial"],
        help="what a tripped limit does: fail the run (raise, default) "
        "or return the sound partial cover (partial)",
    )


def _limit_kwargs(args: argparse.Namespace) -> dict:
    """Algorithm kwargs from the --time-limit/--memory-budget/--on-limit flags."""
    kwargs = {
        "time_limit": args.time_limit,
        "on_limit": getattr(args, "on_limit", "raise"),
    }
    memory_budget = getattr(args, "memory_budget", None)
    if memory_budget is not None:
        kwargs["budget"] = RunBudget(
            time_limit=args.time_limit, memory_limit_bytes=memory_budget
        )
    return kwargs


def _print_partial_notice(result) -> None:
    """One-line warning when a limit turned the run into a partial result."""
    if not result.completed:
        print(
            f"PARTIAL RESULT ({result.limit_reason} limit): "
            f"{result.fd_count} FDs verified sound, "
            f"{len(result.unverified)} candidates unverified"
        )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record phase telemetry and print the span tree",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write trace events as JSONL to PATH (implies --trace)",
    )
    parser.add_argument(
        "--trace-memory",
        action="store_true",
        help="also record tracemalloc memory deltas per span (implies --trace)",
    )


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """A tracer when any --trace* flag was given, else None."""
    if args.trace or args.trace_out or args.trace_memory:
        return Tracer(track_memory=args.trace_memory)
    return None


def _finish_trace(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    """Print the span tree and write the JSONL stream as requested."""
    if tracer is None:
        return
    tracer.close()
    print()
    print(format_trace(tracer))
    if args.trace_out:
        count = write_trace_jsonl(tracer, args.trace_out)
        print(f"wrote {count} trace events to {args.trace_out}")


def _cmd_discover(args: argparse.Namespace) -> int:
    relation = _load_input(args)
    algo = make_algorithm(args.algorithm, **_limit_kwargs(args))
    tracer = _make_tracer(args)
    context = use_tracer(tracer) if tracer is not None else contextlib.nullcontext()
    with context:
        if args.top_k is not None:
            result = algo.discover_top_k(relation, args.top_k)
        else:
            result = algo.discover(relation)
    kind = "" if result.top_k is None else f"top-{result.top_k} "
    print(
        f"{result.algorithm}: {kind}{result.fd_count} FDs in "
        f"{result.elapsed_seconds:.3f}s on {relation.n_rows} rows x "
        f"{relation.n_cols} cols"
    )
    _print_partial_notice(result)
    if args.show_fds:
        for line in result.format_fds():
            print(" ", line)
    _finish_trace(tracer, args)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    relation = _load_input(args)
    tracer = _make_tracer(args)
    outcome = profile(
        relation,
        algorithm=args.algorithm,
        trace=tracer or False,
        top_k=args.top_k,
        **_limit_kwargs(args),
    )
    print(outcome.summary())
    print()
    if outcome.ranking is None:
        print("(ranking skipped: the time limit ran out before it finished)")
        _finish_trace(tracer, args)
        return 0
    top = outcome.ranking.top(args.top)
    rows = [
        (
            ranked.fd.format(relation.schema),
            ranked.redundancy,
            ranked.redundancy_excluding_null,
        )
        for ranked in top
    ]
    print(format_table(["FD", "#red+0", "#red"], rows, title="Top-ranked FDs"))
    _finish_trace(tracer, args)
    return 0


def _cmd_covers(args: argparse.Namespace) -> int:
    relation = _load_input(args)
    algo = make_algorithm(args.algorithm, **_limit_kwargs(args))
    result = algo.discover(relation)
    _print_partial_notice(result)
    _, comparison = compare_covers(result.fds)
    rows = [
        ("left-reduced |Σ|", comparison.left_reduced_count),
        ("left-reduced ||Σ||", comparison.left_reduced_occurrences),
        ("canonical |Σ|", comparison.canonical_count),
        ("canonical ||Σ||", comparison.canonical_occurrences),
        ("%Size", f"{comparison.size_percent:.0f}%"),
        ("%Card", f"{comparison.occurrence_percent:.0f}%"),
        ("cover time", f"{comparison.seconds:.4f}s"),
    ]
    print(format_table(["metric", "value"], rows, title="Cover comparison"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .profiling.report import markdown_report

    relation = _load_input(args)
    outcome = profile(relation, algorithm=args.algorithm, **_limit_kwargs(args))
    text = markdown_report(outcome, title=args.title)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    from .normalize import (
        candidate_keys,
        check_3nf,
        check_bcnf,
        is_lossless_join,
        preserves_dependencies,
        synthesize_3nf,
    )
    from .covers.canonical import canonical_cover

    relation = _load_input(args)
    algo = make_algorithm(args.algorithm, **_limit_kwargs(args))
    discovered = algo.discover(relation)
    _print_partial_notice(discovered)
    cover = list(canonical_cover(discovered.fds))
    n_cols = relation.n_cols
    schema = relation.schema

    keys = candidate_keys(n_cols, cover)
    print("candidate keys:")
    for key in keys:
        print("  ", schema.format_attr_set(key))
    bcnf = check_bcnf(n_cols, cover)
    third = check_3nf(n_cols, cover)
    print(f"BCNF: {bcnf.satisfied}   3NF: {third.satisfied}")
    for violation in bcnf.violations[: args.top]:
        print("  BCNF violation:", violation.format(schema))

    decomposition = synthesize_3nf(n_cols, cover)
    print("3NF synthesis:")
    for fragment in decomposition.format(schema):
        print("  table(", fragment, ")")
    print(
        "lossless join:",
        is_lossless_join(n_cols, cover, decomposition),
        "  dependency preserving:",
        preserves_dependencies(cover, decomposition),
    )
    return 0


def _cmd_keys(args: argparse.Namespace) -> int:
    from .ucc import discover_uccs

    relation = _load_input(args)
    result = discover_uccs(relation, time_limit=args.time_limit)
    if not result.uccs:
        print(
            "no unique column combinations (the relation contains duplicate rows)"
        )
        return 0
    print(
        f"{len(result.uccs)} minimal unique column combination(s) in "
        f"{result.elapsed_seconds:.3f}s "
        f"({result.rounds} rounds, {result.validations} validations):"
    )
    for line in result.format():
        print("  ", line)
    return 0


def _parse_fk_side(side: str) -> tuple:
    """``table.col[+col...]`` → ``(table, [cols])`` for --fk specs."""
    table, dot, cols = side.partition(".")
    if not dot or not table or not cols:
        raise argparse.ArgumentTypeError(
            f"foreign-key side must look like table.col or table.c1+c2, got {side!r}"
        )
    return table, cols.split("+")


def _parse_fk_spec(spec: str) -> tuple:
    """``child.col=parent.col`` → ``(child, ccols, parent, pcols)``."""
    child_side, sep, parent_side = spec.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"--fk must look like child.col=parent.col, got {spec!r}"
        )
    child, ccols = _parse_fk_side(child_side)
    parent, pcols = _parse_fk_side(parent_side)
    return child, ccols, parent, pcols


def _cmd_multitable(args: argparse.Namespace) -> int:
    import json

    from .multitable import MultitableError, SchemaGraph, discover_join_fds

    try:
        if args.star or not args.table:
            # Demo mode: the reddit_star workload (docs/multitable.md).
            from .datasets.star import STAR_PATH, reddit_star_graph

            graph = reddit_star_graph(
                n_posts=args.rows or 400, seed=args.seed
            )
            path = args.path.split(",") if args.path else list(STAR_PATH)
        else:
            semantics = NullSemantics.parse(args.null_semantics)
            keys = {}
            for spec in args.key:
                table, sep, cols = spec.partition("=")
                if not sep or not cols:
                    print(
                        f"error: --key must look like table=col or table=c1+c2, "
                        f"got {spec!r}",
                        file=sys.stderr,
                    )
                    return 2
                keys[table] = cols.split("+")
            graph = SchemaGraph()
            for spec in args.table:
                name, sep, csv_path = spec.partition("=")
                if not sep or not csv_path:
                    print(
                        f"error: --table must look like name=path.csv, got {spec!r}",
                        file=sys.stderr,
                    )
                    return 2
                relation = read_csv(
                    csv_path,
                    semantics=semantics,
                    max_rows=args.rows,
                    on_bad_row=args.on_bad_row,
                )
                graph.add_table(name, relation, key=keys.get(name))
            for child, ccols, parent, pcols in args.fk:
                graph.add_foreign_key(
                    child, ccols, parent, pcols, require_inclusion=False
                )
            if args.infer_fks:
                graph.infer_foreign_keys()
            if not args.path:
                print(
                    "error: --path T1,T2[,T3...] is required with --table inputs",
                    file=sys.stderr,
                )
                return 2
            path = [p for p in args.path.split(",") if p]
        result = discover_join_fds(
            graph,
            path,
            algorithm=args.algorithm,
            on_dangling=args.on_dangling,
            top_k=args.top_k,
            time_limit=args.time_limit,
        )
    except MultitableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.payload(), indent=2, sort_keys=True))
        return 0
    provenance = result.provenance
    print(
        f"{result.algorithm}: {len(result.ranking.ranked)} join FDs over "
        f"{' -> '.join(result.path)} ({provenance.n_rows} virtual rows, "
        f"never materialized) in {result.discovery.elapsed_seconds:.3f}s"
    )
    print(
        f"  on_dangling={result.policy}: {provenance.dropped_rows} rows dropped, "
        f"{provenance.padded_cells} cells padded; "
        f"{result.intra_count} intra / {result.inter_count} inter-table"
    )
    for line in result.format_fds()[: args.top]:
        print(" ", line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import FDService
    from .service.server import make_server

    service = FDService(
        max_workers=args.max_workers,
        store_dir=args.store_dir,
        dataset_dir=args.dataset_dir,
        recover=args.recover,
    )
    if service.recovery:
        print(
            "recovered jobs from journal: "
            + ", ".join(f"{k}={v}" for k, v in sorted(service.recovery.items())),
            flush=True,
        )
    server = make_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[:2]
    print(
        f"repro.service listening on http://{host}:{port} "
        f"(workers={args.max_workers}"
        + (f", store={args.store_dir})" if args.store_dir else ")"),
        flush=True,
    )

    # SIGTERM = graceful drain (a supervisor's clean restart): stop
    # accepting, let in-flight jobs finish up to --drain-timeout, sync
    # the result store, exit 0.
    draining = threading.Event()

    def _on_sigterm(signum, frame):  # noqa: ARG001 — signal signature
        draining.set()
        # serve_forever() runs on this (main) thread, so the actual
        # shutdown() call has to come from another one.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        if draining.is_set():
            finished = service.drain(args.drain_timeout)
            print(
                "drained cleanly" if finished else
                f"drain timed out after {args.drain_timeout}s; "
                "cancelling remaining jobs",
                flush=True,
            )
        service.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server, timeout=args.request_timeout)
    relation = _load_input(args)
    info = client.upload_rows(
        relation.schema.names,
        list(relation.iter_rows()),
        name=args.name,
        semantics="eq" if relation.semantics is NullSemantics.EQ else "neq",
    )
    print(
        f"dataset {info['fingerprint'][:16]}... "
        f"({info['n_rows']} rows x {info['n_cols']} cols)"
    )
    config = {"algorithm": args.algorithm, "on_limit": getattr(args, "on_limit", "raise")}
    if args.time_limit is not None:
        config["time_limit"] = args.time_limit
    if getattr(args, "memory_budget", None) is not None:
        config["memory_budget"] = args.memory_budget
    job_id = client.submit(
        info["fingerprint"],
        kind=args.kind,
        config=config,
        priority=args.priority,
        top_k=args.top_k,
    )
    print(f"submitted {job_id} ({args.kind}, priority {args.priority})")
    if args.no_wait:
        return 0
    status = client.wait(job_id)
    if status["status"] != "done":
        print(f"job {job_id} {status['status']}: {status.get('error') or ''}")
        return 1
    try:
        result = ServiceClient.result_from_status(status)
    except ServiceError as exc:
        print(f"error: {exc}")
        return 1
    cached = " (cached)" if status.get("cached") else ""
    kind = "" if result.top_k is None else f"top-{result.top_k} "
    print(
        f"{result.algorithm}: {kind}{result.fd_count} FDs in "
        f"{result.elapsed_seconds:.3f}s{cached}"
    )
    _print_partial_notice(result)
    if args.show_fds:
        for line in result.format_fds():
            print(" ", line)
    if args.kind == "rank" and status.get("ranking") is not None:
        rows = [
            (r["fd"], r["redundancy"], r["redundancy_excluding_null"])
            for r in status["ranking"][: args.top]
        ]
        print(format_table(["FD", "#red+0", "#red"], rows, title="Top-ranked FDs"))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in benchmark_names():
        spec = get_spec(name)
        rows.append(
            (
                spec.name,
                f"{spec.paper_rows}x{spec.paper_cols}",
                spec.paper_fds if spec.paper_fds is not None else "-",
                spec.bench_rows,
                "yes" if spec.has_nulls else "no",
                spec.description,
            )
        )
    print(
        format_table(
            ["name", "paper shape", "#FD", "bench rows", "nulls", "description"],
            rows,
            title="Benchmark replicas",
        )
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    relation = load_benchmark(args.benchmark, n_rows=args.rows, seed=args.seed)
    write_csv(relation, args.output)
    print(
        f"wrote {relation.n_rows} rows x {relation.n_cols} cols to {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-fd",
        description="FD discovery and ranking (Wei & Link, ICDE 2019 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags of every subcommand that runs one discovery job.
    job = argparse.ArgumentParser(add_help=False)
    _add_input_args(job)
    job.add_argument("--algorithm", default="dhyfd", choices=algorithm_names())
    _add_limit_args(job)

    discover = sub.add_parser("discover", parents=[job], help="run FD discovery")
    discover.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="keep only the K FDs of highest redundancy (the first K of "
        "the ranked left-reduced cover)",
    )
    discover.add_argument("--show-fds", action="store_true")
    _add_trace_args(discover)
    discover.set_defaults(handler=_cmd_discover)

    rank = sub.add_parser(
        "rank", parents=[job], help="discover + canonical cover + ranking"
    )
    rank.add_argument("--top", type=int, default=15)
    rank.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="print only the K highest-redundancy FDs of the ranking",
    )
    _add_trace_args(rank)
    rank.set_defaults(handler=_cmd_rank)

    covers = sub.add_parser(
        "covers", parents=[job], help="left-reduced vs canonical cover"
    )
    covers.set_defaults(handler=_cmd_covers)

    report = sub.add_parser("report", parents=[job], help="full markdown data profile")
    report.add_argument("--title", default="Data profile")
    report.add_argument("--output", default=None, help="write to file")
    report.set_defaults(handler=_cmd_report)

    normalize = sub.add_parser(
        "normalize", parents=[job], help="keys, normal forms, 3NF synthesis"
    )
    normalize.add_argument("--top", type=int, default=10)
    normalize.set_defaults(handler=_cmd_normalize)

    keys = sub.add_parser("keys", help="minimal unique column combinations")
    _add_input_args(keys)
    keys.add_argument("--time-limit", type=float, default=None)
    keys.set_defaults(handler=_cmd_keys)

    multitable = sub.add_parser(
        "multitable",
        help="join-FD discovery across CSV tables without materializing the join",
        description="Declare a schema of base tables plus key/foreign-key "
        "structure, then discover and rank the FDs of a join path's "
        "virtual join (docs/multitable.md). With no --table inputs the "
        "built-in reddit_star workload is used as a demo.",
    )
    multitable.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH.csv",
        help="add a base table from a CSV file (repeatable)",
    )
    multitable.add_argument(
        "--key",
        action="append",
        default=[],
        metavar="TABLE=COL[+COL...]",
        help="declare a table's primary key (default: inferred UCCs)",
    )
    multitable.add_argument(
        "--fk",
        action="append",
        default=[],
        type=_parse_fk_spec,
        metavar="CHILD.COL=PARENT.COL",
        help="declare a foreign-key edge, e.g. posts.author_id=authors.author_id "
        "(composite: child.c1+c2=parent.p1+p2; repeatable)",
    )
    multitable.add_argument(
        "--infer-fks",
        action="store_true",
        help="additionally infer unary foreign keys by inclusion testing",
    )
    multitable.add_argument(
        "--path",
        default=None,
        metavar="T1,T2[,T3...]",
        help="join path as a comma-separated table list",
    )
    multitable.add_argument(
        "--star",
        action="store_true",
        help="use the built-in reddit_star workload (--rows posts, --seed)",
    )
    multitable.add_argument("--rows", type=int, default=None, help="row cap / demo size")
    multitable.add_argument("--seed", type=int, default=0, help="demo generator seed")
    multitable.add_argument(
        "--null-semantics", default="eq", choices=["eq", "neq"],
        help="null=null (eq, default) or null!=null (neq)",
    )
    multitable.add_argument(
        "--on-bad-row",
        default="raise",
        choices=list(ON_BAD_ROW_POLICIES),
        help="ragged/undecodable CSV rows: raise (default), skip, or pad",
    )
    multitable.add_argument(
        "--on-dangling",
        default="raise",
        choices=["raise", "drop", "pad"],
        help="referential violations in the join: fail (raise, default), "
        "drop the rows (inner join), or pad with nulls (outer join)",
    )
    multitable.add_argument("--algorithm", default="dhyfd", choices=algorithm_names())
    multitable.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    multitable.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="bound the ranking to the K highest-redundancy join FDs",
    )
    multitable.add_argument(
        "--top", type=int, default=25, help="ranked FDs to print (default 25)"
    )
    multitable.add_argument(
        "--json", action="store_true", help="print the full JSON payload"
    )
    multitable.set_defaults(handler=_cmd_multitable)

    datasets = sub.add_parser("datasets", help="list benchmark replicas")
    datasets.set_defaults(handler=_cmd_datasets)

    generate = sub.add_parser("generate", help="write a replica to CSV")
    generate.add_argument("--benchmark", required=True, choices=benchmark_names())
    generate.add_argument("--rows", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)
    generate.set_defaults(handler=_cmd_generate)

    serve = sub.add_parser("serve", help="run the FD discovery service (HTTP)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="0 picks a free port (printed)"
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=2,
        help="concurrent discovery jobs, each run serially in its own thread",
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        help="persist cached covers here so they survive restarts",
    )
    serve.add_argument(
        "--dataset-dir",
        default=None,
        help="persist registered datasets here so a restarted server "
        "still knows them (see docs/durability.md)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="on SIGTERM: stop accepting and let in-flight jobs finish "
        "for up to this long before exiting (graceful drain)",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help="replay the job journal on startup: requeue jobs that never "
        "ran, resume checkpointed ones (see docs/durability.md)",
    )
    serve.add_argument("--verbose", action="store_true", help="log every request")
    serve.set_defaults(handler=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        parents=[job],
        help="upload a dataset to a server and discover/rank there",
    )
    submit.add_argument(
        "--server", required=True, help="server base URL, e.g. http://127.0.0.1:8765"
    )
    submit.add_argument(
        "--kind", default="discover", choices=["discover", "rank"]
    )
    submit.add_argument("--name", default=None, help="dataset name alias on the server")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="server-side top-k: keep only the K highest-redundancy FDs "
        "(sent as the ?top_k= query param)",
    )
    submit.add_argument("--top", type=int, default=15)
    submit.add_argument("--show-fds", action="store_true")
    submit.add_argument(
        "--no-wait", action="store_true", help="print the job id and exit"
    )
    submit.add_argument(
        "--request-timeout", type=float, default=120.0, help="per-request socket timeout"
    )
    submit.set_defaults(handler=_cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
