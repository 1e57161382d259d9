"""Benchmark of the default FD-profiling path: library, service, cluster.

Run from the repository root::

    python3 perfbench/run.py --workload lib-tall --seed 1 --seconds 15 --trace 0

Workloads are listed in BENCHMARK.json and explained in
perfbench/README.md.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the same checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, Report, load_spec, stamp, warn  # noqa: E402

LIB_WORKLOADS = ("lib-tall", "lib-wide")
SERVE_WORKLOADS = ("serve-mixed", "serve-cluster")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=LIB_WORKLOADS + SERVE_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        warn(f"no program sources at {SRC / 'repro'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    group = "per_layer" if args.trace else "end_to_end"
    expected = [metric["name"] for metric in spec[group]]

    report = Report(args.workload, args.seed, bool(args.trace))
    if args.workload in LIB_WORKLOADS:
        import libbench

        libbench.run(args.workload, args.seed, args.seconds, bool(args.trace), report)
    else:
        import servebench

        servebench.run(args.workload, args.seed, args.seconds, bool(args.trace), report)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# stamp " + json.dumps(stamp(), sort_keys=True))
    for line in report.lines:
        print(line)
    fail_frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"{'fail_frac':<34} {fail_frac:>14.4f} {'ratio':<6}  "
          f"n={report.attempted}  ({report.failed} failed)")
    for failure in report.failures:
        print(f"# failed: {failure}")
    print(report.json_line(expected), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
