"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.relational.io import write_csv


@pytest.fixture
def csv_path(tmp_path, city_relation):
    path = tmp_path / "city.csv"
    write_csv(city_relation, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_requires_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover"])

    def test_mutually_exclusive_inputs(self, csv_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["discover", "--csv", csv_path, "--benchmark", "iris"]
            )

    def test_memplane_has_no_off_switch(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if action.choices
        ).choices
        for name, sub in subparsers.items():
            options = [
                option for action in sub._actions for option in action.option_strings
            ]
            assert not [o for o in options if "memplane" in o], name

    def test_input_subcommand_options_pinned(self):
        """Every input subcommand keeps each flag's spelling, default,
        choices, type and action — the shared input/algorithm/limit
        flags as well as the subcommand's own."""
        from repro.algorithms import algorithm_names
        from repro.datasets.benchmarks import benchmark_names

        def spec(default=None, choices=None, type=None, action="_StoreAction",
                 required=False):
            return (default, choices, type, action, required)

        common = {
            "-h": spec(default="==SUPPRESS==", action="_HelpAction"),
            "--help": spec(default="==SUPPRESS==", action="_HelpAction"),
            "--csv": spec(),
            "--benchmark": spec(choices=tuple(benchmark_names())),
            "--rows": spec(type="int"),
            "--seed": spec(default=0, type="int"),
            "--null-semantics": spec(default="eq", choices=("eq", "neq")),
            "--jobs": spec(type="_parse_jobs_arg"),
            "--on-bad-row": spec(default="raise", choices=("raise", "skip", "pad")),
            "--algorithm": spec(default="dhyfd", choices=tuple(algorithm_names())),
            "--time-limit": spec(type="float"),
            "--memory-budget": spec(type="_parse_bytes_arg"),
            "--on-limit": spec(default="raise", choices=("raise", "partial")),
        }
        flag = spec(default=False, action="_StoreTrueAction")
        top_k = spec(type="int")
        trace = {"--trace": flag, "--trace-out": spec(), "--trace-memory": flag}
        extras = {
            "discover": {"--top-k": top_k, "--show-fds": flag, **trace},
            "rank": {"--top": spec(default=15, type="int"), "--top-k": top_k,
                     **trace},
            "covers": {},
            "report": {"--title": spec(default="Data profile"), "--output": spec()},
            "normalize": {"--top": spec(default=10, type="int")},
            "submit": {
                "--server": spec(required=True),
                "--kind": spec(default="discover", choices=("discover", "rank")),
                "--name": spec(),
                "--priority": spec(default=0, type="int"),
                "--top-k": top_k,
                "--top": spec(default=15, type="int"),
                "--show-fds": flag,
                "--no-wait": flag,
                "--request-timeout": spec(default=120.0, type="float"),
            },
        }
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if action.choices
        ).choices
        for name, own in extras.items():
            sub = subparsers[name]
            actual = {}
            for action in sub._actions:
                choices = tuple(action.choices) if action.choices else None
                kind = getattr(action.type, "__name__", None)
                for option in action.option_strings:
                    actual[option] = spec(
                        action.default, choices, kind,
                        type(action).__name__, action.required,
                    )
            assert actual == {**common, **own}, name
            groups = [
                sorted(o for a in group._group_actions for o in a.option_strings)
                for group in sub._mutually_exclusive_groups
            ]
            assert groups == [["--benchmark", "--csv"]], name
            assert all(g.required for g in sub._mutually_exclusive_groups), name


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro-fd" in out
        assert any(ch.isdigit() for ch in out)


class TestTrace:
    def test_discover_trace_prints_tree(self, csv_path, capsys):
        assert main(["discover", "--csv", csv_path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "discovery" in out
        assert "sampling" in out
        assert "validation" in out
        assert "induction" in out
        assert "ratio_decision" in out
        assert "ms" in out

    def test_discover_trace_out_writes_jsonl(self, csv_path, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["discover", "--csv", csv_path, "--trace-out", str(trace_path)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        names = {r.get("name") for r in records}
        assert "ratio_decision" in names
        cache_events = [
            r
            for r in records
            if r["type"] == "event" and r["name"] == "partition_cache"
        ]
        assert cache_events and "hits" in cache_events[0]["attrs"]

    def test_rank_trace(self, csv_path, capsys):
        assert main(["rank", "--csv", csv_path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "ranking" in out
        assert "redundancy" in out

    def test_discover_trace_memory(self, csv_path, capsys):
        assert main(["discover", "--csv", csv_path, "--trace-memory"]) == 0
        assert "KiB" in capsys.readouterr().out


class TestDiscover:
    def test_csv_input(self, csv_path, capsys):
        assert main(["discover", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "dhyfd" in out
        assert "FDs" in out

    def test_show_fds(self, csv_path, capsys):
        main(["discover", "--csv", csv_path, "--show-fds"])
        out = capsys.readouterr().out
        assert "zip -> city" in out

    def test_benchmark_input(self, capsys):
        assert main(["discover", "--benchmark", "iris", "--rows", "60"]) == 0
        assert "dhyfd" in capsys.readouterr().out

    def test_algorithm_option(self, csv_path, capsys):
        main(["discover", "--csv", csv_path, "--algorithm", "tane"])
        assert "tane" in capsys.readouterr().out

    def test_null_semantics_option(self, csv_path):
        assert main(
            ["discover", "--csv", csv_path, "--null-semantics", "neq"]
        ) == 0


class TestRank:
    def test_rank_output(self, csv_path, capsys):
        assert main(["rank", "--csv", csv_path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Top-ranked FDs" in out
        assert "#red+0" in out


class TestCovers:
    def test_covers_output(self, csv_path, capsys):
        assert main(["covers", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "canonical" in out
        assert "%Size" in out


class TestReport:
    def test_report_to_stdout(self, csv_path, capsys):
        assert main(["report", "--csv", csv_path, "--title", "My data"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# My data")
        assert "## Columns" in out

    def test_report_to_file(self, csv_path, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        assert main(
            ["report", "--csv", csv_path, "--output", str(out_path)]
        ) == 0
        assert out_path.exists()
        assert "## Functional dependencies" in out_path.read_text()


class TestKeys:
    def test_keys_output(self, csv_path, capsys):
        assert main(["keys", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "unique column combination" in out
        assert "name" in out

    def test_keys_duplicate_rows(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,b\n1,2\n1,2\n")
        assert main(["keys", "--csv", str(path)]) == 0
        assert "duplicate rows" in capsys.readouterr().out


class TestNormalize:
    def test_normalize_output(self, csv_path, capsys):
        assert main(["normalize", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "candidate keys:" in out
        assert "3NF synthesis:" in out
        assert "lossless join: True" in out


class TestDatasets:
    def test_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ncvoter" in out
        assert "paper shape" in out


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "gen.csv"
        assert main(
            [
                "generate",
                "--benchmark",
                "iris",
                "--rows",
                "25",
                "--output",
                str(out_path),
            ]
        ) == 0
        assert out_path.exists()
        text = out_path.read_text()
        assert len(text.splitlines()) == 26  # header + 25 rows


class TestLimitFlags:
    @pytest.mark.parametrize(
        "command", ["discover", "rank", "covers", "report", "normalize"]
    )
    def test_limit_flags_accepted_everywhere(self, command, csv_path):
        args = build_parser().parse_args(
            [
                command,
                "--csv",
                csv_path,
                "--time-limit",
                "5",
                "--memory-budget",
                "64m",
                "--on-limit",
                "partial",
            ]
        )
        assert args.time_limit == 5.0
        assert args.memory_budget == 64 * 1024 ** 2
        assert args.on_limit == "partial"

    def test_memory_budget_suffix_parsing(self, csv_path):
        args = build_parser().parse_args(
            ["discover", "--csv", csv_path, "--memory-budget", "1g"]
        )
        assert args.memory_budget == 1024 ** 3

    def test_memory_budget_invalid_value(self, csv_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["discover", "--csv", csv_path, "--memory-budget", "lots"]
            )

    def test_on_limit_invalid_value(self, csv_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["discover", "--csv", csv_path, "--on-limit", "maybe"]
            )

    def test_discover_partial_prints_notice(self, csv_path, capsys):
        assert (
            main(
                [
                    "discover",
                    "--csv",
                    csv_path,
                    "--time-limit",
                    "0",
                    "--on-limit",
                    "partial",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PARTIAL RESULT (time limit)" in out

    def test_discover_raise_policy_propagates(self, csv_path):
        from repro.core.base import TimeLimitExceeded

        with pytest.raises(TimeLimitExceeded):
            main(["discover", "--csv", csv_path, "--time-limit", "0"])

    def test_discover_memory_budget_still_exact(self, csv_path, capsys):
        import re

        def normalized(out):
            return re.sub(r"in \d+\.\d+s", "in Xs", out)

        assert main(["discover", "--csv", csv_path, "--show-fds"]) == 0
        unconstrained = normalized(capsys.readouterr().out)
        assert (
            main(
                [
                    "discover",
                    "--csv",
                    csv_path,
                    "--show-fds",
                    "--memory-budget",
                    "1",
                ]
            )
            == 0
        )
        constrained = normalized(capsys.readouterr().out)
        assert constrained == unconstrained

    def test_rank_partial_skips_ranking(self, csv_path, capsys):
        assert (
            main(
                [
                    "rank",
                    "--csv",
                    csv_path,
                    "--time-limit",
                    "0",
                    "--on-limit",
                    "partial",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The partial notice always shows; whether ranking is skipped
        # depends on how much cover survived the limit (an empty cover
        # ranks instantly, so both outcomes are legal here).
        assert "PARTIAL RESULT" in out


class TestBadRowFlag:
    @pytest.fixture
    def ragged_path(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1,2,3\n4,5\n6,7,8\n")
        return str(path)

    def test_default_raises_with_line_number(self, ragged_path):
        from repro.relational.schema import SchemaError

        with pytest.raises(SchemaError) as excinfo:
            main(["discover", "--csv", ragged_path])
        assert "CSV line 3" in str(excinfo.value)

    def test_skip_policy_loads(self, ragged_path, capsys):
        assert (
            main(["discover", "--csv", ragged_path, "--on-bad-row", "skip"])
            == 0
        )
        assert "2 rows" in capsys.readouterr().out

    def test_pad_policy_loads(self, ragged_path, capsys):
        assert (
            main(["discover", "--csv", ragged_path, "--on-bad-row", "pad"])
            == 0
        )
        assert "3 rows" in capsys.readouterr().out
