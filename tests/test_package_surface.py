"""Package-surface contract: exports resolve, CLI surface is stable."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        for module in [
            "repro.relational", "repro.partitions", "repro.fdtree",
            "repro.core", "repro.algorithms", "repro.covers",
            "repro.ranking", "repro.datasets", "repro.normalize",
            "repro.incremental", "repro.ucc", "repro.profiling",
            "repro.bench", "repro.cli", "repro.service", "repro.memplane",
        ]:
            importlib.import_module(module)

    def test_all_sorted_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))


class TestCliSurface:
    def test_subcommands_present(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        expected = {
            "discover", "rank", "covers", "report", "normalize",
            "keys", "datasets", "generate", "serve", "submit",
        }
        assert expected <= set(subparsers.choices)
        with pytest.raises(SystemExit):
            parser.parse_args(["cluster"])

    def test_every_algorithm_has_a_registry_name(self):
        from repro.algorithms import algorithm_names, make_algorithm

        for name in algorithm_names():
            algo = make_algorithm(name)
            assert algo.name == name
