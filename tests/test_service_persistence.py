"""Restart behaviour of the service's persisted state.

The dataset registry (``--dataset-dir``), the result store
(``--store-dir``) and the schema index (``--store-dir/schemas``) are
views over one :class:`~repro.service.keyed.KeyedStore`.  These tests
pin what a restart must preserve: the name-alias map, a skip-and-count
policy for any malformed file, and the v1 on-disk format.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from repro.relational.fd_io import cover_to_json
from repro.relational.relation import Relation
from repro.service import DatasetRegistry, FDService, JobConfig

A_ROWS = [[1, "a"], [2, "a"], [3, "b"]]
B_ROWS = [[10, 1], [11, 1], [12, 3]]
A = Relation.from_rows(A_ROWS, schema=["id", "grp"])
B = Relation.from_rows(B_ROWS, schema=["cid", "id"])


def dirs(tmp_path):
    return {"store_dir": tmp_path / "store", "dataset_dir": tmp_path / "datasets"}


def snapshot(svc, names=(), schema_names=()):
    """Everything a restart must preserve, as plain data."""
    return (
        svc.registry.list(),
        svc.schemas.list(),
        {name: svc.registry.resolve(name) for name in names},
        {name: svc.schemas.resolve(name) for name in schema_names},
    )


# ----------------------------------------------------------------------
# Name aliases survive a restart
# ----------------------------------------------------------------------


class TestAliasesSurviveRestart:
    def test_dataset_name_given_on_reupload(self, tmp_path):
        with FDService(max_workers=1, **dirs(tmp_path)) as svc:
            first = svc.register_relation(A)
            svc.register_relation(A, name="first")
            before = snapshot(svc, names=["first"])
        with FDService(max_workers=1, **dirs(tmp_path)) as reborn:
            assert reborn.registry.resolve("first") == first.fingerprint
            assert snapshot(reborn, names=["first"]) == before

    def test_dataset_name_moved_by_reupload(self, tmp_path):
        with FDService(max_workers=1, **dirs(tmp_path)) as svc:
            b = svc.register_relation(B, name="x")
            a = svc.register_relation(A, name="a")
            svc.register_relation(A, name="x")
            assert svc.registry.resolve("x") == a.fingerprint
            before = snapshot(svc, names=["x", "a"])
        with FDService(max_workers=1, **dirs(tmp_path)) as reborn:
            assert reborn.registry.resolve("x") == a.fingerprint
            assert snapshot(reborn, names=["x", "a"]) == before
            # a move made after a reload must outrank the reloaded ones
            reborn.register_relation(B, name="x")
        with FDService(max_workers=1, **dirs(tmp_path)) as again:
            assert again.registry.resolve("x") == b.fingerprint
            assert again.registry.resolve("a") == a.fingerprint

    def test_schema_name_given_on_redeclaration(self, tmp_path):
        with FDService(max_workers=1, **dirs(tmp_path)) as svc:
            svc.register_relation(A, name="ta")
            entry = svc.register_schema(None, {"t": "ta"})
            svc.register_schema("first", {"t": "ta"})
            before = snapshot(svc, names=["ta"], schema_names=["first"])
        with FDService(max_workers=1, **dirs(tmp_path)) as reborn:
            assert reborn.schemas.resolve("first") == entry.fingerprint
            assert snapshot(reborn, names=["ta"], schema_names=["first"]) == before

    def test_schema_name_moved_by_redeclaration(self, tmp_path):
        with FDService(max_workers=1, **dirs(tmp_path)) as svc:
            svc.register_relation(A, name="ta")
            svc.register_relation(B, name="tb")
            svc.register_schema("x", {"t": "tb"})
            sa = svc.register_schema("sa", {"t": "ta"})
            svc.register_schema("x", {"t": "ta"})
            assert svc.schemas.resolve("x") == sa.fingerprint
            before = snapshot(svc, names=["ta", "tb"], schema_names=["x", "sa"])
        with FDService(max_workers=1, **dirs(tmp_path)) as reborn:
            assert reborn.schemas.resolve("x") == sa.fingerprint
            assert snapshot(reborn, names=["ta", "tb"], schema_names=["x", "sa"]) == before


def test_concurrent_registrations_persist_the_final_alias_map(tmp_path):
    relations = [
        Relation.from_rows([[i, j] for j in range(3)], schema=["a", "b"]) for i in range(4)
    ]
    counts = {}
    lock = threading.Lock()

    def count(name, amount=1):
        with lock:
            counts[name] = counts.get(name, 0) + amount

    registry = DatasetRegistry(count=count, persist_dir=tmp_path)

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(40):
            registry.register(rng.choice(relations), name=rng.choice(["n0", "n1", "n2", None]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)

    assert len(registry) == 4
    assert counts["service.registry.registered"] == 4
    assert counts["service.registry.duplicate_uploads"] == 8 * 40 - 4
    names = [n for n in ("n0", "n1", "n2") if n in registry]
    reborn = DatasetRegistry(persist_dir=tmp_path)
    assert reborn.list() == registry.list()
    assert {n: reborn.resolve(n) for n in names} == {n: registry.resolve(n) for n in names}


# ----------------------------------------------------------------------
# A malformed persisted file is skipped and counted, never fatal
# ----------------------------------------------------------------------


def _valid_store_entry(fingerprint):
    return {
        "format": "repro-fd-store-entry",
        "version": 1,
        "fingerprint": fingerprint,
        "config": {"algorithm": "dhyfd", "on_limit": "raise"},
        "result": {
            "format": "repro-fd-result",
            "version": 1,
            "algorithm": "dhyfd",
            "columns": ["id", "grp"],
            "cover": {"format": "repro-fd-cover", "version": 1,
                      "columns": ["id", "grp"], "fds": []},
            "unverified": {"format": "repro-fd-cover", "version": 1,
                           "columns": ["id", "grp"], "fds": []},
        },
    }


def _dataset(**overrides):
    payload = {
        "format": "repro-fd-dataset",
        "version": 1,
        "fingerprint": A.fingerprint(),
        "name": "junk",
        "columns": ["id", "grp"],
        "rows": A_ROWS,
    }
    payload.update(overrides)
    return payload


def _schema(**overrides):
    payload = {
        "format": "repro-fd-schema",
        "version": 1,
        "fingerprint": "0" * 64,
        "name": "junk",
        "tables": {"t": A.fingerprint()},
        "keys": {},
        "foreign_keys": [],
    }
    payload.update(overrides)
    return payload


MALFORMED = {
    "datasets": {
        "list": [],
        "null": None,
        "null-columns": _dataset(columns=None),
        "wrong-typed-rows": _dataset(rows=5),
        "fingerprint-mismatch": _dataset(fingerprint="f" * 64),
        "wrong-version": _dataset(version=2),
    },
    "store": {
        "list": [],
        "null-config": dict(_valid_store_entry(A.fingerprint()), config=None),
        "list-result": dict(_valid_store_entry(A.fingerprint()), result=[]),
        "null-fingerprint": dict(_valid_store_entry(A.fingerprint()), fingerprint=None),
        "foreign-format": {"format": "x"},
    },
    "store/schemas": {
        "list": [],
        "null-tables": _schema(tables=None),
        "list-tables": _schema(tables=["t"]),
        "fingerprint-mismatch": _schema(),
        "unknown-dataset": _schema(tables={"t": "missing"}),
    },
}
COUNTER = {
    "datasets": "service.registry.load_errors",
    "store": "service.store.load_errors",
    "store/schemas": "service.schemas.load_errors",
}


@pytest.mark.parametrize(
    "directory,shape",
    [(d, shape) for d, shapes in MALFORMED.items() for shape in shapes],
)
def test_malformed_file_skipped_and_counted(tmp_path, directory, shape):
    with FDService(max_workers=1, **dirs(tmp_path)) as svc:
        entry = svc.register_relation(A, name="ta")
        svc.register_schema("s", {"t": "ta"})
        assert svc.discover(entry.fingerprint, config={"jobs": 1}).status == "done"
        before = snapshot(svc, names=["ta"], schema_names=["s"])
    junk = tmp_path / directory / "junk.json"
    junk.write_text(json.dumps(MALFORMED[directory][shape]), encoding="utf-8")

    with FDService(max_workers=1, **dirs(tmp_path)) as reborn:
        counters = reborn.metrics_payload()["counters"]
        assert counters[COUNTER[directory]] == 1
        assert snapshot(reborn, names=["ta"], schema_names=["s"]) == before
        assert len(reborn.store) == 1
        assert reborn.store.get(entry.fingerprint, JobConfig.from_dict({"jobs": 1}))


# ----------------------------------------------------------------------
# Files in the v1 format written before aliases were persisted
# ----------------------------------------------------------------------

FP_A = "2780a5249c39b43198757f2a83a8f935f8825668d46137ebaf1bd7ae73be242f"
FP_B = "2d621ca0813ce7912bf73a6ac5afa14615059a9eece9236755768c504c7800cb"
FP_SCHEMA = "6c937e70f2d31f5cd949d68509c642f1026ec703582c3089d1ed36127ad8f0d8"

V1_FILES = {
    f"datasets/{FP_B[:32]}.json": """{"format": "repro-fd-dataset", "version": 1,
        "fingerprint": "%s", "name": "child", "parent": null,
        "registered_at": 1792250742.864184, "semantics": "null=null",
        "columns": ["cid", "id"], "rows": [[10, 1], [11, 1], [12, 3]]}""" % FP_B,
    f"datasets/{FP_A[:32]}.json": """{"format": "repro-fd-dataset", "version": 1,
        "fingerprint": "%s", "name": "parent", "parent": null,
        "registered_at": 1792250742.8618872, "semantics": "null=null",
        "columns": ["id", "grp"], "rows": [[1, "a"], [2, "a"], [3, "b"]]}""" % FP_A,
    f"store/schemas/{FP_SCHEMA[:32]}.json": """{"format": "repro-fd-schema",
        "version": 1, "fingerprint": "%s", "name": "tiny",
        "registered_at": 1792250742.866108,
        "tables": {"child": "%s", "parent": "%s"}, "keys": {"parent": ["id"]},
        "foreign_keys": [{"child": "child", "child_columns": ["id"],
                          "parent": "parent", "parent_columns": ["id"]}],
        "inferred_fks": false}""" % (FP_SCHEMA, FP_B, FP_A),
    "store/20f4070dc8302d1387c4336b766479bb.json": """{
      "config": {"algorithm": "dhyfd", "jobs": 1, "on_limit": "raise"},
      "fingerprint": "%s",
      "format": "repro-fd-store-entry",
      "result": {
        "algorithm": "dhyfd", "columns": ["id", "grp"], "completed": true,
        "cover": {"columns": ["id", "grp"],
                  "fds": [{"lhs": ["id"], "rhs": ["grp"]}],
                  "format": "repro-fd-cover", "version": 1},
        "elapsed_seconds": 0.0027, "format": "repro-fd-result",
        "limit_reason": null, "peak_memory_bytes": 0,
        "stats": {"comparisons": 2, "validations": 2, "levels_processed": 1},
        "top_k": null,
        "unverified": {"columns": ["id", "grp"], "fds": [],
                       "format": "repro-fd-cover", "version": 1},
        "version": 1
      },
      "version": 1
    }""" % FP_A,
}


def test_v1_files_reload_unchanged(tmp_path):
    for relative, text in V1_FILES.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    with FDService(max_workers=1, **dirs(tmp_path)) as svc:
        counters = svc.metrics_payload()["counters"]
        assert counters["service.registry.loaded"] == 2
        assert counters["service.schemas.loaded"] == 1
        assert counters["service.store.loaded"] == 1
        assert svc.registry.list() == [
            {"fingerprint": FP_A, "name": "parent", "n_rows": 3, "n_cols": 2,
             "columns": ["id", "grp"], "semantics": "null=null", "parent": None},
            {"fingerprint": FP_B, "name": "child", "n_rows": 3, "n_cols": 2,
             "columns": ["cid", "id"], "semantics": "null=null", "parent": None},
        ]
        assert svc.registry.resolve("parent") == FP_A
        assert svc.registry.resolve("child") == FP_B
        [schema] = svc.schemas.list()
        assert schema["fingerprint"] == FP_SCHEMA
        assert schema["name"] == "tiny"
        assert schema["datasets"] == {"child": FP_B, "parent": FP_A}
        assert svc.schemas.resolve("tiny") == FP_SCHEMA

        cached = svc.store.get(FP_A, JobConfig.from_dict({"jobs": 1}))
        assert cached is not None
        assert json.loads(cover_to_json(cached.fds, cached.schema))["fds"] == [
            {"lhs": ["id"], "rhs": ["grp"]}
        ]
        job = svc.discover("parent", config={"jobs": 1})
        assert job.cached is True
        assert cover_to_json(job.result.fds, job.result.schema) == cover_to_json(
            cached.fds, cached.schema
        )


#: A top-k entry as the store kept one before every top-k answer was
#: cut from the stored full cover.
V1_TOP_K_ENTRY = """{
  "config": {"algorithm": "dhyfd", "on_limit": "raise", "top_k": 1},
  "fingerprint": "%s",
  "format": "repro-fd-store-entry",
  "result": {
    "algorithm": "dhyfd", "columns": ["id", "grp"], "completed": true,
    "cover": {"columns": ["id", "grp"],
              "fds": [{"lhs": ["id"], "rhs": ["grp"]}],
              "format": "repro-fd-cover", "version": 1},
    "elapsed_seconds": 0.0021, "format": "repro-fd-result",
    "limit_reason": null, "peak_memory_bytes": 0,
    "stats": {"comparisons": 2, "validations": 2},
    "top_k": 1,
    "unverified": {"columns": ["id", "grp"], "fds": [],
                   "format": "repro-fd-cover", "version": 1},
    "version": 1
  },
  "version": 1
}""" % FP_A


def test_v1_top_k_entry_skipped_and_counted(tmp_path):
    files = dict(V1_FILES)
    files["store/fedcba9876543210fedcba9876543210.json"] = V1_TOP_K_ENTRY
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    with FDService(max_workers=1, **dirs(tmp_path)) as svc:
        counters = svc.metrics_payload()["counters"]
        assert counters["service.store.loaded"] == 1
        assert counters["service.store.load_errors"] == 1
        assert svc.registry.resolve("parent") == FP_A
        # The top-k answer is cut from the full cover that did load.
        job = svc.discover("parent", config={"top_k": 1})
        assert job.status == "done" and job.cached is True
        assert job.result.top_k == 1
        assert json.loads(cover_to_json(job.result.fds, job.result.schema))["fds"] == [
            {"lhs": ["id"], "rhs": ["grp"]}
        ]
        assert svc.metrics_payload()["counters"].get("service.discovery.runs", 0) == 0


def test_boot_leaves_one_file_per_entry(tmp_path):
    # The v1 store entry's config still carries "jobs", so its key
    # changed on decode; a copy with "jobs": 2 decodes to the same key.
    files = dict(V1_FILES)
    stale = files["store/20f4070dc8302d1387c4336b766479bb.json"]
    files["store/0123456789abcdef0123456789abcdef.json"] = stale.replace(
        '"jobs": 1', '"jobs": 2'
    )
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    with FDService(max_workers=1, **dirs(tmp_path)) as svc:
        assert len(svc.store) == 1
    for directory, entries in (("datasets", 2), ("store", 1), ("store/schemas", 1)):
        assert len(list((tmp_path / directory).glob("*.json"))) == entries, directory

    with FDService(max_workers=1, **dirs(tmp_path)) as reborn:
        assert reborn.metrics_payload()["counters"]["service.store.loaded"] == 1
        assert reborn.registry.resolve("parent") == FP_A
        assert reborn.schemas.resolve("tiny") == FP_SCHEMA
        cached = reborn.store.get(FP_A, JobConfig.from_dict({}))
        assert json.loads(cover_to_json(cached.fds, cached.schema))["fds"] == [
            {"lhs": ["id"], "rhs": ["grp"]}
        ]
