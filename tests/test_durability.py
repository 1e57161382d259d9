"""Tests for the durable job plane (ISSUE 9).

Covers the :mod:`repro.service.journal` WAL (framing, replay,
torn-tail truncation, compaction, fault injection), scheduler crash
recovery (requeued / resumed / lost / completed), checkpoint/resume
determinism (resumed DHyFD runs produce byte-identical covers), and
the service-level wiring: journal placement, idempotent submits,
and end-to-end recovery through :class:`FDService`.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.algorithms.registry import make_algorithm
from repro.core.base import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
from repro.ranking.ranker import rank_cover
from repro.relational.fd import FDSet
from repro.relational.fd_io import cover_to_json
from repro.relational.null import NullSemantics
from repro.resilience import faults
from repro.service import FDService, JobConfig, JobScheduler, ServiceClient, start_in_thread
from repro.service.journal import WAL_FILENAME, JobJournal
from repro.service.keyed import atomic_write_text
from repro.service.scheduler import DONE, LOST, QUEUED

from .conftest import make_random_relation


@pytest.fixture(autouse=True)
def _fault_isolation(monkeypatch):
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    faults.reset()
    yield
    faults.reset()


def payload_without_timing(result, include_stats=True):
    """A result payload with the wall-clock noise stripped.

    ``elapsed_seconds``/``peak_memory_bytes`` vary run to run; a
    resumed run also legitimately reports different stats (it skipped
    work), so resume comparisons drop the stats block too.
    """
    payload = result.to_payload()
    payload.pop("elapsed_seconds", None)
    stats = payload.get("stats")
    if isinstance(stats, dict):
        stats.pop("peak_memory_bytes", None)
    if not include_stats:
        payload.pop("stats", None)
    return payload


# ----------------------------------------------------------------------
# atomic_write_text
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "table.json"
        atomic_write_text(target, "one\n")
        assert target.read_text() == "one\n"
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"
        # No tmp droppings left behind.
        assert list(tmp_path.iterdir()) == [target]


# ----------------------------------------------------------------------
# JobJournal: framing, replay, truncation, compaction
# ----------------------------------------------------------------------


class TestJobJournal:
    def wal(self, tmp_path):
        return tmp_path / WAL_FILENAME

    def test_append_replay_round_trip(self, tmp_path):
        journal = JobJournal(self.wal(tmp_path))
        assert journal.record_submit(
            "job-1", "fp-a", "discover", {"jobs": 2}, priority=3,
            idempotency_key="k1", submitted_at=12.5,
        )
        assert journal.record_start("job-1")
        assert journal.record_checkpoint("job-1", {"validation_level": 2})
        assert journal.record_finish("job-1", "done")
        assert journal.record_submit("job-2", "fp-b", "rank", {})
        journal.close(compact=False)

        reborn = JobJournal(self.wal(tmp_path))
        assert reborn.replayed_records == 5
        assert not reborn.truncated
        one = reborn.jobs["job-1"]
        assert one.dataset == "fp-a"
        assert one.config == {"jobs": 2}
        assert one.priority == 3
        assert one.idempotency_key == "k1"
        assert one.submitted_at == 12.5
        assert one.started
        assert one.checkpoint == {"validation_level": 2}
        assert one.terminal == "done"
        two = reborn.jobs["job-2"]
        assert two.kind == "rank" and not two.started and two.terminal is None
        assert reborn.find_by_key("k1") is one
        assert reborn.find_by_key("nope") is None
        reborn.close(compact=False)

    def test_torn_tail_is_truncated(self, tmp_path):
        path = self.wal(tmp_path)
        journal = JobJournal(path)
        journal.record_submit("job-1", "fp", "discover", {})
        journal.close(compact=False)
        good_size = path.stat().st_size
        # A crash mid-append leaves half a frame behind.
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 123456, 40) + b"torn")

        reborn = JobJournal(path)
        assert reborn.truncated
        assert reborn.replayed_records == 1
        assert "job-1" in reborn.jobs
        assert path.stat().st_size == good_size
        # The journal keeps appending cleanly from the truncation point.
        assert reborn.record_start("job-1")
        reborn.close(compact=False)
        third = JobJournal(path)
        assert not third.truncated and third.jobs["job-1"].started
        third.close(compact=False)

    def test_crc_mismatch_drops_tail(self, tmp_path):
        path = self.wal(tmp_path)
        journal = JobJournal(path)
        journal.record_submit("job-1", "fp", "discover", {})
        journal.record_submit("job-2", "fp", "discover", {})
        journal.close(compact=False)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # corrupt the last payload byte
        path.write_bytes(bytes(raw))

        reborn = JobJournal(path)
        assert reborn.truncated
        assert list(reborn.jobs) == ["job-1"]
        reborn.close(compact=False)

    def test_garbage_file_boots_empty(self, tmp_path):
        path = self.wal(tmp_path)
        path.write_bytes(b"\x00" * 7)
        journal = JobJournal(path)
        assert journal.jobs == {}
        assert journal.truncated
        assert path.stat().st_size == 0
        journal.close(compact=False)

    def test_compaction_shrinks_and_preserves_state(self, tmp_path):
        path = self.wal(tmp_path)
        journal = JobJournal(path)
        journal.record_submit("job-1", "fp", "discover", {}, idempotency_key="k")
        journal.record_start("job-1")
        for level in range(30):
            journal.record_checkpoint("job-1", {"validation_level": level})
        journal.record_submit("job-2", "fp", "discover", {})
        journal.record_finish("job-2", "done")
        before = path.stat().st_size
        journal.close(compact=True)  # clean shutdown compacts
        assert path.stat().st_size < before

        reborn = JobJournal(path)
        assert not reborn.truncated
        one = reborn.jobs["job-1"]
        # Only the *latest* checkpoint survives compaction.
        assert one.checkpoint == {"validation_level": 29}
        assert one.checkpoints == 1
        assert one.started and one.idempotency_key == "k"
        assert reborn.jobs["job-2"].terminal == "done"
        reborn.close(compact=False)

    def test_torn_write_fault_breaks_journal_not_replay(self, tmp_path):
        path = self.wal(tmp_path)
        journal = JobJournal(path)
        assert journal.record_submit("job-1", "fp", "discover", {})
        faults.activate("journal.torn_write", times=1)
        # The injected crash drops this append and marks the journal
        # broken; serving must keep going regardless.
        assert not journal.record_start("job-1")
        assert journal.broken
        assert not journal.record_finish("job-1", "done")  # dropped
        journal.close(compact=False)

        reborn = JobJournal(path)
        assert reborn.truncated  # the half frame was on disk
        assert reborn.replayed_records == 1
        assert not reborn.jobs["job-1"].started
        reborn.close(compact=False)

    def test_counters_shape(self, tmp_path):
        journal = JobJournal(self.wal(tmp_path))
        journal.record_submit("job-1", "fp", "discover", {})
        counters = journal.counters()
        assert counters["jobs"] == 1 and counters["active"] == 1
        assert counters["broken"] == 0
        journal.close(compact=False)


# ----------------------------------------------------------------------
# Scheduler recovery
# ----------------------------------------------------------------------


class TestSchedulerRecover:
    def make_journal(self, tmp_path):
        return JobJournal(tmp_path / WAL_FILENAME)

    def test_requeued_resumed_lost_completed(self, tmp_path):
        journal = self.make_journal(tmp_path)
        # Four journaled fates: never started, checkpointed, dataset
        # gone, and already finished.
        journal.record_submit("job-1", "fp-ok", "discover", {}, submitted_at=1.0)
        journal.record_submit("job-2", "fp-ok", "discover", {}, submitted_at=2.0)
        journal.record_start("job-2")
        journal.record_checkpoint("job-2", {"validation_level": 2})
        journal.record_submit("job-3", "fp-gone", "discover", {}, submitted_at=3.0)
        journal.record_submit("job-4", "fp-ok", "discover", {}, submitted_at=4.0)
        journal.record_start("job-4")
        journal.record_finish("job-4", "done")

        ran = []

        def executor(job):
            ran.append((job.job_id, job.checkpoint))

        scheduler = JobScheduler(executor, max_workers=1, journal=journal)
        counts = scheduler.recover(dataset_ok=lambda fp: fp == "fp-ok")
        assert counts == {"completed": 1, "requeued": 1, "resumed": 1, "lost": 1}

        assert scheduler.wait("job-1", timeout=10.0).status == DONE
        assert scheduler.wait("job-2", timeout=10.0).status == DONE
        # Lost is a real terminal status, not a 404.
        lost = scheduler.get("job-3")
        assert lost.status == LOST and lost.done.is_set()
        assert scheduler.get("job-4").status == DONE
        assert scheduler.counters()["lost"] == 1
        # The resumed job carried its checkpoint into execution.
        assert dict(ran)["job-2"] == {"validation_level": 2}
        assert dict(ran)["job-1"] is None
        # Fresh ids never collide with recovered ones.
        fresh = scheduler.submit("fp-ok", "discover", JobConfig.from_dict(None))
        assert fresh.job_id == "job-5"
        scheduler.shutdown()
        journal.close(compact=False)

    def test_recover_honours_pre_crash_cancel(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.record_submit("job-1", "fp", "discover", {})
        journal.record_start("job-1")
        journal.record_cancel("job-1")
        scheduler = JobScheduler(lambda job: None, max_workers=1, journal=journal)
        counts = scheduler.recover(dataset_ok=lambda fp: True)
        assert counts["completed"] == 1
        assert scheduler.get("job-1").status == "cancelled"
        scheduler.shutdown()
        journal.close(compact=False)

    def test_recover_reattaches_stored_result(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.record_submit("job-1", "fp", "discover", {})
        journal.record_start("job-1")
        journal.record_finish("job-1", "done")
        sentinel = object()
        scheduler = JobScheduler(lambda job: None, max_workers=1, journal=journal)
        scheduler.recover(
            dataset_ok=lambda fp: True, result_for=lambda job: sentinel
        )
        job = scheduler.get("job-1")
        assert job.result is sentinel and job.cached and job.recovered
        scheduler.shutdown()
        journal.close(compact=False)

    def test_idempotency_key_dedups_across_restart(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.record_submit(
            "job-1", "fp", "discover", {}, idempotency_key="retry-key"
        )
        scheduler = JobScheduler(lambda job: None, max_workers=1, journal=journal)
        scheduler.recover(dataset_ok=lambda fp: True)
        # The client retrying its submit after the crash lands on the
        # recovered job instead of queueing a duplicate.
        again = scheduler.submit(
            "fp", "discover", JobConfig.from_dict(None), idempotency_key="retry-key"
        )
        assert again.job_id == "job-1"
        scheduler.shutdown()
        journal.close(compact=False)

    def test_recover_fault_degrades_to_empty(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.record_submit("job-1", "fp", "discover", {})
        faults.activate("scheduler.recover", times=1)
        scheduler = JobScheduler(lambda job: None, max_workers=1, journal=journal)
        counts = scheduler.recover(dataset_ok=lambda fp: True)
        assert counts == {"completed": 0, "requeued": 0, "resumed": 0, "lost": 0}
        scheduler.shutdown()
        journal.close(compact=False)


# ----------------------------------------------------------------------
# Checkpoint/resume determinism (the tentpole soundness bar)
# ----------------------------------------------------------------------


class TestCheckpointResume:
    @pytest.mark.parametrize("semantics", [NullSemantics.EQ, NullSemantics.NEQ])
    def test_resumed_covers_are_byte_identical(self, semantics):
        for seed in (3, 11, 27):
            relation = make_random_relation(seed, semantics=semantics)

            cold = make_algorithm("dhyfd").discover(relation)

            # Checkpointing on (every level boundary) must not change
            # the answer.
            states = []
            checkpointing = make_algorithm("dhyfd")
            checkpointing.checkpoint_interval = 0.0
            checkpointing.checkpoint_sink = states.append
            with_ckpt = checkpointing.discover(relation)
            assert payload_without_timing(with_ckpt) == payload_without_timing(cold)

            if not states:
                continue  # relation too small to cross a level boundary
            for state in states:
                assert state["format"] == CHECKPOINT_FORMAT
                assert state["version"] == CHECKPOINT_VERSION
                resumed_algo = make_algorithm("dhyfd")
                resumed_algo.resume_from = state
                resumed = resumed_algo.discover(relation)
                # The resumed run skips completed levels yet lands on
                # the exact same cover (stats legitimately differ).
                assert resumed.stats.resumed_levels == state["validation_level"]
                assert payload_without_timing(
                    resumed, include_stats=False
                ) == payload_without_timing(cold, include_stats=False)
                assert cover_to_json(resumed.fds, relation.schema) == cover_to_json(
                    cold.fds, relation.schema
                )

    def test_rejected_checkpoint_falls_back_to_cold_start(self):
        relation = make_random_relation(11)
        cold = make_algorithm("dhyfd").discover(relation)
        algo = make_algorithm("dhyfd")
        algo.resume_from = {"format": "not-a-checkpoint"}
        result = algo.discover(relation)
        assert result.stats.resumed_levels == 0
        assert payload_without_timing(result) == payload_without_timing(cold)


# ----------------------------------------------------------------------
# FDService wiring: journal placement, idempotency, end-to-end recovery
# ----------------------------------------------------------------------


class TestServiceDurability:
    def test_journal_created_under_store_dir(self, tmp_path):
        with FDService(store_dir=tmp_path) as service:
            assert service.journal is not None
            assert (tmp_path / WAL_FILENAME).exists()

    def test_no_store_dir_means_no_journal(self):
        with FDService() as service:
            assert service.journal is None

    def test_submit_is_journaled_before_return(self, tmp_path):
        with FDService(store_dir=tmp_path) as service:
            entry = service.register_rows(["a", "b"], [(1, 1), (2, 2)])
            job = service.submit(entry.fingerprint, "discover")
            assert job.job_id in service.journal.jobs
            service.scheduler.wait(job.job_id, timeout=30.0)

    def test_recovery_end_to_end(self, tmp_path):
        store_dir = tmp_path / "store"
        dataset_dir = tmp_path / "datasets"
        relation = make_random_relation(11)
        with FDService(store_dir=store_dir, dataset_dir=dataset_dir) as service:
            fingerprint = service.register_relation(relation).fingerprint
        direct = cover_to_json(
            make_algorithm("dhyfd").discover(relation).fds, relation.schema
        )

        # Forge the crash aftermath: a submitted-but-never-started job
        # and one against a dataset this server never had.
        journal = JobJournal(store_dir / WAL_FILENAME)
        journal.record_submit("job-7", fingerprint, "discover", {}, submitted_at=1.0)
        journal.record_submit("job-8", "fp-gone", "discover", {}, submitted_at=2.0)
        journal.close(compact=False)

        with FDService(
            store_dir=store_dir, dataset_dir=dataset_dir, recover=True,
        ) as service:
            assert service.recovery == {
                "completed": 0, "requeued": 1, "resumed": 0, "lost": 1,
            }
            assert service.health()["recovery"]["requeued"] == 1
            job = service.scheduler.wait("job-7", timeout=60.0)
            assert job.status == DONE and job.recovered
            assert cover_to_json(job.result.fds, relation.schema) == direct
            lost = service.scheduler.get("job-8")
            assert lost.status == LOST
            payload = lost.status_payload()
            assert payload["status"] == "lost" and payload["recovered"] is True

    def test_recovered_config_with_unknown_key_is_lost(self, tmp_path):
        """A journaled config the service no longer accepts (here the
        retired ``backend`` key) marks its job lost; boot still succeeds."""
        store_dir = tmp_path / "store"
        dataset_dir = tmp_path / "datasets"
        with FDService(store_dir=store_dir, dataset_dir=dataset_dir) as service:
            fingerprint = service.register_relation(
                make_random_relation(11)
            ).fingerprint
        journal = JobJournal(store_dir / WAL_FILENAME)
        journal.record_submit(
            "job-3", fingerprint, "discover", {"backend": "numpy"}, submitted_at=1.0
        )
        journal.close(compact=False)

        with FDService(
            store_dir=store_dir, dataset_dir=dataset_dir, recover=True,
        ) as service:
            assert service.recovery == {
                "completed": 0, "requeued": 0, "resumed": 0, "lost": 1,
            }
            assert service.scheduler.get("job-3").status == LOST

    def test_resume_from_checkpoint_end_to_end(self, tmp_path):
        store_dir = tmp_path / "store"
        dataset_dir = tmp_path / "datasets"
        relation = make_random_relation(27)
        with FDService(store_dir=store_dir, dataset_dir=dataset_dir) as service:
            fingerprint = service.register_relation(relation).fingerprint
        direct = cover_to_json(
            make_algorithm("dhyfd").discover(relation).fds, relation.schema
        )

        # Capture a real mid-run snapshot to forge a crashed job with.
        states = []
        algo = make_algorithm("dhyfd")
        algo.checkpoint_interval = 0.0
        algo.checkpoint_sink = states.append
        algo.discover(relation)
        assert states, "seed 27 must be large enough to emit checkpoints"

        journal = JobJournal(store_dir / WAL_FILENAME)
        journal.record_submit("job-3", fingerprint, "discover", {}, submitted_at=1.0)
        journal.record_start("job-3")
        journal.record_checkpoint("job-3", states[0])
        journal.close(compact=False)

        with FDService(
            store_dir=store_dir, dataset_dir=dataset_dir, recover=True,
        ) as service:
            assert service.recovery["resumed"] == 1
            job = service.scheduler.wait("job-3", timeout=60.0)
            assert job.status == DONE
            assert job.resumed and job.recovered
            assert job.result.stats.resumed_levels > 0
            assert cover_to_json(job.result.fds, relation.schema) == direct
            payload = job.status_payload(include_result=False)
            assert payload["resumed"] is True
            metrics = service.metrics_payload()
            assert metrics["counters"]["service.jobs.resumed"] == 1
            assert metrics["journal"]["jobs"] == 1

    def test_top_k_job_resumes_and_recovers_its_answer(self, tmp_path):
        # A top-k job runs, checkpoints and resumes the full discovery;
        # after a restart its done status re-reads the cut answer.
        store_dir = tmp_path / "store"
        dataset_dir = tmp_path / "datasets"
        relation = make_random_relation(27)
        with FDService(store_dir=store_dir, dataset_dir=dataset_dir) as service:
            fingerprint = service.register_relation(relation).fingerprint
        cover = make_algorithm("dhyfd").discover(relation).fds
        ranking = rank_cover(relation, cover, top_k=3)
        expected = FDSet(ranked.fd for ranked in ranking.ranked)

        states = []
        algo = make_algorithm("dhyfd")
        algo.checkpoint_interval = 0.0
        algo.checkpoint_sink = states.append
        algo.discover(relation)
        journal = JobJournal(store_dir / WAL_FILENAME)
        journal.record_submit("job-3", fingerprint, "discover", {"top_k": 3}, submitted_at=1.0)
        journal.record_start("job-3")
        journal.record_checkpoint("job-3", states[0])
        journal.close(compact=False)

        with FDService(
            store_dir=store_dir, dataset_dir=dataset_dir, recover=True,
        ) as service:
            job = service.scheduler.wait("job-3", timeout=60.0)
            assert job.status == DONE and job.resumed
            assert job.result.top_k == 3 and job.result.fds == expected
            [(config, stored)] = service.store.results_for(fingerprint)
            assert config.top_k is None and stored.fds == cover

        with FDService(
            store_dir=store_dir, dataset_dir=dataset_dir, recover=True,
        ) as service:
            assert service.recovery["completed"] == 1
            job = service.scheduler.get("job-3")
            assert job.status == DONE and job.cached
            assert job.result.top_k == 3 and job.result.fds == expected

    def test_http_idempotency_key_dedups(self, tmp_path):
        service = FDService(store_dir=tmp_path)
        server, _ = start_in_thread(service)
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
        try:
            upload = client.upload_csv("a,b\n1,1\n2,2\n3,1\n", name="tiny")
            first = client.submit(upload["fingerprint"], idempotency_key="once")
            second = client.submit(upload["fingerprint"], idempotency_key="once")
            assert first == second
            third = client.submit(upload["fingerprint"], idempotency_key="twice")
            assert third != first
            assert client.metrics()["counters"]["service.jobs.deduped"] == 1
            client.wait(first, timeout=30.0)
            client.wait(third, timeout=30.0)
        finally:
            server.shutdown()
            service.close()

    def test_clean_shutdown_compacts_wal(self, tmp_path):
        service = FDService(store_dir=tmp_path, checkpoint_interval=0.0)
        entry = service.register_relation(make_random_relation(27))
        job = service.discover(entry.fingerprint, timeout=60.0)
        assert job.status == DONE
        uncompacted = (tmp_path / WAL_FILENAME).stat().st_size
        service.close()
        compacted = (tmp_path / WAL_FILENAME).stat().st_size
        assert compacted < uncompacted
        journal = JobJournal(tmp_path / WAL_FILENAME)
        assert journal.jobs[job.job_id].terminal == DONE
        journal.close(compact=False)
