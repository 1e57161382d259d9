"""repro.memplane: sweeping leftover shared-memory segments by owner."""

from __future__ import annotations

from repro.memplane import SEGMENT_PREFIX, sweep_orphans


class TestOrphanSweep:
    def test_sweep_is_scoped_to_owner(self, tmp_path):
        mine = tmp_path / f"{SEGMENT_PREFIX}-own1-aaaa-0m"
        theirs = tmp_path / f"{SEGMENT_PREFIX}-own2-bbbb-0m"
        other = tmp_path / "psm_unrelated"
        for path in (mine, theirs, other):
            path.write_bytes(b"x")
        assert sweep_orphans("own1", shm_dir=str(tmp_path)) == [mine.name]
        assert not mine.exists()
        assert theirs.exists() and other.exists()
        assert sweep_orphans("", shm_dir=str(tmp_path)) == []
        assert sweep_orphans("own9", shm_dir=str(tmp_path / "missing")) == []
