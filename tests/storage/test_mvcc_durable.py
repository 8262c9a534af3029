"""Group commit, WAL-before-epoch-publish, non-blocking checkpoints,
and continuation-chain recovery.

The ordering rule under test everywhere: in group-commit mode a record
is *written* to the WAL before the in-memory apply publishes a new
grammar epoch (only the fsync is deferred, to just before the commit is
acknowledged).  A failed append must therefore leave the epoch -- and
the document -- exactly as they were; a failed fsync degrades the store
the same way a serial append exhausting its retries does.
"""

import os

import pytest

from repro.api import CompressedXml
from repro.storage.durable import (
    CheckpointError,
    DurableXml,
    StoreDegraded,
)
from repro.storage.faults import CRASH_POINTS, FaultyIO, SimulatedCrash
from repro.storage.recovery import StoreLayout
from repro.storage.wal import SegmentedWal
from repro.trees.unranked import XmlNode

XML = "<log>" + "<entry><ip/><status/></entry>" * 5 + "</log>"
HUGE = 10 ** 9  # checkpoint_wal_bytes: never auto-checkpoint


def make_store(directory, io=None, **kwargs):
    kwargs.setdefault("checkpoint_wal_bytes", HUGE)
    return DurableXml.from_xml(directory, XML, io=io,
                               group_commit=True, **kwargs)


class TestGroupCommitEquivalence:
    def test_group_commits_match_the_serial_store(self, tmp_path):
        serial = DurableXml.from_xml(str(tmp_path / "serial"), XML)
        group = make_store(str(tmp_path / "group"))
        for store in (serial, group):
            store.rename(1, "first")
            store.append_child(0, XmlNode("extra", [XmlNode("deep")]))
            store.insert(2, XmlNode("wedge"))
            store.delete(5)
            with store.batch() as b:
                b.rename(3, "batched")
                b.append_child(0, XmlNode("tail"))
        assert group.to_xml() == serial.to_xml()
        assert group.health()["mvcc"]["group_commit"] is True
        serial.close()
        group.close()

    def test_group_commits_replay_on_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        store = make_store(directory)
        store.rename(1, "durable")
        store.append_child(0, XmlNode("grown"))
        expected = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.replayed == 2

    def test_snapshot_pins_across_group_commits(self, tmp_path):
        store = make_store(str(tmp_path / "store"))
        before = store.to_xml()
        with store.snapshot() as view:
            store.rename(1, "moved")
            store.delete(store.element_count - 1)
            assert view.to_xml() == before
        assert store.mvcc_info()["pinned_snapshots"] == 0
        store.close()


class TestWalBeforeEpochPublish:
    def test_successful_commit_logs_then_publishes(self, tmp_path):
        store = make_store(str(tmp_path / "store"))
        records = store._wal.record_count
        epoch = store.document.grammar.epoch
        store.rename(1, "ordered")
        assert store._wal.record_count == records + 1
        assert store.document.grammar.epoch > epoch
        store.close()

    def test_failed_append_publishes_nothing(self, tmp_path):
        """The pinned ordering: if the WAL write fails, the epoch never
        advances and the document text is untouched."""
        io = FaultyIO(error_label="wal:append:before-write",
                      error_persistent=True)
        store = make_store(str(tmp_path / "store"), io=io)
        io.disarm()
        before = store.to_xml()
        epoch = store.document.grammar.epoch
        io.arm()
        with pytest.raises(StoreDegraded):
            store.rename(1, "lost")
        assert store.document.grammar.epoch == epoch
        assert store.to_xml() == before
        assert store.degraded
        with pytest.raises(StoreDegraded):
            store.rename(1, "still-read-only")

    def test_failed_group_fsync_degrades_after_apply(self, tmp_path):
        """A sync failure happens *after* the apply: the in-memory
        state moved, the record is in the (unsynced) log, and the store
        flips read-only rather than acknowledge."""
        io = FaultyIO(error_label="wal:sync:before-fsync",
                      error_persistent=True)
        directory = str(tmp_path / "store")
        store = make_store(directory, io=io)
        io.disarm()
        epoch = store.document.grammar.epoch
        io.arm()
        with pytest.raises(StoreDegraded):
            store.rename(1, "applied-not-durable")
        assert store.document.grammar.epoch > epoch
        assert store.degraded
        store.close()
        # The record was written (just not fsync'd): a clean reopen
        # replays it -- the unacknowledged-but-durable shape the serial
        # crash matrix already allows.
        with DurableXml.open(directory) as reopened:
            assert reopened.tag_of(1) == "applied-not-durable"


#: The pipelined commit's points, from the registry: the append writes
#: without an fsync of its own, the group sync fsyncs.
GROUP_CRASH_LABELS = tuple(
    label for label in CRASH_POINTS
    if label.startswith("wal:sync:")
    or label.startswith("wal:append:") and label.endswith("-write")
)


class TestGroupCrashMatrix:
    @pytest.mark.parametrize("label", GROUP_CRASH_LABELS)
    def test_kill_in_the_commit_pipeline(self, tmp_path, label):
        """Committed-prefix property through the pipelined path: after
        a kill anywhere in append/fsync, the store reopens to the
        acknowledged renames plus at most one written-not-acknowledged
        record."""
        directory = str(tmp_path / "store")
        io = FaultyIO(crash_label=label)
        io.disarm()
        store = make_store(directory, io=io)
        refs = [store.to_xml()]
        oracle = CompressedXml.from_xml(XML)
        for round_number in range(4):
            oracle.rename(1, f"r{round_number}")
            refs.append(oracle.to_xml())
        io.arm()
        acked = 0
        with pytest.raises(SimulatedCrash):
            for round_number in range(4):
                store.rename(1, f"r{round_number}")
                acked += 1
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() in refs[acked:acked + 2], label
            reopened.rename(0, "reborn")
            survivor = reopened.to_xml()
        with DurableXml.open(directory) as again:
            assert again.to_xml() == survivor


class TestConcurrentCheckpoint:
    def test_checkpoint_advances_generation_and_folds_the_chain(
        self, tmp_path
    ):
        directory = str(tmp_path / "store")
        store = make_store(directory)
        store.rename(1, "pre-checkpoint")
        assert store.checkpoint() == 1
        assert store.generation == 1
        store.rename(2, "post-checkpoint")
        expected = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.generation == 1
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.replayed == 1

    def test_checkpoint_while_a_snapshot_is_pinned(self, tmp_path):
        store = make_store(str(tmp_path / "store"))
        with store.snapshot() as view:
            before = view.to_xml()
            store.rename(1, "while-pinned")
            store.checkpoint()
            assert view.to_xml() == before
        assert store.generation == 1
        store.close()

    def test_failed_snapshot_write_leaves_a_live_continuation(
        self, tmp_path
    ):
        """The checkpoint cut over, then the snapshot write failed: the
        store keeps committing into the never-manifested chain, and a
        reopen adopts it as a continuation and folds it."""
        io = FaultyIO(error_label="snapshot:write:before-write")
        io.disarm()
        directory = str(tmp_path / "store")
        store = make_store(directory, io=io)
        store.rename(1, "before-cutover")
        io.arm()
        with pytest.raises(CheckpointError, match="cut over"):
            store.checkpoint()
        # Not degraded: writes continue, now into the wal.1 chain
        # while the manifest still points at generation 0.
        assert not store.degraded
        assert store.generation == 0
        store.rename(2, "after-cutover")
        expected = store.to_xml()
        store.close()
        layout = StoreLayout(directory)
        assert not os.path.exists(layout.snapshot_path(1))

        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.continuation_generations == [1]
            # The fold checkpointed past the adopted chain.
            assert reopened.generation == 2
        # Idempotent: a second reopen finds a normal single-chain store.
        with DurableXml.open(directory) as again:
            assert again.to_xml() == expected
            assert again.last_recovery.continuation_generations == []

    def test_empty_continuation_stray_is_ignored(self, tmp_path):
        """A record-less higher-generation chain (the serial
        checkpoint's pre-commit-point debris) keeps its historical
        meaning: not adopted, store opens exactly as before."""
        directory = str(tmp_path / "store")
        store = make_store(directory)
        store.rename(1, "kept")
        expected = store.to_xml()
        store.close()
        SegmentedWal(directory, 1, create=True).close()
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.continuation_generations == []
            assert reopened.generation == 0

    def test_generation_gap_after_failed_checkpoint_attempts(
        self, tmp_path
    ):
        """Each failed concurrent checkpoint burns a generation number;
        the next attempt targets a fresh one and the store still
        converges."""
        io = FaultyIO(error_label="snapshot:write:before-write",
                      error_count=2)
        io.disarm()
        directory = str(tmp_path / "store")
        store = make_store(directory, io=io)
        store.rename(1, "one")
        io.arm()
        with pytest.raises(CheckpointError):
            store.checkpoint()  # cut over to wal.1, snapshot failed
        store.rename(2, "two")
        with pytest.raises(CheckpointError):
            store.checkpoint()  # cut over to wal.2, snapshot failed
        store.rename(3, "three")
        # Third attempt succeeds and folds everything: the manifest
        # jumps 0 -> 3 over the two burned generations.
        assert store.checkpoint() == 3
        assert store.last_checkpoint_error is None
        expected = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.generation == 3
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.continuation_generations == []
            assert reopened.scrub().ok
