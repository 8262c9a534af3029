"""WAL-before-epoch-publish, snapshots across durable commits and
checkpoints, and continuation-chain recovery.

The ordering rule under test: a record is durable in the WAL before
the in-memory apply publishes a new grammar epoch, so a failed append
must leave the epoch -- and the document -- exactly as they were.

Continuation chains are WAL chains above the manifest generation.  The
former group-commit checkpoint cut the log over before switching the
manifest, and stores it wrote may still hold them; nothing writes them
now, so the tests below forge those layouts directly.
"""

import os

import pytest

from repro.api import CompressedXml
from repro.storage.durable import DurableXml, StoreDegraded
from repro.storage.faults import FaultyIO
from repro.storage.recovery import RecoveryError, StoreLayout
from repro.storage.wal import SegmentedWal, rename_record

XML = "<log>" + "<entry><ip/><status/></entry>" * 5 + "</log>"
HUGE = 10 ** 9  # checkpoint_wal_bytes: never auto-checkpoint


def make_store(directory, io=None, **kwargs):
    kwargs.setdefault("checkpoint_wal_bytes", HUGE)
    return DurableXml.from_xml(directory, XML, io=io, **kwargs)


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


class TestSnapshotsAcrossCommits:
    def test_snapshot_pins_across_commits(self, tmp_path):
        store = make_store(str(tmp_path / "store"))
        before = store.to_xml()
        with store.snapshot() as view:
            store.rename(1, "moved")
            store.delete(store.element_count - 1)
            assert view.to_xml() == before
        assert store.mvcc_info()["pinned_snapshots"] == 0
        store.close()

    def test_checkpoint_while_a_snapshot_is_pinned(self, tmp_path):
        store = make_store(str(tmp_path / "store"))
        with store.snapshot() as view:
            before = view.to_xml()
            store.rename(1, "while-pinned")
            store.checkpoint()
            assert view.to_xml() == before
        assert store.generation == 1
        store.close()


def forge_chain(directory, generation, records):
    """Write a never-manifested ``wal.<generation>`` chain."""
    chain = SegmentedWal(directory, generation, create=True)
    for record in records:
        chain.append(record)
    chain.close()


def oracle_xml(*renames):
    oracle = CompressedXml.from_xml(XML)
    for index, tag in renames:
        oracle.rename(index, tag)
    return oracle.to_xml()


class TestContinuationRecovery:
    def test_live_continuation_is_replayed_and_folded(self, tmp_path):
        """A chain above the manifest generation that holds records is
        replayed after the live chain, and one checkpoint folds it."""
        directory = str(tmp_path / "store")
        store = make_store(directory)
        store.rename(1, "live")
        store.close()
        forge_chain(directory, 1, [rename_record(2, "continued")])
        expected = oracle_xml((1, "live"), (2, "continued"))
        assert not os.path.exists(StoreLayout(directory).snapshot_path(1))

        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.continuation_generations == [1]
            assert reopened.last_recovery.replayed == 2
            # The fold checkpointed past the adopted chain.
            assert reopened.generation == 2
            reopened.rename(3, "after-fold")
            expected = reopened.to_xml()
        # Idempotent: a second reopen finds a normal single-chain store.
        with DurableXml.open(directory) as again:
            assert again.to_xml() == expected
            assert again.last_recovery.continuation_generations == []
            assert again.generation == 2

    def test_empty_continuation_stray_is_ignored(self, tmp_path):
        """A record-less higher-generation chain (a checkpoint's
        pre-commit-point debris) is not adopted: the store opens
        exactly as before."""
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

    def test_header_less_continuation_is_retired(self, tmp_path):
        """A chain whose creation died before its header was durable
        holds no acknowledged record: it is removed, not reported as
        corruption."""
        directory = str(tmp_path / "store")
        store = make_store(directory)
        store.rename(1, "kept")
        expected = store.to_xml()
        store.close()
        layout = StoreLayout(directory)
        with open(layout.wal_path(1), "wb") as handle:
            handle.write(b"RXW")
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.continuation_generations == []
        assert not os.path.exists(layout.wal_path(1))

    def test_unapplicable_tail_of_the_last_chain_is_dropped(
        self, tmp_path
    ):
        """Only the newest chain's final record may be the one whose
        apply never got acknowledged: it is dropped like a torn tail."""
        directory = str(tmp_path / "store")
        make_store(directory).close()
        forge_chain(directory, 1, [rename_record(2, "kept"),
                                   rename_record(10 ** 6, "never")])
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == oracle_xml((2, "kept"))
            assert reopened.last_recovery.dropped_tail_record
            assert reopened.last_recovery.replayed == 1

    def test_unapplicable_record_before_a_later_chain_is_corruption(
        self, tmp_path
    ):
        """A chain followed by another was sealed by a cutover: later
        acknowledged records built on all of its records, so one that
        fails to apply is corruption, not an unacknowledged tail."""
        directory = str(tmp_path / "store")
        make_store(directory).close()
        forge_chain(directory, 1, [rename_record(10 ** 6, "never")])
        forge_chain(directory, 2, [rename_record(2, "later")])
        with pytest.raises(RecoveryError, match="failed to apply"):
            DurableXml.open(directory)

    def test_two_continuation_chains_fold_into_one_generation(
        self, tmp_path
    ):
        """Chains at g+1 and g+2 replay in order; the manifest jumps
        from 0 to 3 and the folded store scrubs clean."""
        directory = str(tmp_path / "store")
        store = make_store(directory)
        store.rename(1, "one")
        store.close()
        forge_chain(directory, 1, [rename_record(2, "two")])
        forge_chain(directory, 2, [rename_record(3, "three"),
                                   rename_record(2, "two-again")])
        expected = oracle_xml((1, "one"), (2, "two"), (3, "three"),
                              (2, "two-again"))
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.continuation_generations == [1, 2]
            assert reopened.generation == 3
        with DurableXml.open(directory) as again:
            assert again.generation == 3
            assert again.to_xml() == expected
            assert again.last_recovery.continuation_generations == []
            assert again.scrub().ok
