"""The ``DurableXml`` facade: WAL-first commits, checkpoint cadence,
and the crash matrix -- recovery always yields exactly a committed
prefix of the acknowledged operations, never a half-applied batch."""

import os
import random
import sys
import threading
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompressedXml
from repro.storage.durable import DurableXml, StoreDegraded
from repro.storage.faults import (
    CRASH_POINTS,
    FaultyIO,
    RetryPolicy,
    SimulatedCrash,
    StorageIO,
)
from repro.storage.recovery import (
    MANIFEST_NAME,
    RecoveryError,
    StoreLayout,
)
from repro.trees.unranked import XmlNode
from repro.updates.batch import BatchAppend, BatchDelete, BatchRename
from repro.updates.operations import UpdateError

BASE_XML = "<log>" + "<entry><ip/><status/></entry>" * 6 + "</log>"

HUGE = 1 << 30  # checkpoint threshold that never triggers


def manifest_missing(directory):
    return not os.path.exists(os.path.join(directory, MANIFEST_NAME))


class TestCommitProtocol:
    def test_commits_survive_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML)
        store.rename(1, "record")
        store.insert(2, XmlNode("header"))
        store.append_child(0, XmlNode("trailer", [XmlNode("sum")]))
        store.delete(5)
        expected = store.to_xml()
        store.close()

        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.replayed == 4
            assert reopened.to_xml() == expected
            assert reopened.element_count == store.element_count

    def test_reads_are_delegated(self, tmp_path):
        store = DurableXml.from_xml(str(tmp_path / "store"), BASE_XML)
        assert store.element_count == 19
        assert store.tag_of(0) == "log"
        assert store.select("//status") == store.document.select("//status")
        assert "entry" in set(store.tags())
        store.close()

    def test_existing_store_is_refused(self, tmp_path):
        directory = str(tmp_path / "store")
        DurableXml.from_xml(directory, BASE_XML).close()
        with pytest.raises(FileExistsError, match="overwrite"):
            DurableXml.from_xml(directory, BASE_XML)
        with DurableXml.from_xml(directory, "<a><b/></a>",
                                 overwrite=True) as store:
            assert store.element_count == 2

    def test_failed_op_is_a_no_op_on_disk_and_in_memory(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML)
        store.rename(1, "record")
        before_xml = store.to_xml()
        before_wal = store.wal_size

        with pytest.raises(IndexError):
            store.rename(10 ** 6, "nope")
        with pytest.raises(IndexError):
            store.delete(10 ** 6)
        assert store.to_xml() == before_xml
        assert store.wal_size == before_wal
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.replayed == 1
            assert reopened.to_xml() == before_xml

    def test_invalid_tag_never_reaches_the_log(self, tmp_path):
        """``rename(1, '')`` used to be logged: the store then raised
        from ``to_xml()`` in this process *and* in every later one."""
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML)
        store.rename(1, "record")
        before_xml = store.to_xml()
        before = {name: open(os.path.join(directory, name), "rb").read()
                  for name in os.listdir(directory)}
        for attempt in (
            lambda: store.rename(1, ""),
            lambda: store.rename(1, "a b"),
            lambda: store.rename(1, 5),
            lambda: store.insert(1, [XmlNode("1x")]),
            lambda: store.append_child(1, XmlNode("ok", [XmlNode("<x>")])),
            lambda: store.apply_batch([BatchRename(2, "fine"),
                                       BatchRename(1, "")]),
            lambda: store.batch().rename(1, "a b"),
        ):
            with pytest.raises(UpdateError, match="invalid element tag"):
                attempt()
        assert store.to_xml() == before_xml
        assert before == {
            name: open(os.path.join(directory, name), "rb").read()
            for name in os.listdir(directory)}
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.replayed == 1
            assert reopened.to_xml() == before_xml

    def test_failed_batch_is_all_or_nothing(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML)
        before_xml = store.to_xml()
        before_wal = store.wal_size

        with pytest.raises((UpdateError, IndexError)):
            store.apply_batch([
                BatchRename(1, "would-apply"),
                BatchAppend(0, [XmlNode("also-would")]),
                BatchDelete(10 ** 6),
            ])
        # The earlier ops of the batch must not leak: not into memory,
        # not into the log, not into a future replay.
        assert store.to_xml() == before_xml
        assert store.wal_size == before_wal
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.replayed == 0
            assert reopened.to_xml() == before_xml

    def test_batch_builder_commits_one_record(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML)
        with store.batch() as batch:
            batch.rename(1, "record").append_child(0, XmlNode("z"))
        expected = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.replayed == 1  # ONE record
            assert reopened.to_xml() == expected

    def test_context_manager_closes_the_wal(self, tmp_path):
        with DurableXml.from_xml(str(tmp_path / "store"),
                                 BASE_XML) as store:
            store.rename(1, "record")
        assert store._wal.closed


class TestCheckpointing:
    def test_threshold_rides_every_commit(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML,
                                    checkpoint_wal_bytes=1)
        assert store.generation == 0
        store.rename(1, "one")
        assert store.generation == 1
        store.rename(2, "two")
        assert store.generation == 2
        # Post-checkpoint the live WAL is empty: recovery replays 0.
        expected = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.replayed == 0
            assert reopened.generation == 2
            assert reopened.to_xml() == expected

    def test_old_generations_are_retired(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML,
                                    checkpoint_wal_bytes=1)
        for index, tag in enumerate(("a", "b", "c", "d"), start=1):
            store.rename(index, tag)
        layout = StoreLayout(directory)
        # Only the live generation and its degradation fallback remain.
        assert layout.generations_on_disk() == [3, 4]
        assert not os.path.exists(layout.wal_path(1))
        store.close()

    def test_manual_checkpoint(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML,
                                    checkpoint_wal_bytes=HUGE)
        store.rename(1, "record")
        assert store.generation == 0
        wal_before = store.wal_size
        assert store.checkpoint() == 1
        assert store.wal_size < wal_before  # fresh, empty WAL
        expected = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.generation == 1
            assert reopened.last_recovery.replayed == 0
            assert reopened.to_xml() == expected


# ----------------------------------------------------------------------
# concurrent writers: the live document is the replay of its log
# ----------------------------------------------------------------------
JOIN_TIMEOUT = 60.0


class GatedIO(StorageIO):
    """Once ``armed``, parks the first thread that reaches ``label``
    until ``release`` is set or ``hold`` seconds pass."""

    def __init__(self, label, hold=0.5):
        self.label = label
        self.hold = hold
        self.armed = False
        self.parked = threading.Event()
        self.release = threading.Event()

    def crash_point(self, label):
        if self.armed and label == self.label and not self.parked.is_set():
            self.parked.set()
            self.release.wait(self.hold)


class GatedFaultyIO(FaultyIO):
    """A :class:`FaultyIO` whose fault points first pass a
    :class:`GatedIO` gate (armed separately, through ``gate``)."""

    def __init__(self, gate_label, **faults):
        super().__init__(**faults)
        self.gate = GatedIO(gate_label)

    def crash_point(self, label):
        self.gate.crash_point(label)
        super().crash_point(label)


def run_threads(*targets):
    """Start each callable on its own thread; ``join_all`` re-raises
    the first error."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,), daemon=True)
               for target in targets]
    for thread in threads:
        thread.start()
    return threads, errors


def join_all(threads, errors):
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive(), "writer deadlocked (join timed out)"
    if errors:
        raise errors[0]


def try_to_overtake(io, first, second):
    """Run ``first`` until it parks at the gate, then ``second`` on
    another thread, which releases the gate once it returns.  Behind
    one commit lock ``second`` cannot return first: the gate times
    out and the two run in order."""
    io.armed = True
    first_threads, first_errors = run_threads(first)
    assert io.parked.wait(JOIN_TIMEOUT)

    def second_then_release():
        try:
            second()
        finally:
            io.release.set()

    second_threads, second_errors = run_threads(second_then_release)
    join_all(first_threads, first_errors)
    join_all(second_threads, second_errors)


def assert_reopens_as_live(store):
    live = store.to_xml()
    store.close()
    with DurableXml.open(store.directory) as reopened:
        assert reopened.to_xml() == live
    return live


class TestConcurrentCommits:
    def test_a_commit_parked_after_its_fsync_keeps_log_order(
        self, tmp_path
    ):
        """Thread A's insert is durable but not yet applied when thread
        B commits an insert at the same index.  If B overtook A, memory
        would apply B then A while the log replays A then B: the store
        would acknowledge a document it cannot reopen."""
        io = GatedIO("wal:append:after-fsync")
        store = DurableXml.from_xml(str(tmp_path / "store"),
                                    "<r><a/><b/></r>", io=io,
                                    checkpoint_wal_bytes=HUGE)
        try_to_overtake(io, lambda: store.insert(1, XmlNode("x")),
                        lambda: store.insert(1, XmlNode("y")))
        assert assert_reopens_as_live(store) == "<r><y/><x/><a/><b/></r>"

    def test_a_failed_commit_rolls_back_only_its_own_record(
        self, tmp_path
    ):
        """Thread A's out-of-range rename is durable and about to fail
        its apply.  A commit from thread B that slipped in behind it
        would be cut off the log by A's rollback while staying applied
        in memory."""
        io = GatedIO("wal:append:after-fsync")
        store = DurableXml.from_xml(str(tmp_path / "store"), BASE_XML,
                                    io=io, checkpoint_wal_bytes=HUGE)

        def failing_rename():
            try:
                store.rename(10 ** 6, "nope")
            except IndexError:
                return
            raise AssertionError("an out-of-range rename committed")

        try_to_overtake(io, failing_rename,
                        lambda: store.rename(1, "kept"))
        assert store.tag_of(1) == "kept"
        assert_reopens_as_live(store)

    def test_a_commit_waits_for_a_running_checkpoint(self, tmp_path):
        """A checkpoint has exported the document and is writing the
        snapshot.  A commit that landed now would go to the chain the
        checkpoint is about to retire, and vanish on reopen."""
        io = GatedIO("snapshot:write:before-write")
        store = DurableXml.from_xml(str(tmp_path / "store"), BASE_XML,
                                    io=io, checkpoint_wal_bytes=HUGE)
        try_to_overtake(io, store.checkpoint,
                        lambda: store.rename(1, "during"))
        assert store.generation == 1
        assert store.tag_of(1) == "during"
        assert_reopens_as_live(store)

    def test_a_reader_does_not_wait_for_a_running_checkpoint(
        self, tmp_path
    ):
        """Checkpoints block writers, not readers: while a checkpoint
        is parked mid-snapshot, a snapshot read and the delegated reads
        return the current document."""
        io = GatedIO("snapshot:write:before-write", hold=JOIN_TIMEOUT)
        store = DurableXml.from_xml(str(tmp_path / "store"), BASE_XML,
                                    io=io, checkpoint_wal_bytes=HUGE)
        store.rename(1, "current")
        expected = store.to_xml()
        io.armed = True
        checkpointer = run_threads(store.checkpoint)
        assert io.parked.wait(JOIN_TIMEOUT)
        seen = []

        def read():
            with store.snapshot() as view:
                seen.append(view.to_xml())
            seen.append(store.to_xml())
            seen.append(store.tag_of(1))

        try:
            join_all(*run_threads(read))
            assert checkpointer[0][0].is_alive()  # still parked
        finally:
            io.release.set()
        join_all(*checkpointer)
        assert seen == [expected, expected, "current"]
        assert store.generation == 1
        assert_reopens_as_live(store)

    def test_a_writer_queued_behind_a_degrading_commit_is_refused(
        self, tmp_path
    ):
        """Thread A's append meets a dead disk and flips the store
        read-only while thread B waits on the commit lock.  B must see
        the degradation before it touches the log: both raise, and the
        store reopens as it was before either -- or with A's stranded,
        unacknowledged record replayed, never with B's."""
        io = GatedFaultyIO("wal:append:before-write",
                           error_label="wal:append:before-fsync",
                           error_persistent=True)
        io.disarm()
        store = DurableXml.from_xml(
            str(tmp_path / "store"), BASE_XML, io=io,
            checkpoint_wal_bytes=HUGE,
            retry=RetryPolicy(attempts=2, sleep=lambda delay: None))
        store.rename(1, "acked")
        before = store.to_xml()
        io.arm()
        refused = []

        def commit(tag):
            def run():
                try:
                    store.rename(2, tag)
                except StoreDegraded:
                    refused.append(tag)
            return run

        try_to_overtake(io.gate, commit("first"), commit("second"))
        assert sorted(refused) == ["first", "second"]
        assert store.degraded
        assert store.to_xml() == before
        store.close()
        oracle = CompressedXml.from_xml(before)
        oracle.rename(2, "first")
        with DurableXml.open(str(tmp_path / "store")) as reopened:
            assert reopened.to_xml() in (before, oracle.to_xml())

    def test_cadence_checkpoints_one_per_commit_under_contention(
        self, tmp_path
    ):
        """With a 1-byte threshold every commit trips a checkpoint.
        The size check runs under the commit lock, so each commit seals
        exactly its own record: 4 writers x 5 commits make 20
        generations and leave nothing to replay."""
        store = DurableXml.from_xml(str(tmp_path / "store"), BASE_XML,
                                    checkpoint_wal_bytes=1)

        def writer(seed):
            for step in range(5):
                store.rename(1 + seed * 4 + step % 4, f"w{seed}s{step}")

        join_all(*run_threads(*(lambda s=seed: writer(s)
                                for seed in range(4))))
        assert store.generation == 20
        assert store.last_checkpoint_error is None
        live = assert_reopens_as_live(store)
        with DurableXml.open(store.directory) as reopened:
            assert reopened.last_recovery.replayed == 0
            assert reopened.generation == 20
            assert reopened.to_xml() == live

    def test_four_writers_random_mix_reopens_equal(self, tmp_path):
        """4 threads x 30 random inserts, deletes and batches on one
        store, with cadence checkpoints in between: the live document
        equals its replay.  An op whose index another writer has just
        invalidated fails cleanly and must leave no trace either."""
        store = DurableXml.from_xml(str(tmp_path / "store"), BASE_XML,
                                    checkpoint_wal_bytes=2048)

        def writer(seed):
            rng = random.Random(seed)
            for step in range(30):
                with store.snapshot() as view:
                    count = view.element_count
                kind = rng.choice(("insert", "delete", "batch"))
                index = rng.randrange(1, count) if count > 1 else 0
                tag = f"w{seed}s{step}"
                try:
                    if kind == "insert" and index:
                        store.insert(index, XmlNode(tag))
                    elif kind == "delete" and count > 3:
                        store.delete(index)
                    else:
                        store.apply_batch([
                            BatchRename(index, tag),
                            BatchAppend(0, [XmlNode(tag, [XmlNode("k")])]),
                        ])
                except (IndexError, UpdateError):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleavings mid-commit
        try:
            join_all(*run_threads(*(lambda s=seed: writer(s)
                                    for seed in range(4))))
        finally:
            sys.setswitchinterval(interval)
        assert store.generation > 0  # checkpoints raced the writers
        assert store.last_checkpoint_error is None
        assert_reopens_as_live(store)


# ----------------------------------------------------------------------
# the crash matrix
# ----------------------------------------------------------------------
def committed_prefix_states():
    """``refs[i]``: the document after the first ``i`` scripted steps."""
    oracle = CompressedXml.from_xml(BASE_XML)
    refs = [oracle.to_xml()]
    oracle.rename(1, "record")
    refs.append(oracle.to_xml())
    oracle.append_child(0, XmlNode("extra", [XmlNode("x")]))
    refs.append(oracle.to_xml())
    refs.append(refs[-1])  # failing rename: no state change
    refs.append(refs[-1])  # checkpoint: no state change
    refs.append(refs[-1])  # grammar export: no state change
    oracle.delete(4)
    refs.append(oracle.to_xml())
    refs.append(refs[-1])  # checkpoint: no state change
    oracle.rename(2, "zzz")
    refs.append(oracle.to_xml())
    return refs


def run_script(store):
    """The scripted mutation history; yields after each acknowledged
    step (commits, a cleanly failing op, and explicit checkpoints, so
    every crash-point site is exercised)."""
    store.rename(1, "record")
    yield
    store.append_child(0, XmlNode("extra", [XmlNode("x")]))
    yield
    try:
        store.rename(10 ** 6, "nope")  # exercises wal:rollback
    except IndexError:
        pass
    yield
    store.checkpoint()
    yield
    store.save_grammar(
        os.path.join(store.directory, "export.grammar"), io=store._io
    )
    yield
    store.delete(4)
    yield
    store.checkpoint()  # retires generation 0: checkpoint:clean
    yield
    store.rename(2, "zzz")
    yield


#: Labels the script legitimately never reaches: torn-tail truncation
#: happens while *opening* a WAL, which the kill-during-commit script
#: never does (dedicated tests below cover them).
UNREACHED = ("wal:open:before-truncate", "wal:open:after-truncate")


def run_killed(directory, io):
    """Run the script under ``io`` until the simulated kill; returns
    the number of acknowledged steps, or None if no crash fired."""
    acked = 0
    try:
        store = DurableXml.create(
            directory, CompressedXml.from_xml(BASE_XML), io=io,
            checkpoint_wal_bytes=HUGE, wal_segment_bytes=1,
        )
        for _ in run_script(store):
            acked += 1
    except SimulatedCrash:
        return acked
    return None


class TestCrashMatrix:
    @pytest.mark.parametrize("label", CRASH_POINTS)
    def test_kill_at_every_crash_point(self, tmp_path, label):
        refs = committed_prefix_states()
        directory = str(tmp_path / "store")
        acked = run_killed(directory, FaultyIO(crash_label=label))
        if acked is None:
            assert label in UNREACHED, f"{label} never fired"
            return

        try:
            store = DurableXml.open(directory)
        except RecoveryError:
            # Legal only while the store was still being born: the kill
            # landed before the very first manifest switch.
            assert manifest_missing(directory)
            assert acked == 0
            return
        # THE property: exactly a committed prefix -- the acknowledged
        # steps, plus at most the one durable-but-unacknowledged op.
        allowed = refs[acked:acked + 2]
        assert store.to_xml() in allowed, label
        # ... and the recovered store is fully writable again.
        store.rename(0, "reborn")
        survivor = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == survivor

    @pytest.mark.parametrize("label", UNREACHED)
    def test_kill_during_torn_tail_truncation(self, tmp_path, label):
        directory = str(tmp_path / "store")
        store = DurableXml.from_xml(directory, BASE_XML)
        store.rename(1, "record")
        expected = store.to_xml()
        store.close()
        layout = StoreLayout(directory)
        with open(layout.wal_path(0), "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 3)

        with pytest.raises(SimulatedCrash):
            DurableXml.open(directory, io=FaultyIO(crash_label=label))
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.replayed == 1


#: The points one commit passes through, in order.
COMMIT_CRASH_LABELS = tuple(
    label for label in CRASH_POINTS if label.startswith("wal:append:"))


class TestConcurrentCrashMatrix:
    @pytest.mark.parametrize("label", COMMIT_CRASH_LABELS)
    def test_kill_with_writers_queued_on_the_lock(self, tmp_path, label):
        """4 writers append tagged children to the root; the kill lands
        at the 7th commit to reach ``label``.  The reopened store holds
        every acknowledged child, at most one unacknowledged one, and
        each writer's children in its own order."""
        directory = str(tmp_path / "store")
        io = FaultyIO(crash_label=label, occurrence=7)
        io.disarm()
        store = DurableXml.from_xml(directory, "<r><a/></r>", io=io,
                                    checkpoint_wal_bytes=HUGE)
        io.arm()
        acked = []

        def writer(seed):
            for step in range(10):
                tag = f"w{seed}s{step}"
                try:
                    store.append_child(0, XmlNode(tag))
                except SimulatedCrash:
                    return
                acked.append(tag)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            join_all(*run_threads(*(lambda s=seed: writer(s)
                                    for seed in range(4))))
        finally:
            sys.setswitchinterval(interval)
        assert io.crashed, f"{label} never fired"

        with DurableXml.open(directory) as reopened:
            root = ElementTree.fromstring(reopened.to_xml())
            logged = [child.tag for child in root][1:]
            reopened.append_child(0, XmlNode("reborn"))
            survivor = reopened.to_xml()
        assert len(set(logged)) == len(logged), label
        assert set(acked) <= set(logged), label
        assert len(set(logged) - set(acked)) <= 1, label
        for seed in range(4):
            mine = [tag for tag in logged if tag.startswith(f"w{seed}s")]
            assert mine == [f"w{seed}s{step}" for step in range(len(mine))]
        with DurableXml.open(directory) as again:
            assert again.to_xml() == survivor


# ----------------------------------------------------------------------
# the committed-prefix property, over random documents and schedules
# ----------------------------------------------------------------------
KINDS = ("rename", "insert", "append", "delete", "batch", "checkpoint")
FRACTIONS = (0.0, 0.31, 0.64, 0.97)


def build_steps(tree, script):
    """Concretize an abstract script against a sequential oracle;
    returns ``(steps, refs)`` with ``refs[i]`` the state after ``i``
    steps (batches count as ONE step -- their atomicity is the point)."""
    oracle = CompressedXml.from_document(tree)
    steps = []
    refs = [oracle.to_xml()]
    for kind, fraction, tag in script:
        count = oracle.element_count
        if kind == "rename":
            index = int(fraction * count)
            oracle.rename(index, tag)
            steps.append(("rename", (index, tag)))
        elif kind == "insert":
            if count < 2:
                continue
            index = 1 + int(fraction * (count - 1))
            oracle.insert(index, XmlNode(tag))
            steps.append(("insert", (index, tag)))
        elif kind == "append":
            index = int(fraction * count)
            oracle.append_child(index, XmlNode(tag, [XmlNode("kid")]))
            steps.append(("append", (index, tag)))
        elif kind == "delete":
            if count < 3:
                continue
            index = 1 + int(fraction * (count - 1))
            oracle.delete(index)
            steps.append(("delete", (index,)))
        elif kind == "batch":
            index = int(fraction * count)
            oracle.apply_batch([BatchRename(index, tag),
                                BatchAppend(0, [XmlNode(tag)])])
            steps.append(("batch", (index, tag)))
        else:
            steps.append(("checkpoint", ()))
        refs.append(oracle.to_xml())
    return steps, refs


def apply_step(store, step):
    kind, args = step
    if kind == "rename":
        store.rename(*args)
    elif kind == "insert":
        index, tag = args
        store.insert(index, XmlNode(tag))
    elif kind == "append":
        index, tag = args
        store.append_child(index, XmlNode(tag, [XmlNode("kid")]))
    elif kind == "delete":
        store.delete(*args)
    elif kind == "batch":
        index, tag = args
        store.apply_batch([BatchRename(index, tag),
                           BatchAppend(0, [XmlNode(tag)])])
    else:
        store.checkpoint()


def run_steps(directory, tree, steps, io):
    store = DurableXml.create(
        directory, CompressedXml.from_document(tree), io=io,
        checkpoint_wal_bytes=HUGE,
    )
    acked = 0
    for step in steps:
        apply_step(store, step)
        acked += 1
    store.close()
    return acked


class TestCommittedPrefixProperty:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_recovery_yields_a_committed_prefix(
        self, tmp_path_factory, data
    ):
        from tests.strategies import xml_documents

        tree = data.draw(xml_documents(max_elements=12), label="doc")
        script = data.draw(
            st.lists(
                st.tuples(st.sampled_from(KINDS),
                          st.sampled_from(FRACTIONS),
                          st.sampled_from(("n1", "n2"))),
                min_size=1, max_size=5,
            ),
            label="script",
        )
        steps, refs = build_steps(tree, script)

        # Counting run: how many crash points does this history hit?
        base = tmp_path_factory.mktemp("prefix")
        counter = FaultyIO(crash_invocation=10 ** 9)
        run_steps(str(base / "count"), tree, steps, counter)
        total = sum(counter.occurrences.values())
        assert total > 0

        # Kill run: die at a schedule-chosen point, then recover.
        k = data.draw(st.integers(1, total), label="kill_at")
        io = FaultyIO(crash_invocation=k)
        directory = str(base / "crash")
        acked = 0
        try:
            store = DurableXml.create(
                directory, CompressedXml.from_document(tree), io=io,
                checkpoint_wal_bytes=HUGE,
            )
            for step in steps:
                apply_step(store, step)
                acked += 1
        except SimulatedCrash:
            pass
        assert io.crashed

        try:
            recovered = DurableXml.open(directory)
        except RecoveryError:
            assert manifest_missing(directory)
            assert acked == 0
            return
        allowed = refs[acked:acked + 2]
        assert recovered.to_xml() in allowed
        recovered.close()
