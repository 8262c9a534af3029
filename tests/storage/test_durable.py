"""The ``DurableXml`` facade: WAL-first commits, checkpoint cadence,
and the crash matrix -- recovery always yields exactly a committed
prefix of the acknowledged operations, never a half-applied batch."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompressedXml
from repro.storage.durable import DurableXml
from repro.storage.faults import (
    CRASH_POINTS,
    FaultyIO,
    SimulatedCrash,
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
#: The group commit's fsync, unreachable in serial mode
#: (``TestGroupCrashMatrix`` covers it).
SERIAL_UNREACHED = UNREACHED + ("wal:sync:before-fsync",
                                "wal:sync:after-fsync")


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
            assert label in SERIAL_UNREACHED, f"{label} never fired"
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
