"""The I/O-error matrix: injected ``errno`` failures at every labeled
protocol site.  The contract under a misbehaving disk --

* transient faults are absorbed by retry/backoff and invisible to
  callers;
* a persistent write failure flips the store into read-only degraded
  mode (typed :class:`StoreDegraded`, never a raw ``OSError``), reads
  keep serving, and the on-disk state stays exactly a committed prefix
  (or its one durable-but-unacknowledged successor);
* once the injections stop, the store is writable again -- in-process
  via an error-free checkpoint, or by simply reopening;
* interleaved errno injections and kills (the Hypothesis sweep) still
  recover to exactly a committed prefix.
"""

import errno
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompressedXml
from repro.storage.durable import CheckpointError, DurableXml, StoreDegraded
from repro.storage.faults import (
    CRASH_POINTS,
    FaultyIO,
    RetryPolicy,
    SimulatedCrash,
)
from repro.storage.recovery import MANIFEST_NAME, RecoveryError
from repro.storage.wal import WalWriteError
from repro.trees.unranked import XmlNode

BASE_XML = "<log>" + "<entry><ip/><status/></entry>" * 6 + "</log>"

HUGE = 1 << 30


def fast_retry(attempts=2):
    return RetryPolicy(attempts=attempts, sleep=lambda _: None)


def _failing_rename(store):
    try:
        store.rename(10 ** 6, "nope")
    except IndexError:
        pass


#: The scripted history the matrix runs: commits, a cleanly failing op
#: (exercises WAL rollback), and explicit checkpoints (snapshot,
#: manifest switch, retirement, compaction) -- with segment_bytes=1 so
#: every commit also rotates the chain.
STEPS = (
    lambda store: store.rename(1, "record"),
    lambda store: store.append_child(0, XmlNode("extra", [XmlNode("x")])),
    _failing_rename,
    lambda store: store.checkpoint(),
    lambda store: store.delete(4),
    lambda store: store.checkpoint(),
    lambda store: store.rename(2, "zzz"),
)


def step_refs():
    """``refs[i]``: the document after the first ``i`` steps."""
    oracle = CompressedXml.from_xml(BASE_XML)
    refs = [oracle.to_xml()]
    oracle.rename(1, "record")
    refs.append(oracle.to_xml())
    oracle.append_child(0, XmlNode("extra", [XmlNode("x")]))
    refs.append(oracle.to_xml())
    refs.append(refs[-1])  # failing rename: no state change
    refs.append(refs[-1])  # checkpoint: no state change
    oracle.delete(4)
    refs.append(oracle.to_xml())
    refs.append(refs[-1])  # checkpoint: no state change
    oracle.rename(2, "zzz")
    refs.append(oracle.to_xml())
    return refs


def run_faulted(store, refs):
    """Run the script under error injection; returns the index into
    ``refs`` of the state every acknowledged answer implies.  Raw
    ``OSError`` escaping the store is the one forbidden outcome."""
    state = 0
    for step in STEPS:
        try:
            step(store)
            state += 1
        except CheckpointError:
            state += 1  # an explicit checkpoint failure preserves state
        except StoreDegraded:
            break
        except OSError as exc:  # pragma: no cover - the failure mode
            pytest.fail(f"raw OSError escaped the store: {exc}")
    return state


#: ``grammar:save`` guards ``CompressedXml.save_grammar`` -- a plain
#: export helper outside the durable commit protocol -- and ``wal:open``
#: only fires while truncating a torn tail at open time, which this
#: error-free-creation script never does.
ERROR_LABELS = tuple(
    label for label in CRASH_POINTS
    if not label.startswith(("grammar:save:", "wal:open:"))
)


class TestErrorMatrix:
    @pytest.mark.parametrize("label", ERROR_LABELS)
    def test_persistent_error_at_every_site(self, tmp_path, label):
        refs = step_refs()
        directory = str(tmp_path / "store")
        io = FaultyIO(error_label=label, error_persistent=True,
                      error_errno=errno.EIO)
        io.disarm()
        store = DurableXml.create(
            directory, CompressedXml.from_xml(BASE_XML), io=io,
            checkpoint_wal_bytes=HUGE, wal_segment_bytes=1,
            retry=fast_retry(),
        )
        io.arm()

        state = run_faulted(store, refs)
        assert io.errors_injected, f"{label} never fired"
        # Reads keep serving, and exactly the acknowledged prefix.
        assert store.to_xml() == refs[state]
        if store.degraded:
            with pytest.raises(StoreDegraded, match="read-only"):
                store.rename(0, "nope")
            assert store.to_xml() == refs[state]

        # The disk heals: injections stop.  An error-free checkpoint
        # proves the write path and lifts degradation in-process.
        io.disarm()
        if store.degraded:
            store.checkpoint()
            assert not store.degraded
            assert store.degraded_cause is None
        store.rename(0, "reborn")
        survivor = store.to_xml()
        store.close()
        with DurableXml.open(directory, wal_segment_bytes=1) as reopened:
            assert reopened.to_xml() == survivor
            assert not reopened.degraded


class TestTransientErrors:
    def test_retries_make_transient_faults_invisible(self, tmp_path):
        delays = []
        retry = RetryPolicy(attempts=4, base_delay=0.01, max_delay=0.04,
                            multiplier=2.0, sleep=delays.append)
        io = FaultyIO(error_label="wal:append:before-fsync",
                      error_errno=errno.EIO, error_count=2)
        io.disarm()
        directory = str(tmp_path / "store")
        store = DurableXml.create(
            directory, CompressedXml.from_xml(BASE_XML), io=io,
            checkpoint_wal_bytes=HUGE, retry=retry,
        )
        io.arm()
        store.rename(1, "record")  # two failures, then success
        assert not store.degraded
        expected = store.to_xml()
        # The backoff schedule ran on the injected clock, never the
        # real one.
        assert delays == [0.01, 0.02]
        assert len(io.errors_injected) == 2
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == expected
            assert reopened.last_recovery.replayed == 1

    def test_torn_append_error_leaves_no_partial_record(self, tmp_path):
        io = FaultyIO(error_label="wal:append:mid-write", error_count=1)
        io.disarm()
        directory = str(tmp_path / "store")
        store = DurableXml.create(
            directory, CompressedXml.from_xml(BASE_XML), io=io,
            checkpoint_wal_bytes=HUGE, retry=fast_retry(3),
        )
        io.arm()
        store.rename(1, "record")
        expected = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.replayed == 1
            assert not reopened.last_recovery.dropped_tail_record
            assert reopened.to_xml() == expected


class TestDegradedMode:
    def degraded_store(self, tmp_path, error_errno=errno.ENOSPC):
        directory = str(tmp_path / "store")
        io = FaultyIO(error_label="wal:append:before-write",
                      error_errno=error_errno, error_persistent=True)
        io.disarm()
        store = DurableXml.create(
            directory, CompressedXml.from_xml(BASE_XML), io=io,
            checkpoint_wal_bytes=HUGE, retry=fast_retry(),
        )
        store.rename(1, "record")
        expected = store.to_xml()
        io.arm()
        return directory, io, store, expected

    def test_enospc_flips_read_only_with_typed_cause(self, tmp_path):
        directory, io, store, expected = self.degraded_store(tmp_path)
        with pytest.raises(StoreDegraded) as info:
            store.rename(2, "x")
        assert isinstance(info.value.cause, WalWriteError)
        assert info.value.cause.errno == errno.ENOSPC
        # First raise reports the failing commit; later raises report
        # the standing degraded condition.
        assert "commit failed" in str(info.value)
        assert store.degraded
        assert isinstance(store.degraded_cause, WalWriteError)
        # Reads keep serving the acknowledged state.
        assert store.to_xml() == expected
        assert store.tag_of(1) == "record"
        assert store.select("//record") == [1]
        # Every further write is the typed refusal, stating the cause.
        with pytest.raises(StoreDegraded, match=r"\(degraded\)"):
            store.delete(2)
        with pytest.raises(StoreDegraded) as info2:
            store.append_child(0, XmlNode("y"))
        assert "No space left" in str(info2.value)
        store.close()

    def test_reopen_after_injections_stop_is_writable(self, tmp_path):
        directory, io, store, expected = self.degraded_store(tmp_path)
        with pytest.raises(StoreDegraded):
            store.rename(2, "x")
        store.close()
        # A fresh open without the faulty device: fully writable.
        with DurableXml.open(directory) as reopened:
            assert not reopened.degraded
            assert reopened.to_xml() == expected
            reopened.rename(2, "alive")
            assert reopened.tag_of(2) == "alive"

    def test_healthy_checkpoint_clears_degradation(self, tmp_path):
        directory, io, store, expected = self.degraded_store(tmp_path)
        with pytest.raises(StoreDegraded):
            store.rename(2, "x")
        io.disarm()
        generation = store.checkpoint()
        assert generation == 1
        assert not store.degraded
        store.rename(2, "alive")
        survivor = store.to_xml()
        store.close()
        with DurableXml.open(directory) as reopened:
            assert reopened.to_xml() == survivor

    def test_failed_checkpoint_does_not_clear_degradation(self, tmp_path):
        directory = str(tmp_path / "store")
        io = FaultyIO(error_label="wal:append:before-write",
                      error_errno=errno.EIO, error_persistent=True)
        io.disarm()
        store = DurableXml.create(
            directory, CompressedXml.from_xml(BASE_XML), io=io,
            checkpoint_wal_bytes=HUGE, retry=fast_retry(),
        )
        io.arm()
        with pytest.raises(StoreDegraded):
            store.rename(1, "x")
        # The disk is still bad: the recovery checkpoint fails typed
        # and the store stays read-only.
        with pytest.raises(CheckpointError):
            store.checkpoint()
        assert store.degraded
        store.close()

    def test_stranded_record_does_not_poison_the_fallback(self, tmp_path):
        # A failed append whose tail restore also failed strands a
        # durable record beyond the acknowledged prefix.  The healing
        # checkpoint must seal it away: a later degraded recovery
        # through the fallback chain has to reconstruct exactly the
        # snapshot state, not the strand's successor.
        directory = str(tmp_path / "store")
        # Persistent: the post-fsync failure AND the tail-restoring
        # truncate both fail, so the durable record stays stranded.
        io = FaultyIO(error_label="wal:append:after-fsync",
                      error_errno=errno.EIO, error_persistent=True)
        io.disarm()
        store = DurableXml.create(
            directory, CompressedXml.from_xml(BASE_XML), io=io,
            checkpoint_wal_bytes=HUGE, retry=fast_retry(),
        )
        store.rename(1, "record")
        io.arm()
        with pytest.raises(StoreDegraded):
            store.rename(2, "stranded")
        assert store.degraded
        assert not store.degraded_cause.tail_intact
        io.disarm()
        store.checkpoint()
        expected = store.to_xml()
        assert "stranded" not in expected
        store.close()
        # Force the degraded path: the newest snapshot goes bad.
        from repro.storage.recovery import StoreLayout
        with open(StoreLayout(directory).snapshot_path(1), "r+b") as f:
            f.seek(30)
            byte = f.read(1)
            f.seek(30)
            f.write(bytes([byte[0] ^ 0xFF]))
        with DurableXml.open(directory) as reopened:
            assert reopened.last_recovery.degraded
            assert reopened.to_xml() == expected

    def test_degraded_state_is_visible_in_health(self, tmp_path):
        directory, io, store, _ = self.degraded_store(tmp_path)
        with pytest.raises(StoreDegraded):
            store.rename(2, "x")
        health = store.health()
        assert health["degraded"] is True
        assert "No space left" in health["degraded_cause"]
        io.disarm()
        store.checkpoint()
        assert store.health()["degraded"] is False
        assert store.health()["degraded_cause"] is None
        store.close()


# ----------------------------------------------------------------------
# interleaved errors + kills, over schedule-drawn injection points
# ----------------------------------------------------------------------
ERRNOS = (errno.EIO, errno.ENOSPC, errno.EROFS)


class TestInterleavedFaultsProperty:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_recovery_yields_a_committed_prefix(
        self, tmp_path_factory, data
    ):
        refs = step_refs()
        base = tmp_path_factory.mktemp("interleave")

        # Counting run: how many fault points does this history hit?
        counter = FaultyIO(crash_invocation=10 ** 9)
        counter_store = DurableXml.create(
            str(base / "count"), CompressedXml.from_xml(BASE_XML),
            io=counter, checkpoint_wal_bytes=HUGE, wal_segment_bytes=1,
            retry=fast_retry(),
        )
        for step in STEPS:
            step(counter_store)
        counter_store.close()
        total = sum(counter.occurrences.values())
        assert total > 0

        # Fault run: an errno window at one drawn point, optionally a
        # kill at another.
        error_at = data.draw(st.integers(1, total), label="error_at")
        persistent = data.draw(st.booleans(), label="persistent")
        error_errno = data.draw(st.sampled_from(ERRNOS), label="errno")
        error_count = data.draw(st.integers(1, 2), label="count")
        crash_at = data.draw(
            st.one_of(st.none(), st.integers(1, total)), label="crash_at"
        )
        kwargs = dict(error_invocation=error_at, error_errno=error_errno,
                      error_count=error_count,
                      error_persistent=persistent)
        if crash_at is not None:
            kwargs["crash_invocation"] = crash_at
        io = FaultyIO(**kwargs)

        directory = str(base / "fault")
        state = 0
        crashed = False
        store = None
        try:
            try:
                store = DurableXml.create(
                    directory, CompressedXml.from_xml(BASE_XML), io=io,
                    checkpoint_wal_bytes=HUGE, wal_segment_bytes=1,
                    retry=fast_retry(),
                )
            except (OSError, WalWriteError):
                # Creation is outside the commit protocol: an error
                # before the store exists surfaces directly and leaves
                # at most a half-born directory.
                store = None
            if store is not None:
                for step in STEPS:
                    try:
                        step(store)
                        state += 1
                    except CheckpointError:
                        state += 1
                    except StoreDegraded:
                        break
                    except OSError as exc:  # pragma: no cover
                        pytest.fail(
                            f"raw OSError escaped the store: {exc}")
        except SimulatedCrash:
            crashed = True

        if store is not None and not crashed:
            # The living store answers with exactly its acknowledged
            # prefix, degraded or not.
            assert store.to_xml() == refs[state]
            store.close()

        # Recovery on a healthy device.
        try:
            recovered = DurableXml.open(directory, wal_segment_bytes=1)
        except RecoveryError:
            # Legal only while the store was still being born.
            assert not os.path.exists(
                os.path.join(directory, MANIFEST_NAME))
            assert state == 0
            return
        # Exactly the committed prefix, or its one durable-but-
        # unacknowledged successor.
        assert recovered.to_xml() in refs[state:state + 2]
        assert not recovered.degraded
        recovered.rename(0, "reborn")
        recovered.close()
