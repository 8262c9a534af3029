"""The fault-injection layer itself: scheduling modes, torn writes,
errno injection, retry backoff, stay-dead semantics, and the
crash-point registry."""

import errno

import pytest

from repro.storage.faults import (
    CRASH_POINTS,
    FaultyIO,
    RetryPolicy,
    SimulatedCrash,
    StorageIO,
)


class TestRegistry:
    def test_crash_points_are_unique_and_labeled(self):
        assert len(CRASH_POINTS) == len(set(CRASH_POINTS))
        assert all(label.count(":") == 2 for label in CRASH_POINTS)

    def test_every_protocol_site_is_covered(self):
        sites = {label.rsplit(":", 1)[0] for label in CRASH_POINTS}
        assert sites == {
            "wal:append", "wal:create", "wal:open",
            "wal:rollback",
            "wal:compact",
            "snapshot:write", "snapshot:commit",
            "manifest:write", "manifest:commit",
            "checkpoint:clean",
            "grammar:save",
        }

    def test_simulated_crash_is_not_an_exception(self):
        # Internal ``except Exception`` error handling must not be able
        # to swallow a kill.
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, Exception)


class TestScheduling:
    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultyIO()
        with pytest.raises(ValueError, match="exactly one"):
            FaultyIO(crash_label="wal:append:before-write",
                     crash_invocation=3)

    def test_label_mode_crashes_at_nth_occurrence(self):
        io = FaultyIO(crash_label="site:after-write", occurrence=2)
        io.crash_point("site:after-write")
        io.crash_point("site:other")
        with pytest.raises(SimulatedCrash) as info:
            io.crash_point("site:after-write")
        assert info.value.label == "site:after-write"
        assert io.crashed
        assert io.occurrences["site:after-write"] == 2

    def test_invocation_mode_counts_every_label(self):
        io = FaultyIO(crash_invocation=3)
        io.crash_point("a:x")
        io.crash_point("b:y")
        with pytest.raises(SimulatedCrash) as info:
            io.crash_point("c:z")
        assert info.value.label == "c:z"

    def test_once_dead_stays_dead(self):
        io = FaultyIO(crash_invocation=1)
        with pytest.raises(SimulatedCrash):
            io.crash_point("first:hit")
        # The process is dead: every later primitive raises too, no
        # matter the label or how often it was scheduled.
        with pytest.raises(SimulatedCrash):
            io.crash_point("completely:different")

    def test_disarm_suspends_the_countdown(self, tmp_path):
        io = FaultyIO(crash_invocation=1)
        io.disarm()
        io.crash_point("setup:phase")
        assert io.occurrences == {}
        io.arm()
        with pytest.raises(SimulatedCrash):
            io.crash_point("armed:phase")


class TestTornWrites:
    def test_mid_write_leaves_a_torn_prefix(self, tmp_path):
        path = str(tmp_path / "file")
        io = FaultyIO(crash_label="site:mid-write", torn_fraction=0.5)
        payload = b"0123456789abcdef"
        with open(path, "wb") as handle:
            with pytest.raises(SimulatedCrash):
                io.write(handle, payload, "site")
        with open(path, "rb") as handle:
            data = handle.read()
        assert data == payload[: len(payload) // 2]

    def test_unscheduled_write_is_untouched(self, tmp_path):
        path = str(tmp_path / "file")
        io = FaultyIO(crash_label="other:mid-write")
        with open(path, "wb") as handle:
            io.write(handle, b"payload", "site")
        with open(path, "rb") as handle:
            assert handle.read() == b"payload"


class TestErrorScheduling:
    def test_transient_error_fails_then_recovers(self):
        io = FaultyIO(error_label="wal:append:before-fsync",
                      error_errno=errno.EIO, error_count=2)
        with pytest.raises(OSError) as info:
            io.crash_point("wal:append:before-fsync")
        assert info.value.errno == errno.EIO
        assert "[injected at wal:append:before-fsync]" in str(info.value)
        with pytest.raises(OSError):
            io.crash_point("wal:append:before-fsync")
        # The budget is spent: the site is healthy again.
        io.crash_point("wal:append:before-fsync")
        assert io.errors_injected == [
            ("wal:append:before-fsync", errno.EIO),
            ("wal:append:before-fsync", errno.EIO),
        ]

    def test_transient_error_hits_only_its_own_label(self):
        io = FaultyIO(error_label="wal:append:after-write", error_count=5)
        io.crash_point("manifest:commit:before-rename")  # untouched
        with pytest.raises(OSError):
            io.crash_point("wal:append:after-write")
        io.crash_point("snapshot:write:before-fsync")  # still untouched

    def test_persistent_error_fails_every_later_site(self):
        io = FaultyIO(error_label="wal:append:before-fsync",
                      error_errno=errno.ENOSPC, error_persistent=True)
        io.crash_point("snapshot:write:before-write")  # before trigger
        with pytest.raises(OSError) as info:
            io.crash_point("wal:append:before-fsync")
        assert info.value.errno == errno.ENOSPC
        # The device is gone: everything fails from here on.
        with pytest.raises(OSError):
            io.crash_point("manifest:commit:before-rename")

    def test_error_invocation_mode_counts_every_label(self):
        io = FaultyIO(error_invocation=3, error_errno=errno.EROFS)
        io.crash_point("a:b:x")
        io.crash_point("c:d:y")
        with pytest.raises(OSError) as info:
            io.crash_point("e:f:z")
        assert info.value.errno == errno.EROFS

    def test_error_occurrence_skips_early_hits(self):
        io = FaultyIO(error_label="wal:append:after-fsync",
                      error_occurrence=3)
        io.crash_point("wal:append:after-fsync")
        io.crash_point("wal:append:after-fsync")
        with pytest.raises(OSError):
            io.crash_point("wal:append:after-fsync")

    def test_mid_write_error_leaves_a_torn_prefix(self, tmp_path):
        path = str(tmp_path / "file")
        io = FaultyIO(error_label="site:mid-write", torn_fraction=0.25)
        payload = b"0123456789abcdef"
        with open(path, "wb") as handle:
            with pytest.raises(OSError):
                io.write(handle, payload, "site")
        with open(path, "rb") as handle:
            assert handle.read() == payload[:4]

    def test_crash_and_error_schedules_compose(self):
        # An error first, then a kill later -- the interleavings the
        # Hypothesis sweep draws.
        io = FaultyIO(error_invocation=1, error_count=1,
                      crash_invocation=3)
        with pytest.raises(OSError):
            io.crash_point("a:b:x")
        io.crash_point("c:d:y")
        with pytest.raises(SimulatedCrash):
            io.crash_point("e:f:z")

    def test_error_only_schedule_is_valid(self):
        io = FaultyIO(error_label="wal:append:before-write")
        assert not io.crashed


class TestRetryPolicy:
    def test_delays_are_exponential_and_capped(self):
        policy = RetryPolicy(attempts=5, base_delay=0.01, max_delay=0.05,
                             multiplier=2.0, sleep=lambda _: None)
        assert list(policy.delays()) == [0.01, 0.02, 0.04, 0.05]

    def test_single_attempt_never_sleeps(self):
        policy = RetryPolicy(attempts=1)
        assert list(policy.delays()) == []

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)

    def test_sleep_is_injectable(self):
        recorded = []
        policy = RetryPolicy(attempts=3, base_delay=1.0, max_delay=9.0,
                             multiplier=3.0, sleep=recorded.append)
        for delay in policy.delays():
            policy.sleep(delay)
        assert recorded == [1.0, 3.0]


class TestDefaultIO:
    def test_default_io_is_a_no_op_layer(self, tmp_path):
        io = StorageIO()
        io.crash_point("anything:goes")
        path = str(tmp_path / "file")
        with open(path, "wb") as handle:
            io.write(handle, b"data", "site")
            io.fsync(handle, "site")
        io.replace(path, path + ".2", "site")
        io.truncate(path + ".2", 2, "site")
        with open(path + ".2", "rb") as handle:
            assert handle.read() == b"da"
        io.remove(path + ".2", "site")
        io.remove(path + ".2", "site")  # second remove: tolerated
        io.fsync_dir(str(tmp_path))
