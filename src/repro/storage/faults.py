"""The injectable fault layer under all durable file mutation.

Every side-effecting filesystem primitive the storage subsystem performs
-- writing bytes, fsync, ``os.replace``, truncation, directory fsync,
file creation and removal -- goes through a :class:`StorageIO` instance.
The default implementation simply performs the operation;
:class:`FaultyIO` is the fault-injection double the test harness swaps
in.  It models two distinct failure families at the same labeled sites:

* **Crashes** -- raise :class:`SimulatedCrash` at a scheduled point,
  emulating the process being killed at exactly that instant.  Crash
  semantics model a process kill, not media loss: bytes handed to the OS
  before the crash survive, a ``mid-write`` crash leaves a *torn* prefix
  of the payload behind, and everything after the raise simply never
  executes.  :class:`SimulatedCrash` deliberately subclasses
  ``BaseException``: the storage code's internal ``except Exception``
  error handling (e.g. the WAL rollback on a failed apply) must not be
  able to "survive" a kill.

* **I/O errors** -- raise ``OSError`` with a scheduled ``errno``
  (``EIO``, ``ENOSPC``, ``EROFS``, ...) at a labeled point, emulating a
  dying disk, a full filesystem, or a read-only remount.  Unlike a
  crash, the process lives on: an error can be *transient* (the next
  ``error_count`` hits at the label fail, later ones succeed -- the
  retry/backoff path in :mod:`repro.storage.wal` must absorb it) or
  *persistent* (every hit from the trigger on fails -- the degradation
  path in :mod:`repro.storage.durable` must flip the store read-only).
  An error at a ``mid-write`` point leaves a torn prefix, exactly like a
  mid-write kill, so the tail-restoration logic is exercised too.

Fault points are labeled (``"wal:append:before-fsync"``, ...).  The full
registry is :data:`CRASH_POINTS`, which both the kill matrix and the
error-injection matrix iterate; :class:`FaultyIO` additionally supports
triggering at the *n*-th point hit overall (any label), which is what
the Hypothesis property tests use to cover every reachable interleaving.

:class:`RetryPolicy` lives here too: the bounded-exponential-backoff
schedule ``WriteAheadLog.append``/``fsync`` retry transient failures
under, with an injectable ``sleep`` so tests never wait on a real clock.
"""

from __future__ import annotations

import errno as _errno
import os
import time
from typing import Callable, Dict, IO, Iterator, Optional

__all__ = [
    "StorageIO",
    "FaultyIO",
    "SimulatedCrash",
    "RetryPolicy",
    "CRASH_POINTS",
]


class SimulatedCrash(BaseException):
    """The process was "killed" at a labeled crash point.

    A ``BaseException`` on purpose: internal ``except Exception``
    recovery paths in the storage code must not swallow a kill.
    """

    def __init__(self, label: str) -> None:
        super().__init__(label)
        self.label = label


#: Every labeled fault point the storage subsystem can hit, for the
#: kill-at-every-point and error-at-every-point matrix tests.  Compound
#: labels are formed as ``"<site>:<phase>"`` where the site names the
#: protocol step and the phase one of ``before-write`` / ``mid-write`` /
#: ``after-write`` / ``before-fsync`` / ``after-fsync`` /
#: ``before-rename`` / ``after-rename`` / ``before-truncate`` /
#: ``after-truncate`` / ``before-dirsync`` / ``after-dirsync`` /
#: ``before-remove``.
CRASH_POINTS = tuple(
    f"{site}:{phase}"
    for site, phases in (
        # One committed operation record appended to the live WAL segment.
        ("wal:append", ("before-write", "mid-write", "after-write",
                        "before-fsync", "after-fsync")),
        # A fresh WAL segment (header) created at checkpoint/create time
        # or by a size-triggered rotation; the directory fsync makes the
        # new name durable.
        ("wal:create", ("before-write", "mid-write", "after-write",
                        "before-fsync", "after-fsync",
                        "before-dirsync", "after-dirsync")),
        # Torn-tail truncation while opening an existing WAL segment.
        ("wal:open", ("before-truncate", "after-truncate")),
        # Rolling the WAL back after an in-memory apply failed (or after
        # a failed append left a torn prefix behind).
        ("wal:rollback", ("before-truncate", "after-truncate")),
        # A fully-checkpointed segment chain compacted into one file:
        # temp write + rename + dirsync, then the chain files removed.
        ("wal:compact", ("before-write", "mid-write", "after-write",
                         "before-fsync", "after-fsync",
                         "before-rename", "after-rename",
                         "before-dirsync", "after-dirsync",
                         "before-remove")),
        # Snapshot image written to its temp file.
        ("snapshot:write", ("before-write", "mid-write", "after-write",
                            "before-fsync", "after-fsync")),
        # Temp snapshot renamed over its final name (+ dir entry fsync).
        ("snapshot:commit", ("before-rename", "after-rename",
                             "before-dirsync", "after-dirsync")),
        # Manifest written to its temp file, then renamed (the atomic
        # generation switch -- the commit point of a checkpoint), then
        # the directory entry fsync'd.
        ("manifest:write", ("before-write", "mid-write", "after-write",
                            "before-fsync", "after-fsync")),
        ("manifest:commit", ("before-rename", "after-rename",
                             "before-dirsync", "after-dirsync")),
        # Old-generation files removed after a completed checkpoint.
        ("checkpoint:clean", ("before-remove",)),
        # CompressedXml.save_grammar: the text grammar written to a temp
        # file and renamed over the target, with both fsyncs.
        ("grammar:save", ("before-write", "mid-write", "after-write",
                          "before-fsync", "after-fsync",
                          "before-rename", "after-rename",
                          "before-dirsync", "after-dirsync")),
    )
    for phase in phases
)


class RetryPolicy:
    """Bounded exponential backoff for transient I/O failures.

    ``attempts`` is the total number of tries (the first one included);
    between consecutive tries the policy sleeps ``base_delay *
    multiplier**i`` seconds, capped at ``max_delay``.  ``sleep`` is
    injectable so tests drive the schedule without a real clock --
    ``RetryPolicy(sleep=delays.append)`` records the backoff sequence
    instead of waiting it out.
    """

    def __init__(
        self,
        attempts: int = 5,
        base_delay: float = 0.005,
        max_delay: float = 0.25,
        multiplier: float = 4.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.sleep = sleep

    def delays(self) -> Iterator[float]:
        """The backoff sequence between tries (``attempts - 1`` values)."""
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.multiplier

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.attempts}, "
            f"base_delay={self.base_delay}, max_delay={self.max_delay})"
        )


class StorageIO:
    """All side-effecting filesystem primitives, behind fault points.

    The default implementation is the real thing; tests inject
    :class:`FaultyIO`.  Reads are not routed through here -- a killed
    process cannot corrupt data by reading, and a read error surfaces
    naturally as the typed corruption errors of the scan/decode layers.

    :meth:`bind_metrics` attaches a per-site fsync latency histogram
    (``repro_fsync_seconds{site=...}``) -- fsync is where commit latency
    actually lives, and the per-site split is what distinguishes "the
    WAL device is slow" from "checkpoints are slow".  Unbound (the
    default), :meth:`fsync` takes the original untimed path.
    """

    #: Class-level default so subclasses with their own ``__init__``
    #: (``FaultyIO``) need no cooperation; ``bind_metrics`` shadows it
    #: with instance state.
    _fsync_metrics: Optional[Dict[str, object]] = None
    _metrics_registry = None

    #: Sites pre-declared at bind time so a scrape sees the fsync
    #: surface before the first sync happens (the rest appear lazily).
    _FSYNC_SITES = ("wal:append", "wal:create", "wal:compact",
                    "snapshot:write", "manifest:write")

    def bind_metrics(self, registry) -> None:
        """Resolve fsync latency histograms against ``registry``."""
        self._metrics_registry = registry
        self._fsync_metrics = {
            site: registry.histogram(
                "repro_fsync_seconds",
                "fsync latency by storage site", site=site)
            for site in self._FSYNC_SITES
        }

    def crash_point(self, label: str) -> None:
        """Hook invoked at every labeled point; a no-op in production."""

    # -- primitives ----------------------------------------------------
    def open_append(self, path: str) -> IO[bytes]:
        return open(path, "ab")

    def write(self, handle: IO[bytes], data: bytes, site: str) -> None:
        """Write ``data``, with before/mid/after fault points."""
        self.crash_point(site + ":before-write")
        self._write_payload(handle, data, site)
        self.crash_point(site + ":after-write")

    def _write_payload(self, handle: IO[bytes], data: bytes,
                       site: str) -> None:
        handle.write(data)

    def fsync(self, handle: IO[bytes], site: str) -> None:
        self.crash_point(site + ":before-fsync")
        metrics = self._fsync_metrics
        if metrics is None:
            handle.flush()
            os.fsync(handle.fileno())
        else:
            histogram = metrics.get(site)
            if histogram is None:
                histogram = metrics[site] = (
                    self._metrics_registry.histogram(
                        "repro_fsync_seconds",
                        "fsync latency by storage site", site=site)
                )
            started = time.perf_counter()
            handle.flush()
            os.fsync(handle.fileno())
            histogram.observe(time.perf_counter() - started)
        self.crash_point(site + ":after-fsync")

    def replace(self, source: str, destination: str, site: str) -> None:
        """Atomic rename, with before/after fault points."""
        self.crash_point(site + ":before-rename")
        os.replace(source, destination)
        self.crash_point(site + ":after-rename")

    def truncate(self, path: str, size: int, site: str) -> None:
        self.crash_point(site + ":before-truncate")
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())
        self.crash_point(site + ":after-truncate")

    def remove(self, path: str, site: str) -> None:
        self.crash_point(site + ":before-remove")
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def fsync_dir(self, path: str, site: Optional[str] = None) -> None:
        """Flush directory metadata (new/renamed files) so the *name*
        survives a crash too; best effort on platforms whose directories
        cannot be opened.  With a ``site``, the flush is bracketed by
        ``<site>:before-dirsync`` / ``<site>:after-dirsync`` fault
        points -- every ``os.replace`` commit point threads one."""
        if site is not None:
            self.crash_point(site + ":before-dirsync")
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        if site is not None:
            self.crash_point(site + ":after-dirsync")


class FaultyIO(StorageIO):
    """A :class:`StorageIO` that kills the process -- or fails with a
    scheduled ``errno`` -- at a chosen fault point.

    Crash scheduling (exactly one of the two, or neither when an error
    schedule is given):

    * ``FaultyIO(crash_label="wal:append:after-write", occurrence=2)``
      crashes the second time that exact label is hit;
    * ``FaultyIO(crash_invocation=k)`` crashes at the *k*-th fault point
      hit overall (1-based, any label) -- the mode the property tests
      use to sweep every reachable point of a concrete run.

    Error scheduling (independent of, and combinable with, a crash
    schedule -- an errno injection followed by a later kill exercises
    the interleavings the Hypothesis sweep draws):

    * ``FaultyIO(error_label="wal:append:before-fsync",
      error_errno=errno.EIO, error_count=2)`` fails the first two hits
      of that label with ``EIO`` and lets later hits succeed (a
      *transient* fault the retry path must absorb);
    * ``FaultyIO(error_label=..., error_persistent=True)`` fails every
      hit from the trigger on (a *persistent* fault -- full disk,
      read-only remount -- the degradation path must survive);
    * ``FaultyIO(error_invocation=k, ...)`` triggers the error window at
      the *k*-th point hit overall instead of at a specific label; with
      ``error_persistent=True`` every labeled point from the *k*-th on
      fails, emulating the whole device going bad mid-run.

    ``arm()``/``disarm()`` gate the countdowns so a test can build the
    store cleanly and inject faults only into the phase under test.
    Once crashed, *every* later primitive raises again (the process is
    dead); ``occurrences`` records how often each label was reached,
    which the matrix tests use to skip never-reached labels.
    """

    def __init__(
        self,
        crash_label: Optional[str] = None,
        occurrence: int = 1,
        crash_invocation: Optional[int] = None,
        torn_fraction: float = 0.5,
        error_label: Optional[str] = None,
        error_invocation: Optional[int] = None,
        error_errno: int = _errno.EIO,
        error_count: int = 1,
        error_persistent: bool = False,
        error_occurrence: int = 1,
    ) -> None:
        if crash_label is not None and crash_invocation is not None:
            raise ValueError(
                "schedule exactly one of crash_label / crash_invocation"
            )
        if error_label is not None and error_invocation is not None:
            raise ValueError(
                "schedule exactly one of error_label / error_invocation"
            )
        has_crash = crash_label is not None or crash_invocation is not None
        has_error = error_label is not None or error_invocation is not None
        if not has_crash and not has_error:
            raise ValueError(
                "schedule exactly one of crash_label / crash_invocation "
                "(or an error_label / error_invocation)"
            )
        self._crash_label = crash_label
        self._label_countdown = occurrence
        self._invocation_countdown = crash_invocation or 0
        self._has_crash = has_crash
        self._torn_fraction = torn_fraction
        self._error_label = error_label
        self._error_label_countdown = error_occurrence
        self._error_invocation_countdown = error_invocation or 0
        self._has_error = has_error
        self._error_errno = error_errno
        self._error_budget = error_count
        self._error_persistent = error_persistent
        self._error_triggered = False
        self._armed = True
        self.crashed = False
        #: I/O errors actually raised, in order: (label, errno) pairs.
        self.errors_injected: list = []
        self.occurrences: Dict[str, int] = {}

    def arm(self) -> None:
        self._armed = True

    def disarm(self) -> None:
        self._armed = False

    def _crash_due(self, label: str) -> bool:
        if self.crashed:
            return True
        if not self._has_crash:
            return False
        if self._crash_label is not None:
            if label == self._crash_label:
                self._label_countdown -= 1
                return self._label_countdown <= 0
            return False
        self._invocation_countdown -= 1
        return self._invocation_countdown <= 0

    def _error_due(self, label: str) -> bool:
        if not self._has_error:
            return False
        if not self._error_triggered:
            if self._error_label is not None:
                if label != self._error_label:
                    return False
                self._error_label_countdown -= 1
                if self._error_label_countdown > 0:
                    return False
            else:
                self._error_invocation_countdown -= 1
                if self._error_invocation_countdown > 0:
                    return False
            self._error_triggered = True
        elif self._error_label is not None and not self._error_persistent \
                and label != self._error_label:
            # A transient label-scheduled fault only ever fails its own
            # label; persistent faults (a dead device) fail everything.
            return False
        if self._error_persistent:
            return True
        if self._error_budget > 0:
            self._error_budget -= 1
            return True
        return False

    def _raise_error(self, label: str) -> None:
        self.errors_injected.append((label, self._error_errno))
        raise OSError(
            self._error_errno,
            f"{os.strerror(self._error_errno)} [injected at {label}]",
        )

    def crash_point(self, label: str) -> None:
        if not self._armed:
            return
        self.occurrences[label] = self.occurrences.get(label, 0) + 1
        if self._crash_due(label):
            self.crashed = True
            raise SimulatedCrash(label)
        if self._error_due(label):
            self._raise_error(label)

    def _write_payload(self, handle, data: bytes, site: str) -> None:
        # A mid-write kill or error leaves a torn prefix of the payload
        # on disk: the bytes were handed to the OS before the fault.
        label = site + ":mid-write"
        if not self._armed:
            handle.write(data)
            return
        self.occurrences[label] = self.occurrences.get(label, 0) + 1
        if self._crash_due(label):
            self.crashed = True
            self._tear(handle, data)
            raise SimulatedCrash(label)
        if self._error_due(label):
            self._tear(handle, data)
            self._raise_error(label)
        handle.write(data)

    def _tear(self, handle, data: bytes) -> None:
        cut = max(1, int(len(data) * self._torn_fraction)) \
            if len(data) > 1 else 0
        handle.write(data[:cut])
        handle.flush()
