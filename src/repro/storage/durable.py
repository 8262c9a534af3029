"""``DurableXml``: the fault-tolerant facade over ``CompressedXml``.

Commit protocol for every mutating call (the WAL-first rule), run
whole under one commit lock::

    validate cheaply -> WAL append + fsync -> apply in memory
                                           -> rollback WAL on failure
    -> maybe checkpoint (WAL grew past the threshold)

The logged record -- not the caller's arguments -- is what gets
applied, through the same :func:`repro.storage.recovery.apply_record`
dispatcher recovery uses, so a replay after a crash reconstructs
*exactly* the state the live process had.  An apply that raises (an
out-of-range index, a malformed fragment) rolls the WAL back to the
record's start offset and leaves the in-memory document untouched
(single ops are exception-safe; batches run transactionally), so a
failed operation is a no-op both on disk and in memory.

Threads: because one lock spans append, fsync and apply, WAL order
*is* apply order and the live document always equals the replay of
its log, however many threads commit.  Lock order is commit lock ->
document write lock -> grammar version lock.  :meth:`checkpoint` holds
the commit lock for its whole body, so it blocks writers, not readers
(readers pin a :meth:`~repro.api.CompressedXml.snapshot`).

Disk faults: the WAL layer absorbs *transient* I/O errors with bounded
retry/backoff; when an append (or its rollback) fails *persistently*
the store flips into **read-only degraded mode** -- reads keep serving
from memory, every write raises :class:`StoreDegraded` carrying the
causing error, and the on-disk log still ends at (or truncates back
to) the last acknowledged operation.  A later, fully error-free
:meth:`checkpoint` on a healthy disk proves the path end-to-end and
clears degradation.  Auto-checkpoints (the cadence check after each
commit) never turn a committed update into an error: their failures
are recorded in ``last_checkpoint_error`` and surfaced by
:meth:`health`, while an *explicit* ``checkpoint()`` raises
:class:`CheckpointError`.  Because the manifest rename is the commit
point, a checkpoint that errors mid-flight re-reads the manifest to
learn which side of the point it died on -- a switch that landed is a
success (with a recorded cleanup error), not a rollback.

Checkpointing writes ``snapshot.(g+1)`` crash-atomically, creates an
empty ``wal.(g+1)`` chain, and then switches the generation manifest.
Generation ``g`` is kept as the degradation fallback -- its segment
chain compacted into one ``wal.g.compact`` file -- and generations
below it are retired.  :meth:`scrub` re-verifies every on-disk
artifact and audits the live indexes against streaming oracles (see
:mod:`repro.storage.scrub`); :meth:`health` reports the store's shape
without touching the disk.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import List, Optional, Sequence, Union, TYPE_CHECKING

from repro.obs.tracing import trace_span
from repro.storage.faults import RetryPolicy, StorageIO
from repro.storage.recovery import (
    RecoveredDocument,
    RecoveryError,
    StoreLayout,
    apply_record,
    read_manifest,
    recover,
    write_manifest,
)
from repro.storage.snapshot import write_snapshot
from repro.storage.wal import (
    DEFAULT_SEGMENT_BYTES,
    SegmentedWal,
    WalWriteError,
    append_record,
    batch_record,
    compact_generation,
    delete_record,
    insert_record,
    rename_record,
)
from repro.trees.unranked import XmlNode
from repro.updates.batch import normalize_content
from repro.updates.operations import check_tag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import CompressedXml
    from repro.storage.scrub import ScrubReport
    from repro.updates.batch import BatchBuilder, BatchOp, BatchStats

__all__ = [
    "DurableXml",
    "StoreDegraded",
    "CheckpointError",
    "DEFAULT_CHECKPOINT_WAL_BYTES",
]

#: Checkpoint once the live WAL chain outgrows this many bytes.  Small
#: enough that recovery replays at most a few hundred operations, large
#: enough that steady-state traffic amortizes a snapshot over many
#: commits (and rotates the 64 KiB segments a few times in between).
DEFAULT_CHECKPOINT_WAL_BYTES = 256 * 1024


class StoreDegraded(RuntimeError):
    """The store is serving reads only.

    Raised by every mutating call after a persistent I/O failure
    flipped the store read-only; ``cause`` is the error that did it
    (typically a :class:`repro.storage.wal.WalWriteError` wrapping an
    ``ENOSPC``/``EIO``).  A successful :meth:`DurableXml.checkpoint`
    on a healthy disk clears the condition.
    """

    def __init__(self, message: str,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.cause = cause


class CheckpointError(RuntimeError):
    """An explicit :meth:`DurableXml.checkpoint` failed before its
    commit point; the store continues at its previous generation with
    the complete WAL chain (nothing was lost)."""

    def __init__(self, message: str,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.cause = cause


def _sample_store(ref: "weakref.ref") -> dict:
    store = ref()
    if store is None:
        return {}
    sample = {
        "generation": store._generation,
        "degraded": int(store.degraded),
        "checkpoint_wal_bytes": store._checkpoint_wal_bytes,
    }
    for key, value in store._wal.to_dict().items():
        sample["wal_" + key] = value
    return sample


class DurableXml:
    """A ``CompressedXml`` whose updates survive process death and
    whose storage survives a misbehaving disk.

    Construct with :meth:`create` (new store) or :meth:`open`
    (recover an existing one); never directly.  Read methods --
    ``select``/``tags``/``to_xml``/``element_count``/... -- are
    delegated to the in-memory document untouched; the update methods
    are wrapped in the WAL-first commit protocol.
    """

    def __init__(
        self,
        doc: "CompressedXml",
        directory: str,
        wal: SegmentedWal,
        generation: int,
        io: StorageIO,
        checkpoint_wal_bytes: int,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._doc = doc
        self._layout = StoreLayout(directory)
        self._wal = wal
        self._generation = generation
        self._io = io
        self._checkpoint_wal_bytes = checkpoint_wal_bytes
        self._wal_segment_bytes = wal_segment_bytes
        self._retry = retry
        self._degraded_cause: Optional[BaseException] = None
        #: Held across every commit and every checkpoint (see the
        #: module docstring).  Reentrant: the cadence checkpoint runs
        #: inside the commit that tripped it.
        self._commit_lock = threading.RLock()
        #: Populated by :meth:`open` with what recovery had to do.
        self.last_recovery: Optional[RecoveredDocument] = None
        #: The most recent auto-checkpoint (or post-commit-point
        #: cleanup) failure; cleared by an error-free checkpoint.
        self.last_checkpoint_error: Optional[BaseException] = None
        #: The most recent :meth:`scrub` report, surfaced by health().
        self.last_scrub: Optional["ScrubReport"] = None
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Resolve the storage-side metric handles against the
        document's registry (no-op handles when metrics are disabled)
        and wire the per-site fsync histograms into the I/O layer."""
        obs = self._doc.metrics_registry
        self._obs = obs
        self._io.bind_metrics(obs)
        self._m_commit = obs.histogram(
            "repro_commit_seconds", "durable commit latency (end to end)")
        self._m_commit_stage = {
            stage: obs.histogram(
                "repro_commit_stage_seconds",
                "durable commit latency by stage", stage=stage)
            for stage in ("append", "apply")
        }
        self._m_commits_total = {
            op: obs.counter("repro_commits_total",
                            "durable commits acknowledged", op=op)
            for op in ("rename", "insert", "append", "delete", "batch")
        }
        self._m_commit_failures = obs.counter(
            "repro_commit_failures_total",
            "durable commits that raised (degradation or apply error)")
        self._m_checkpoint = obs.histogram(
            "repro_checkpoint_seconds", "checkpoint latency")
        self._m_checkpoints_total = obs.counter(
            "repro_checkpoints_total", "checkpoints committed")
        self._m_degradations = obs.counter(
            "repro_degradations_total",
            "transitions into read-only degraded mode")
        self._m_recovery = obs.histogram(
            "repro_recovery_seconds", "recovery (open) latency")
        self._m_scrub = obs.histogram(
            "repro_scrub_seconds", "scrub pass latency")
        ref = weakref.ref(self)
        obs.register_source("repro_store", lambda: _sample_store(ref))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        document: "CompressedXml",
        io: Optional[StorageIO] = None,
        checkpoint_wal_bytes: int = DEFAULT_CHECKPOINT_WAL_BYTES,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retry: Optional[RetryPolicy] = None,
        overwrite: bool = False,
    ) -> "DurableXml":
        """Initialize a new store directory around ``document``.

        Writes ``snapshot.000000``, an empty ``wal.000000``, and the
        generation-0 manifest.  An existing store is refused unless
        ``overwrite=True`` (which restarts it at generation 0).
        """
        if io is None:
            io = StorageIO()
        os.makedirs(directory, exist_ok=True)
        layout = StoreLayout(directory)
        if not overwrite and os.path.exists(layout.manifest_path):
            raise FileExistsError(
                f"{directory} already holds a durable store; pass "
                f"overwrite=True to reinitialize it"
            )
        write_snapshot(layout.snapshot_path(0), document.export_state(),
                       io=io)
        wal = SegmentedWal(directory, 0, io=io, create=True,
                           segment_bytes=wal_segment_bytes, retry=retry)
        write_manifest(directory, 0, io=io)
        return cls(document, directory, wal, 0, io, checkpoint_wal_bytes,
                   wal_segment_bytes=wal_segment_bytes, retry=retry)

    @classmethod
    def from_xml(
        cls,
        directory: str,
        text: str,
        io: Optional[StorageIO] = None,
        checkpoint_wal_bytes: int = DEFAULT_CHECKPOINT_WAL_BYTES,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retry: Optional[RetryPolicy] = None,
        overwrite: bool = False,
        **doc_kwargs,
    ) -> "DurableXml":
        """Compress ``text`` and :meth:`create` a store around it."""
        from repro.api import CompressedXml

        return cls.create(
            directory,
            CompressedXml.from_xml(text, **doc_kwargs),
            io=io,
            checkpoint_wal_bytes=checkpoint_wal_bytes,
            wal_segment_bytes=wal_segment_bytes,
            retry=retry,
            overwrite=overwrite,
        )

    @classmethod
    def open(
        cls,
        directory: str,
        io: Optional[StorageIO] = None,
        checkpoint_wal_bytes: int = DEFAULT_CHECKPOINT_WAL_BYTES,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retry: Optional[RetryPolicy] = None,
        **doc_kwargs,
    ) -> "DurableXml":
        """Recover an existing store (newest snapshot + chain replay).

        When recovery had to degrade to the previous snapshot
        generation, an immediate checkpoint re-establishes a healthy
        newest image before any new commits are accepted.  (A dropped
        tail record needs no checkpoint: the truncation already left
        the disk consistent.)  When recovery found *continuation*
        generations -- WAL chains above the manifest generation, which
        stores written by the former group-commit mode may hold -- the
        store adopts the newest chain and folds the whole tail into a
        fresh generation with an immediate checkpoint.
        """
        if io is None:
            io = StorageIO()
        started = time.perf_counter()
        result = recover(directory, io=io,
                         wal_segment_bytes=wal_segment_bytes,
                         retry=retry, **doc_kwargs)
        recovery_elapsed = time.perf_counter() - started
        self = cls(result.doc, directory, result.wal, result.generation,
                   io, checkpoint_wal_bytes,
                   wal_segment_bytes=wal_segment_bytes, retry=retry)
        self._m_recovery.observe(recovery_elapsed)
        self.last_recovery = result
        if result.continuation_generations:
            # The live state is snapshot.g + wal.g + the continuation
            # chains in order; appends now flow to the newest chain.
            # Checkpointing from here writes one snapshot covering the
            # whole sequence and retires the multi-chain shape.
            self._generation = result.continuation_generations[-1]
        if result.degraded or result.continuation_generations:
            self.checkpoint()
        return self

    # ------------------------------------------------------------------
    # the commit protocol
    # ------------------------------------------------------------------
    def _degrade(self, cause: BaseException) -> None:
        if self._degraded_cause is None:
            self._m_degradations.inc()
        self._degraded_cause = cause

    def _require_writable(self) -> None:
        if self._degraded_cause is not None:
            raise StoreDegraded(
                f"{self._layout.directory}: store is read-only "
                f"(degraded): {self._degraded_cause}",
                cause=self._degraded_cause,
            )

    def _commit(self, record: dict):
        """WAL-first: persist the record, then apply it in memory --
        all under the commit lock, so WAL order is apply order.

        The commit latency histogram covers the wait for the lock plus
        append+apply -- a cadence checkpoint triggered by this commit
        is timed by its own histogram, not folded into the commit's.
        """
        op = record.get("op", "unknown")
        started = time.perf_counter()
        with self._commit_lock:
            with trace_span("commit", op=op):
                try:
                    result = self._append_and_apply(record)
                except Exception:
                    self._m_commit_failures.inc()
                    raise
            self._m_commit.observe(time.perf_counter() - started)
            counter = self._m_commits_total.get(op)
            if counter is not None:
                counter.inc()
            self._maybe_checkpoint()
        return result

    def _append_and_apply(self, record: dict):
        """One commit's body (see the module docstring); the caller
        holds the commit lock."""
        self._require_writable()
        append_started = time.perf_counter()
        try:
            with trace_span("wal_append"):
                token = self._wal.append(record)
        except WalWriteError as exc:
            # Retries are exhausted: the disk is persistently refusing
            # writes.  The chain still ends at (or recovery will
            # truncate it back to) the last acknowledged record; flip
            # read-only rather than surface a raw OSError mid-commit.
            self._degrade(exc)
            raise StoreDegraded(
                f"{self._layout.directory}: commit failed and the "
                f"store is now read-only: {exc}",
                cause=exc,
            ) from exc
        self._m_commit_stage["append"].observe(
            time.perf_counter() - append_started)
        apply_started = time.perf_counter()
        try:
            with trace_span("apply"):
                result = apply_record(self._doc, record)
        except Exception:
            # The operation failed cleanly in memory (the single-op and
            # transactional-batch paths guarantee no partial state); it
            # must not survive into a future replay either.
            try:
                self._wal.rollback_to(token)
            except WalWriteError as rollback_exc:
                # The disk would not even take the rollback: the
                # unacknowledged record is stranded in the log.
                # Recovery's drop-last replay handles exactly that
                # artifact, but nothing may be appended after it --
                # degrade, and re-raise the apply error (the operation
                # failed either way).
                self._degrade(rollback_exc)
            raise
        self._m_commit_stage["apply"].observe(
            time.perf_counter() - apply_started)
        return result

    def rename(self, element_index: int, new_tag: str) -> None:
        """Durably relabel an element (see ``CompressedXml.rename``)."""
        self._commit(rename_record(element_index, check_tag(new_tag)))

    def insert(
        self,
        element_index: int,
        content: Union[XmlNode, Sequence[XmlNode]],
    ) -> None:
        """Durably insert elements before an element."""
        self._commit(insert_record(element_index,
                                   normalize_content(content)))

    def append_child(
        self,
        parent_element_index: int,
        content: Union[XmlNode, Sequence[XmlNode]],
    ) -> None:
        """Durably append elements as last children of an element."""
        self._commit(append_record(parent_element_index,
                                   normalize_content(content)))

    def delete(self, element_index: int) -> None:
        """Durably delete an element and its subtree."""
        self._commit(delete_record(element_index))

    def apply_batch(self, ops: Sequence["BatchOp"]) -> "BatchStats":
        """Durably apply a batch as ONE atomic record.

        Unlike the in-memory default (sequential error parity), a batch
        that fails part-way is rolled back entirely -- in memory via
        the transactional batch mode, on disk via WAL rollback -- so
        replay can never observe a half-applied batch.
        """
        return self._commit(batch_record(ops))

    def batch(self) -> "BatchBuilder":
        """Collect operations for one durable :meth:`apply_batch`."""
        from repro.updates.batch import BatchBuilder

        return BatchBuilder(self)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        # Runs under the commit lock, so the size read here is the
        # chain a checkpoint would seal, not one another thread has
        # just replaced.
        if self._wal.size < self._checkpoint_wal_bytes:
            return
        try:
            self.checkpoint()
        except CheckpointError as exc:
            # The cadence checkpoint is an optimization; its failure
            # must not turn the just-acknowledged commit into an error.
            # The chain keeps growing and the next commit retries.
            self.last_checkpoint_error = exc

    def checkpoint(self) -> int:
        """Snapshot now and start a fresh WAL generation.

        Returns the new generation number.  Crash-safe at every step:
        until the manifest rename lands, the store still opens at the
        old generation with its complete chain; afterwards the old
        generation is the degradation fallback (compacted) and only
        generations below *it* are retired.  An I/O error before the
        commit point raises :class:`CheckpointError` and changes
        nothing; an error *after* it (detected by re-reading the
        manifest) is a success with the cleanup failure recorded.  A
        checkpoint that completes with no error at all also clears
        degraded mode -- the full write path was just proven healthy.

        Holds the commit lock throughout: writers wait, while readers
        holding a snapshot do not.  The state is exported from the
        live document, whose per-rule caches are warm.
        """
        with self._commit_lock:
            started = time.perf_counter()
            with trace_span("checkpoint"):
                generation = self._checkpoint_locked()
            self._m_checkpoint.observe(time.perf_counter() - started)
            self._m_checkpoints_total.inc()
        return generation

    def _checkpoint_locked(self) -> int:
        current = self._generation
        nxt = current + 1
        state = self._doc.export_state()
        try:
            # A failed append may have stranded an unacknowledged
            # record on disk; it must not survive into the fallback
            # chain this checkpoint is about to seal.
            self._wal.seal_tail()
            write_snapshot(self._layout.snapshot_path(nxt), state,
                           io=self._io)
            self._wal.close()
            new_wal = SegmentedWal(
                self._layout.directory, nxt, io=self._io, create=True,
                segment_bytes=self._wal_segment_bytes, retry=self._retry,
            )
        except (OSError, WalWriteError) as exc:
            raise CheckpointError(
                f"{self._layout.directory}: checkpoint to generation "
                f"{nxt} failed before the commit point: {exc}",
                cause=exc,
            ) from exc
        return self._switch_and_clean(current, nxt, new_wal)

    def _switch_and_clean(
        self, current: int, nxt: int, new_wal: SegmentedWal
    ) -> int:
        """Manifest switch (the commit point) plus retirement and
        compaction.  ``new_wal`` is installed after the switch, and
        closed if the switch fails.
        """
        switch_error: Optional[BaseException] = None
        try:
            write_manifest(self._layout.directory, nxt, io=self._io)
        except OSError as exc:
            # The rename inside write_manifest is the commit point; an
            # error on the later directory fsync leaves the switch in
            # place.  Ask the disk which side we died on.
            try:
                committed = read_manifest(self._layout.directory) == nxt
            except RecoveryError:
                committed = False
            if not committed:
                new_wal.close()
                raise CheckpointError(
                    f"{self._layout.directory}: checkpoint to "
                    f"generation {nxt} failed at the manifest switch: "
                    f"{exc}",
                    cause=exc,
                ) from exc
            switch_error = exc
        # -- the manifest rename above was the commit point ------------
        self._generation = nxt
        self._wal = new_wal
        cleanup_error: Optional[BaseException] = None
        try:
            for old in self._layout.generations_on_disk():
                if old < current:
                    self._io.remove(self._layout.snapshot_path(old),
                                    "checkpoint:clean")
                    for path in self._layout.wal_files(old):
                        self._io.remove(path, "checkpoint:clean")
            # Snapshot-less WAL chains below the fallback (continuation
            # chains a fold has just covered) are debris: retire them.
            for gen in self._wal_generations_on_disk():
                if gen < current:
                    for path in self._layout.wal_files(gen):
                        self._io.remove(path, "checkpoint:clean")
            # The previous generation is now fully checkpointed: its
            # chain collapses to one compacted fallback file.
            compact_generation(self._layout.directory, current,
                               io=self._io)
        except OSError as exc:
            # Retirement/compaction failures are cosmetic -- the
            # checkpoint is committed; stray files are retried by the
            # next checkpoint (and reported by scrub).
            cleanup_error = exc
        error = switch_error or cleanup_error
        self.last_checkpoint_error = error
        if error is None:
            # An end-to-end error-free checkpoint is the proof of a
            # healthy disk that lifts read-only degradation.
            self._degraded_cause = None
        return nxt

    def _wal_generations_on_disk(self) -> List[int]:
        """Generations with any WAL file present (chain or compacted),
        snapshot or not -- the sweep basis for retiring debris chains."""
        found = set()
        for name in os.listdir(self._layout.directory):
            if not name.startswith("wal."):
                continue
            suffix = name.split(".")[1]
            if suffix.isdigit():
                found.add(int(suffix))
        return sorted(found)

    # ------------------------------------------------------------------
    # scrub / health
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = False) -> "ScrubReport":
        """Re-verify every on-disk artifact and audit the live indexes
        against streaming oracles; with ``repair=True`` rebuild exactly
        the inconsistent index rules and retire corrupt fallback files.
        See :mod:`repro.storage.scrub` for the full contract."""
        from repro.storage.scrub import run_scrub

        started = time.perf_counter()
        with trace_span("scrub", repair=repair):
            report = run_scrub(self, repair=repair)
        self._m_scrub.observe(time.perf_counter() - started)
        self.last_scrub = report
        return report

    def health(self) -> dict:
        """A structured, disk-untouched report of the store's shape:
        generation, segment chain, degradation, last errors, the most
        recent scrub findings, and a metrics summary."""
        wal = self._wal.to_dict()
        wal["segment_bytes_limit"] = self._wal_segment_bytes
        wal["tail_error"] = self._wal.tail_error
        return {
            "directory": self._layout.directory,
            "generation": self._generation,
            "element_count": self._doc.element_count,
            "degraded": self.degraded,
            "degraded_cause": str(self._degraded_cause)
            if self._degraded_cause is not None else None,
            "wal": wal,
            "mvcc": self._doc.mvcc_info(),
            "checkpoint_wal_bytes": self._checkpoint_wal_bytes,
            "last_checkpoint_error": str(self.last_checkpoint_error)
            if self.last_checkpoint_error is not None else None,
            "last_recovery": self.last_recovery.to_dict()
            if self.last_recovery is not None else None,
            "last_scrub": self.last_scrub.summary()
            if self.last_scrub is not None else None,
            "metrics": self._obs.summary(),
        }

    # ------------------------------------------------------------------
    # inspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def document(self) -> "CompressedXml":
        """The live in-memory document (reads are cheap and direct)."""
        return self._doc

    @property
    def directory(self) -> str:
        return self._layout.directory

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def degraded(self) -> bool:
        """Read-only mode after a persistent I/O failure."""
        return self._degraded_cause is not None

    @property
    def degraded_cause(self) -> Optional[BaseException]:
        return self._degraded_cause

    @property
    def wal_size(self) -> int:
        """Bytes in the live chain (the checkpoint-cadence metric)."""
        return self._wal.size

    @property
    def wal_segment_count(self) -> int:
        return self._wal.segment_count

    @property
    def wal_rotations(self) -> int:
        return self._wal.rotations

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "DurableXml":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name: str):
        # Read-side API (select, tags, to_xml, element_count, ...) is
        # delegated to the document; mutators are overridden above.
        return getattr(self._doc, name)

    def __repr__(self) -> str:
        state = " DEGRADED" if self._degraded_cause is not None else ""
        return (
            f"<DurableXml {self._layout.directory!r} "
            f"generation {self._generation}, "
            f"{self._doc.element_count} elements{state}>"
        )
