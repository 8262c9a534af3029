"""The write-ahead log of logical update operations.

File layout (every segment and compacted file alike)::

    +--------------------+   8-byte magic ``b"RXWAL01\\n"``
    | record | record | ...

    record := u32le payload_length | u32le crc32(payload) | payload

Payloads are canonical JSON (sorted keys, no whitespace) describing one
committed operation -- ``rename``/``insert``/``append``/``delete``/
``batch`` -- in the element-index coordinates of the document *at the
time the operation was applied*.  Replaying the records in order against
the snapshot they follow is deterministic, which is the whole contract:
the log stores the operation language (FLUX-style), never grammar
internals.

Durability protocol: :meth:`WriteAheadLog.append` writes the framed
record and fsyncs **before** the caller mutates the in-memory document.
Every record is made durable by its own append; there is no deferred
sync.  The log is not thread-safe on its own: callers serialize
appends (:class:`repro.storage.durable.DurableXml` holds its commit
lock across append, apply and rollback).  A crash can therefore leave
(a) no trace of the in-flight operation, (b) a torn/corrupt tail
record, or (c) a complete record whose apply never ran -- recovery
handles all three (see :mod:`repro.storage.recovery`).  On open, a torn or checksum-corrupt
tail is truncated away (not fatal): those bytes belong to an operation
that was never acknowledged.  Anything *after* the first bad record is
dropped with it -- a valid-looking frame beyond a corrupt one cannot
have been acknowledged either.

Segmentation (:class:`SegmentedWal`): the live log of generation ``g``
is a *chain* of bounded files -- ``wal.{g}`` (segment 0, so an
unsegmented PR-6 store is simply a chain of length one) followed by
``wal.{g}.000001``, ``wal.{g}.000002``, ...  Appends go to the final
segment; once it outgrows ``segment_bytes`` the chain *rotates*: the
active segment is sealed and a fresh one is created (header fsync'd,
directory entry fsync'd).  Sealed segments are immutable, so corruption
or a write failure is isolated to the one segment it struck: a torn
tail is legal only in the final segment, and a non-final segment that
fails its scan is hard corruption, reported with file path, byte
offset, and record ordinal.  Once a generation is fully checkpointed
its chain is *compacted* (:func:`compact_generation`) into a single
``wal.{g}.compact`` file -- same format, valid records only -- which
readers prefer over the chain; the rename is the commit point, so a
crash mid-compaction at worst leaves both forms on disk.

I/O errors: transient ``errno`` failures (``EIO``, ``ENOSPC``, ...)
during append/fsync are retried under a bounded-exponential
:class:`repro.storage.faults.RetryPolicy` -- each retry first truncates
the log back to the record's start offset (a failed fsync leaves the
page-cache state unknown, so the conservative move is rewrite, not
hope) and then rewrites the frame.  When retries are exhausted, or the
tail itself cannot be restored, append raises :class:`WalWriteError`
(never a raw ``OSError``) carrying the causing errno and whether the
on-disk tail is intact; :class:`repro.storage.durable.DurableXml`
turns that into read-only degraded mode.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Sequence, Tuple

from repro.trees.unranked import XmlNode
from repro.trees.xml_io import parse_xml, serialize_xml

from repro.storage.faults import RetryPolicy, StorageIO

__all__ = [
    "WAL_MAGIC",
    "DEFAULT_SEGMENT_BYTES",
    "WalRecordError",
    "WalWriteError",
    "WalScanReport",
    "WriteAheadLog",
    "SegmentedWal",
    "scan_wal",
    "scan_wal_report",
    "segment_path",
    "compact_path",
    "list_segments",
    "generation_wal_files",
    "compact_generation",
    "rename_record",
    "insert_record",
    "append_record",
    "delete_record",
    "batch_record",
    "batch_ops_from_record",
    "content_from_record",
]

WAL_MAGIC = b"RXWAL01\n"

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

#: Frames larger than this are torn/garbage length fields, never real
#: records (a batch of thousands of ops stays far below); bounding the
#: length keeps a corrupt tail from provoking a giant allocation.
_MAX_RECORD = 64 * 1024 * 1024

#: Rotate the live WAL chain once its final segment outgrows this.
#: Small enough that a fault is quarantined to a few dozen records,
#: large enough that steady-state traffic rotates rarely relative to
#: the checkpoint cadence (DEFAULT_CHECKPOINT_WAL_BYTES is 4x this).
DEFAULT_SEGMENT_BYTES = 64 * 1024


class WalRecordError(ValueError):
    """Raised on malformed WAL record payloads and on corruption that a
    torn-tail truncation cannot legalize (bad magic, a torn *non-final*
    segment, a gap in a segment chain)."""


class WalWriteError(RuntimeError):
    """An append could not be made durable.

    Raised -- never a raw ``OSError`` -- when the retry budget for a
    transient I/O failure is exhausted, or when restoring the log tail
    after a failed write itself failed.  ``cause`` is the final
    ``OSError``; ``tail_intact`` reports whether the on-disk log still
    ends exactly at the last durable record (when ``False``, a torn
    tail is on disk -- recovery's torn-tail truncation will drop it,
    which is correct because the record was never acknowledged).
    """

    def __init__(
        self,
        message: str,
        cause: Optional[BaseException] = None,
        tail_intact: bool = True,
    ) -> None:
        super().__init__(message)
        self.cause = cause
        self.tail_intact = tail_intact
        self.errno = getattr(cause, "errno", None)


# ----------------------------------------------------------------------
# record payloads (the logical operation language)
# ----------------------------------------------------------------------
def _encode_content(content: Sequence[XmlNode]) -> List[str]:
    return [serialize_xml(node) for node in content]


def content_from_record(encoded: Sequence[str]) -> List[XmlNode]:
    """Decode insert/append content back to structure trees."""
    return [parse_xml(text) for text in encoded]


def rename_record(index: int, new_tag: str) -> dict:
    return {"op": "rename", "i": index, "tag": new_tag}


def insert_record(index: int, content: Sequence[XmlNode]) -> dict:
    return {"op": "insert", "i": index, "xml": _encode_content(content)}


def append_record(parent_index: int, content: Sequence[XmlNode]) -> dict:
    return {"op": "append", "i": parent_index,
            "xml": _encode_content(content)}


def delete_record(index: int) -> dict:
    return {"op": "delete", "i": index}


def batch_record(ops: Sequence[object]) -> dict:
    """Encode a list of ``BatchOp`` instances as one atomic record."""
    from repro.updates.batch import (
        BatchAppend, BatchDelete, BatchInsert, BatchRename,
    )

    encoded: List[dict] = []
    for op in ops:
        if isinstance(op, BatchRename):
            encoded.append(rename_record(op.index, op.new_tag))
        elif isinstance(op, BatchInsert):
            encoded.append(insert_record(op.index, op.content))
        elif isinstance(op, BatchAppend):
            encoded.append(append_record(op.parent_index, op.content))
        elif isinstance(op, BatchDelete):
            encoded.append(delete_record(op.index))
        else:
            raise WalRecordError(f"cannot log batch op {op!r}")
    return {"op": "batch", "ops": encoded}


def batch_ops_from_record(record: dict) -> List[object]:
    """Decode a ``batch`` record back into ``BatchOp`` instances."""
    from repro.updates.batch import (
        BatchAppend, BatchDelete, BatchInsert, BatchRename,
    )

    ops: List[object] = []
    for entry in record["ops"]:
        kind = entry.get("op")
        if kind == "rename":
            ops.append(BatchRename(entry["i"], entry["tag"]))
        elif kind == "insert":
            ops.append(BatchInsert(entry["i"],
                                   content_from_record(entry["xml"])))
        elif kind == "append":
            ops.append(BatchAppend(entry["i"],
                                   content_from_record(entry["xml"])))
        elif kind == "delete":
            ops.append(BatchDelete(entry["i"]))
        else:
            raise WalRecordError(f"unknown batch op kind {kind!r}")
    return ops


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_payload(record: dict) -> bytes:
    """Canonical JSON bytes for one record (stable across replays)."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# ----------------------------------------------------------------------
# scanning
# ----------------------------------------------------------------------
@dataclass
class WalScanReport:
    """Everything a scan of one WAL file learned.

    ``spans[i]`` is the ``(start, end)`` byte range of ``records[i]``;
    ``valid`` is the offset just past the last valid record; ``torn``
    reports trailing bytes beyond it, with ``tail_reason`` naming why
    the first bad frame was rejected.  ``tail_message`` is the
    canonical operator-facing description -- file path, byte offset,
    and record ordinal included -- that error paths embed verbatim.
    """

    path: str
    records: List[dict] = field(default_factory=list)
    spans: List[Tuple[int, int]] = field(default_factory=list)
    valid: int = 0
    total: int = 0
    torn: bool = False
    tail_reason: Optional[str] = None

    @property
    def tail_message(self) -> Optional[str]:
        if not self.torn:
            return None
        return (
            f"{self.path}: invalid WAL tail at byte offset {self.valid} "
            f"(record #{len(self.records)}): {self.tail_reason}"
        )


def scan_wal_report(path: str) -> WalScanReport:
    """Read every valid record of a WAL file, with full provenance.

    A file without the magic header raises :class:`WalRecordError` --
    that is not a torn tail but a file that was never a WAL (or a
    rotation crash artifact, which :class:`SegmentedWal` legalizes for
    the final chain position only).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(WAL_MAGIC) or not data.startswith(WAL_MAGIC):
        raise WalRecordError(f"{path}: not a WAL file (bad magic)")
    report = WalScanReport(path=path, valid=len(WAL_MAGIC),
                           total=len(data))
    offset = len(WAL_MAGIC)
    total = len(data)
    reason = None
    while offset < total:
        if offset + _HEADER.size > total:
            reason = "torn frame header"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if length > _MAX_RECORD:
            reason = (f"oversized record length {length} "
                      f"(limit {_MAX_RECORD})")
            break
        if end > total:
            reason = f"torn payload ({total - start} of {length} bytes)"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            reason = "payload checksum mismatch"
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            # checksum collision on garbage: treat as corrupt tail
            reason = "undecodable record payload"
            break
        report.records.append(record)
        report.spans.append((offset, end))
        offset = end
        report.valid = end
    report.torn = report.valid != total
    report.tail_reason = reason
    return report


def scan_wal(path: str) -> Tuple[List[dict], int, bool]:
    """Compatibility wrapper: ``(records, valid_size, torn)``."""
    report = scan_wal_report(path)
    return report.records, report.valid, report.torn


# ----------------------------------------------------------------------
# segment path arithmetic
# ----------------------------------------------------------------------
def segment_path(directory: str, generation: int, segment: int) -> str:
    """Chain file for ``(generation, segment)``; segment 0 keeps the
    unsegmented ``wal.{g}`` name so pre-segmentation stores open as
    chains of length one."""
    base = f"wal.{generation:06d}"
    if segment == 0:
        return os.path.join(directory, base)
    return os.path.join(directory, f"{base}.{segment:06d}")


def compact_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"wal.{generation:06d}.compact")


def list_segments(directory: str, generation: int) -> List[int]:
    """Sorted chain segment indices of ``generation`` present on disk
    (the compacted file and temp files are not chain segments)."""
    base = f"wal.{generation:06d}"
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if name == base:
            found.append(0)
        elif name.startswith(base + "."):
            suffix = name[len(base) + 1:]
            if suffix.isdigit():
                found.append(int(suffix))
    return sorted(found)


def generation_wal_files(directory: str, generation: int) -> List[str]:
    """Every WAL file of a generation -- chain segments and compacted
    form alike -- for retirement and scrubbing."""
    paths = [segment_path(directory, generation, seg)
             for seg in list_segments(directory, generation)]
    cpath = compact_path(directory, generation)
    if os.path.exists(cpath):
        paths.append(cpath)
    return paths


# ----------------------------------------------------------------------
# one log file
# ----------------------------------------------------------------------
class WriteAheadLog:
    """An append-only, fsync-on-commit operation log (one file).

    ``create=True`` initializes a fresh file (magic header fsync'd, the
    directory entry fsync'd); otherwise the existing file is scanned, a
    torn/corrupt tail is truncated away, and the surviving records are
    exposed as ``recovered_records`` for the recovery layer to replay.

    ``retry`` governs transient-I/O-failure handling in :meth:`append`
    and during creation; see :class:`WalWriteError` for the exhaustion
    contract.
    """

    def __init__(
        self,
        path: str,
        io: Optional[StorageIO] = None,
        create: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.path = path
        self._io = io if io is not None else StorageIO()
        self._retry = retry if retry is not None else RetryPolicy()
        self.recovered_records: List[dict] = []
        self.record_spans: List[Tuple[int, int]] = []
        self.truncated_tail = False
        #: The canonical description of the tail that was truncated on
        #: open (path, byte offset, record ordinal) -- ``None`` when
        #: the file ended cleanly.
        self.tail_error: Optional[str] = None
        if create:
            # O_EXCL-like freshness is the caller's concern (generation
            # numbering); a leftover file from a crashed checkpoint or
            # rotation is legitimately overwritten here.
            self._create_with_retry()
            self._size = len(WAL_MAGIC)
        else:
            report = scan_wal_report(path)
            self.recovered_records = report.records
            self.record_spans = list(report.spans)
            self.truncated_tail = report.torn
            self.tail_error = report.tail_message
            if report.torn:
                self._io.truncate(path, report.valid, "wal:open")
            self._size = report.valid
        self._handle: Optional[IO[bytes]] = None

    def _create_with_retry(self) -> None:
        """Write the fresh header, retrying transient I/O failures; a
        partial file is removed between attempts so a later scan never
        sees a half-written header as anything but a crash artifact."""
        last: Optional[OSError] = None
        for delay in list(self._retry.delays()) + [None]:
            try:
                with open(self.path, "wb") as handle:
                    self._io.write(handle, WAL_MAGIC, "wal:create")
                    self._io.fsync(handle, "wal:create")
                self._io.fsync_dir(os.path.dirname(self.path)
                                   or ".", "wal:create")
                return
            except OSError as exc:
                last = exc
                try:
                    os.remove(self.path)
                except OSError:
                    pass
                if delay is not None:
                    self._retry.sleep(delay)
        raise WalWriteError(
            f"{self.path}: could not create WAL segment after "
            f"{self._retry.attempts} attempts: {last}",
            cause=last,
        )

    # -- appending -----------------------------------------------------
    @property
    def size(self) -> int:
        """Bytes of committed log, the checkpoint-cadence metric."""
        return self._size

    @property
    def record_count(self) -> int:
        return len(self.record_spans)

    def _ensure_handle(self) -> IO[bytes]:
        if self._handle is None:
            self._handle = self._io.open_append(self.path)
        return self._handle

    def append(self, record: dict) -> int:
        """Durably append one record; returns its start offset.

        The record is on disk (written *and* fsync'd) when this
        returns -- the caller may then apply the operation in memory.
        A transient I/O failure is retried under the log's
        :class:`RetryPolicy`, restoring the tail (truncate back to the
        record's start) before each rewrite; exhaustion raises
        :class:`WalWriteError`.
        """
        framed = _frame(encode_payload(record))
        offset = self._size
        last: Optional[OSError] = None
        for delay in list(self._retry.delays()) + [None]:
            try:
                handle = self._ensure_handle()
                self._io.write(handle, framed, "wal:append")
                self._io.fsync(handle, "wal:append")
                self._size = offset + len(framed)
                self.record_spans.append((offset, self._size))
                return offset
            except OSError as exc:
                last = exc
                # A failed write may have torn bytes onto disk and a
                # failed fsync leaves the page cache unknowable --
                # restore the durable tail before retrying (or giving
                # up: an un-restored tail must be reported, because
                # only recovery's truncation can legalize it).
                try:
                    self._restore_tail(offset)
                except OSError as trunc_exc:
                    raise WalWriteError(
                        f"{self.path}: append failed at byte offset "
                        f"{offset} (record #{self.record_count}) and "
                        f"the tail could not be restored: {trunc_exc}",
                        cause=exc,
                        tail_intact=False,
                    ) from exc
                if delay is not None:
                    self._retry.sleep(delay)
        raise WalWriteError(
            f"{self.path}: append failed at byte offset {offset} "
            f"(record #{self.record_count}) after "
            f"{self._retry.attempts} attempts: {last}",
            cause=last,
        )

    def _restore_tail(self, offset: int) -> None:
        self.close()
        self._io.truncate(self.path, offset, "wal:rollback")
        self._size = offset

    def rollback_to(self, offset: int) -> None:
        """Cut the log back to ``offset`` (a failed in-memory apply:
        the logged operation must not survive into replay)."""
        if offset > self._size:
            raise ValueError(f"cannot roll forward to {offset}")
        self.close()
        self._io.truncate(self.path, offset, "wal:rollback")
        self._size = offset
        while self.record_spans and self.record_spans[-1][0] >= offset:
            self.record_spans.pop()

    def drop_last_record(self) -> None:
        """Cut the final (just-rejected) record off the log, keeping
        ``recovered_records`` in step -- recovery's path for a durable
        but never-acknowledged tail operation."""
        if not self.record_spans:
            raise ValueError(f"{self.path}: no record to drop")
        start, _ = self.record_spans[-1]
        self.rollback_to(start)
        if self.recovered_records:
            self.recovered_records.pop()

    def record_source(self, position: int) -> Tuple[str, int]:
        """(file path, byte offset) of record ``position`` -- replay
        error context."""
        if position < len(self.record_spans):
            return self.path, self.record_spans[position][0]
        return self.path, self._size

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the segmented chain
# ----------------------------------------------------------------------
class SegmentedWal:
    """The live WAL of one generation: a rotated chain of bounded
    segments, presenting the same append/rollback/replay surface as a
    single :class:`WriteAheadLog`.

    Append tokens are opaque ``(segment, offset)`` pairs -- callers
    hold them only to hand back to :meth:`rollback_to`.  Opening an
    existing chain enforces the rotation invariant: every non-final
    segment was sealed by a successful rotation and must scan clean
    end-to-end (a torn non-final segment is hard corruption, reported
    with path/offset/ordinal); only the final segment may carry a torn
    tail (truncated away) or a missing/torn header (a crash between
    rotation's file creation and its fsyncs -- the artifact is empty of
    acknowledged records and is recreated).
    """

    def __init__(
        self,
        directory: str,
        generation: int,
        io: Optional[StorageIO] = None,
        create: bool = False,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retry: Optional[RetryPolicy] = None,
        retire_torn_creation: bool = False,
    ) -> None:
        self.directory = directory
        self.generation = generation
        self._retire_torn_creation = retire_torn_creation
        self._io = io if io is not None else StorageIO()
        self._segment_bytes = max(int(segment_bytes), len(WAL_MAGIC) + 1)
        self._retry = retry if retry is not None else RetryPolicy()
        self.recovered_records: List[dict] = []
        #: ``(segment, start, end)`` per record, recovered and appended.
        self._spans: List[Tuple[int, int, int]] = []
        self._sealed_sizes: Dict[int, int] = {}
        self.truncated_tail = False
        self.tail_error: Optional[str] = None
        #: Rotations performed by *this* process (not chain length).
        self.rotations = 0
        if create:
            self._active = WriteAheadLog(
                segment_path(directory, generation, 0),
                io=self._io, create=True, retry=self._retry,
            )
            self._active_index = 0
        else:
            self._open_chain()

    def _open_chain(self) -> None:
        indices = list_segments(self.directory, self.generation)
        if not indices:
            raise FileNotFoundError(
                segment_path(self.directory, self.generation, 0)
            )
        if indices != list(range(len(indices))):
            raise WalRecordError(
                f"{segment_path(self.directory, self.generation, 0)}: "
                f"WAL segment chain has gaps: present {indices}"
            )
        final = indices[-1]
        # A crash between rotation's create and its fsyncs can leave a
        # final segment with a missing or torn header; it holds no
        # acknowledged record, so retire the artifact and let the
        # sealed predecessor resume as the active segment.
        while final > 0:
            try:
                scan_wal_report(
                    segment_path(self.directory, self.generation, final)
                )
                break
            except WalRecordError:
                os.remove(
                    segment_path(self.directory, self.generation, final)
                )
                final -= 1
        if final == 0 and self._retire_torn_creation:
            # A crash during the chain's very *creation* (a checkpoint
            # cutting the log over to this generation) leaves segment 0
            # itself header-less.  Like a rotation artifact it holds no
            # acknowledged record, but there is no sealed predecessor
            # to fall back on: for callers probing optional chains
            # (continuation recovery), retire the debris and report the
            # chain as absent rather than corrupt.
            path = segment_path(self.directory, self.generation, 0)
            try:
                scan_wal_report(path)
            except WalRecordError:
                os.remove(path)
                raise FileNotFoundError(path) from None
        for seg in range(final):
            path = segment_path(self.directory, self.generation, seg)
            report = scan_wal_report(path)
            if report.torn:
                raise WalRecordError(
                    f"non-final WAL segment is corrupt: "
                    f"{report.tail_message}"
                )
            self._ingest(seg, report)
            self._sealed_sizes[seg] = report.valid
        self._active = WriteAheadLog(
            segment_path(self.directory, self.generation, final),
            io=self._io, retry=self._retry,
        )
        self._active_index = final
        self.truncated_tail = self._active.truncated_tail
        self.tail_error = self._active.tail_error
        for start, end in self._active.record_spans:
            self._spans.append((final, start, end))
        self.recovered_records.extend(self._active.recovered_records)

    def _ingest(self, seg: int, report: WalScanReport) -> None:
        self.recovered_records.extend(report.records)
        for start, end in report.spans:
            self._spans.append((seg, start, end))

    # -- chain shape ---------------------------------------------------
    @property
    def size(self) -> int:
        """Total committed bytes across the chain (checkpoint cadence)."""
        return sum(self._sealed_sizes.values()) + self._active.size

    @property
    def segment_count(self) -> int:
        return self._active_index + 1

    @property
    def active_segment(self) -> int:
        return self._active_index

    @property
    def active_segment_size(self) -> int:
        return self._active.size

    def to_dict(self) -> dict:
        """Flat numeric view of the chain shape (the shared stats-object
        protocol -- what ``health()`` and the metrics gauge source show)."""
        return {
            "generation": self.generation,
            "size_bytes": self.size,
            "segment_count": self.segment_count,
            "active_segment": self.active_segment,
            "active_segment_bytes": self.active_segment_size,
            "rotations": self.rotations,
            "record_count": self.record_count,
        }

    @property
    def path(self) -> str:
        """The active segment's file (the append target)."""
        return self._active.path

    @property
    def record_count(self) -> int:
        return len(self._spans)

    def record_source(self, position: int) -> Tuple[str, int]:
        """(file path, byte offset) of record ``position``."""
        if position < len(self._spans):
            seg, start, _ = self._spans[position]
            return (
                segment_path(self.directory, self.generation, seg), start
            )
        return self._active.path, self._active.size

    # -- appending -----------------------------------------------------
    def append(self, record: dict) -> Tuple[int, int]:
        """Durably append one record; returns its rollback token.

        Rotates first when the active segment has outgrown the bound
        (and already holds at least one record -- a single oversized
        record never spins the rotation)."""
        if self._active.size >= self._segment_bytes \
                and self._active.record_count > 0:
            self._rotate()
        offset = self._active.append(record)
        self._spans.append((self._active_index, offset,
                            self._active.size))
        return self._active_index, offset

    def _rotate(self) -> None:
        nxt = self._active_index + 1
        path = segment_path(self.directory, self.generation, nxt)
        self._sealed_sizes[self._active_index] = self._active.size
        self._active.close()
        try:
            fresh = WriteAheadLog(path, io=self._io, create=True,
                                  retry=self._retry)
        except WalWriteError:
            # The chain stays on the sealed-but-still-final segment;
            # the header retry loop already removed the partial file,
            # so a reopen sees a clean (if oversized) chain.
            del self._sealed_sizes[self._active_index]
            self._active = WriteAheadLog(
                segment_path(self.directory, self.generation,
                             self._active_index),
                io=self._io, retry=self._retry,
            )
            # Reopening rescans: drop the duplicate span bookkeeping.
            self._active.record_spans = [
                (s, e) for seg, s, e in self._spans
                if seg == self._active_index
            ]
            self._active.recovered_records = []
            raise
        self._active = fresh
        self._active_index = nxt
        self.rotations += 1

    def rollback_to(self, token: Tuple[int, int]) -> None:
        """Cut the chain back to an append token (failed apply)."""
        seg, offset = token
        if seg != self._active_index:
            raise ValueError(
                f"rollback token {token} is not in the active segment "
                f"{self._active_index}"
            )
        try:
            self._active.rollback_to(offset)
        except OSError as exc:
            raise WalWriteError(
                f"{self._active.path}: rollback to byte offset {offset} "
                f"failed: {exc}",
                cause=exc,
                tail_intact=False,
            ) from exc
        while self._spans and self._spans[-1][0] == seg \
                and self._spans[-1][1] >= offset:
            self._spans.pop()

    def seal_tail(self) -> None:
        """Re-truncate any on-disk bytes beyond the last acknowledged
        record -- the strand a failed append leaves behind when even
        its tail restoration failed (``tail_intact=False``).  Must run
        before the chain becomes a checkpoint's degradation fallback:
        a stranded record that would apply cleanly on replay would make
        the fallback reconstruction diverge from the snapshot being
        written.  Raises ``OSError`` when the disk still refuses the
        truncate (the caller's checkpoint fails before its commit
        point, changing nothing)."""
        size = self._active.size
        try:
            actual = os.path.getsize(self._active.path)
        except OSError:
            return
        if actual > size:
            self._active.close()
            self._io.truncate(self._active.path, size, "wal:rollback")

    def drop_last_record(self) -> None:
        """Truncate the chain's final record (recovery's path for a
        durable but never-acknowledged tail operation)."""
        if not self._spans:
            raise ValueError(f"{self.path}: no record to drop")
        seg, start, _ = self._spans[-1]
        if seg == self._active_index:
            self._active.rollback_to(start)
        else:
            # Rotation created an (empty) successor before the crash;
            # the doomed record sits at the tail of a sealed segment.
            path = segment_path(self.directory, self.generation, seg)
            self._io.truncate(path, start, "wal:rollback")
            self._sealed_sizes[seg] = start
        self._spans.pop()
        if self.recovered_records:
            self.recovered_records.pop()

    @property
    def closed(self) -> bool:
        return self._active.closed

    def close(self) -> None:
        self._active.close()

    def __enter__(self) -> "SegmentedWal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
def compact_generation(
    directory: str,
    generation: int,
    io: Optional[StorageIO] = None,
) -> Optional[str]:
    """Merge a fully-checkpointed generation's WAL chain into one
    ``wal.{g}.compact`` file and retire the chain files.

    Only the valid records survive (a torn tail or a rotation artifact
    in the old chain belonged to an operation that was never
    acknowledged -- compaction is also how such damage is retired).
    The temp-write + rename + dirsync sequence makes the switch
    crash-atomic: readers prefer the compacted form, so a crash between
    the rename and the chain removals at worst leaves both on disk.
    Returns the compacted path, or ``None`` when the generation has no
    WAL files at all.  Must never be called on the *live* generation --
    its final segment legitimately grows.
    """
    if io is None:
        io = StorageIO()
    target = compact_path(directory, generation)
    indices = list_segments(directory, generation)
    if not indices:
        return target if os.path.exists(target) else None
    frames: List[bytes] = []
    for seg in indices:
        path = segment_path(directory, generation, seg)
        try:
            report = scan_wal_report(path)
        except WalRecordError:
            continue  # rotation artifact: no acknowledged records
        for record in report.records:
            frames.append(_frame(encode_payload(record)))
    tmp = target + ".tmp"
    with open(tmp, "wb") as handle:
        io.write(handle, WAL_MAGIC + b"".join(frames), "wal:compact")
        io.fsync(handle, "wal:compact")
    io.replace(tmp, target, "wal:compact")
    io.fsync_dir(directory, "wal:compact")
    for seg in indices:
        io.remove(segment_path(directory, generation, seg), "wal:compact")
    return target
