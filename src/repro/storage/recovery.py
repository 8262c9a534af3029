"""Store layout, generation manifests, and the recovery protocol.

A durable store is one directory::

    store/
      MANIFEST          JSON {"format": "repro-store", "version": 1,
                              "generation": N}
      snapshot.000N     binary snapshot at generation N
      wal.000N          segment 0 of the chain committed since snapshot N
      wal.000N.000001   further chain segments (size-bounded rotation)
      snapshot.000N-1   previous generation, kept as the degradation
      wal.000N-1.compact  ... fallback (its chain compacted to one file)
                        until the next checkpoint retires it

The manifest is the single source of truth for which generation is
live, and it is only ever switched by an atomic temp-file +
``os.replace`` -- that rename is the commit point of a checkpoint.  A
checkpoint therefore orders: write ``snapshot.N+1`` (crash-atomic),
create ``wal.N+1`` (empty, fsync'd), switch the manifest, then retire
generation ``N-1`` and compact generation ``N``'s chain.  A crash
anywhere before the switch leaves the store at generation ``N`` with at
most some stray ``N+1`` files, which the next checkpoint simply
overwrites.

Recovery (:func:`recover`) reads the manifest, loads ``snapshot.N``,
verifies its checksum and element-count invariants, and replays
``wal.N``'s segment chain.  When ``snapshot.N`` is corrupt (bit rot,
torn by a dying disk), it *degrades*: load ``snapshot.N-1`` and replay
generation ``N-1``'s log (compacted form preferred) in full before
``wal.N`` -- replay is deterministic, so the result is the same
document.  Only a log's *last* record may fail to apply: for the live
chain that is the operation that crashed between its fsync and its
acknowledgment, and for the fallback log it is an operation whose
in-memory apply failed but whose WAL rollback could not reach the disk
before the store degraded.  Either way the record was never
acknowledged; it is dropped and truncated like a torn tail.  A failing
record anywhere else is real corruption and raises
:class:`RecoveryError` with the file path, byte offset, and record
ordinal of the offender.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Union, TYPE_CHECKING

from repro.storage.faults import RetryPolicy, StorageIO
from repro.storage.snapshot import SnapshotError, read_snapshot
from repro.storage.wal import (
    DEFAULT_SEGMENT_BYTES,
    SegmentedWal,
    WalRecordError,
    WriteAheadLog,
    batch_ops_from_record,
    compact_path,
    content_from_record,
    generation_wal_files,
    list_segments,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import CompressedXml

__all__ = [
    "MANIFEST_NAME",
    "RecoveryError",
    "StoreLayout",
    "read_manifest",
    "write_manifest",
    "apply_record",
    "recover",
    "RecoveredDocument",
]

MANIFEST_NAME = "MANIFEST"
MANIFEST_FORMAT = "repro-store"
MANIFEST_VERSION = 1

#: Either log shape replay understands: the live segment chain, or a
#: single file (a fallback generation's compacted log).
ReplayableLog = Union[SegmentedWal, WriteAheadLog]


class RecoveryError(RuntimeError):
    """The store cannot be recovered (no valid snapshot generation, a
    corrupt manifest, a broken WAL segment chain, or a non-tail WAL
    record that fails to apply)."""


class StoreLayout:
    """Path arithmetic for one store directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)

    def snapshot_path(self, generation: int) -> str:
        return os.path.join(self.directory, f"snapshot.{generation:06d}")

    def wal_path(self, generation: int) -> str:
        """Segment 0 of a generation's chain (the PR-6 name)."""
        return os.path.join(self.directory, f"wal.{generation:06d}")

    def compact_path(self, generation: int) -> str:
        return compact_path(self.directory, generation)

    def wal_segments(self, generation: int) -> List[int]:
        return list_segments(self.directory, generation)

    def wal_files(self, generation: int) -> List[str]:
        """Every WAL file of a generation (chain + compacted form)."""
        return generation_wal_files(self.directory, generation)

    def generations_on_disk(self) -> List[int]:
        """Generations with a snapshot file present (stray or live)."""
        found = []
        for name in os.listdir(self.directory):
            if name.startswith("snapshot.") and not name.endswith(".tmp"):
                suffix = name[len("snapshot."):]
                if suffix.isdigit():
                    found.append(int(suffix))
        return sorted(found)


def read_manifest(directory: str) -> int:
    """The live generation number, or a :class:`RecoveryError`."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise RecoveryError(
            f"{directory}: not a durable store (no {MANIFEST_NAME})"
        ) from None
    except ValueError as exc:
        raise RecoveryError(f"{path}: corrupt manifest: {exc}") from exc
    if manifest.get("format") != MANIFEST_FORMAT or \
            not isinstance(manifest.get("generation"), int):
        raise RecoveryError(f"{path}: unrecognized manifest {manifest!r}")
    return manifest["generation"]


def write_manifest(
    directory: str, generation: int, io: Optional[StorageIO] = None
) -> None:
    """Atomically point the store at ``generation`` (the commit point).

    The rename is followed by a directory-entry fsync (under its own
    fault point): without it a power cut can roll the *name* back even
    though the rename "succeeded"."""
    if io is None:
        io = StorageIO()
    path = os.path.join(directory, MANIFEST_NAME)
    data = json.dumps({
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "generation": generation,
    }, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        io.write(handle, data, "manifest:write")
        io.fsync(handle, "manifest:write")
    io.replace(tmp, path, "manifest:commit")
    io.fsync_dir(directory, "manifest:commit")


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def apply_record(doc: "CompressedXml", record: dict) -> None:
    """Apply one logged operation to an in-memory document.

    Shared by recovery replay and by the tests; must stay in exact
    correspondence with what :class:`repro.storage.durable.DurableXml`
    logs before applying.
    """
    op = record.get("op")
    if op == "rename":
        doc.rename(record["i"], record["tag"])
    elif op == "insert":
        doc.insert(record["i"], content_from_record(record["xml"]))
    elif op == "append":
        doc.append_child(record["i"], content_from_record(record["xml"]))
    elif op == "delete":
        doc.delete(record["i"])
    elif op == "batch":
        doc.apply_batch(batch_ops_from_record(record), transactional=True)
    else:
        raise WalRecordError(f"unknown WAL record kind {op!r}")


@dataclass
class RecoveredDocument:
    """What :func:`recover` hands the :class:`DurableXml` facade."""

    doc: "CompressedXml"
    generation: int
    wal: SegmentedWal
    replayed: int
    #: The newest snapshot was corrupt; the previous generation plus a
    #: full-log replay reconstructed the state.  The facade should
    #: checkpoint immediately to re-establish a healthy newest image.
    degraded: bool
    #: A log's final unacknowledged record failed to apply and was
    #: dropped (truncated) -- together with ``degraded`` this is the
    #: signal that the on-disk state was repaired during open.
    dropped_tail_record: bool
    #: Generations *above* the manifest generation whose WAL chains
    #: held committed records: the former group-commit checkpoint cut
    #: the WAL over before its manifest switch, and stores it wrote may
    #: still hold such chains.  They were replayed, in order, after the
    #: live chain; ``wal`` is the newest of them, and the facade folds
    #: the whole sequence into one fresh generation with an immediate
    #: checkpoint.
    continuation_generations: List[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "generation": self.generation,
            "replayed": self.replayed,
            "degraded": self.degraded,
            "dropped_tail_record": self.dropped_tail_record,
            "continuation_generations": len(self.continuation_generations),
        }


def _replay(
    doc: "CompressedXml",
    wal: ReplayableLog,
    allow_drop_last: bool,
) -> tuple:
    """Replay a log's recovered records; returns (applied, dropped)."""
    records = wal.recovered_records
    applied = 0
    for position, record in enumerate(list(records)):
        try:
            apply_record(doc, record)
        except Exception as exc:
            if allow_drop_last and position == len(records) - 1:
                # The crash happened between the record's fsync and the
                # in-memory apply being acknowledged -- or the apply
                # itself failed and the WAL rollback never reached the
                # disk.  Either way the operation was never
                # acknowledged: drop it like a torn tail.
                wal.drop_last_record()
                return applied, True
            path, offset = wal.record_source(position)
            raise RecoveryError(
                f"{path}: WAL record #{position} at byte offset "
                f"{offset} ({record.get('op')!r}) failed to apply "
                f"during replay: {exc}"
            ) from exc
        applied += 1
    return applied, False


# ----------------------------------------------------------------------
# the open protocol
# ----------------------------------------------------------------------
def _open_fallback_log(
    layout: StoreLayout, generation: int, io: StorageIO
) -> Optional[ReplayableLog]:
    """The previous generation's log for degraded replay: compacted
    form when present, the raw segment chain otherwise."""
    compacted = layout.compact_path(generation)
    if os.path.exists(compacted):
        return WriteAheadLog(compacted, io=io)
    try:
        return SegmentedWal(layout.directory, generation, io=io)
    except FileNotFoundError:
        return None


def recover(
    directory: str,
    io: Optional[StorageIO] = None,
    wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    retry: Optional[RetryPolicy] = None,
    **doc_kwargs,
) -> RecoveredDocument:
    """Open a store: newest valid snapshot + WAL chain replay.

    ``doc_kwargs`` (``auto_recompress_factor``, ...) are forwarded to
    ``CompressedXml.from_state`` -- runtime policy is the caller's,
    while the grammar/shard/index state comes from the snapshot.
    """
    from repro.api import CompressedXml

    if io is None:
        io = StorageIO()
    layout = StoreLayout(directory)
    generation = read_manifest(directory)

    doc: Optional[CompressedXml] = None
    degraded = False
    newest_error: Optional[Exception] = None
    try:
        state = read_snapshot(layout.snapshot_path(generation))
        doc = CompressedXml.from_state(state, **doc_kwargs)
    except (SnapshotError, FileNotFoundError, ValueError) as exc:
        newest_error = exc

    dropped = False
    replayed = 0
    if doc is None:
        # Degradation: the previous generation's snapshot plus a *full*
        # replay of its log reconstructs the exact pre-checkpoint state
        # (replay is deterministic); the live chain then replays on top.
        previous = generation - 1
        if previous < 0:
            raise RecoveryError(
                f"{directory}: snapshot generation {generation} is "
                f"unreadable and no previous generation exists: "
                f"{newest_error}"
            )
        try:
            state = read_snapshot(layout.snapshot_path(previous))
            doc = CompressedXml.from_state(state, **doc_kwargs)
        except (SnapshotError, FileNotFoundError, ValueError) as exc:
            raise RecoveryError(
                f"{directory}: generations {generation} and {previous} "
                f"are both unreadable ({newest_error}; {exc})"
            ) from exc
        degraded = True
        try:
            previous_wal = _open_fallback_log(layout, previous, io)
        except WalRecordError as exc:
            raise RecoveryError(
                f"{directory}: generation {previous} WAL needed for "
                f"degraded recovery is corrupt: {exc}"
            ) from exc
        if previous_wal is not None:
            # Every acknowledged record here precedes the checkpoint
            # that produced the (now corrupt) newest snapshot and must
            # replay cleanly -- but the *last* record may be a failed
            # apply whose WAL rollback never reached the degrading
            # disk, and that one was never acknowledged: drop it.
            applied, dropped_prev = _replay(doc, previous_wal,
                                            allow_drop_last=True)
            replayed += applied
            dropped = dropped or dropped_prev
            previous_wal.close()

    # The live generation's chain.  Missing is legal only in the
    # degraded path (a checkpoint died after the manifest switch could
    # not have happened -- but a dying disk may lose files); treat as
    # empty.
    try:
        wal = SegmentedWal(directory, generation, io=io,
                           segment_bytes=wal_segment_bytes, retry=retry)
    except FileNotFoundError:
        if not degraded:
            raise RecoveryError(
                f"{directory}: live WAL {layout.wal_path(generation)} "
                f"is missing"
            ) from None
        wal = SegmentedWal(directory, generation, io=io, create=True,
                           segment_bytes=wal_segment_bytes, retry=retry)
    except WalRecordError as exc:
        raise RecoveryError(
            f"{directory}: live WAL chain for generation {generation} "
            f"is corrupt: {exc}"
        ) from exc

    # Continuation chains: the former group-commit checkpoint cut the
    # WAL over to generation g+1 *before* writing the snapshot and
    # switching the manifest, so stores it wrote may hold acknowledged
    # records in chains above the manifest generation.  Nothing writes
    # that shape any more, but it still opens: probe upward; the chains
    # replay, in order, after the live chain.  Chains that are all
    # empty are a checkpoint's pre-commit-point stray artifact and are
    # ignored.
    probed = []
    cont = generation + 1
    while True:
        try:
            cont_wal = SegmentedWal(directory, cont, io=io,
                                    segment_bytes=wal_segment_bytes,
                                    retry=retry,
                                    retire_torn_creation=True)
        except FileNotFoundError:
            break
        except WalRecordError as exc:
            raise RecoveryError(
                f"{directory}: continuation WAL chain for generation "
                f"{cont} is corrupt: {exc}"
            ) from exc
        probed.append((cont, cont_wal))
        cont += 1
    continuation = probed if any(w.record_count for _, w in probed) \
        else []

    # Only the final chain of the whole sequence may drop its last
    # record: every earlier chain was sealed by a cutover, so its
    # records were applied before later acknowledged operations built
    # on them.
    applied, dropped_live = _replay(
        doc, wal, allow_drop_last=not continuation
    )
    replayed += applied
    dropped = dropped or dropped_live

    if continuation:
        for position, (gen, cont_wal) in enumerate(continuation):
            final = position == len(continuation) - 1
            applied, dropped_cont = _replay(
                doc, cont_wal, allow_drop_last=final
            )
            replayed += applied
            dropped = dropped or dropped_cont
        wal.close()
        for _gen, cont_wal in continuation[:-1]:
            cont_wal.close()
        wal = continuation[-1][1]
    else:
        for _gen, cont_wal in probed:
            cont_wal.close()

    return RecoveredDocument(
        doc=doc,
        generation=generation,
        wal=wal,
        replayed=replayed,
        degraded=degraded,
        dropped_tail_record=dropped,
        continuation_generations=[gen for gen, _ in continuation],
    )
