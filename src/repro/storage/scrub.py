"""Online scrub: re-verify a live store's disk and index invariants.

A store can be damaged in ways recovery never sees: bit rot in a
snapshot that is not being read, a fallback WAL chain corrupted after
it was written, or index caches that have drifted from the grammar
(imported from a bad snapshot, or clobbered by a bug).  The ICDE
paper's whole value proposition is *incremental maintenance of derived
structures*; the robustness counterpart is an audit that proves those
structures still agree with the primary data -- and a repair path that
rebuilds exactly the inconsistent pieces instead of the world.

:func:`run_scrub` (surfaced as ``DurableXml.scrub``) checks two layers:

* **Disk**: every snapshot on disk re-read and checksum/invariant
  verified (:func:`repro.storage.snapshot.read_snapshot`), every WAL
  file -- live chain segments, fallback chains, compacted files --
  re-scanned frame by frame.  A torn tail on the *live* chain and any
  corruption elsewhere are findings (the live chain ends exactly at
  the last acknowledged record while the process is healthy).

* **Indexes**: the live :class:`repro.grammar.index.GrammarIndex`
  segments, the size columns of its cached rule packs (which writes
  splice in place, so they live long) and its label censuses are
  compared, rule by cached rule, against one fresh unregistered
  (``register=False``) index over the same grammar; the
  document-level element count is cross-checked against two
  independent oracles (:func:`repro.storage.snapshot.
  document_element_count`'s bottom-up recount and a full
  :func:`repro.grammar.navigation.stream_elements` streaming walk,
  whose tag census also audits the document's label census).

Repair (``repair=True``) is deliberately minimal:

* a drifted index rule is *evicted* through the same observer channel
  an update would use (``rule_changed``), so the next query recomputes
  just that rule and its dependents -- never a wholesale rebuild
  (unless the document-level censuses disagree without any culprit
  rule, the one case that falls back to ``invalidate_all``);
* disk corruption is healed by one :meth:`DurableXml.checkpoint` --
  the in-memory document is authoritative, so a fresh generation
  (written *after* the index repairs, hence from repaired state)
  supersedes every damaged artifact -- followed by retiring any
  still-corrupt non-live file once the new live snapshot verifies.

Everything is reported as a :class:`ScrubReport` of typed
:class:`ScrubFinding` entries plus ``checked`` counters, so "no
findings" is distinguishable from "looked at nothing".
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.storage.recovery import RecoveryError, read_manifest
from repro.storage.snapshot import (
    SnapshotError,
    document_element_count,
    read_snapshot,
)
from repro.storage.wal import (
    WalRecordError,
    compact_path,
    list_segments,
    scan_wal_report,
    segment_path,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.durable import DurableXml

__all__ = ["ScrubFinding", "ScrubReport", "run_scrub"]


@dataclass
class ScrubFinding:
    """One verified inconsistency.

    ``kind`` is a closed vocabulary -- ``snapshot-corrupt``,
    ``wal-corrupt``, ``wal-tail-torn``, ``manifest-corrupt``,
    ``grammar-index-drift``, ``element-census-drift``,
    ``label-census-drift`` -- ``subject`` the
    file path or rule name, ``detail`` the evidence, ``repaired``
    whether the repair pass resolved it.
    """

    kind: str
    subject: str
    detail: str
    repaired: bool = False

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "detail": self.detail,
            "repaired": self.repaired,
        }


@dataclass
class ScrubReport:
    """Everything one scrub pass learned (and did)."""

    directory: str
    generation: int
    repair: bool
    findings: List[ScrubFinding] = field(default_factory=list)
    #: How much was actually verified: snapshots, wal_files,
    #: wal_records, index_rules, label_rules, elements.
    checked: Dict[str, int] = field(default_factory=dict)
    #: The error that stopped the repair checkpoint, if any.
    repair_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """No inconsistencies found (repaired ones still count as
        findings -- re-scrub to certify a clean store)."""
        return not self.findings

    @property
    def repaired_count(self) -> int:
        return sum(1 for f in self.findings if f.repaired)

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "generation": self.generation,
            "repair": self.repair,
            "findings": [f.as_dict() for f in self.findings],
            "repaired": self.repaired_count,
            "checked": dict(self.checked),
            "repair_error": self.repair_error,
        }

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol); the
        full findings list stays on :meth:`summary`."""
        return {
            "ok": self.ok,
            "generation": self.generation,
            "findings": len(self.findings),
            "repaired": self.repaired_count,
            "elements_checked": self.checked.get("elements", 0),
            "wal_records_checked": self.checked.get("wal_records", 0),
        }


# ----------------------------------------------------------------------
# disk verification
# ----------------------------------------------------------------------
def _scrub_snapshot(path: str, report: ScrubReport) -> None:
    try:
        read_snapshot(path)
    except (SnapshotError, ValueError, OSError) as exc:
        report.findings.append(ScrubFinding(
            kind="snapshot-corrupt", subject=path, detail=str(exc),
        ))
    report.checked["snapshots"] = report.checked.get("snapshots", 0) + 1


def _scrub_wal_file(
    path: str, report: ScrubReport, final_segment: bool
) -> None:
    """Re-scan one WAL file.  A torn tail is reported even on a final
    segment: a *live* store's chain ends exactly at the last
    acknowledged record, so trailing garbage means a write failure or
    out-of-band damage happened since (recovery would truncate it, but
    the operator should know it is there)."""
    try:
        wal_report = scan_wal_report(path)
    except WalRecordError as exc:
        report.findings.append(ScrubFinding(
            kind="wal-corrupt", subject=path, detail=str(exc),
        ))
    except OSError as exc:
        report.findings.append(ScrubFinding(
            kind="wal-corrupt", subject=path, detail=str(exc),
        ))
    else:
        report.checked["wal_records"] = \
            report.checked.get("wal_records", 0) + len(wal_report.records)
        if wal_report.torn:
            kind = "wal-tail-torn" if final_segment else "wal-corrupt"
            report.findings.append(ScrubFinding(
                kind=kind, subject=path, detail=wal_report.tail_message,
            ))
    report.checked["wal_files"] = report.checked.get("wal_files", 0) + 1


def _scrub_disk(store: "DurableXml", report: ScrubReport) -> None:
    layout = store._layout
    directory = layout.directory
    try:
        manifest_generation = read_manifest(directory)
        if manifest_generation != store.generation:
            report.findings.append(ScrubFinding(
                kind="manifest-corrupt", subject=layout.manifest_path,
                detail=(f"manifest points at generation "
                        f"{manifest_generation}, live store is at "
                        f"{store.generation}"),
            ))
    except RecoveryError as exc:
        report.findings.append(ScrubFinding(
            kind="manifest-corrupt", subject=layout.manifest_path,
            detail=str(exc),
        ))
    for generation in layout.generations_on_disk():
        _scrub_snapshot(layout.snapshot_path(generation), report)
        segments = list_segments(directory, generation)
        for position, seg in enumerate(segments):
            _scrub_wal_file(
                segment_path(directory, generation, seg), report,
                final_segment=(position == len(segments) - 1),
            )
        compacted = compact_path(directory, generation)
        if os.path.exists(compacted):
            # Compaction wrote it whole: no legal torn tail here.
            _scrub_wal_file(compacted, report, final_segment=False)


# ----------------------------------------------------------------------
# index audits
# ----------------------------------------------------------------------
def _audit_grammar_index(store: "DurableXml", report: ScrubReport,
                         drifted: List[object]) -> None:
    from repro.grammar.index import GrammarIndex

    doc = store.document
    live = doc.index
    fresh = GrammarIndex(doc.grammar, register=False)
    for head in live.cached_rules():
        if not doc.grammar.has_rule(head):
            continue  # eviction in flight; nothing to compare against
        live_nodes = list(live.node_segments(head))
        live_elems = list(live.element_segments(head))
        fresh_nodes = list(fresh.node_segments(head))
        fresh_elems = list(fresh.element_segments(head))
        if live_nodes != fresh_nodes or live_elems != fresh_elems:
            report.findings.append(ScrubFinding(
                kind="grammar-index-drift", subject=str(head),
                detail=(f"cached segments {live_nodes}/{live_elems} != "
                        f"recomputed {fresh_nodes}/{fresh_elems}"),
            ))
            drifted.append(head)
        report.checked["index_rules"] = \
            report.checked.get("index_rules", 0) + 1
        census = live.peek_census(head)
        if census is not None:
            fresh_census = fresh.label_census(head)
            if census != fresh_census:
                report.findings.append(ScrubFinding(
                    kind="grammar-index-drift", subject=str(head),
                    detail=(f"cached census {census} != "
                            f"recomputed {fresh_census}"),
                ))
                drifted.append(head)
            report.checked["label_rules"] = \
                report.checked.get("label_rules", 0) + 1
        # Packs are spliced in place by writes and live for thousands
        # of them: audit the size columns and the route summaries they
        # feed against a cold build too.
        pack = live.kernel.peek(head)
        if pack is None:
            continue
        cold = fresh.kernel.pack(head)
        differing = [column for column in ("span", "nnodes", "nelems")
                     if getattr(pack, column) != getattr(cold, column)]
        if pack.routes is not None and pack.routes != cold.routes:
            differing.append("routes")
        if differing:
            report.findings.append(ScrubFinding(
                kind="grammar-index-drift", subject=str(head),
                detail=(f"cached pack columns {differing} differ from a "
                        f"cold build of the rule"),
            ))
            drifted.append(head)
        report.checked["index_packs"] = \
            report.checked.get("index_packs", 0) + 1


def _audit_censuses(store: "DurableXml", report: ScrubReport) -> bool:
    """Document-level cross-checks against two independent oracles.
    Returns True when a document-level drift was found."""
    from repro.grammar.navigation import stream_elements

    doc = store.document
    grammar = doc.grammar
    streamed = 0
    tag_census: Counter = Counter()
    for _index, tag, _parent, _depth in stream_elements(grammar):
        streamed += 1
        tag_census[tag] += 1
    report.checked["elements"] = streamed
    drift = False
    indexed = doc.index.element_count
    recounted = document_element_count(grammar)
    if not (indexed == recounted == streamed):
        report.findings.append(ScrubFinding(
            kind="element-census-drift", subject=grammar.start.name
            if hasattr(grammar.start, "name") else str(grammar.start),
            detail=(f"index says {indexed} elements, bottom-up recount "
                    f"{recounted}, streaming walk {streamed}"),
        ))
        drift = True
    label_census = dict(doc.index.label_census(grammar.start))
    streamed_census = dict(tag_census)
    if label_census != streamed_census:
        missing = {tag: count for tag, count in streamed_census.items()
                   if label_census.get(tag) != count}
        extra = {tag: count for tag, count in label_census.items()
                 if tag not in streamed_census}
        report.findings.append(ScrubFinding(
            kind="label-census-drift", subject="document",
            detail=(f"label census disagrees with the streamed tag "
                    f"census (mismatched: {missing}, phantom: {extra})"),
        ))
        drift = True
    return drift


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
def _repair_indexes(store: "DurableXml", report: ScrubReport,
                    drifted: List[object], census_drift: bool) -> None:
    doc = store.document
    for head in drifted:
        doc.index.rule_changed(head)
    if census_drift and not drifted:
        # Document totals disagree but no cached rule is provably
        # wrong: the damage is outside the per-rule comparison's reach
        # (e.g. a poisoned dependency edge).  Rebuild wholesale -- the
        # one repair that is always sound.
        doc.index.invalidate_all()
    for finding in report.findings:
        if finding.kind in ("grammar-index-drift", "element-census-drift",
                            "label-census-drift"):
            finding.repaired = True


_DISK_KINDS = ("snapshot-corrupt", "wal-corrupt", "wal-tail-torn",
               "manifest-corrupt")


def _repair_disk(store: "DurableXml", report: ScrubReport) -> None:
    from repro.storage.durable import CheckpointError

    disk_findings = [f for f in report.findings
                     if f.kind in _DISK_KINDS]
    if not disk_findings:
        return
    # One checkpoint supersedes every damaged artifact: the in-memory
    # document (indexes just repaired) becomes the fresh live
    # generation, the previous chain is compacted, and generations
    # below it -- corrupt compacted segments included -- are retired.
    try:
        store.checkpoint()
    except CheckpointError as exc:
        report.repair_error = str(exc)
        return
    layout = store._layout
    # Certify the new live image before discarding anything it would
    # have to replace.
    try:
        read_snapshot(layout.snapshot_path(store.generation))
    except (SnapshotError, ValueError, OSError) as exc:
        report.repair_error = (
            f"post-repair snapshot failed verification: {exc}"
        )
        return
    for finding in disk_findings:
        path = finding.subject
        if not os.path.exists(path):
            finding.repaired = True  # retired by the checkpoint
            continue
        still_bad = False
        if finding.kind == "snapshot-corrupt":
            try:
                read_snapshot(path)
            except (SnapshotError, ValueError, OSError):
                still_bad = True
        elif finding.kind in ("wal-corrupt", "wal-tail-torn"):
            try:
                still_bad = scan_wal_report(path).torn
            except (WalRecordError, OSError):
                still_bad = True
        if still_bad and path != layout.snapshot_path(store.generation):
            # A corrupt non-live artifact that survived retirement
            # (e.g. the immediate fallback snapshot): the verified new
            # live image supersedes it -- retire it now.
            store._io.remove(path, "checkpoint:clean")
        finding.repaired = True


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_scrub(store: "DurableXml", repair: bool = False) -> ScrubReport:
    """One full scrub pass over a live :class:`DurableXml`.

    Read-only unless ``repair=True``.  Repair order matters: index
    rules are evicted first, so the checkpoint that heals the disk
    exports already-repaired index state into the new snapshot.
    """
    report = ScrubReport(
        directory=store.directory,
        generation=store.generation,
        repair=repair,
    )
    for key in ("snapshots", "wal_files", "wal_records", "index_rules",
                "index_packs", "label_rules", "elements"):
        report.checked.setdefault(key, 0)
    _scrub_disk(store, report)
    drifted: List[object] = []
    _audit_grammar_index(store, report, drifted)
    census_drift = _audit_censuses(store, report)
    if repair:
        _repair_indexes(store, report, drifted, census_drift)
        _repair_disk(store, report)
    return report
