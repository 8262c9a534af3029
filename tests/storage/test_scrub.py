"""Online scrub: disk re-verification, index audits, and repair.

The acceptance bar: ``scrub(repair=True)`` detects and repairs a
deliberately corrupted compacted segment and a forcibly-drifted index
census, both injected out of band (byte flips on disk, direct cache
mutation) so the live store has no idea anything happened.
"""

import os

import pytest

from repro.storage.durable import DurableXml
from repro.storage.recovery import write_manifest
from repro.storage.wal import compact_path, segment_path
from repro.trees.unranked import XmlNode

XML = "<log>" + "<entry><ip/><status/></entry>" * 5 + "</log>"
ELEMENTS = 16  # log + 5 * (entry, ip, status)


def corrupt(path, offset=25):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


@pytest.fixture
def store(tmp_path):
    """A store with a fallback generation: updates, then a checkpoint,
    so ``snapshot.000000`` and ``wal.000000.compact`` exist next to the
    live generation 1 artifacts."""
    directory = str(tmp_path / "store")
    with DurableXml.from_xml(directory, XML, wal_segment_bytes=64) as st:
        st.rename(1, "first")
        st.append_child(0, XmlNode("extra"))
        st.rename(4, "second")
        st.checkpoint()
        st.rename(7, "third")
        yield st


class TestCleanScrub:
    def test_clean_store_scrubs_ok(self, store):
        report = store.scrub()
        assert report.ok
        assert report.findings == []
        assert report.repaired_count == 0
        assert report.repair_error is None
        assert not report.repair
        assert report.generation == store.generation == 1

    def test_checked_counters_prove_coverage(self, store):
        checked = store.scrub().checked
        assert checked["snapshots"] == 2  # fallback + live
        assert checked["wal_files"] >= 2  # compact + live chain
        assert checked["wal_records"] >= 4  # 3 compacted + 1 live
        assert checked["index_rules"] >= 1
        assert checked["label_rules"] >= 1
        assert checked["elements"] == ELEMENTS + 1  # + appended <extra/>

    def test_summary_shape(self, store):
        summary = store.scrub().summary()
        assert set(summary) == {"ok", "generation", "repair", "findings",
                                "repaired", "checked", "repair_error"}
        assert summary["ok"] is True
        assert summary["findings"] == []

    def test_scrub_is_read_only_by_default(self, store):
        generation = store.generation
        files = sorted(os.listdir(store.directory))
        store.scrub()
        assert store.generation == generation
        assert sorted(os.listdir(store.directory)) == files


class TestDiskFindings:
    def test_corrupted_compacted_segment_is_found(self, store):
        compacted = compact_path(store.directory, 0)
        assert os.path.exists(compacted)
        corrupt(compacted)
        report = store.scrub()
        assert not report.ok
        kinds = {(f.kind, f.subject) for f in report.findings}
        assert ("wal-corrupt", compacted) in kinds
        finding = next(f for f in report.findings
                       if f.subject == compacted)
        assert "checksum mismatch" in finding.detail
        assert not finding.repaired

    def test_repair_retires_the_corrupted_compacted_segment(self, store):
        compacted = compact_path(store.directory, 0)
        corrupt(compacted)
        report = store.scrub(repair=True)
        assert report.repair
        assert report.repair_error is None
        assert report.repaired_count == len(report.findings) >= 1
        # The healing checkpoint moved the store forward and retired
        # the damaged generation-0 artifact outright.
        assert store.generation == 2
        assert not os.path.exists(compacted)
        assert store.scrub().ok
        assert store.to_xml().count("<extra/>") == 1

    def test_corrupted_fallback_snapshot_is_found_and_retired(self, store):
        fallback = store._layout.snapshot_path(0)
        corrupt(fallback, offset=30)
        report = store.scrub()
        assert any(f.kind == "snapshot-corrupt" and f.subject == fallback
                   for f in report.findings)
        report = store.scrub(repair=True)
        assert report.repaired_count == len(report.findings) >= 1
        assert not os.path.exists(fallback)
        assert store.scrub().ok

    def test_torn_live_tail_is_found(self, store):
        live = segment_path(store.directory, store.generation,
                            store._wal.active_segment)
        with open(live, "ab") as handle:
            handle.write(b"\x99" * 5)  # torn frame header
        report = store.scrub()
        assert any(f.kind == "wal-tail-torn" and f.subject == live
                   and "torn frame header" in f.detail
                   for f in report.findings)

    def test_manifest_drift_is_found(self, store):
        write_manifest(store.directory, 41)
        report = store.scrub()
        finding = next(f for f in report.findings
                       if f.kind == "manifest-corrupt")
        assert "generation 41" in finding.detail
        # Repair's checkpoint rewrites the manifest at the new truth.
        report = store.scrub(repair=True)
        assert report.repaired_count == len(report.findings) >= 1
        assert store.scrub().ok


class TestIndexFindings:
    def test_drifted_element_census_is_found_and_repaired(self, store):
        index = store.document.index
        start = store.document.grammar.start
        assert index.element_count == ELEMENTS + 1  # warm the cache
        index._elem_segments[start][0] += 7  # out-of-band clobber
        report = store.scrub()
        kinds = {f.kind for f in report.findings}
        assert "grammar-index-drift" in kinds
        assert "element-census-drift" in kinds
        drift = next(f for f in report.findings
                     if f.kind == "grammar-index-drift")
        assert drift.subject == str(start)
        assert "recomputed" in drift.detail
        report = store.scrub(repair=True)
        assert report.repaired_count == len(report.findings) >= 2
        # Eviction through the observer channel: the next read
        # recomputes the rule and lands back on the truth.
        assert index.element_count == ELEMENTS + 1
        assert store.scrub().ok

    def test_drifted_pack_column_is_found_and_repaired(self, store):
        """Packs survive writes now (they are spliced, not rebuilt), so
        a clobbered size column would live on: the audit compares them
        with a cold build and evicts the rule."""
        doc = store.document
        index = doc.index
        start = doc.grammar.start
        assert index.element_count == ELEMENTS + 1  # packs the rules
        pack = index.kernel.peek(start)
        pack.nnodes[len(pack.nnodes) // 2] += 5  # out-of-band clobber
        report = store.scrub()
        assert report.checked["index_packs"] >= 1
        drift = next(f for f in report.findings
                     if f.kind == "grammar-index-drift")
        assert drift.subject == str(start)
        assert "nnodes" in drift.detail
        evicted = index.evicted_rules
        report = store.scrub(repair=True)
        assert report.repaired_count == len(report.findings) >= 1
        assert index.evicted_rules > evicted
        assert index.kernel.peek(start) is not pack
        # The rebuilt pack answers like the decompressed document.
        tags = [node.tag for node in doc.to_document().preorder()]
        assert index.element_count == len(tags) == ELEMENTS + 1
        assert [doc.tag_of(i) for i in range(len(tags))] == tags
        assert store.scrub().ok

    def test_drifted_route_summary_is_found_and_repaired(self, store):
        """``parent_of`` / ``depth_of`` trust the cached parameter-route
        summaries: the pack audit recomputes them cold as well."""
        doc = store.document
        index = doc.index
        rows = [(i, doc.parent_of(i), doc.depth_of(i))
                for i in range(doc.element_count)]  # packs + summaries
        pack = next(pack for head in index.cached_rules()
                    for pack in [index.kernel.peek(head)]
                    if pack is not None and pack.routes)
        delta, _point = pack.routes[0]
        pack.routes[0] = (delta, (0, 3))  # out-of-band clobber
        index._locations.clear()  # the memo would hide it
        assert [(i, doc.parent_of(i), doc.depth_of(i))
                for i in range(doc.element_count)] != rows
        report = store.scrub()
        drift = next(f for f in report.findings
                     if f.kind == "grammar-index-drift")
        assert drift.subject == str(pack.head)
        assert "routes" in drift.detail
        report = store.scrub(repair=True)
        assert report.repaired_count == len(report.findings) >= 1
        assert index.kernel.peek(pack.head) is not pack
        assert [(i, doc.parent_of(i), doc.depth_of(i))
                for i in range(doc.element_count)] == rows
        assert store.scrub().ok

    def test_drifted_label_census_is_found_and_repaired(self, store):
        """The census is audited in the same loop as segments and packs,
        against the same cold index, and repaired by the same eviction."""
        index = store.document.index
        start = store.document.grammar.start
        assert index.document_label_count("ip") == 5  # warm
        index.peek_census(start)["phantom"] = 3  # out-of-band clobber
        report = store.scrub()
        assert report.checked["label_rules"] == index.censused_rule_count
        drift = next(f for f in report.findings
                     if f.kind == "grammar-index-drift")
        assert drift.subject == str(start)
        assert "census" in drift.detail
        census = next(f for f in report.findings
                      if f.kind == "label-census-drift")
        assert "phantom" in census.detail
        evicted = index.censuses_evicted
        report = store.scrub(repair=True)
        assert report.repaired_count == len(report.findings) >= 2
        assert index.censuses_evicted > evicted
        assert index.wholesale_invalidations == 0
        assert index.document_label_count("phantom") == 0
        assert index.document_label_count("ip") == 5
        assert store.scrub().ok

    def test_index_repair_does_not_touch_the_disk(self, store):
        """Pure index drift needs no checkpoint: eviction alone heals
        it, so the on-disk artifacts stay exactly as they were."""
        index = store.document.index
        start = store.document.grammar.start
        assert index.element_count == ELEMENTS + 1
        index._elem_segments[start][0] += 7
        generation = store.generation
        store.scrub(repair=True)
        assert store.generation == generation

    def test_combined_disk_and_index_damage_heals_in_one_pass(self, store):
        """The repair order matters: indexes are evicted before the
        healing checkpoint, so the new snapshot is written from
        repaired state."""
        compacted = compact_path(store.directory, 0)
        corrupt(compacted)
        index = store.document.index
        start = store.document.grammar.start
        assert index.element_count == ELEMENTS + 1
        index._elem_segments[start][0] += 7
        report = store.scrub(repair=True)
        assert report.repaired_count == len(report.findings) >= 2
        assert not os.path.exists(compacted)
        assert store.scrub().ok
        # The post-repair snapshot round-trips to the true census.
        store.close()
        with DurableXml.open(store.directory) as reopened:
            assert reopened.document.index.element_count == ELEMENTS + 1
            assert reopened.scrub().ok


class TestHealth:
    def test_health_shape(self, store):
        health = store.health()
        assert set(health) == {
            "directory", "generation", "element_count", "degraded",
            "degraded_cause", "wal", "mvcc", "checkpoint_wal_bytes",
            "last_checkpoint_error", "last_recovery", "last_scrub",
            "metrics",
        }
        assert set(health["wal"]) == {
            "generation", "size_bytes", "segment_count",
            "active_segment", "active_segment_bytes",
            "segment_bytes_limit", "rotations", "record_count",
            "tail_error",
        }
        assert set(health["mvcc"]) == {
            "epoch", "pinned_snapshots",
            "pinned_epochs", "oldest_pin_age_seconds",
        }
        assert health["mvcc"]["pinned_snapshots"] == 0
        assert health["directory"] == store.directory
        assert health["generation"] == 1
        assert health["element_count"] == ELEMENTS + 1
        assert health["degraded"] is False
        assert health["degraded_cause"] is None
        assert health["wal"]["segment_bytes_limit"] == 64
        assert health["last_checkpoint_error"] is None
        assert health["last_scrub"] is None
        assert set(health["metrics"]) == {
            "counters", "gauges", "histograms", "sources",
        }

    def test_health_reflects_the_last_scrub(self, store):
        corrupt(compact_path(store.directory, 0))
        store.scrub()
        health = store.health()
        assert health["last_scrub"]["ok"] is False
        assert health["last_scrub"]["repaired"] == 0
        store.scrub(repair=True)
        assert store.health()["last_scrub"]["ok"] is False  # found, fixed
        store.scrub()
        assert store.health()["last_scrub"]["ok"] is True

    def test_health_reports_recovery_after_reopen(self, store):
        directory = store.directory
        store.close()
        with DurableXml.open(directory) as reopened:
            recovery = reopened.health()["last_recovery"]
            assert recovery["replayed"] == 1  # post-checkpoint rename
            assert recovery["degraded"] is False
            assert recovery["dropped_tail_record"] is False
            assert recovery["continuation_generations"] == 0
