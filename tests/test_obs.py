"""Tests for the observability layer: ``repro.obs`` metrics and tracing,
the wired instrumentation across the document/storage stack, and the
``to_dict()`` stats protocol."""

import logging
import math
import os

import pytest

from repro.api import CompressedXml
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    Tracer,
    default_registry,
    set_default_registry,
    summarize_latencies,
    trace_span,
)
from repro.obs.metrics import NULL_METRIC
from repro.trees.unranked import XmlNode

XML = "<log>" + "<entry><ip/><ts/></entry>" * 30 + "</log>"


# ----------------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_things_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = reg.gauge("repro_depth")
        gauge.set(3.5)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == 4.0

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_latency_seconds")
        for ms in range(1, 101):  # 1ms .. 100ms uniform
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["sum_s"] == pytest.approx(5.05, rel=1e-6)
        # Bucketed estimates within a bucket width of the exact values.
        assert snap["p50_s"] == pytest.approx(0.050, abs=0.03)
        assert snap["p99_s"] == pytest.approx(0.099, abs=0.06)
        assert snap["min_s"] <= 0.001 + 1e-9
        assert snap["max_s"] >= 0.1 - 1e-9
        # Percentiles are clamped to the observed range.
        assert snap["p99_s"] <= snap["max_s"] + 1e-9

    def test_histogram_buckets_are_cumulative_in_export(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_latency_seconds")
        hist.observe(0.002)
        hist.observe(0.2)
        counts = hist.bucket_counts()
        assert sum(counts) == 2
        assert len(counts) == len(LATENCY_BUCKETS) + 1  # +Inf overflow

    def test_same_name_same_labels_returns_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_hits_total", op="rename")
        b = reg.counter("repro_hits_total", op="rename")
        c = reg.counter("repro_hits_total", op="delete")
        assert a is b
        assert a is not c

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError):
            reg.histogram("repro_x_total")


class TestDisabledRegistry:
    def test_disabled_registry_hands_out_null_handles(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("repro_a_total") is NULL_METRIC
        assert reg.gauge("repro_b") is NULL_METRIC
        assert reg.histogram("repro_c_seconds") is NULL_METRIC

    def test_null_metric_is_inert(self):
        NULL_METRIC.inc()
        NULL_METRIC.dec()
        NULL_METRIC.set(3)
        NULL_METRIC.observe(0.5)
        assert NULL_METRIC.value == 0
        assert math.isnan(NULL_METRIC.percentile(0.5))
        assert NULL_METRIC.snapshot()["count"] == 0

    def test_null_registry_renders_empty_exposition(self):
        assert NULL_REGISTRY.render_prometheus() == ""
        assert NULL_REGISTRY.declared_names() == []


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def parse_exposition(text):
    """Mini-validator: parse samples, enforcing format basics."""
    samples = {}
    seen_type = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name not in seen_type, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram"), line
            seen_type[name] = kind
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), line
            continue
        name_and_labels, value = line.rsplit(" ", 1)
        float(value)  # must parse
        samples[name_and_labels] = float(value)
    return seen_type, samples


class TestPrometheusExport:
    def test_histogram_exposition_shape(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_latency_seconds", "how slow")
        hist.observe(0.003)
        hist.observe(0.004)
        hist.observe(2.0)
        text = reg.render_prometheus()
        types, samples = parse_exposition(text)
        assert types["repro_latency_seconds"] == "histogram"
        assert samples['repro_latency_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_latency_seconds_count"] == 3
        assert samples["repro_latency_seconds_sum"] == \
            pytest.approx(2.007)
        # Buckets are cumulative and monotone.
        last = 0.0
        for bucket in LATENCY_BUCKETS:
            key = f'repro_latency_seconds_bucket{{le="{bucket}"}}'
            assert samples[key] >= last
            last = samples[key]
        assert 3 >= last

    def test_declared_but_unobserved_families_are_exported(self):
        reg = MetricsRegistry()
        reg.histogram("repro_quiet_seconds")
        reg.counter("repro_quiet_total")
        types, samples = parse_exposition(reg.render_prometheus())
        assert types["repro_quiet_seconds"] == "histogram"
        assert samples["repro_quiet_seconds_count"] == 0
        assert samples["repro_quiet_total"] == 0

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_odd_total", site='a"b\\c\nd').inc()
        text = reg.render_prometheus()
        assert 'site="a\\"b\\\\c\\nd"' in text

    def test_sources_become_prefixed_gauges(self):
        reg = MetricsRegistry()
        reg.register_source("repro_doc", lambda: {"epoch": 7})
        types, samples = parse_exposition(reg.render_prometheus())
        assert samples["repro_doc_epoch"] == 7
        assert types["repro_doc_epoch"] == "gauge"

    def test_dead_source_vanishes(self):
        reg = MetricsRegistry()
        reg.register_source("repro_doc", lambda: {})
        assert "repro_doc" not in reg.render_prometheus()


class TestSummarizeLatencies:
    def test_empty(self):
        summary = summarize_latencies([])
        assert summary["count"] == 0
        assert summary["p50_ms"] is None

    def test_percentiles_exact(self):
        samples = [i / 1000.0 for i in range(1, 101)]
        summary = summarize_latencies(samples)
        assert summary["count"] == 100
        # Nearest-rank: within one sample of the exact quantile.
        assert summary["p50_ms"] == pytest.approx(50.0, abs=1.0)
        assert summary["p95_ms"] == pytest.approx(95.0, abs=1.0)
        assert summary["p99_ms"] == pytest.approx(99.0, abs=1.0)
        assert summary["max_ms"] == pytest.approx(100.0)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_nested_spans_recorded_on_the_root(self):
        tracer = Tracer(ring_size=8)
        with tracer.span("commit", op="rename"):
            with tracer.span("append"):
                pass
            with tracer.span("apply"):
                pass
        roots = tracer.recent()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "commit"
        assert root.tags == {"op": "rename"}
        assert [child.name for child in root.children] == \
            ["append", "apply"]
        assert root.duration_s >= max(
            child.duration_s for child in root.children)

    def test_ring_is_bounded(self):
        tracer = Tracer(ring_size=4)
        for index in range(10):
            with tracer.span(f"op{index}"):
                pass
        names = [span.name for span in tracer.recent()]
        assert names == ["op6", "op7", "op8", "op9"]

    def test_slow_op_logs_one_structured_line(self, caplog):
        tracer = Tracer(slow_op_seconds=0.0)  # everything is slow
        with caplog.at_level(logging.WARNING, logger="repro.obs.trace"):
            with tracer.span("commit", op="batch"):
                pass
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "commit" in message
        assert "op=batch" in message

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored"):
            pass
        assert tracer.recent() == []

    def test_span_to_dict(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        data = tracer.recent()[0].to_dict()
        assert data["name"] == "outer"
        assert data["tags"] == {"kind": "test"}
        assert data["children"][0]["name"] == "inner"
        assert data["duration_ms"] >= 0


# ----------------------------------------------------------------------
# wired instrumentation, end to end
# ----------------------------------------------------------------------
class TestDocumentInstrumentation:
    def test_update_batch_query_recompress_families(self):
        reg = MetricsRegistry()
        doc = CompressedXml.from_xml(XML, metrics=reg)
        doc.rename(1, "zap")
        doc.insert(2, XmlNode("n"))
        doc.append_child(0, XmlNode("tail"))
        doc.delete(3)
        with doc.batch() as batch:
            batch.rename(4, "b1")
            batch.rename(5, "b2")
        doc.recompress()
        doc.select("//zap")
        doc.count("//ip")

        collected = reg.collect()
        hists = collected["histograms"]
        for op in ("rename", "insert", "append_child", "delete"):
            assert hists[f'repro_update_seconds{{op="{op}"}}'][
                "count"] == 1
        for stage in ("apply", "settle"):
            assert hists[f'repro_batch_stage_seconds{{stage="{stage}"}}'][
                "count"] == 1
        for stage in ("census", "rounds", "prune"):
            assert hists[
                f'repro_recompress_stage_seconds{{stage="{stage}"}}'][
                    "count"] >= 1
        for stage in ("parse", "walk"):
            assert hists[f'repro_query_stage_seconds{{stage="{stage}"}}'][
                "count"] == 2
        counters = collected["counters"]
        assert counters['repro_queries_total{kind="select"}'] == 1
        assert counters['repro_queries_total{kind="count"}'] == 1
        assert counters["repro_batches_total"] == 1
        assert counters["repro_recompress_total"] == 1
        assert counters["repro_recompress_generators_resolved_total"] == \
            doc.last_repair_stats.generators_resolved > 0

    @staticmethod
    def query_instruments(through_view):
        """Run three queries on a fresh document -- or on a view pinned
        on it -- and return every ``repro_quer*`` counter and histogram
        observation count they left in the document's registry."""
        reg = MetricsRegistry()
        doc = CompressedXml.from_xml(XML, metrics=reg)
        surface = doc.snapshot() if through_view else doc
        assert len(surface.select("//ip")) == 30
        assert len(surface.select("/log/entry/ts")) == 30
        assert surface.count("/log/entry") == 30
        collected = reg.collect()
        seen = {name: value
                for name, value in collected["counters"].items()
                if name.startswith("repro_quer")}
        seen.update(
            (name, hist["count"])
            for name, hist in collected["histograms"].items()
            if name.startswith("repro_quer"))
        return seen

    def test_view_queries_feed_the_same_instruments(self):
        """One read surface: a query through a pinned view advances
        exactly what the same query on the live document does."""
        live = self.query_instruments(through_view=False)
        assert live['repro_queries_total{kind="select"}'] == 2
        assert live['repro_queries_total{kind="count"}'] == 1
        assert live["repro_query_matches_total"] == 60
        assert live["repro_query_pruned_subtrees_total"] > 0
        for stage in ("parse", "walk"):
            assert live[
                f'repro_query_stage_seconds{{stage="{stage}"}}'] == 3
        assert self.query_instruments(through_view=True) == live

    def test_gauge_sources_sample_live_state(self):
        reg = MetricsRegistry()
        doc = CompressedXml.from_xml(XML, metrics=reg)
        doc.rename(1, "zap")
        sources = reg.collect()["sources"]
        assert sources["repro_doc"]["element_count"] == \
            doc.element_count
        assert sources["repro_doc"]["updates_applied"] == 1
        assert sources["repro_index"]["grammar_cached_rules"] >= 0

    def test_disabled_document_records_nothing(self):
        doc = CompressedXml.from_xml(XML, metrics=NULL_REGISTRY)
        doc.rename(1, "zap")
        doc.select("//zap")
        assert doc.metrics() == NULL_REGISTRY.summary()
        assert NULL_REGISTRY.render_prometheus() == ""

    def test_default_registry_used_when_unspecified(self):
        previous = default_registry()
        reg = MetricsRegistry()
        set_default_registry(reg)
        try:
            doc = CompressedXml.from_xml(XML)
            assert doc.metrics_registry is reg
        finally:
            set_default_registry(previous)

    def test_failed_update_not_observed(self):
        reg = MetricsRegistry()
        doc = CompressedXml.from_xml(XML, metrics=reg)
        with pytest.raises(Exception):
            doc.rename(10 ** 9, "nope")
        hists = reg.collect()["histograms"]
        assert hists['repro_update_seconds{op="rename"}']["count"] == 0


class TestDurableInstrumentation:
    @pytest.fixture
    def registry(self):
        return MetricsRegistry()

    @pytest.fixture
    def store(self, tmp_path, registry):
        from repro.storage.durable import DurableXml

        doc = CompressedXml.from_xml(XML, metrics=registry)
        store = DurableXml.create(str(tmp_path / "store"), doc)
        yield store
        store.close()

    def test_commit_stages_and_totals(self, store, registry):
        store.rename(1, "zap")
        store.delete(2)
        hists = registry.collect()["histograms"]
        counters = registry.collect()["counters"]
        assert hists["repro_commit_seconds"]["count"] == 2
        assert hists['repro_commit_stage_seconds{stage="append"}'][
            "count"] == 2
        assert hists['repro_commit_stage_seconds{stage="apply"}'][
            "count"] == 2
        assert counters['repro_commits_total{op="rename"}'] == 1
        assert counters['repro_commits_total{op="delete"}'] == 1
        assert hists['repro_fsync_seconds{site="wal:append"}'][
            "count"] == 2

    def test_every_declared_fsync_site_is_reached(self, store,
                                                  registry):
        """The pre-declared fsync sites are exactly the ones a commit
        plus a checkpoint hit: none is dead, none is late."""
        declared = {key for key in registry.collect()["histograms"]
                    if key.startswith("repro_fsync_seconds")}
        store.rename(1, "zap")
        store.checkpoint()
        hists = registry.collect()["histograms"]
        reached = {key for key, value in hists.items()
                   if key.startswith("repro_fsync_seconds")
                   and value["count"] > 0}
        assert declared == reached

    def test_failed_apply_counts_as_commit_failure(self, store,
                                                   registry):
        with pytest.raises(Exception):
            store.rename(10 ** 9, "nope")
        counters = registry.collect()["counters"]
        assert counters["repro_commit_failures_total"] == 1
        hists = registry.collect()["histograms"]
        assert hists["repro_commit_seconds"]["count"] == 0

    def test_checkpoint_scrub_and_recovery_timed(self, store, registry,
                                                 tmp_path):
        from repro.storage.durable import DurableXml

        store.rename(1, "zap")
        store.checkpoint()
        store.scrub()
        hists = registry.collect()["histograms"]
        assert hists["repro_checkpoint_seconds"]["count"] == 1
        assert hists["repro_scrub_seconds"]["count"] == 1
        store.close()
        reopened = DurableXml.open(str(tmp_path / "store"),
                                   metrics=registry)
        try:
            hists = registry.collect()["histograms"]
            assert hists["repro_recovery_seconds"]["count"] == 1
        finally:
            reopened.close()

    def test_store_source_and_health_metrics_block(self, store,
                                                   registry):
        store.rename(1, "zap")
        sample = registry.collect()["sources"]["repro_store"]
        assert sample["generation"] == 0
        assert sample["degraded"] == 0
        assert sample["wal_size_bytes"] > 0
        health = store.health()
        assert health["metrics"] == registry.summary()

    def test_exposition_covers_the_declared_stack(self, store,
                                                  registry):
        store.rename(1, "zap")
        store.checkpoint()
        text = registry.render_prometheus()
        for family in ("repro_fsync_seconds", "repro_commit_seconds",
                       "repro_commit_stage_seconds",
                       "repro_checkpoint_seconds",
                       "repro_update_seconds",
                       "repro_recompress_stage_seconds",
                       "repro_query_stage_seconds"):
            assert f"# TYPE {family} histogram" in text, family
        parse_exposition(text)  # must be valid end to end


# ----------------------------------------------------------------------
# the to_dict() stats protocol
# ----------------------------------------------------------------------
class TestStatsProtocol:
    def test_batch_stats_to_dict(self):
        doc = CompressedXml.from_xml(XML, metrics=NULL_REGISTRY)
        with doc.batch() as batch:
            batch.rename(1, "a")
            batch.rename(2, "b")
        data = doc.last_batch_stats.to_dict()
        assert data["operations"] == 2
        for key in ("plan_seconds", "isolate_seconds", "apply_seconds"):
            assert data[key] >= 0.0

    def test_repair_stats_to_dict(self):
        doc = CompressedXml.from_xml(XML, metrics=NULL_REGISTRY)
        doc.rename(1, "zap")
        doc.recompress()
        data = doc.last_repair_stats.to_dict()
        assert data["rounds"] >= 0
        for key in ("census_seconds", "rounds_seconds",
                    "prune_seconds"):
            assert data[key] >= 0.0

    def test_index_stats_to_dict(self):
        doc = CompressedXml.from_xml(XML, metrics=NULL_REGISTRY)
        doc.count("//ip")
        grammar_stats = doc.index.to_dict()
        assert set(grammar_stats) == {
            "evicted_rules", "wholesale_invalidations", "cached_rules",
        }
        label_stats = doc.label_index.to_dict()
        assert set(label_stats) == {
            "evicted_rules", "wholesale_invalidations", "cached_rules",
        }

    def test_scrub_report_and_wal_to_dict(self, tmp_path):
        from repro.storage.durable import DurableXml

        doc = CompressedXml.from_xml(XML, metrics=NULL_REGISTRY)
        store = DurableXml.create(str(tmp_path / "store"), doc)
        try:
            store.rename(1, "zap")
            report = store.scrub()
            data = report.to_dict()
            assert data["ok"] is True
            assert data["findings"] == 0
            wal = store._wal.to_dict()
            assert wal["record_count"] == 1
            assert wal["size_bytes"] > 0
        finally:
            store.close()

    def test_shard_stats_to_dict(self):
        doc = CompressedXml.from_xml(XML, metrics=NULL_REGISTRY,
                                     shard_width=8)
        for _ in range(40):
            doc.append_child(0, XmlNode("tail"))
        data = doc.shard_manager.stats.to_dict()
        assert data["splits"] >= 1
        assert "merges" in data and "reshard_runs" in data
