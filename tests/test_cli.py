"""Tests for the repro-xml command-line interface."""

import json
import os

import pytest

from repro.cli import main


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text("<log>" + "<entry><ip/><ts/></entry>" * 40 + "</log>")
    return path


class TestCompressDecompress:
    def test_compress_writes_grammar(self, xml_file, capsys):
        assert main(["compress", str(xml_file)]) == 0
        out = capsys.readouterr().out
        assert "grammar of" in out
        assert (xml_file.parent / "doc.xml.grammar").exists()

    def test_roundtrip_through_files(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        out_path = tmp_path / "restored.xml"
        main(["decompress", str(grammar_path), "-o", str(out_path)])
        assert out_path.read_text() == xml_file.read_text()

    def test_decompress_to_stdout(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        capsys.readouterr()
        main(["decompress", str(grammar_path)])
        assert "<entry>" in capsys.readouterr().out


class TestStats:
    def test_stats_on_xml(self, xml_file, capsys):
        assert main(["stats", str(xml_file)]) == 0
        out = capsys.readouterr().out
        assert "elements:    121" in out
        assert "ratio:" in out

    def test_stats_on_grammar(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        capsys.readouterr()
        main(["stats", str(grammar_path)])
        assert "elements:    121" in capsys.readouterr().out


class TestUpdate:
    def test_rename_roundtrip(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        main(["update", str(grammar_path), "rename", "1", "first"])
        out_path = tmp_path / "out.xml"
        main(["decompress", str(grammar_path), "-o", str(out_path)])
        assert "<first>" in out_path.read_text()

    def test_insert_fragment(self, xml_file, tmp_path):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        main(["update", str(grammar_path), "insert", "1",
              "<marker><why/></marker>"])
        out_path = tmp_path / "out.xml"
        main(["decompress", str(grammar_path), "-o", str(out_path)])
        assert "<marker><why/></marker><entry>" in out_path.read_text()

    def test_delete(self, xml_file, tmp_path):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        main(["update", str(grammar_path), "delete", "1"])
        out_path = tmp_path / "out.xml"
        main(["decompress", str(grammar_path), "-o", str(out_path)])
        assert out_path.read_text().count("<entry>") == 39


class TestQueryCommand:
    def test_query_lists_index_and_tag(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        capsys.readouterr()
        assert main(["query", str(grammar_path), "/log/entry[2]/ip"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "5\tip\n"
        assert "1 match(es)" in captured.err

    def test_query_count(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        capsys.readouterr()
        assert main(["query", str(grammar_path), "--count", "//ip"]) == 0
        assert capsys.readouterr().out == "40\n"

    def test_query_extract(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        capsys.readouterr()
        assert main(
            ["query", str(grammar_path), "--extract", "/log/entry[1]"]
        ) == 0
        assert capsys.readouterr().out == "<entry><ip/><ts/></entry>\n"

    def test_query_limit(self, xml_file, tmp_path, capsys):
        grammar_path = tmp_path / "doc.grammar"
        main(["compress", str(xml_file), "-o", str(grammar_path)])
        capsys.readouterr()
        assert main(
            ["query", str(grammar_path), "//entry", "--limit", "3"]
        ) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3
        assert "37 more" in captured.err
        assert "40 match(es)" in captured.err

    def test_query_works_on_raw_xml_input(self, xml_file, capsys):
        assert main(["query", str(xml_file), "--count", "//ts"]) == 0
        assert capsys.readouterr().out == "40\n"


def _tree_bytes(path):
    """Every file below ``path`` (or the file itself) with its bytes."""
    if os.path.isfile(path):
        with open(path, "rb") as handle:
            return handle.read()
    found = {}
    for folder, _dirs, names in os.walk(path):
        for name in names:
            with open(os.path.join(folder, name), "rb") as handle:
                found[os.path.join(folder, name)] = handle.read()
    return found


class TestBadInputIsOneErrorLine:
    """A malformed path, an index out of range or an invalid update is
    one ``error: ...`` line on stderr and exit code 2 -- no traceback,
    and the grammar file / store is byte-identical afterwards."""

    BAD = [
        ["query", "{target}", "a"],
        ["query", "{target}", "//entry["],
        ["update", "{target}", "delete", "999"],
        ["update", "{target}", "rename", "-1", "x"],
        ["update", "{target}", "rename", "one", "x"],
        ["update", "{target}", "delete", "0"],
        ["update", "{target}", "insert", "1", "<open>"],
        ["update", "{target}", "rename", "1", ""],
        ["update", "{target}", "rename", "1", "a b"],
        ["update", "{target}", "rename", "1", "<x>"],
    ]

    def _assert_rejected(self, argv, target, capsys):
        before = _tree_bytes(target)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        assert _tree_bytes(target) == before

    @pytest.mark.parametrize("argv", BAD, ids=lambda argv: " ".join(argv))
    def test_grammar_file(self, argv, xml_file, tmp_path, capsys):
        grammar_path = str(tmp_path / "doc.grammar")
        main(["compress", str(xml_file), "-o", grammar_path])
        self._assert_rejected(
            [arg.format(target=grammar_path) for arg in argv],
            grammar_path, capsys)

    @pytest.mark.parametrize("argv", BAD, ids=lambda argv: " ".join(argv))
    def test_durable_store(self, argv, xml_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["durable", "init", store, "--xml", str(xml_file)])
        main(["durable", "update", store, "rename", "1", "first"])
        self._assert_rejected(
            ["durable"] + [arg.format(target=store) for arg in argv],
            store, capsys)


class TestExperimentCommand:
    def test_durable_init_update_query(self, xml_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["durable", "init", store, "--xml", str(xml_file)]) == 0
        assert "generation 0" in capsys.readouterr().out

        assert main(["durable", "update", store, "rename", "1",
                     "first"]) == 0
        assert "rename committed" in capsys.readouterr().out
        assert main(["durable", "query", store, "//first"]) == 0
        out = capsys.readouterr().out
        assert "1\tfirst" in out

    def test_durable_init_requires_xml(self, tmp_path, capsys):
        assert main(["durable", "init", str(tmp_path / "s")]) == 2
        assert "--xml" in capsys.readouterr().err

    def test_durable_status_and_checkpoint(self, xml_file, tmp_path,
                                           capsys):
        store = str(tmp_path / "store")
        main(["durable", "init", store, "--xml", str(xml_file)])
        main(["durable", "update", store, "delete", "4"])
        capsys.readouterr()
        assert main(["durable", "checkpoint", store]) == 0
        assert "generation 1" in capsys.readouterr().out
        assert main(["durable", "status", store]) == 0
        out = capsys.readouterr().out
        assert "generation:  1" in out
        assert "replayed:    0 record(s)" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


def _flip_byte(path, offset=25):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


@pytest.fixture
def durable_store(xml_file, tmp_path, capsys):
    """A store with a compacted fallback chain: init, one committed
    update, one checkpoint."""
    store = str(tmp_path / "store")
    main(["durable", "init", store, "--xml", str(xml_file)])
    main(["durable", "update", store, "rename", "1", "first"])
    main(["durable", "checkpoint", store])
    capsys.readouterr()
    return store


class TestDurableScrubCli:
    def test_scrub_clean(self, durable_store, capsys):
        assert main(["durable", "scrub", durable_store]) == 0
        out = capsys.readouterr().out
        assert "scrubbed:" in out
        assert "scrub:       clean" in out

    def test_scrub_without_repair_reports_and_fails(self, durable_store,
                                                    capsys):
        _flip_byte(os.path.join(durable_store, "wal.000000.compact"))
        assert main(["durable", "scrub", durable_store]) == 1
        captured = capsys.readouterr()
        assert "FOUND:    [wal-corrupt]" in captured.out
        assert "re-run with --repair" in captured.err

    def test_scrub_repair_heals_the_store(self, durable_store, capsys):
        compacted = os.path.join(durable_store, "wal.000000.compact")
        _flip_byte(compacted)
        assert main(["durable", "scrub", durable_store, "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired:    [wal-corrupt]" in out
        assert not os.path.exists(compacted)
        assert main(["durable", "scrub", durable_store]) == 0
        assert "scrub:       clean" in capsys.readouterr().out

    def test_health_emits_json(self, durable_store, capsys):
        assert main(["durable", "health", durable_store, "--json"]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["generation"] == 1
        assert health["degraded"] is False
        assert health["wal"]["segment_count"] == 1
        assert health["last_recovery"]["replayed"] == 0
        assert set(health["metrics"]) == {
            "counters", "gauges", "histograms", "sources",
        }

    def test_health_default_is_human_readable(self, durable_store,
                                              capsys):
        assert main(["durable", "health", durable_store]) == 0
        out = capsys.readouterr().out
        assert "generation:  1" in out
        assert "degraded:    no" in out
        assert "durable health --json" in out

    def test_status_shows_chain_and_degradation(self, durable_store,
                                                capsys):
        assert main(["durable", "status", durable_store]) == 0
        out = capsys.readouterr().out
        assert "wal chain:   1 segment(s), active segment 0" in out
        assert "degraded:    no" in out

    def test_status_json_schema(self, durable_store, capsys):
        assert main(["durable", "status", durable_store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert set(status) == {
            "directory", "generation", "degraded", "element_count",
            "compressed_size", "wal", "recovery", "mvcc", "kernel",
        }
        assert status["generation"] == 1
        assert status["degraded"] is False
        assert status["recovery"]["replayed"] == 0
        assert status["wal"]["segment_count"] == 1
        assert "epoch" in status["mvcc"]
        # A status read alone must not force any eager packing.
        assert status["kernel"]["wholesale_invalidations"] == 0


class TestDurableMetricsCli:
    def test_metrics_table(self, durable_store, capsys):
        assert main(["durable", "metrics", durable_store]) == 0
        out = capsys.readouterr().out
        assert "repro_recovery_seconds" in out

    def test_metrics_prometheus_exposition(self, durable_store, capsys):
        assert main(
            ["durable", "metrics", durable_store, "--prometheus"]) == 0
        out = capsys.readouterr().out
        # Every declared family is present, observed or not.
        for family in (
            "repro_fsync_seconds",
            "repro_commit_seconds",
            "repro_recompress_stage_seconds",
            "repro_query_stage_seconds",
            "repro_recovery_seconds",
        ):
            assert f"# TYPE {family} histogram" in out, family
            assert f"{family}_count" in out, family
        # Cumulative buckets end at +Inf and agree with _count.
        assert 'le="+Inf"' in out


class TestDurableErrorExits:
    def test_corrupt_store_exits_nonzero_without_traceback(
            self, durable_store, capsys):
        os.remove(os.path.join(durable_store, "wal.000001"))
        for action in ("status", "query", "scrub", "health"):
            argv = ["durable", action, durable_store]
            if action == "query":
                argv.append("//first")
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "missing" in err

    def test_degraded_store_prints_the_runbook_hint(
            self, durable_store, capsys, monkeypatch):
        from repro.storage.durable import DurableXml, StoreDegraded

        def refuse(cls, *args, **kwargs):
            raise StoreDegraded(
                f"{durable_store}: store is read-only (degraded): boom")

        monkeypatch.setattr(DurableXml, "open", classmethod(refuse))
        assert main(["durable", "status", durable_store]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "read-only (degraded)" in err
        assert "durable scrub --repair" in err
