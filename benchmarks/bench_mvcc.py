"""MVCC benchmark: pinned-reader latency under write traffic, and
disjoint-shard group-commit throughput.

Two claims, measured on the EXI-Weblog synthetic corpus:

1. **Readers don't block.**  A reader that pins a snapshot and
   navigates it sees the same p50/p99 latency whether or not a writer
   is concurrently committing rename batches -- the writer publishes
   new epochs while the reader's view stays glued to its pinned one,
   and neither waits for the other beyond the microseconds of the
   version lock.  Both distributions are reported; the contended p99
   must stay within an order of magnitude of quiet.

2. **Disjoint-shard commits overlap their durability.**  Through the
   durable layer in group-commit mode, N writer threads committing
   rename-only batches to pairwise-disjoint shards overlap the fsyncs
   that dominate commit latency; the same total work through the
   serial fsync-per-commit path is the baseline.  The speedup must
   exceed 1.3x at full scale while every batch still lands atomically
   (the final document equals the sequential oracle's).

The whole run also asserts **zero wholesale index invalidations** --
MVCC epoch traffic, snapshot pins, and group commits must never reset
the live document's persistent indexes.

Writes ``BENCH_mvcc.json`` (machine-readable; CI smoke-checks it).
"""

import json
import os
import random
import sys
import tempfile
import threading
import time

from repro.api import CompressedXml
from repro.obs.metrics import summarize_latencies
from repro.storage.durable import DurableXml
from repro.trees.unranked import XmlNode
from repro.updates.batch import BatchRename

SMOKE_SCALE = {"edges": 2_000, "reads": 80, "batches": 6, "writers": 2}
FULL_SCALE = {"edges": 50_000, "reads": 400, "batches": 24, "writers": 4}
SHARD_WIDTH = 64
OPS_PER_BATCH = 6  # rename-only, mid-sized per the update-stream model
SEED = 42

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_mvcc.json"
)


WARM_APPENDS = 6 * SHARD_WIDTH
ENTRY_TAGS = ("ip", "user", "ts", "req", "status", "bytes", "ref")


def make_doc(edges):
    """Build the corpus and grow a sharded tail.

    A freshly compressed EXI-Weblog document has a tiny spine (the
    repetitive log collapses into a few rules) and therefore *no*
    shards; the hierarchy only materializes under update traffic.  The
    warm-up appends varied records at the root until the spine splits,
    which is the regime the concurrency claims are about -- a document
    that has been absorbing a write stream.
    """
    from repro.datasets.synthetic import make_corpus

    doc = CompressedXml.from_document(
        make_corpus("EXI-Weblog", edges=edges, seed=SEED),
        shard_width=SHARD_WIDTH,
    )
    rng = random.Random(SEED + 1)
    for _ in range(WARM_APPENDS):
        kids = [XmlNode(rng.choice(ENTRY_TAGS))
                for _ in range(rng.randint(1, 4))]
        doc.append_child(0, XmlNode(rng.choice(("entry", "audit")), kids))
    assert doc.shard_manager.shard_count >= 2, \
        "warm-up did not shard the spine; raise WARM_APPENDS"
    return doc


def percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def sample_indexes(element_count, n=16):
    """Evenly spread element indexes (stable under renames)."""
    step = max(1, element_count // (n + 1))
    return [min(element_count - 1, 1 + i * step) for i in range(n)]


def writer_ranges(doc, writers):
    """Pairwise-distant contiguous index ranges, one per writer, spread
    across the warmed (sharded) tail so they land on disjoint shards."""
    count = doc.element_count
    tail = min(count - 1, WARM_APPENDS * 3)  # the appended records
    span = tail // writers
    ranges = []
    for writer in range(writers):
        start = count - tail + writer * span + span // 2
        ranges.append(range(start, start + OPS_PER_BATCH))
    return ranges


def rename_batch(indexes, stamp):
    return [BatchRename(index, f"mv{stamp}") for index in indexes]


# ----------------------------------------------------------------------
# section 1: snapshot-reader latency, quiet vs contended
# ----------------------------------------------------------------------
def measure_reads(doc, reads):
    indexes = sample_indexes(doc.element_count)
    latencies = []
    for _ in range(reads):
        started = time.perf_counter()
        with doc.snapshot() as view:
            for index in indexes:
                view.tag_of(index)
                view.first_child(index)
            view.count("/" + view.tag_of(0))
        latencies.append(time.perf_counter() - started)
    return latencies


def run_latency(edges, reads, writers):
    doc = make_doc(edges)
    quiet = measure_reads(doc, reads)

    ranges = writer_ranges(doc, writers)
    stop = threading.Event()
    committed = [0]

    def write():
        stamp = 0
        while not stop.is_set():
            for indexes in ranges:
                doc.apply_batch(rename_batch(indexes, stamp))
            committed[0] += len(ranges)
            stamp += 1

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    try:
        contended = measure_reads(doc, reads)
    finally:
        stop.set()
        thread.join()

    assert doc.mvcc_info()["pinned_snapshots"] == 0
    result = {
        "reads": reads,
        "writer_batches_during_contended": committed[0],
        "quiet_p50_us": percentile(quiet, 0.50) * 1e6,
        "quiet_p99_us": percentile(quiet, 0.99) * 1e6,
        "contended_p50_us": percentile(contended, 0.50) * 1e6,
        "contended_p99_us": percentile(contended, 0.99) * 1e6,
        "quiet": summarize_latencies(quiet),
        "contended": summarize_latencies(contended),
        "grammar_index_wholesale": doc.index.wholesale_invalidations,
        "label_index_wholesale": doc.label_index.to_dict()[
            "wholesale_invalidations"],
    }
    print(f"  reads     : quiet p50 {result['quiet_p50_us']:.0f}us "
          f"p99 {result['quiet_p99_us']:.0f}us | contended p50 "
          f"{result['contended_p50_us']:.0f}us p99 "
          f"{result['contended_p99_us']:.0f}us "
          f"({committed[0]} batches alongside)")
    return result


# ----------------------------------------------------------------------
# section 2: group-commit speedup on disjoint shards
# ----------------------------------------------------------------------
def build_store(directory, edges, group_commit):
    return DurableXml.create(
        directory, make_doc(edges), group_commit=group_commit,
        checkpoint_wal_bytes=10 ** 9,
    )


def run_speedup(edges, batches, writers, tmp):
    total = batches * writers

    # Baseline: the serial fsync-per-commit path, same total work.
    with build_store(os.path.join(tmp, "serial"), edges, False) as store:
        ranges = writer_ranges(store.document, writers)
        started = time.perf_counter()
        for stamp in range(batches):
            for indexes in ranges:
                store.apply_batch(rename_batch(indexes, stamp))
        serial_s = time.perf_counter() - started
        serial_xml = store.to_xml()

    # Contender: N threads, disjoint shards, pipelined group commit.
    with build_store(os.path.join(tmp, "group"), edges, True) as store:
        ranges = writer_ranges(store.document, writers)
        heads = [store.document.shard_heads_for(rename_batch(r, 0))
                 for r in ranges]
        distinct = set()
        for head_set in heads:
            distinct.update(head_set)
        disjoint = all(
            heads[i].isdisjoint(heads[j])
            for i in range(writers) for j in range(i + 1, writers)
        )
        errors = []

        def write(indexes):
            try:
                for stamp in range(batches):
                    store.apply_batch(rename_batch(indexes, stamp))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=write, args=(r,), daemon=True)
                   for r in ranges]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        group_s = time.perf_counter() - started
        assert errors == [], errors
        group_xml = store.to_xml()
        wholesale = store.document.index.wholesale_invalidations

    assert group_xml == serial_xml, \
        "group-commit run diverged from the serial oracle"
    result = {
        "writers": writers,
        "batches_per_writer": batches,
        "total_batches": total,
        "ops_per_batch": OPS_PER_BATCH,
        "distinct_shards": len(distinct),
        "disjoint": disjoint,
        "serial_s": serial_s,
        "group_s": group_s,
        "speedup": serial_s / group_s,
        "grammar_index_wholesale": wholesale,
    }
    print(f"  commits   : {total} batches x {OPS_PER_BATCH} renames, "
          f"{writers} writers on {len(distinct)} shards "
          f"(disjoint={disjoint}): serial {serial_s:.3f}s vs group "
          f"{group_s:.3f}s -> {result['speedup']:.2f}x")
    return result


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def run(edges, reads, batches, writers, smoke=False):
    print(f"workload: EXI-Weblog {edges} edges, shard width "
          f"W={SHARD_WIDTH}, {writers} writers")
    report = {
        "workload": {
            "dataset": "EXI-Weblog",
            "edges": edges,
            "shard_width": SHARD_WIDTH,
            "smoke": smoke,
        },
        "latency": run_latency(edges, reads, writers),
    }
    with tempfile.TemporaryDirectory() as tmp:
        report["speedup"] = run_speedup(edges, batches, writers, tmp)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.abspath(JSON_PATH)}")
    return report


def check_schema(report):
    """The machine-readable contract future PRs regress against."""
    for section in ("workload", "latency", "speedup"):
        assert section in report, f"missing section {section!r}"
    for key in ("reads", "quiet_p50_us", "quiet_p99_us",
                "contended_p50_us", "contended_p99_us",
                "quiet", "contended",
                "writer_batches_during_contended",
                "grammar_index_wholesale", "label_index_wholesale"):
        assert key in report["latency"], f"missing latency {key!r}"
    for variant in ("quiet", "contended"):
        for key in ("count", "p50_ms", "p95_ms", "p99_ms"):
            assert key in report["latency"][variant], \
                f"{variant}: missing latency {key!r}"
        assert report["latency"][variant]["count"] > 0
    for key in ("writers", "batches_per_writer", "total_batches",
                "ops_per_batch", "distinct_shards", "disjoint",
                "serial_s", "group_s", "speedup",
                "grammar_index_wholesale"):
        assert key in report["speedup"], f"missing speedup {key!r}"


def check_invariants(report):
    """Asserted at every scale, smoke included."""
    latency = report["latency"]
    speedup = report["speedup"]
    assert latency["grammar_index_wholesale"] == 0, \
        "MVCC read/write traffic reset the grammar index wholesale"
    assert latency["label_index_wholesale"] == 0, \
        "MVCC read/write traffic reset the label index wholesale"
    assert speedup["grammar_index_wholesale"] == 0, \
        "group commits reset the grammar index wholesale"
    assert latency["writer_batches_during_contended"] > 0, \
        "the contended measurement never saw a concurrent batch"
    assert speedup["distinct_shards"] >= 2, (
        f"writers resolved to {speedup['distinct_shards']} shard(s); "
        "the speedup claim needs >= 2 disjoint shards"
    )
    assert speedup["disjoint"], \
        "writer ranges overlapped on a shard; pick wider spacing"


def check_speedup(report, min_ratio=1.3):
    """Full-scale only: the acceptance bar for pipelined group commit."""
    measured = report["speedup"]["speedup"]
    assert measured > min_ratio, (
        f"disjoint-shard group commit reached only {measured:.2f}x "
        f"over the serial path (need > {min_ratio}x)"
    )


def test_mvcc_smoke():
    """Entry point at a CI-friendly scale (explicit-path pytest runs)."""
    report = run(smoke=True, **SMOKE_SCALE)
    check_schema(report)
    check_invariants(report)


if __name__ == "__main__":
    try:
        from benchmarks._common import maybe_profile
    except ImportError:  # run directly: benchmarks/ itself is sys.path[0]
        from _common import maybe_profile

    smoke = "--smoke" in sys.argv
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    with maybe_profile("bench_mvcc"):
        report = run(smoke=smoke, **scale)
    check_schema(report)
    check_invariants(report)
    if not smoke:
        check_speedup(report)
        print("bounds ok: zero wholesale invalidations, >= 2 disjoint "
              "shards, group-commit speedup above 1.3x")
    else:
        print("smoke ok: schema valid, zero wholesale invalidations, "
              "documents identical across commit paths")
