"""MVCC benchmark: pinned-reader latency under write traffic, and
durable commits from one thread vs N threads.

Two measurements on the EXI-Weblog synthetic corpus:

1. **Readers don't block.**  A reader that pins a snapshot and
   navigates it sees the same p50/p99 latency whether or not a writer
   is concurrently committing rename batches -- the writer publishes
   new epochs while the reader's view stays glued to its pinned one,
   and neither waits for the other beyond the microseconds of the
   version lock.  Both distributions are reported; the contended p99
   must stay within an order of magnitude of quiet.

2. **N writers share the one commit path without losing work.**  The
   same total of rename-only batches goes through ``DurableXml`` once
   from a single thread and once from N threads on disjoint element
   ranges.  Every commit holds the store's commit lock across WAL
   append, fsync and apply, so N threads cannot overlap their fsyncs;
   the ratio (1-thread wall / N-thread wall) shows what the lock
   hand-off costs, next to the fsync probe that sets the floor.  Both
   documents must equal the sequential in-memory oracle, and at full
   scale N threads may not take more than twice the 1-thread wall.

The whole run also asserts **zero wholesale index invalidations** --
MVCC epoch traffic, snapshot pins, and durable commits must never
reset the live document's persistent indexes.

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
    across the warmed (sharded) tail."""
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
# section 2: one commit path, from 1 thread and from N threads
# ----------------------------------------------------------------------
def fsync_probe_ms(directory, samples=50):
    """Median of ``samples`` x (4 KiB append + fsync) in ``directory``:
    the floor under every durable commit on this filesystem."""
    path = os.path.join(directory, "fsync.probe")
    timings = []
    with open(path, "ab") as handle:
        for _ in range(samples):
            started = time.perf_counter()
            handle.write(b"\0" * 4096)
            handle.flush()
            os.fsync(handle.fileno())
            timings.append(time.perf_counter() - started)
    os.remove(path)
    return percentile(timings, 0.50) * 1e3


def commit_batches(directory, edges, batches, writers, threaded):
    """Commit ``batches`` rename batches per writer range through one
    durable store, from one thread or (``threaded``) one thread per
    range; returns ``(wall_s, xml, wholesale_invalidations)``."""
    store = DurableXml.create(directory, make_doc(edges),
                              checkpoint_wal_bytes=10 ** 9)
    with store:
        ranges = writer_ranges(store.document, writers)
        errors = []

        def write(owned):
            try:
                for stamp in range(batches):
                    for indexes in owned:
                        store.apply_batch(rename_batch(indexes, stamp))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        parts = [[r] for r in ranges] if threaded else [ranges]
        workers = [threading.Thread(target=write, args=(owned,),
                                    daemon=True) for owned in parts]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wall = time.perf_counter() - started
        assert errors == [], errors
        return (wall, store.to_xml(),
                store.document.index.wholesale_invalidations)


def run_commits(edges, batches, writers, tmp):
    total = batches * writers
    oracle = make_doc(edges)
    for stamp in range(batches):
        for indexes in writer_ranges(oracle, writers):
            oracle.apply_batch(rename_batch(indexes, stamp))
    expected = oracle.to_xml()

    one_s, one_xml, one_wholesale = commit_batches(
        os.path.join(tmp, "one"), edges, batches, writers, threaded=False)
    n_s, n_xml, n_wholesale = commit_batches(
        os.path.join(tmp, "n"), edges, batches, writers, threaded=True)
    assert one_xml == expected, "1-thread commits diverged from the oracle"
    assert n_xml == expected, "N-thread commits diverged from the oracle"
    result = {
        "writers": writers,
        "batches_per_writer": batches,
        "total_batches": total,
        "ops_per_batch": OPS_PER_BATCH,
        "one_writer_s": one_s,
        "n_writers_s": n_s,
        "ratio": one_s / n_s,
        "fsync_probe_ms": fsync_probe_ms(tmp),
        "grammar_index_wholesale": one_wholesale + n_wholesale,
    }
    print(f"  commits   : {total} batches x {OPS_PER_BATCH} renames: "
          f"1 thread {one_s:.3f}s vs {writers} threads {n_s:.3f}s "
          f"-> {result['ratio']:.2f}x (fsync probe "
          f"{result['fsync_probe_ms']:.2f} ms)")
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
        report["commits"] = run_commits(edges, batches, writers, tmp)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.abspath(JSON_PATH)}")
    return report


def check_schema(report):
    """The machine-readable contract future PRs regress against."""
    for section in ("workload", "latency", "commits"):
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
                "ops_per_batch", "one_writer_s", "n_writers_s", "ratio",
                "fsync_probe_ms", "grammar_index_wholesale"):
        assert key in report["commits"], f"missing commits {key!r}"


def check_invariants(report):
    """Asserted at every scale, smoke included."""
    latency = report["latency"]
    commits = report["commits"]
    assert latency["grammar_index_wholesale"] == 0, \
        "MVCC read/write traffic reset the grammar index wholesale"
    assert latency["label_index_wholesale"] == 0, \
        "MVCC read/write traffic reset the label index wholesale"
    assert commits["grammar_index_wholesale"] == 0, \
        "durable commits reset the grammar index wholesale"
    assert latency["writer_batches_during_contended"] > 0, \
        "the contended measurement never saw a concurrent batch"


def check_ratio(report, min_ratio=0.5):
    """Full-scale only: N threads on the one commit path may queue on
    its lock, but not take more than twice the 1-thread wall."""
    measured = report["commits"]["ratio"]
    assert measured >= min_ratio, (
        f"{report['commits']['writers']} writer threads took "
        f"{1 / measured:.2f}x the 1-thread wall (limit {1 / min_ratio:.1f}x)"
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
        check_ratio(report)
        print("bounds ok: zero wholesale invalidations, N-thread wall "
              "within 2x of 1 thread, both equal to the oracle")
    else:
        print("smoke ok: schema valid, zero wholesale invalidations, "
              "1-thread and N-thread documents equal to the oracle")
