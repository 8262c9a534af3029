"""Macro-benchmark: grammar-native queries vs decompress-then-walk.

Quantifies the PR-4 tentpole: before the query subsystem, any read beyond
``tag_of``/``tags`` meant full decompression (``to_document()``) followed
by a tree walk -- ``O(N)`` per query plus the materialization.  The
grammar-native engine evaluates the same label path directly on the
derivation, skipping every subtree whose label census is zero in O(1)
via the per-rule censuses :class:`~repro.grammar.index.GrammarIndex`
keeps beside its segments (as per-position counts on the rule packs), so
a *selective* descendant query costs ``O(matches · depth · rule-width)``.

The headline number, though, is the *index-maintenance* story under
interleaved update traffic: each round applies a burst of updates
(renames moving the queried label around, inserts, appends, deletes;
``auto_recompress_factor=2`` so incremental recompressions interleave)
and then queries.  The censuses must be *maintained* -- per-rule
evictions through the observer channel, lazy scoped recomputes -- never
rebuilt: the eviction counters assert ``wholesale_invalidations == 0``
and that the rules re-censused during the traffic phase stay far below
the rebuild-per-round volume.  Every round also cross-checks the engine's
result set against the naive evaluation, so the timings compare equal
answers.

Results are printed and written to ``BENCH_query.json`` at the repo root
as the machine-readable perf baseline for future PRs.

Run directly (``PYTHONPATH=src python benchmarks/bench_query.py``) for
the full scale -- EXI-Weblog at 50k edges -- which asserts >= 10x
per-query speedup for the selective descendant query; ``--smoke`` (the
CI job) runs a tiny scale and asserts the JSON schema, engine/naive
agreement, and the maintenance counters.  Like all ``bench_*`` modules
it is collected by pytest only via an explicit path.
"""

import json
import os
import random
import sys
import time

from repro.api import CompressedXml
from repro.obs.metrics import summarize_latencies
from repro.query.naive import naive_select
from repro.trees.unranked import XmlNode

FULL_SCALE = {
    "edges": 50_000,
    "rounds": 5,
    "updates_per_round": 40,
    "engine_queries_per_round": 20,
    "naive_queries_per_round": 2,
}
SMOKE_SCALE = {
    "edges": 2_000,
    "rounds": 2,
    "updates_per_round": 10,
    "engine_queries_per_round": 5,
    "naive_queries_per_round": 1,
}
AUTO_FACTOR = 2.0
SEED = 42
#: The selective label: planted on a handful of elements, then moved
#: around by the traffic -- the census-pruning best case the paper-level
#: claim is about.  "//status" (one per entry) is the non-selective
#: contrast also reported.
NEEDLE = "alert"
QUERY = f"//{NEEDLE}"
BROAD_QUERY = "/log/entry"

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_query.json"
)


def make_doc(edges, seed=SEED):
    from repro.datasets.synthetic import make_corpus

    return CompressedXml.from_document(
        make_corpus("EXI-Weblog", edges=edges, seed=seed),
        auto_recompress_factor=AUTO_FACTOR,
    )


def plant_needles(doc, rng, count=8):
    for _ in range(count):
        doc.rename(rng.randrange(1, doc.element_count), NEEDLE)


def apply_traffic(doc, rng, ops):
    """One burst of mixed updates; some move the needle label around."""
    for _ in range(ops):
        count = doc.element_count
        kind = rng.random()
        index = rng.randrange(1, count)
        if kind < 0.35:
            # Rename: one in three touches the queried label itself.
            tag = NEEDLE if rng.random() < 0.33 else f"t{rng.randrange(8)}"
            doc.rename(index, tag)
        elif kind < 0.6:
            doc.insert(index, XmlNode(f"t{rng.randrange(8)}"))
        elif kind < 0.8:
            doc.append_child(index, XmlNode(f"t{rng.randrange(8)}"))
        elif count > 2:
            doc.delete(index)


def run(edges, rounds, updates_per_round, engine_queries_per_round,
        naive_queries_per_round, smoke=False):
    rng = random.Random(SEED)
    doc = make_doc(edges)
    print(f"workload: EXI-Weblog {edges} edges, {rounds} rounds of "
          f"{updates_per_round} updates + queries ({QUERY!r}), "
          f"auto_recompress_factor={AUTO_FACTOR}")

    plant_needles(doc, rng)
    index = doc.index
    doc.count(QUERY)  # warm the census once; maintenance is what we measure
    initial_census = index.rules_censused

    engine_s = naive_s = 0.0
    engine_queries = naive_queries = 0
    engine_samples = []
    naive_samples = []
    matches = []
    for _ in range(rounds):
        apply_traffic(doc, rng, updates_per_round)

        for _ in range(engine_queries_per_round):
            started = time.perf_counter()
            matches = doc.select(QUERY)
            engine_samples.append(time.perf_counter() - started)
        engine_s += sum(engine_samples[-engine_queries_per_round:])
        engine_queries += engine_queries_per_round

        for _ in range(naive_queries_per_round):
            started = time.perf_counter()
            naive_matches = naive_select(doc.to_document(), QUERY)
            naive_samples.append(time.perf_counter() - started)
        naive_s += sum(naive_samples[-naive_queries_per_round:])
        naive_queries += naive_queries_per_round

        # Equal answers or the timing comparison is meaningless.
        assert matches == naive_matches, \
            "grammar-native select diverged from the decompressed walk"

    broad_engine = doc.select(BROAD_QUERY)
    assert broad_engine == naive_select(doc.to_document(), BROAD_QUERY)

    engine_ms = 1000.0 * engine_s / engine_queries
    naive_ms = 1000.0 * naive_s / naive_queries
    speedup = naive_ms / engine_ms if engine_ms else float("inf")
    maintenance_census = index.rules_censused - initial_census
    rules_now = len(doc.grammar.rules)
    rebuild_volume = rules_now * rounds  # what rebuild-per-round would cost
    cached_fraction = (
        index.censused_rule_count / rules_now if rules_now else 1.0
    )

    print(f"  engine : {engine_ms:8.3f} ms/query over {engine_queries} "
          f"queries ({len(matches)} matches of {doc.element_count} elements)")
    print(f"  naive  : {naive_ms:8.3f} ms/query over {naive_queries} "
          f"queries (to_document + walk)")
    print(f"  speedup: {speedup:.1f}x per query")
    print(f"  maintenance: {maintenance_census} rules re-censused across "
          f"{rounds} rounds ({rules_now} rules, {doc.recompress_runs} "
          f"recompressions interleaved), "
          f"{index.wholesale_invalidations} wholesale invalidations")

    report = {
        "benchmark": "bench_query",
        "workload": {
            "corpus": "EXI-Weblog",
            "edges": edges,
            "rounds": rounds,
            "updates_per_round": updates_per_round,
            "auto_recompress_factor": AUTO_FACTOR,
            "seed": SEED,
            "smoke": smoke,
        },
        "query": {
            "path": QUERY,
            "matches_final": len(matches),
            "element_count_final": doc.element_count,
            "broad_path": BROAD_QUERY,
            "broad_matches_final": len(broad_engine),
        },
        "engine": {
            "total_s": round(engine_s, 4),
            "queries": engine_queries,
            "per_query_ms": round(engine_ms, 4),
            "latency": summarize_latencies(engine_samples),
        },
        "naive": {
            "total_s": round(naive_s, 4),
            "queries": naive_queries,
            "per_query_ms": round(naive_ms, 4),
            "latency": summarize_latencies(naive_samples),
        },
        "maintenance": {
            "label_rules_censused_initial": initial_census,
            "label_rules_censused_maintenance": maintenance_census,
            "label_rules_rebuild_volume": rebuild_volume,
            "label_wholesale_invalidations": index.wholesale_invalidations,
            "grammar_wholesale_invalidations": index.wholesale_invalidations,
            "label_evicted_rules": index.censuses_evicted,
            "label_cached_rule_fraction_final": round(cached_fraction, 4),
            "grammar_rules_final": rules_now,
            "recompress_runs": doc.recompress_runs,
            "updates_applied": doc.updates_applied,
        },
        "speedup": {
            "per_query": round(speedup, 2),
        },
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(JSON_PATH)}")
    return report


def check_schema(report):
    """The machine-readable contract future PRs regress against."""
    for section in ("workload", "query", "engine", "naive", "maintenance",
                    "speedup"):
        assert section in report, f"missing section {section!r}"
    for key in ("total_s", "queries", "per_query_ms", "latency"):
        assert key in report["engine"], f"missing engine {key!r}"
        assert key in report["naive"], f"missing naive {key!r}"
    for variant in ("engine", "naive"):
        for key in ("count", "p50_ms", "p95_ms", "p99_ms"):
            assert key in report[variant]["latency"], \
                f"{variant}: missing latency {key!r}"
        assert report[variant]["latency"]["count"] > 0
    for key in ("label_rules_censused_initial",
                "label_rules_censused_maintenance",
                "label_rules_rebuild_volume",
                "label_wholesale_invalidations",
                "label_evicted_rules",
                "label_cached_rule_fraction_final",
                "grammar_rules_final",
                "recompress_runs"):
        assert key in report["maintenance"], f"missing maintenance {key!r}"
    assert "per_query" in report["speedup"]


def check_maintenance(report):
    """The label censuses must be maintained, never rebuilt.

    * no wholesale invalidation, ever -- in particular the interleaved
      incremental recompressions must not reset the index;
    * per-rule evictions really fired (the index did *see* the traffic);
    * the lazily re-censused volume stays below what one full rebuild per
      round would have cost, so maintenance beats recomputation.
    """
    maintenance = report["maintenance"]
    assert maintenance["label_wholesale_invalidations"] == 0, \
        "something wholesale-invalidated the label censuses"
    assert maintenance["grammar_wholesale_invalidations"] == 0, \
        "something wholesale-invalidated the structural GrammarIndex"
    assert maintenance["recompress_runs"] >= 1, \
        "the workload was meant to interleave recompressions"
    assert maintenance["label_evicted_rules"] > 0, \
        "no evictions -- the index cannot have observed the updates"
    assert maintenance["label_rules_censused_maintenance"] < \
        maintenance["label_rules_rebuild_volume"], (
            "label census recomputation reached rebuild-per-round volume"
        )


def check_speedup(report, min_speedup=10.0):
    """The acceptance bound: >= 10x per selective query at full scale."""
    assert report["speedup"]["per_query"] >= min_speedup, (
        f"grammar-native select only {report['speedup']['per_query']:.1f}x "
        f"faster than decompress-then-walk (required >= {min_speedup}x)"
    )


def test_query_smoke():
    """Entry point at a CI-friendly scale (explicit-path pytest runs)."""
    report = run(smoke=True, **SMOKE_SCALE)
    check_schema(report)
    check_maintenance(report)


if __name__ == "__main__":
    try:
        from benchmarks._common import maybe_profile
    except ImportError:  # run directly: benchmarks/ itself is sys.path[0]
        from _common import maybe_profile

    smoke = "--smoke" in sys.argv
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    with maybe_profile("bench_query"):
        report = run(smoke=smoke, **scale)
    check_schema(report)
    check_maintenance(report)
    if not smoke:
        check_speedup(report)
        print("bounds ok: >= 10x per-query speedup for the selective "
              "descendant query, answers equal to the decompressed walk, "
              "censuses maintained (zero wholesale invalidations) across "
              "interleaved updates and recompressions")
    else:
        print("smoke ok: schema valid, engine agrees with the decompressed "
              "walk, censuses maintained without wholesale invalidation")
