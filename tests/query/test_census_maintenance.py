"""The label censuses are maintained under update traffic, never rebuilt.

Rounds of mixed updates -- renames moving the queried label around,
inserts, appends, deletes, with ``auto_recompress_factor=2`` so
incremental recompressions interleave -- each followed by queries.  The
engine must answer like :func:`~repro.query.naive.naive_select` on the
decompressed document after every round, and the index counters must
show maintenance: per-rule census evictions, no wholesale invalidation,
and fewer rules re-censused than one census rebuild per round.
"""

import random

from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.query.naive import naive_select
from repro.trees.unranked import XmlNode

NEEDLE = "alert"
QUERY = f"//{NEEDLE}"
ROUNDS = 2


def apply_traffic(doc, rng, ops):
    """One burst of mixed updates; some move the needle label around."""
    for _ in range(ops):
        count = doc.element_count
        kind = rng.random()
        index = rng.randrange(1, count)
        if kind < 0.35:
            tag = NEEDLE if rng.random() < 0.33 else f"t{rng.randrange(8)}"
            doc.rename(index, tag)
        elif kind < 0.6:
            doc.insert(index, XmlNode(f"t{rng.randrange(8)}"))
        elif kind < 0.8:
            doc.append_child(index, XmlNode(f"t{rng.randrange(8)}"))
        elif count > 2:
            doc.delete(index)


def test_censuses_are_maintained_not_rebuilt():
    rng = random.Random(42)
    doc = CompressedXml.from_document(
        make_corpus("EXI-Weblog", edges=2_000, seed=42),
        auto_recompress_factor=2.0)
    for _ in range(8):
        doc.rename(rng.randrange(1, doc.element_count), NEEDLE)
    index = doc.index
    doc.count(QUERY)  # warm the census once; maintenance is measured
    initial = index.rules_censused
    for _ in range(ROUNDS):
        apply_traffic(doc, rng, 10)
        for _ in range(5):
            matches = doc.select(QUERY)
        assert matches == naive_select(doc.to_document(), QUERY)
    assert doc.select("/log/entry") == \
        naive_select(doc.to_document(), "/log/entry")
    assert doc.recompress_runs >= 1  # recompressions did interleave
    assert index.wholesale_invalidations == 0
    assert index.censuses_evicted > 0  # the index saw the traffic
    assert index.rules_censused - initial < len(doc.grammar.rules) * ROUNDS
