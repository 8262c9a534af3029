"""Spine sharding: sustained tail appends with a bounded start rule.

Without a width budget, every update would inline into the one start
rule, so its right-hand side -- and the per-update isolation and
index-recompute work -- would grow with the whole update history.  Every
document keeps the accumulated mass in a balanced hierarchy of shard
rules instead, at ``shard_width=W`` (default 256); this walkthrough
appends a few thousand varied log records to a width-64 document and to
a default-width one and prints the widths, shard statistics, and that
the documents stay byte-identical.

Run with ``PYTHONPATH=src python examples/sharded_spine.py``.
"""

import random

from repro.api import CompressedXml
from repro.trees.unranked import XmlNode

TAGS = ("ip", "user", "ts", "req", "status", "bytes", "ref", "agent")


def record(rng):
    kids = [XmlNode(rng.choice(TAGS)) for _ in range(rng.randint(1, 4))]
    return XmlNode(rng.choice(("entry", "event")), kids)


def main():
    xml = "<log>" + "<entry><ip/><ts/></entry>" * 300 + "</log>"
    narrow = CompressedXml.from_xml(
        xml, auto_recompress_factor=2.0, shard_width=64
    )
    default = CompressedXml.from_xml(xml, auto_recompress_factor=2.0)

    for doc in (narrow, default):
        rng = random.Random(7)
        for _ in range(1500):
            doc.append_child(0, record(rng))

    for name, doc in (("width 64", narrow), ("default", default)):
        manager = doc.shard_manager
        print(f"{name:9}: max spine rule {manager.max_spine_width()} RHS "
              f"nodes (budget 2W = {2 * manager.width}), "
              f"{manager.shard_count} shards, reference depth "
              f"{manager.spine_depth()}, {manager.stats.splits} splits / "
              f"{manager.stats.merges} merges")
    print(f"documents identical: {narrow.to_xml() == default.to_xml()}")
    print(f"queries agree      : "
          f"{narrow.count('//entry') == default.count('//entry')} "
          f"({narrow.count('//entry')} entries)")


if __name__ == "__main__":
    main()
