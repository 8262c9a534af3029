"""Batched updates on a live document -- bursts as one program.

Real update traffic arrives in bursts that hit nearby parts of the
document: a feed prepends a block of entries, a sweep relabels a section,
a purge drops a range.  ``CompressedXml.apply_batch`` -- or the
``with doc.batch()`` builder -- runs the burst as the sequential
composition of the same spliced single ops the one-at-a-time API runs
(each op *means* what it would mean in a sequential loop), under one
writer lock, and settles the maintenance policy (reshard +
auto-recompression check) once at the end instead of after every op.

Run with::

    python examples/batch_updates.py
"""

import random
import time

from repro import CompressedXml
from repro.trees.unranked import XmlNode
from repro.updates.workload import generate_clustered_element_ops


def build_feed(entries: int = 3000) -> str:
    parts = ["<feed><meta/><title/>"]
    for index in range(entries):
        extra = "<gps/>" if index % 9 == 0 else ""
        parts.append(
            f"<entry><ts/><user/><request><path/>{extra}</request></entry>"
        )
    parts.append("</feed>")
    return "".join(parts)


def main() -> None:
    page = build_feed()
    sequential = CompressedXml.from_xml(page, auto_recompress_factor=2.0)
    batched = CompressedXml.from_xml(page, auto_recompress_factor=2.0)
    print(f"feed: {sequential.element_count} elements, "
          f"grammar {sequential.compressed_size} edges")

    # The explicit builder, for hand-written bursts.  Sequential
    # semantics: delete(4) addresses the document as the first two
    # operations leave it.
    with batched.batch() as burst:
        burst.rename(2, "headline")
        burst.insert(3, XmlNode("pinned", [XmlNode("ts"), XmlNode("user")]))
        burst.delete(8)
        burst.append_child(0, XmlNode("trailer"))
    sequential.rename(2, "headline")
    sequential.insert(3, XmlNode("pinned", [XmlNode("ts"), XmlNode("user")]))
    sequential.delete(8)
    sequential.append_child(0, XmlNode("trailer"))
    print(f"hand burst: {burst.stats.inlined_rules} rule inlines for "
          f"{burst.stats.operations} ops")

    # Generated clustered bursts, the benchmark workload, timed both ways.
    rng = random.Random(7)
    rounds, per_round = 6, 60
    seq_s = bat_s = 0.0
    for _ in range(rounds):
        ops = generate_clustered_element_ops(
            batched.element_count, per_round, rng=rng
        )
        started = time.perf_counter()
        for op in ops:
            kind = type(op).__name__
            if kind == "BatchRename":
                sequential.rename(op.index, op.new_tag)
            elif kind == "BatchInsert":
                sequential.insert(op.index, list(op.content))
            elif kind == "BatchAppend":
                sequential.append_child(op.parent_index, list(op.content))
            else:
                sequential.delete(op.index)
        seq_s += time.perf_counter() - started
        started = time.perf_counter()
        batched.apply_batch(ops)
        bat_s += time.perf_counter() - started

    assert batched.to_xml() == sequential.to_xml()
    print(f"\n{rounds * per_round} clustered ops, both documents equal:")
    print(f"sequential loop: {seq_s:.3f}s, "
          f"{sequential.rules_inlined_total} rule inlines, "
          f"{sequential.recompress_runs} recompressions")
    print(f"batched bursts:  {bat_s:.3f}s, "
          f"{batched.rules_inlined_total} rule inlines, "
          f"{batched.recompress_runs} recompressions")


if __name__ == "__main__":
    main()
