"""Query-then-update on a live compressed document -- no decompression.

The read side of the system: ``select`` evaluates a label path directly
on the grammar (child/descendant axes, wildcards, positional
predicates), returning document-order element indices -- the same
coordinate space every update takes.  The quickstart loop below is the
intended workflow: select the hits, batch-update them, select again.
``subtree_xml`` extracts one match's subtree by partial derivation, and
``count``/``tags``/``parent_of``/``children`` round out the navigation
API.  Throughout, the document is never decompressed.

Run with::

    python examples/query.py
"""

import time

from repro import CompressedXml


def build_log(entries: int = 5000) -> str:
    parts = ["<log>"]
    for index in range(entries):
        status = "<error/>" if index % 617 == 0 else "<status/>"
        parts.append(f"<entry><ip/><ts/><request/>{status}</entry>")
    parts.append("</log>")
    return "".join(parts)


def main() -> None:
    doc = CompressedXml.from_xml(build_log(), auto_recompress_factor=2.0)
    print(f"document: {doc.element_count} elements, "
          f"grammar {doc.compressed_size} edges")

    # -- select: label paths evaluated on the grammar ------------------
    started = time.perf_counter()
    errors = doc.select("//error")
    elapsed_ms = 1000 * (time.perf_counter() - started)
    print(f"select('//error'): {len(errors)} matches in {elapsed_ms:.2f} ms "
          f"(indices {errors[:4]}...)")
    print(f"count('/log/entry') = {doc.count('/log/entry')}")
    print(f"third entry's children: "
          f"{[doc.tag_of(i) for i in doc.children(doc.select('/log/entry[3]')[0])]}")

    # -- extract one hit's subtree by partial derivation ---------------
    parent = doc.parent_of(errors[0])
    print(f"first error sits at depth {doc.depth_of(errors[0])} "
          f"inside a <{doc.tag_of(parent)}>:")
    print(f"  {doc.subtree_xml(parent)}")

    # -- the quickstart loop: select -> batch-update the hits ----------
    with doc.batch() as batch:
        for index in errors:
            batch.rename(index, "error-seen")
    print(f"renamed {len(errors)} hits in one batch "
          f"({batch.stats.inlined_rules} rule inlines)")

    # -- select again: the indexes were maintained, not rebuilt -------
    print(f"select('//error') now: {doc.select('//error')}")
    print(f"select('//error-seen'): {len(doc.select('//error-seen'))} matches")
    index = doc.index
    print(f"label censuses: {index.wholesale_invalidations} wholesale "
          f"invalidations, {index.censuses_evicted} per-rule evictions")


if __name__ == "__main__":
    main()
