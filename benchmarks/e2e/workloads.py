"""The four ``bench_e2e`` workloads: corpus, document config, op stream.

An op is ``(kind, address, payload)``.  The address is resolved against
the document's element count *at apply time* (:func:`resolve`), so one
stream is valid on any code version and any corpus size:

* a ``float`` fraction ``f`` addresses element ``1 + int(f * (n - 1))``
  -- uniformly random, never the root;
* an ``int`` is a Python-style index: ``0`` is the root, ``-k`` the
  ``k``-th element from the end (the log tail).

Write kinds: ``rename`` (payload: tag), ``insert`` / ``append_child``
(payload: fragment), ``delete``, ``batch`` (payload: tuple of write
ops, resolved against the pre-batch document; every batch here is
renames followed by at most one trailing append, so sequential and
pre-batch indices coincide).  Read kinds: ``tag_of``, ``point``
(``tag_of`` + ``parent_of`` + ``depth_of``), ``nav`` (those three +
``children`` + ``next_sibling``), ``extract`` (``subtree_xml``), ``scan``
(``tags(i, i + 500)``), ``select`` / ``count`` (payload: label path;
the address slot holds the query class used for the ``api.*`` rows).

A fragment is a preorder tuple of ``(tag, depth)`` pairs -- directly the
model's representation; the runner turns it into an ``XmlNode``.

This module imports nothing from ``repro``: it only describes inputs.
"""

import random
from dataclasses import dataclass
from typing import Callable, Optional

WRITE_KINDS = frozenset({"rename", "insert", "append_child", "delete", "batch"})

ENTRY = (("entry", 0), ("ip", 1), ("user", 1), ("ts", 1), ("request", 1),
         ("status", 1), ("bytes", 1))
CONSTITUENTS = (
    (("NP", 0), ("DT", 1), ("NN", 1)),
    (("NP", 0), ("DT", 1), ("JJ", 1), ("NN", 1)),
    (("PP", 0), ("IN", 1), ("NP", 1), ("DT", 2), ("NN", 2)),
    (("VP", 0), ("VBD", 1), ("NP", 1), ("PRP", 2)),
)
BIDDER = (("bidder", 0), ("date", 1), ("increase", 1))

WEBLOG_TAGS = ("alert", "alert", "alert", "seen", "flag", "note")
TREEBANK_TAGS = ("NP", "VP", "NN", "JJ", "X", "EDITED")
XMARK_TAGS = ("featured", "sold", "name", "text")


def resolve(address, element_count):
    """Element index an address denotes in a document of this size."""
    if isinstance(address, float):
        return 1 + int(address * (element_count - 1))
    return element_count + address if address < 0 else address


def _stratified(rng, block, iterations):
    """``iterations`` draws from ``block`` in shuffled whole blocks: the
    mix is exact over every ``len(block)`` draws, only the order and the
    addresses vary with the seed.  (Independent draws would make the
    rare expensive kinds -- 1 nested select in 200 ops -- a Poisson
    count, and the run time with it.)"""
    while iterations > 0:
        shuffled = list(block)
        rng.shuffle(shuffled)
        yield from shuffled[:iterations]
        iterations -= len(block)


#: rename 3 : insert 2 : append_child 1 : delete 1
UPDATE_MIX = ("rename",) * 3 + ("insert",) * 2 + ("append_child", "delete")


def _update(rng, kind, tags, fragments):
    """One single-op update at a uniformly random element."""
    if kind == "rename":
        return (kind, rng.random(), rng.choice(tags))
    if kind == "delete":
        return (kind, rng.random(), None)
    return (kind, rng.random(), rng.choice(fragments))


def weblog_churn(rng, iterations):
    ops = []
    for i, kind in enumerate(_stratified(rng, UPDATE_MIX, iterations)):
        ops.append(_update(rng, kind, WEBLOG_TAGS, (ENTRY,)))
        ops.append(("tag_of", rng.random(), None))
        if i % 10 == 9:
            ops.append(("count", "count", "//alert"))
            ops.append(("select", "path",
                        f"/log/entry[{rng.randrange(1, 200)}]/ip"))
    return ops


def treebank_edits(rng, iterations):
    ops = []
    for kind in _stratified(rng, UPDATE_MIX, iterations):
        ops.append(_update(rng, kind, TREEBANK_TAGS, CONSTITUENTS))
        ops.append(("point", rng.random(), None))
    return ops


XMARK_SELECTIVE = ("//payment", "//homepage", "//shipping", "//address/city",
                   "/site/regions/*/item[3]/name")
XMARK_PATH = ("/site/people/person/homepage", "//auction/bidder[2]")
XMARK_NESTED = ("//item//listitem",)
#: 92% reads / 8% writes, per 200 ops: nav 52% · extract 12% · scan 8% ·
#: selective select/count 17% · path select 2.5% · nested select 0.5%.
XMARK_MIX = (("nav",) * 104 + ("extract",) * 24 + ("scan",) * 16
             + ("selective",) * 34 + ("path",) * 5 + ("nested",)
             + ("write",) * 16)


def xmark_reads(rng, iterations):
    ops = []
    for kind in _stratified(rng, XMARK_MIX, iterations):
        if kind in ("nav", "extract", "scan"):
            ops.append((kind, rng.random(), None))
        elif kind == "selective":
            call = "count" if rng.random() < 0.5 else "select"
            ops.append((call, "selective", rng.choice(XMARK_SELECTIVE)))
        elif kind == "path":
            ops.append(("select", "path", rng.choice(XMARK_PATH)))
        elif kind == "nested":
            ops.append(("select", "nested", rng.choice(XMARK_NESTED)))
        else:
            # Four renames two elements apart, then one append below the
            # first: a clustered edit, as one editor session would make.
            base = rng.random() * 0.999
            sub = tuple(
                ("rename", base + k * 1e-4, rng.choice(XMARK_TAGS))
                for k in range(4)
            ) + (("append_child", base, BIDDER),)
            ops.append(("batch", None, sub))
    return ops


#: 70% log-tail append · 20% batch of 8 clustered renames · 10% count
TAIL_MIX = ("append",) * 7 + ("batch",) * 2 + ("count",)


def weblog_tail_durable(rng, iterations):
    ops = []
    for kind in _stratified(rng, TAIL_MIX, iterations):
        if kind == "count":
            ops.append(("count", "count", "//alert"))
            continue
        if kind == "append":
            ops.append(("append_child", 0, ENTRY))
        else:
            # Eight renames somewhere in the last 400 elements.
            start = rng.randrange(9, 400)
            sub = tuple(
                ("rename", -(start - k), rng.choice(WEBLOG_TAGS))
                for k in range(8)
            )
            ops.append(("batch", None, sub))
        ops.append(("tag_of", rng.random(), None))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str
    #: Document edges of a full run.
    edges: int
    #: ``auto_recompress_factor`` (``None``: the paper's protocol, one
    #: recompression after the batch of updates).
    auto_factor: Optional[float]
    durable: bool
    #: Traffic-loop iterations of one episode; calibrated once on the
    #: reference box (see README) and fixed, so an episode is always the
    #: same work.
    iterations: int
    #: What one episode's timed phases took there; ``--seconds`` buys
    #: ``seconds / episode_seconds`` episodes.
    episode_seconds: float
    stream: Callable

    def episodes(self, seconds):
        return max(2, round(seconds / self.episode_seconds))

    def ops(self, seed, episode, smoke=False):
        """The op stream of one episode of the run seeded ``seed``."""
        iterations = self.iterations // 4 if smoke else self.iterations
        return self.stream(random.Random(f"{seed}:{episode}"), iterations)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "weblog_churn",
            "most regular shape: every random edit breaks sharing, so "
            "auto-recompression (core) does nearly all the work",
            "EXI-Weblog", 8_000, 2.0, False, 330, 5.0, weblog_churn),
        Workload(
            "treebank_edits",
            "deep irregular grammar, no recompression in traffic: updates "
            "+ grammar.index do the traffic, one big compact tests the "
            "paper's claim",
            "Treebank", 8_000, None, False, 480, 4.0, treebank_edits),
        Workload(
            "xmark_reads",
            "92% reads: query walk + kernel do the work, core is "
            "bypassed; rare writes evict packs and censuses",
            "XMark", 12_000, 2.0, False, 600, 5.0, xmark_reads),
        Workload(
            "weblog_tail_durable",
            "log-tail appends into a DurableXml store with real fsync: "
            "the only workload where storage works; abandoned then "
            "reopened",
            "EXI-Weblog", 8_000, 2.0, True, 360, 4.0, weblog_tail_durable),
    )
}

#: Document edges of every workload under ``--smoke``.
SMOKE_EDGES = 2_000
#: Fixed corpus seed: only the op stream varies with ``--seed``.
CORPUS_SEED = 1
SHARD_WIDTH = 256
#: Three or more cadence checkpoints per episode of the durable workload.
CHECKPOINT_WAL_BYTES = 13 * 1024
