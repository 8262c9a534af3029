"""High-level facade: a mutable, grammar-compressed XML document.

:class:`CompressedXml` is the API a downstream user (e.g. a DOM
implementation, the paper's motivating application) programs against:

* build from XML text / a file / an :class:`~repro.trees.unranked.XmlNode`,
* query statistics without decompression,
* evaluate label paths (:meth:`CompressedXml.select` /
  :meth:`CompressedXml.count`) and navigate document axes
  (:meth:`CompressedXml.parent_of`, :meth:`CompressedXml.children`, ...)
  directly on the grammar; extract one subtree's XML by partial
  derivation (:meth:`CompressedXml.subtree_xml`),
* update by *element index* (document order) -- rename, insert, delete,
* apply whole bursts of updates as one program (:meth:`CompressedXml.batch`
  / :meth:`CompressedXml.apply_batch`): the sequential composition of the
  same spliced single ops, under one lock and optional transaction, with
  one maintenance settle per batch,
* keep the grammar small with explicit or automatic recompression,
* serialize back to XML or to the grammar text format.

Element addressing -- mapping a document-order element index to a position
on the grammar -- goes through an owned
:class:`~repro.grammar.index.GrammarIndex`: per-rule count tables answer
``element_count``, ``tag_of`` and the index-to-preorder translation in
``O(grammar depth · rule width)`` per query, restoring the paper's promise
that updates never scale with the size of the generated document.  The
index invalidates itself per-rule through the grammar's observer channel
(updates dirty essentially just the start rule).

Recompression is *dirty-rule-scoped* by default: a second observer
records the rules mutated since the last recompression, and
:meth:`CompressedXml.recompress` seeds GrammarRePair's occurrence census
with only those rules plus their digram frontier (see
:mod:`repro.core.occurrence_index`).  The automatic policy falls back to
a full -- still incrementally maintained -- census when the dirty mass
dominates the grammar, where a scoped census would miss cross-rule
digram weights and erode the compression ratio.  Because only touched
rules are rewritten, the GrammarIndex keeps its cached count tables for
the untouched bulk of the grammar -- no ``invalidate_all`` with either
census; the per-rule observer evictions that fire during compression are
the entire invalidation story.

The read surface -- statistics, ``tags``, the navigation axes,
``select`` / ``count``, ``subtree_xml``, ``to_xml`` -- is written once, in
:class:`ReadSurface`; the live :class:`CompressedXml` and the pinned
:class:`~repro.view.SnapshotView` are its two instantiations.

Threads: every mutator, and :meth:`CompressedXml.recompress`, runs under
one document write lock; live reads are unlocked, so concurrent readers
pin a :meth:`CompressedXml.snapshot`.  Durable writers are ordered one
level up, by :class:`~repro.storage.durable.DurableXml`'s commit lock
(taken before this one).

Example::

    doc = CompressedXml.from_xml("<log>" + "<entry/>" * 1000 + "</log>")
    doc.rename(1, "first")                  # relabel the first <entry>
    doc.insert(2, XmlNode("marker"))        # insert before element #2
    doc.delete(3)
    doc.recompress()
    assert doc.compressed_size < 60
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Iterator, List, Optional, Sequence, Union, TYPE_CHECKING

from repro.core.grammar_repair import GrammarRePair, GrammarRePairStats
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import trace_span
from repro.grammar.index import GrammarIndex
from repro.grammar.serialize import format_grammar, parse_grammar
from repro.grammar.sharding import ShardManager
from repro.grammar.slcf import Grammar, GrammarSizeTracker, RuleTouchRecorder
from repro.trees.binary import decode_binary, encode_binary, encode_forest
from repro.trees.node import deep_copy, edge_count
from repro.trees.symbols import Alphabet
from repro.trees.unranked import XmlNode
from repro.trees.xml_io import parse_xml, serialize_xml
from repro.query.engine import (
    count_matches,
    extract_subtree,
    read_prune_counter,
    reset_prune_counter,
)
from repro.query.engine import select as engine_select
from repro.query.label_index import LabelIndex
from repro.query.parser import parse_path
from repro.updates.batch import (
    BatchAppend, BatchBuilder, BatchDelete, BatchInsert, BatchOp,
    BatchRename, BatchStats, apply_batch_op, execute_batch,
)
from repro.updates.operations import UpdateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.faults import StorageIO
    from repro.storage.snapshot import DocumentState
    from repro.view import SnapshotView

__all__ = ["CompressedXml", "DurableXml", "ReadSurface", "SnapshotView"]


def __getattr__(name: str):
    # ``repro.api.DurableXml`` without importing the storage package (and
    # its file-format machinery) on every plain-document import;
    # ``repro.api.SnapshotView`` because ``repro.view`` subclasses
    # :class:`ReadSurface` and so imports this module first.
    if name == "DurableXml":
        from repro.storage.durable import DurableXml

        return DurableXml
    if name == "SnapshotView":
        from repro.view import SnapshotView

        return SnapshotView
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# gauge-source samplers (module-level so the registry holds no bound
# method -- only a weakref -- to the document)
# ----------------------------------------------------------------------
def _sample_doc(ref: "weakref.ref") -> dict:
    doc = ref()
    if doc is None:
        return {}
    grammar = doc._grammar
    pins = grammar.pinned_epochs()
    return {
        "element_count": doc._index.element_count,
        "compressed_size": doc._size.total,
        "epoch": grammar.epoch,
        "pinned_snapshots": sum(pins.values()),
        "updates_applied": doc.updates_applied,
        "batches_applied": doc.batches_applied,
        "rules_inlined_total": doc.rules_inlined_total,
        "recompress_runs": doc.recompress_runs,
    }


def _sample_indexes(ref: "weakref.ref") -> dict:
    doc = ref()
    if doc is None:
        return {}
    stats = doc._index.to_dict()
    data = {f"grammar_{key}": stats[key] for key in (
        "evicted_rules", "wholesale_invalidations", "cached_rules")}
    data.update((f"label_{key}", value)
                for key, value in doc.label_index.to_dict().items())
    return data


def _sample_shards(ref: "weakref.ref") -> dict:
    doc = ref()
    if doc is None or doc._shards is None:
        return {}
    data = doc._shards.stats.to_dict()
    data["shard_count"] = len(doc._shards.heads)
    return data


def _sample_last_batch(ref: "weakref.ref") -> dict:
    doc = ref()
    if doc is None or doc.last_batch_stats is None:
        return {}
    return doc.last_batch_stats.to_dict()


def _sample_kernel(ref: "weakref.ref") -> dict:
    doc = ref()
    if doc is None:
        return {}
    return doc._index.kernel_info()


class ReadSurface:
    """The read half of a compressed document, written once.

    Every method evaluates over a pair its instance holds: ``_index``
    (a :class:`~repro.grammar.index.GrammarIndex`; its ``grammar`` is the
    grammar view all reads derive from, its label censuses answer the
    label tests) and the ``_m_query_*`` metric handles.  The
    two instantiations are :class:`CompressedXml` -- the live grammar,
    index maintained through its observer channel -- and
    :class:`~repro.view.SnapshotView` -- one frozen epoch, a private
    index nothing can evict, feeding the metrics of the document it
    was pinned on.  Each supplies ``element_count`` and
    ``compressed_size`` itself (the live index and size tracker; the
    counters captured at the pin) plus the state facts
    :meth:`_document_state` assembles.
    """

    @property
    def edge_count(self) -> int:
        """Edges of the (unranked) document tree."""
        return self.element_count - 1

    @property
    def compression_ratio(self) -> float:
        """c-edges / #edges, as in Table III (1.0 for a lone root)."""
        edges = self.edge_count
        if edges == 0:
            return 1.0
        return self.compressed_size / edges

    def tags(
        self, start: Optional[int] = None, stop: Optional[int] = None
    ) -> Iterator[str]:
        """Element tags in document order, streamed without decompression.

        Without arguments the whole document is streamed (O(N)).  With a
        window -- ``tags(i, j)`` yields the tags of elements ``i..j-1`` --
        the iterator rides :meth:`GrammarIndex.iter_element_symbols`:
        subtrees before the window are skipped in O(1) via the cached
        count tables, so a bulk read of a window costs
        O(depth · rule-width + window) instead of streaming the whole
        document to reach it.

        Window contract (``itertools.islice``-like, *not* list slicing):
        ``i >= j`` yields nothing, ``j > element_count`` (or ``None``)
        clamps to the document's end, and a negative bound raises
        ``IndexError`` -- under concurrent updates a from-the-end index
        is ambiguous, so it is rejected rather than silently treated as
        an empty (or wrapped) window.

        The zero-argument form is the window ``(0, element_count)`` and
        goes through the same indexed iterator -- one code path, and the
        count tables it materializes are the ones every other query
        reuses (the historical ``stream_preorder`` special case answered
        from nothing but also warmed nothing).
        """
        for symbol in self._index.iter_element_symbols(
            0 if start is None else start, stop
        ):
            yield symbol.name

    def tag_of(self, element_index: int) -> str:
        """Tag of the ``element_index``-th element (document order)."""
        return self._index.tag_of(element_index)

    # ------------------------------------------------------------------
    # navigation (document axes over element indices, all O(depth))
    # ------------------------------------------------------------------
    def parent_of(self, element_index: int) -> Optional[int]:
        """Element index of the parent; ``None`` for the root."""
        return self._index.parent_of(element_index)

    def depth_of(self, element_index: int) -> int:
        """Document depth of an element (the root has depth 0)."""
        return self._index.depth_of(element_index)

    def first_child(self, element_index: int) -> Optional[int]:
        """Element index of the first child; ``None`` for a leaf."""
        return self._index.first_child(element_index)

    def next_sibling(self, element_index: int) -> Optional[int]:
        """Element index of the next sibling; ``None`` for a last child."""
        return self._index.next_sibling(element_index)

    def children(self, element_index: int) -> Iterator[int]:
        """Element indices of the direct children, in document order."""
        return self._index.children(element_index)

    # ------------------------------------------------------------------
    # queries (label paths evaluated on the grammar)
    # ------------------------------------------------------------------
    @property
    def label_index(self) -> LabelIndex:
        """The label census's counters (evictions, wholesale resets,
        cached censuses), read off the structural index that keeps the
        censuses per rule beside its segments and packs."""
        return LabelIndex(self._index)

    def select(self, path: str) -> List[int]:
        """Element indices matching a label path, evaluated on the grammar.

        ``path`` is a ``/a/b//c``-style expression (child + descendant
        axes, ``*`` wildcard, optional 1-based positional predicates; see
        :mod:`repro.query.parser`).  The whole path is one walk of the
        derivation (:mod:`repro.query.engine`): it skips in O(1) every
        subtree below which no step can match any more or -- with a
        descendant step in the path -- whose census of the last label is
        zero, so selective queries cost ``O(matches · depth · rule-width)``
        instead of the ``O(N)`` a decompress-then-walk pays.  The result
        is sorted, duplicate-free, and lives in the same document-order
        coordinate space as :meth:`rename`/:meth:`delete`/
        :meth:`apply_batch` targets.
        """
        result = self._evaluate("select", engine_select, path)
        self._m_query_matches.inc(len(result))
        return result

    def count(self, path: str) -> int:
        """Number of elements a label path selects.

        ``//label`` is answered in O(1) from the start rule's label
        census; other shapes count the matches of :meth:`select`'s walk.
        """
        return self._evaluate("count", count_matches, path)

    def _evaluate(self, kind: str, walk, path: str):
        """Parse ``path``, run the engine's ``walk`` over it, and record
        the stage timings and counters of a ``kind`` query."""
        clock = time.perf_counter
        started = clock()
        parsed = parse_path(path)
        self._m_query_stage["parse"].observe(clock() - started)
        reset_prune_counter()
        walk_started = clock()
        result = walk(self._index, parsed)
        self._m_query_stage["walk"].observe(clock() - walk_started)
        self._m_queries_total[kind].inc()
        self._m_query_pruned.inc(read_prune_counter())
        return result

    def subtree_xml(
        self, element_index: int, indent: Optional[int] = None
    ) -> str:
        """Serialize one element's subtree by partial derivation.

        Only the derivation window covering the element and its
        descendants is expanded -- ``O(depth · rule-width + output)``,
        never the whole document.
        """
        return serialize_xml(
            extract_subtree(self._index, element_index), indent=indent
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_document(self, budget: int = 50_000_000) -> XmlNode:
        """Decompress to a structure tree (guarded by a node budget)."""
        from repro.grammar.derivation import expand

        return decode_binary(expand(self._index.grammar, budget=budget))

    def to_xml(self, indent: Optional[int] = None, budget: int = 50_000_000) -> str:
        """Decompress and serialize to XML text."""
        return serialize_xml(self.to_document(budget=budget), indent=indent)

    def _document_state(self, grammar, shard_state, dirty_rules):
        """The :class:`~repro.storage.snapshot.DocumentState` of this
        surface over ``grammar`` (the live grammar, or a materialised
        pinned epoch).  Forces the cacheable state for the whole
        reachable grammar first, so the resulting snapshot restores
        queries without recomputation."""
        from repro.storage.snapshot import DocumentState, ShardState

        segments, label_counts = self._index.export_segments()
        shard = None
        if shard_state is not None:
            width, prefix, parents = shard_state
            shard = ShardState(width=width, prefix=prefix,
                               parents=dict(parents))
        return DocumentState(
            grammar=grammar,
            kin=self._kin,
            element_count=self.element_count,
            baselined=self._baselined,
            last_compressed_size=self._last_compressed_size,
            dirty_rules=[
                head for head in dirty_rules if grammar.has_rule(head)
            ],
            shard=shard,
            segments=segments,
            label_counts=label_counts,
        )


class CompressedXml(ReadSurface):
    """A grammar-compressed XML document supporting incremental updates.

    ``auto_recompress_factor``: when set to ``f``, any update that leaves
    the grammar more than ``f`` times larger than after the last
    recompression triggers GrammarRePair automatically -- the maintenance
    policy the paper's dynamic experiments emulate with fixed batches.

    ``shard_width``: when set to ``W``, the start rule is kept at
    ``O(W)`` RHS nodes by the spine-sharding policy
    (:class:`repro.grammar.sharding.ShardManager`): the accumulated
    update mass lives in a balanced hierarchy of shard rules, isolation
    rewrites one ``O(W)`` shard body per update, the persistent indexes
    recompute an ``O(W · log)`` ancestor chain instead of the whole
    start RHS, and a post-epoch ``reshard()`` pass (same hook as the
    auto-recompress policy) rebalances rules that drift past ``2 * W``
    or below ``W // 2``.  Unset (the default), the historical
    single-start-rule behavior is preserved.
    """

    def __init__(
        self,
        grammar: Grammar,
        kin: int = 4,
        auto_recompress_factor: Optional[float] = None,
        shard_width: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._grammar = grammar
        # Writer lock: every mutator (and snapshot(), which must pin
        # between operations, never mid-surgery) runs under it.  Plain
        # reads on the live document are *not* locked -- concurrent
        # readers should hold a snapshot() instead.
        self._lock = threading.RLock()
        # The structural index: the rule packs (repro.grammar.kernel)
        # every descent and walk runs on and the label censuses, computed
        # on first query use -- write-only workloads never pay for them.
        self._index = GrammarIndex(grammar)
        self._kin = kin
        self._auto_factor = auto_recompress_factor
        # Rules mutated since the last recompression; recompress() scopes
        # its census to exactly this set (plus the digram frontier).
        self._dirty = RuleTouchRecorder()
        grammar.register_observer(self._dirty)
        # |G| maintained incrementally: the auto-recompress policy reads
        # the size after every update, and a full Grammar.size walk there
        # would undo the O(width)-per-update bound sharding buys.
        self._size = GrammarSizeTracker(grammar)
        # Spine sharding: with a width budget, the start rule (and every
        # shard) is kept at O(shard_width) RHS nodes by a balanced shard
        # hierarchy; isolation then rewrites one O(width) shard body per
        # update instead of an unboundedly grown start RHS, and the
        # reshard() pass rebalances whatever each epoch touched.
        self._shards: Optional[ShardManager] = None
        if shard_width is not None:
            self._shards = ShardManager(grammar, width=shard_width)
            # A packed rule's width is read off its columns, not walked.
            self._shards.width_of = self._index.rule_width
        # Dirty scoping is only sound relative to a compressed baseline: a
        # grammar that was never RePair'd (compress=False, grammar files)
        # gets one full run first.
        self._baselined = False
        self._last_compressed_size = max(1, grammar.size)
        self.updates_applied = 0
        self.batches_applied = 0
        # Rule inlines performed by path isolation across all updates.
        self.rules_inlined_total = 0
        self.recompress_runs = 0
        self.recompress_seconds = 0.0
        # Occurrence-maintenance share of recompress_seconds (census,
        # digram selection, per-round count upkeep) -- see
        # GrammarRePairStats.maintenance_seconds.
        self.maintenance_seconds = 0.0
        # Accumulated instrumentation over all recompressions: rules fully
        # censused (O(|rule|) resolution scans) vs rules brought up to
        # date below census cost (event adaptation / crossing rescans).
        self.rules_censused_total = 0
        self.rules_adapted_total = 0
        self.last_repair_stats: Optional[GrammarRePairStats] = None
        self.last_batch_stats: Optional[BatchStats] = None
        # Observability: resolve every metric handle once, here.  With a
        # disabled registry (or NULL_REGISTRY) each handle is the shared
        # no-op object, so the per-operation cost of instrumentation is
        # two clock reads and two no-op calls -- the budget
        # benchmarks/bench_obs.py gates at 5%.
        self._bind_metrics(metrics)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach to ``registry`` (the process-global default when
        ``None``) and resolve every hot-path metric handle.

        Declaring the full family surface here -- before a single
        observation -- is deliberate: a Prometheus scrape of a fresh
        document must already show every metric this document can emit.
        """
        obs = self._obs = (registry if registry is not None
                           else default_registry())
        update_ops = ("rename", "insert", "append_child", "delete")
        self._m_update = {
            op: obs.histogram(
                "repro_update_seconds",
                "Latency of one single-op update", op=op)
            for op in update_ops
        }
        self._m_updates_total = {
            op: obs.counter(
                "repro_updates_total",
                "Single-op updates applied", op=op)
            for op in update_ops
        }
        self._m_batch = obs.histogram(
            "repro_batch_seconds", "End-to-end apply_batch latency")
        self._m_batch_stage = {
            stage: obs.histogram(
                "repro_batch_stage_seconds",
                "apply_batch stage latency", stage=stage)
            for stage in ("apply", "settle")
        }
        self._m_batches_total = obs.counter(
            "repro_batches_total", "Batches applied")
        self._m_recompress = obs.histogram(
            "repro_recompress_seconds", "End-to-end recompression latency")
        self._m_recompress_stage = {
            stage: obs.histogram(
                "repro_recompress_stage_seconds",
                "Recompression stage latency", stage=stage)
            for stage in ("census", "rounds", "prune")
        }
        self._m_recompress_total = obs.counter(
            "repro_recompress_total", "Recompression runs")
        self._m_recompress_resolved = obs.counter(
            "repro_recompress_generators_resolved_total",
            "Occurrence generators the recompression index resolved")
        self._m_query_stage = {
            stage: obs.histogram(
                "repro_query_stage_seconds",
                "Query stage latency", stage=stage)
            for stage in ("parse", "walk")
        }
        self._m_queries_total = {
            kind: obs.counter(
                "repro_queries_total", "Queries evaluated", kind=kind)
            for kind in ("select", "count")
        }
        self._m_query_pruned = obs.counter(
            "repro_query_pruned_subtrees_total",
            "Derivation subtrees skipped by census pruning")
        self._m_query_matches = obs.counter(
            "repro_query_matches_total", "Elements returned by select()")
        self._index.bind_metrics(obs)
        if self._shards is not None:
            self._shards.bind_metrics(obs)
        # Gauge sources sample the live stats objects at collection time
        # only.  The weakref keeps the (often process-global) registry
        # from pinning this document alive; re-registration under the
        # same name replaces a dead document's source with the new one.
        ref = weakref.ref(self)
        obs.register_source(
            "repro_doc", lambda: _sample_doc(ref))
        obs.register_source(
            "repro_index", lambda: _sample_indexes(ref))
        obs.register_source(
            "repro_shard", lambda: _sample_shards(ref))
        obs.register_source(
            "repro_batch_last", lambda: _sample_last_batch(ref))
        obs.register_source(
            "repro_kernel", lambda: _sample_kernel(ref))

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The registry this document's instrumentation feeds."""
        return self._obs

    def metrics(self) -> dict:
        """Compact metrics snapshot: counters, gauges, histogram
        p50/p99, and the sampled stats-object sources."""
        return self._obs.summary()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_document(
        cls,
        document: XmlNode,
        kin: int = 4,
        compress: bool = True,
        auto_recompress_factor: Optional[float] = None,
        **kwargs,
    ) -> "CompressedXml":
        """Compress a structure tree into a document."""
        alphabet = Alphabet()
        binary = encode_binary(document, alphabet)
        if compress:
            grammar = GrammarRePair(kin=kin).compress_tree(
                binary, alphabet, copy_input=False
            )
        else:
            grammar = Grammar.from_tree(binary, alphabet)
        doc = cls(grammar, kin=kin,
                  auto_recompress_factor=auto_recompress_factor, **kwargs)
        doc._baselined = compress
        return doc

    @classmethod
    def from_xml(cls, text: str, **kwargs) -> "CompressedXml":
        """Parse structure-only XML text and compress it."""
        return cls.from_document(parse_xml(text), **kwargs)

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "CompressedXml":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_xml(handle.read(), **kwargs)

    @classmethod
    def from_grammar_file(cls, path: str, **kwargs) -> "CompressedXml":
        """Load a previously saved grammar (text format)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls(parse_grammar(handle.read()), **kwargs)

    @classmethod
    def from_state(cls, state: "DocumentState", **kwargs) -> "CompressedXml":
        """Resume a document from exported state (see :meth:`export_state`).

        The shard hierarchy is re-attached without resharding, and the
        structural index adopts the per-rule segments and label censuses
        without walking a single rule -- a reload answers counting,
        addressing, and label queries immediately.  ``kwargs`` may carry
        runtime policy (``auto_recompress_factor``, ``metrics``); the
        persisted facts (``kin``, shard width) come from the state.
        """
        for fixed in ("kin", "shard_width"):
            if fixed in kwargs:
                raise TypeError(
                    f"{fixed} is restored from the snapshot state and "
                    f"cannot be overridden"
                )
        doc = cls(state.grammar, kin=state.kin, shard_width=None, **kwargs)
        if state.shard is not None:
            doc._shards = ShardManager(
                state.grammar,
                width=state.shard.width,
                prefix=state.shard.prefix,
                parents=state.shard.parents,
            )
            doc._shards.width_of = doc._index.rule_width
            doc._shards.bind_metrics(doc._obs)
        if state.segments:
            doc._index.import_segments(state.segments, state.label_counts)
        doc._baselined = state.baselined
        doc._last_compressed_size = max(1, state.last_compressed_size)
        for head in state.dirty_rules:
            if state.grammar.has_rule(head):
                doc._dirty.changed.add(head)
        return doc

    @classmethod
    def from_snapshot_file(cls, path: str, **kwargs) -> "CompressedXml":
        """Load a binary snapshot (see :meth:`save_snapshot`)."""
        from repro.storage.snapshot import read_snapshot

        return cls.from_state(read_snapshot(path), **kwargs)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def grammar(self) -> Grammar:
        """The underlying SLCF grammar.

        Mutating it directly is safe for the index only when done through
        ``set_rule``/``remove_rule``/``notify_rule_changed`` (the observer
        channel); raw node surgery without notification is the caller's
        risk.
        """
        return self._grammar

    @property
    def index(self) -> GrammarIndex:
        """The owned structural index (shared with the update layer)."""
        return self._index

    @property
    def shard_manager(self) -> Optional[ShardManager]:
        """The spine-sharding policy, or ``None`` when constructed
        without ``shard_width``."""
        return self._shards

    @property
    def compressed_size(self) -> int:
        """Grammar size in edges (the paper's c-edges), answered from the
        incrementally maintained tracker in O(rules dirtied since the
        last read) instead of a whole-grammar walk."""
        return self._size.total

    @property
    def element_count(self) -> int:
        """Number of elements, answered from the index's count tables."""
        return self._index.element_count

    # ------------------------------------------------------------------
    # element-index addressing (all O(depth) via the grammar index)
    # ------------------------------------------------------------------
    def _binary_index_of_element(self, element_index: int) -> int:
        """Map an element index to its binary-tree preorder index."""
        return self._index.preorder_of_element(element_index)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def rename(self, element_index: int, new_tag: str) -> None:
        """Relabel the ``element_index``-th element (document order)."""
        self._apply_one("rename", BatchRename(element_index, new_tag))

    def insert(
        self,
        element_index: int,
        content: Union[XmlNode, Sequence[XmlNode]],
    ) -> None:
        """Insert elements *before* the ``element_index``-th element.

        Inserting before the document root (index 0) is rejected with an
        :class:`~repro.updates.operations.UpdateError`: the result would
        be a forest, which later serialization could only refuse.
        """
        if element_index == 0:
            raise UpdateError(
                "inserting before the document root would create a forest"
            )
        self._apply_one("insert", BatchInsert(element_index, content))

    def append_child(
        self,
        parent_element_index: int,
        content: Union[XmlNode, Sequence[XmlNode]],
    ) -> None:
        """Append elements as the last children of an element.

        This is the "insert on a null pointer" case of Section V-C: the
        insertion point is the terminating ``⊥`` of the parent's child
        list, found by walking the parent's subtree on the grammar.  The
        position is exact even when the parent is the last element in
        document order -- in element coordinates the appended children
        land *off the end*, at index ``element_count``, but the
        terminator itself is an ordinary interior node of the binary
        encoding (the root's own next-sibling ``⊥`` always follows it),
        so the isolation never runs past the derivation.
        """
        self._apply_one("append_child",
                        BatchAppend(parent_element_index, content))

    def _end_of_children_position(self, parent_element_index: int) -> int:
        """Binary preorder index of the parent's child-list terminator.

        Answered by the index via subtree sizes: the terminator is the
        preorder-last node of the parent's first-child subtree, so no
        stream is walked (let alone materialized).
        """
        return self._index.end_of_children_position(parent_element_index)

    def delete(self, element_index: int) -> None:
        """Delete the ``element_index``-th element and its subtree.

        Deleting the document root (index 0) is rejected with an
        :class:`~repro.updates.operations.UpdateError` (a ``ValueError``)
        before any grammar mutation.  Deleting an element that is its
        parent's only child leaves the emptied child list well-formed:
        the element's next-sibling chain -- a bare ``⊥`` in that case --
        moves up into the parent's first-child slot.
        """
        if element_index == 0:
            raise UpdateError("deleting the document root is not allowed")
        self._apply_one("delete", BatchDelete(element_index))

    def _apply_one(self, kind: str, op: BatchOp) -> None:
        """One single-op update: a batch's per-operation step
        (:func:`~repro.updates.batch.apply_batch_op`), then the settle."""
        started = time.perf_counter()
        with self._lock:
            self.rules_inlined_total += apply_batch_op(
                self._grammar, self._index, op, spine=self._shards,
                encode=encode_forest)
            self._after_update()
        self._m_update[kind].observe(time.perf_counter() - started)
        self._m_updates_total[kind].inc()

    # ------------------------------------------------------------------
    # snapshots (MVCC read isolation)
    # ------------------------------------------------------------------
    def snapshot(self) -> "SnapshotView":
        """Pin the current epoch and return an immutable reader view.

        The view answers the whole :class:`ReadSurface` *as of now*,
        unaffected by any later update, batch, reshard, or
        recompression -- see :class:`repro.view.SnapshotView`.
        Close it (``with doc.snapshot() as view:``) to release the pin;
        the copy-on-write overlay backing the pinned epoch is reclaimed
        when its last view closes.
        """
        from repro.view import SnapshotView

        with self._lock:
            return SnapshotView(self)

    def mvcc_info(self) -> dict:
        """Live epoch and pin accounting (operator introspection)."""
        grammar = self._grammar
        pins = grammar.pinned_epochs()
        return {
            "epoch": grammar.epoch,
            "pinned_snapshots": sum(pins.values()),
            "pinned_epochs": sorted(pins),
            "oldest_pin_age_seconds": grammar.oldest_pin_age(),
        }

    # ------------------------------------------------------------------
    # batch updates
    # ------------------------------------------------------------------
    def batch(self) -> BatchBuilder:
        """Collect operations for one :meth:`apply_batch` call.

        Usable as a context manager; the batch is applied when the
        ``with`` block exits cleanly::

            with doc.batch() as b:
                b.rename(3, "seen")
                b.append_child(3, XmlNode("mark"))
                b.delete(9)
            b.stats.inlined_rules  # isolation work actually performed
        """
        return BatchBuilder(self)

    def apply_batch(
        self, ops: Sequence[BatchOp], transactional: bool = False
    ) -> BatchStats:
        """Apply a list of element-index operations as one program.

        Operations (:class:`~repro.updates.batch.BatchRename` /
        ``BatchInsert`` / ``BatchAppend`` / ``BatchDelete``) use
        *sequential semantics* -- each index addresses the document as
        the previous operations leave it.  A batch is the sequential
        composition of the spliced single ops :meth:`rename` /
        :meth:`insert` / :meth:`append_child` / :meth:`delete` run,
        under one writer lock, with one settle: resharding and the
        automatic recompression policy run once at the end instead of
        once per operation.

        By default an invalid index raises (``IndexError``, or
        ``UpdateError`` for a root deletion) after the operations before
        it were applied, exactly as the sequential loop would; the
        instrumentation counters (``updates_applied`` etc.) are only
        advanced on success.  With ``transactional=True`` a failing
        batch instead rolls the document back to its pre-batch state --
        grammar, shard hierarchy, and (through the observer channel)
        every index -- so the batch is all-or-nothing; this is the mode
        the durability layer logs batches under, where replay must never
        reproduce a half-applied program.
        """
        started = time.perf_counter()
        with trace_span("apply_batch", ops=len(ops),
                        transactional=transactional), self._lock:
            base_epoch = self._grammar.epoch
            backup = self._transaction_backup() if transactional else None
            try:
                stats = execute_batch(
                    self._grammar, self._index, ops, spine=self._shards
                )
            except Exception:
                if backup is not None:
                    self._transaction_restore(backup)
                    raise
                # Error parity with the sequential loop requires the
                # already-applied prefix to stay; keep its spine inside
                # budget too.
                self._reshard()
                raise
            if backup is not None:
                self._transaction_release(backup)
            self.updates_applied += stats.operations
            self.batches_applied += 1
            self.rules_inlined_total += stats.inlined_rules
            settle_started = time.perf_counter()
            self._reshard()
            self._maybe_auto_recompress()
            settle_seconds = time.perf_counter() - settle_started
            stats.base_epoch = base_epoch
            stats.commit_epoch = self._grammar.epoch
            self.last_batch_stats = stats
        self._m_batch.observe(time.perf_counter() - started)
        stage = self._m_batch_stage
        stage["apply"].observe(stats.apply_seconds)
        stage["settle"].observe(settle_seconds)
        self._m_batches_total.inc()
        return stats

    def _transaction_backup(self):
        """Pin the pre-batch epoch as the rollback point.

        The copy-on-write machinery behind reader snapshots doubles as
        the transaction log: with the epoch pinned, every rule the batch
        rewrites gets its pristine body preserved into the pin's overlay
        before the first mutation (reads hook :meth:`Grammar.rhs`,
        installs hook ``set_rule``/``remove_rule``).  Success costs
        O(touched rules) lazy copies instead of the eager O(|G|) deep
        copy of every body; only the rare failure path pays for the
        restore.  The shard hierarchy's maps are tiny and have no CoW
        channel, so they are still captured eagerly.
        """
        epoch = self._grammar.pin(rollback=True)
        shard = None
        if self._shards is not None:
            shard = (
                set(self._shards.heads),
                dict(self._shards._parent),
                set(self._shards._touched),
            )
        return epoch, shard

    def _transaction_release(self, backup) -> None:
        """Drop the rollback pin after a committed batch."""
        self._grammar.unpin(backup[0], rollback=True)

    def _transaction_restore(self, backup) -> None:
        """Put the grammar and shard hierarchy back to the pinned epoch.

        Every restored rule goes through ``set_rule``, so the persistent
        indexes see ordinary per-rule change events and evict whatever
        the half-applied batch had polluted -- no wholesale reset.
        Bodies are deep-copied on the way back in: a concurrent reader
        snapshot pinned at the same epoch shares the overlay's preserved
        trees, and reinstalling them live would let later writes mutate
        what that reader sees.
        """
        epoch, shard = backup
        grammar = self._grammar
        preserved = grammar.preserved_at(epoch)
        manager = self._shards
        if manager is not None:
            # The restore is not an update epoch: suppress the shard
            # observer (its maps are restored wholesale below).
            manager._resharding = True
        try:
            for head, body in preserved.items():
                if body is None:
                    if grammar.has_rule(head):
                        grammar.remove_rule(head)
                else:
                    grammar.set_rule(head, deep_copy(body))
        finally:
            if manager is not None:
                manager._resharding = False
                heads, parents, touched = shard
                manager.heads = heads
                manager._parent = parents
                manager._touched = touched
            grammar.unpin(epoch, rollback=True)

    def _after_update(self) -> None:
        self.updates_applied += 1
        self._reshard()
        self._maybe_auto_recompress()

    def _reshard(self) -> None:
        """Post-epoch spine rebalancing (the same hook point as the
        auto-recompress policy): any spine rule this epoch pushed past
        ``2 * shard_width`` is split, any shard that fell below
        ``shard_width // 2`` is merged -- all through per-rule observer
        events, so the persistent indexes never reset wholesale."""
        if self._shards is not None:
            self._shards.reshard()

    def _maybe_auto_recompress(self) -> None:
        if self._auto_factor is None:
            return
        if self._size.total > self._auto_factor * self._last_compressed_size:
            # Called mid-update, already under the document lock.
            self._recompress_locked(self._scoped_census_unprofitable())

    def _scoped_census_unprofitable(self) -> Optional[bool]:
        """Auto-recompress policy: scope the census to the dirty rules
        only while they are a small slice of the grammar.

        Under sustained traffic the start rule accumulates most of the
        grammar's mass by the time the growth factor triggers; a census
        scoped to it would miss cross-rule digram weights and slowly
        degrade the compression ratio.  A full (but still incrementally
        maintained) census costs one extra pass and keeps parity.
        """
        if not self._baselined:
            return None  # recompress() applies its own first-run rule
        grammar = self._grammar
        dirty_edges = sum(
            edge_count(grammar.rules[head])
            for head in self._dirty.changed
            if grammar.has_rule(head)
        )
        return dirty_edges * 4 > self._size.total or None

    # ------------------------------------------------------------------
    # maintenance and output
    # ------------------------------------------------------------------
    def recompress(self, full: Optional[bool] = None) -> int:
        """Run GrammarRePair in place; returns the new grammar size.

        By default the run is *dirty-rule-scoped*: the occurrence census
        is seeded with only the rules mutated since the last
        recompression (plus their digram frontier), and the structural
        index keeps its cached tables for every untouched rule -- the
        per-rule evictions fired through the observer channel while rules
        were rewritten are the only invalidation.  Pass ``full=True`` to
        force a whole-grammar census (the first run on a grammar that was
        never compressed does this automatically): same loop, same
        per-rule evictions, only the census is wider.
        """
        with trace_span("recompress"):
            with self._lock:
                return self._recompress_locked(full)

    def _recompress_locked(self, full: Optional[bool]) -> int:
        started = time.perf_counter()
        # GrammarRePair's warm occurrence lists may rewrite a body this
        # run never re-read, which would defeat the read-triggered
        # copy-on-write preservation -- so with snapshots pinned, every
        # pristine body is preserved up front.
        self._grammar.preserve_all()
        if full is None:
            full = not self._baselined
        compressor = GrammarRePair(
            kin=self._kin,
            barriers=(self._shards.heads
                      if self._shards is not None else None),
        )
        # No invalidate_all, full census or not: the per-rule observer
        # evictions that fire while rules are rewritten are the whole
        # invalidation story, so untouched rules keep their tables.
        compressor.compress(
            self._grammar, in_place=True,
            dirty_rules=None if full else set(self._dirty.changed),
        )
        self.last_repair_stats = compressor.stats
        self._dirty.clear()
        self._baselined = True
        self._last_compressed_size = max(1, self._size.total)
        self.recompress_runs += 1
        elapsed = time.perf_counter() - started
        self.recompress_seconds += elapsed
        self._m_recompress.observe(elapsed)
        stage = self._m_recompress_stage
        stage["census"].observe(compressor.stats.census_seconds)
        stage["rounds"].observe(compressor.stats.rounds_seconds)
        stage["prune"].observe(compressor.stats.prune_seconds)
        self._m_recompress_total.inc()
        self._m_recompress_resolved.inc(compressor.stats.generators_resolved)
        self.maintenance_seconds += compressor.stats.maintenance_seconds
        self.rules_censused_total += compressor.stats.rules_censused
        self.rules_adapted_total += (
            compressor.stats.rules_adapted
            + compressor.stats.rules_partially_rescanned
        )
        # Compression only shrinks rule bodies; every shard it rewrote is
        # in the manager's touched set, so the pass below folds the ones
        # that fell below the merge threshold back into their parents.
        self._reshard()
        return self._size.total

    def save_grammar(self, path: str, io=None) -> None:
        """Persist the grammar in the text format, crash-atomically.

        The text is written to a temp file, flushed and fsync'd, then
        renamed over ``path``, and the parent directory entry is
        fsync'd -- a crash mid-save leaves the previous file intact
        instead of a truncated grammar, and a power cut after the
        rename cannot roll the *name* back either.  All four steps run
        through the injectable ``repro.storage.faults.StorageIO`` layer
        (site ``grammar:save``), so the fault matrix covers this commit
        point like every other one.
        """
        from repro.storage.faults import StorageIO

        if io is None:
            io = StorageIO()
        tmp = path + ".tmp"
        data = format_grammar(self._grammar).encode("utf-8")
        with open(tmp, "wb") as handle:
            io.write(handle, data, "grammar:save")
            io.fsync(handle, "grammar:save")
        io.replace(tmp, path, "grammar:save")
        io.fsync_dir(os.path.dirname(os.path.abspath(path)),
                     "grammar:save")

    # ------------------------------------------------------------------
    # durable state (the snapshot layer's view of the document)
    # ------------------------------------------------------------------
    def export_state(self) -> "DocumentState":
        """Everything a restart needs to resume *exactly*: the grammar,
        the shard hierarchy, the structural index's per-rule segments,
        the label index's per-rule censuses, and the recompression
        baseline (see :meth:`from_state`)."""
        return self._document_state(
            self._grammar,
            self._shards.export_state() if self._shards is not None else None,
            self._dirty.changed,
        )

    def save_snapshot(
        self, path: str, io: Optional["StorageIO"] = None
    ) -> None:
        """Write a crash-atomic binary snapshot (temp file + rename)."""
        from repro.storage.snapshot import write_snapshot

        write_snapshot(path, self.export_state(), io=io)

    def __repr__(self) -> str:
        return (
            f"<CompressedXml {self.element_count} elements, "
            f"grammar size {self.compressed_size}>"
        )
