"""Pinned, immutable reader snapshots of a compressed document.

:meth:`repro.api.CompressedXml.snapshot` pins the grammar's current
epoch (:meth:`repro.grammar.slcf.Grammar.pin`) and hands back a
:class:`SnapshotView`: the document's own read surface
(:class:`repro.api.ReadSurface` -- ``select``, ``count``, ``tags``,
``subtree_xml``, the navigation axes, ``to_xml``) instantiated over the
grammar *as of the pin*, no matter how many updates, batches, reshards,
or recompressions writers commit afterwards.

The view never touches a live mutable rule body.  It resolves rules
through :meth:`Grammar.rule_at`, which serves either the copy-on-write
overlay (the pristine pre-image preserved before the first
post-pin rewrite of the rule) or a lazily made private copy of the
still-unchanged live body.  Because those resolved bodies are private
and stable, the view owns its *own* private
:class:`~repro.grammar.index.GrammarIndex` -- segments, packs and label
censuses (``register=False`` -- no observer traffic ever reaches it), so
a writer-side eviction, wholesale reset, or reshard can never free tables
the pinned epoch still needs.

Views are cheap to create (no eager copying: one pin, one empty index,
a handful of captured counters) and must be closed --
``close()``, a ``with`` block, or garbage collection -- to let the
epoch's overlay be reclaimed.
"""

from __future__ import annotations

from typing import Iterator, List, TYPE_CHECKING

from repro.api import ReadSurface
from repro.grammar.index import GrammarIndex
from repro.grammar.slcf import Grammar, GrammarError
from repro.trees.node import Node
from repro.trees.symbols import Symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import CompressedXml
    from repro.storage.snapshot import DocumentState

__all__ = ["SnapshotView"]


class _FrozenRules:
    """Mapping facade over the rules of one pinned epoch."""

    __slots__ = ("_grammar", "_epoch")

    def __init__(self, grammar: Grammar, epoch: int) -> None:
        self._grammar = grammar
        self._epoch = epoch

    def __getitem__(self, head: Symbol) -> Node:
        try:
            return self._grammar.rule_at(self._epoch, head)
        except GrammarError:
            raise KeyError(head) from None

    def get(self, head: Symbol, default=None):
        if not self._grammar.has_rule_at(self._epoch, head):
            return default
        return self._grammar.rule_at(self._epoch, head)

    def __contains__(self, head: Symbol) -> bool:
        return self._grammar.has_rule_at(self._epoch, head)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._grammar.heads_at(self._epoch))

    def __len__(self) -> int:
        return len(self._grammar.heads_at(self._epoch))

    def keys(self) -> List[Symbol]:
        return self._grammar.heads_at(self._epoch)

    def values(self):
        for head in self._grammar.heads_at(self._epoch):
            yield self[head]

    def items(self):
        for head in self._grammar.heads_at(self._epoch):
            yield head, self[head]


class _FrozenGrammar:
    """Read-only duck-type of :class:`Grammar` at one pinned epoch.

    Provides exactly the surface the read path uses -- ``rhs``,
    ``has_rule``, ``start``, ``alphabet``, the ``rules`` mapping,
    iteration.  Anything that would mutate or observe is absent by
    design: index classes are constructed against it with
    ``register=False``.
    """

    __slots__ = ("_grammar", "_epoch", "alphabet", "start", "rules")

    def __init__(self, grammar: Grammar, epoch: int) -> None:
        self._grammar = grammar
        self._epoch = epoch
        self.alphabet = grammar.alphabet
        self.start = grammar.start
        self.rules = _FrozenRules(grammar, epoch)

    def rhs(self, head: Symbol) -> Node:
        return self._grammar.rule_at(self._epoch, head)

    def has_rule(self, head: Symbol) -> bool:
        return self._grammar.has_rule_at(self._epoch, head)

    def nonterminals(self) -> List[Symbol]:
        return self._grammar.heads_at(self._epoch)

    def __len__(self) -> int:
        return len(self._grammar.heads_at(self._epoch))

    def __iter__(self):
        return iter(self.rules.items())


class SnapshotView(ReadSurface):
    """An immutable view of a :class:`~repro.api.CompressedXml` at the
    epoch that was current when :meth:`~repro.api.CompressedXml.snapshot`
    was called.

    The same read surface as the document -- the methods *are* the
    document's, see :class:`~repro.api.ReadSurface` -- over the frozen
    epoch: every answer reflects the pinned state, and queries feed the
    document's metrics.  Close the view (``with doc.snapshot() as
    view:``) to release the pin; every read of a closed view raises
    ``ValueError``.
    """

    def __init__(self, doc: "CompressedXml") -> None:
        # Constructed by CompressedXml.snapshot() under the document
        # write lock: nothing can mutate between reading the counters
        # below and pinning the epoch, so they all describe one state.
        grammar = self._pinned = doc.grammar
        self.epoch = grammar.pin()
        # The view's private index: packs over the frozen
        # private bodies can never be invalidated, the flat-table analog
        # of the pinned copy-on-write rule tables.
        self._open_index = GrammarIndex(
            _FrozenGrammar(grammar, self.epoch), register=False)
        # Queries through the view feed the document's instruments.
        self._m_query_stage = doc._m_query_stage
        self._m_queries_total = doc._m_queries_total
        self._m_query_pruned = doc._m_query_pruned
        self._m_query_matches = doc._m_query_matches
        self._kin = doc._kin
        self._element_count = doc.element_count
        self._compressed_size = doc.compressed_size
        self._baselined = doc._baselined
        self._last_compressed_size = doc._last_compressed_size
        self._dirty_rules = list(doc._dirty.changed)
        self._shard_state = None
        if doc.shard_manager is not None:
            self._shard_state = doc.shard_manager.export_state()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the pin (idempotent).  The epoch's copy-on-write
        overlay is reclaimed when its last view closes."""
        if not self._closed:
            self._closed = True
            self._pinned.unpin(self.epoch)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    @property
    def _index(self) -> GrammarIndex:
        """The closed check, once: every read of the shared surface
        starts at the index (or at its ``grammar``, the frozen epoch)."""
        if self._closed:
            raise ValueError("snapshot view is closed")
        return self._open_index

    # ------------------------------------------------------------------
    # the counters captured at the pin
    # ------------------------------------------------------------------
    @property
    def element_count(self) -> int:
        return self._element_count

    @property
    def compressed_size(self) -> int:
        return self._compressed_size

    def export_state(self) -> "DocumentState":
        """The pinned state in :class:`DocumentState` form, assembled
        from the frozen bodies (aliased, not copied -- they are immutable
        by contract), so writes committed after the pin never show
        through.
        """
        epoch = self._index.grammar
        frozen = Grammar(epoch.alphabet, epoch.start)
        for head, body in epoch:
            dict.__setitem__(frozen.rules, head, body)
        return self._document_state(
            frozen, self._shard_state, self._dirty_rules)

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"epoch {self.epoch}"
        return (
            f"<SnapshotView {state}, {self._element_count} elements, "
            f"grammar size {self._compressed_size}>"
        )
