"""Pinned, immutable reader snapshots of a compressed document.

:meth:`repro.api.CompressedXml.snapshot` pins the grammar's current
epoch (:meth:`repro.grammar.slcf.Grammar.pin`) and hands back a
:class:`SnapshotView`: a read-only document facade whose every query --
``select``, ``count``, ``tags``, ``subtree_xml``, the navigation axes,
``to_xml`` -- evaluates against the grammar *as of the pin*, no matter
how many updates, batches, reshards, or recompressions writers commit
afterwards.

The view never touches a live mutable rule body.  It resolves rules
through :meth:`Grammar.rule_at`, which serves either the copy-on-write
overlay (the pristine pre-image preserved before the first
post-pin rewrite of the rule) or a lazily made private copy of the
still-unchanged live body.  Because those resolved bodies are private
and stable, the view owns its *own* structural and label indexes
(``register=False`` -- no observer traffic ever reaches them), so a
writer-side eviction, wholesale reset, or reshard can never free tables
the pinned epoch still needs.

Views are cheap to create (no eager copying: one pin, two empty
indexes, a handful of captured counters) and must be closed --
``close()``, a ``with`` block, or garbage collection -- to let the
epoch's overlay be reclaimed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from repro.grammar.index import GrammarIndex
from repro.grammar.slcf import Grammar, GrammarError
from repro.query.engine import count_matches, extract_subtree
from repro.query.engine import select as engine_select
from repro.query.label_index import LabelIndex
from repro.trees.binary import decode_binary
from repro.trees.node import Node
from repro.trees.symbols import Symbol
from repro.trees.xml_io import serialize_xml

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
    iteration -- plus no-op observer registration so index classes can
    be constructed against it.  Anything that would mutate is absent by
    design.
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

    def register_observer(self, observer: object) -> None:
        """No-op: a frozen epoch never changes, so there is nothing to
        observe (views build their indexes with ``register=False``
        anyway)."""

    def unregister_observer(self, observer: object) -> None:
        """No-op, see :meth:`register_observer`."""


class SnapshotView:
    """An immutable view of a :class:`~repro.api.CompressedXml` at the
    epoch that was current when :meth:`~repro.api.CompressedXml.snapshot`
    was called.

    Read-only counterpart of the document facade: the query, navigation,
    and serialization surface is identical, and every answer reflects
    the pinned state.  Close the view (``with doc.snapshot() as view:``)
    to release the pin.
    """

    def __init__(self, doc: "CompressedXml") -> None:
        # Constructed by CompressedXml.snapshot() under the document
        # write lock: nothing can mutate between reading the counters
        # below and pinning the epoch, so they all describe one state.
        grammar = doc.grammar
        self._grammar = grammar
        self.epoch = grammar.pin()
        self._frozen = _FrozenGrammar(grammar, self.epoch)
        # The view's private index (and kernel): packs over the frozen
        # private bodies can never be invalidated, the flat-table analog
        # of the pinned copy-on-write rule tables.
        self._index = GrammarIndex(self._frozen, register=False)
        self._label_index: Optional[LabelIndex] = None
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
            self._grammar.unpin(self.epoch)

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

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError("snapshot view is closed")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def element_count(self) -> int:
        return self._element_count

    @property
    def edge_count(self) -> int:
        return self._element_count - 1

    @property
    def compressed_size(self) -> int:
        return self._compressed_size

    @property
    def compression_ratio(self) -> float:
        edges = self.edge_count
        if edges == 0:
            return 1.0
        return self._compressed_size / edges

    def tags(
        self, start: Optional[int] = None, stop: Optional[int] = None
    ) -> Iterator[str]:
        """Element tags in document order, as of the pinned epoch."""
        self._require_open()
        for symbol in self._index.iter_element_symbols(
            0 if start is None else start, stop
        ):
            yield symbol.name

    def tag_of(self, element_index: int) -> str:
        self._require_open()
        return self._index.tag_of(element_index)

    # ------------------------------------------------------------------
    # navigation axes
    # ------------------------------------------------------------------
    def parent_of(self, element_index: int) -> Optional[int]:
        self._require_open()
        return self._index.parent_of(element_index)

    def depth_of(self, element_index: int) -> int:
        self._require_open()
        return self._index.depth_of(element_index)

    def first_child(self, element_index: int) -> Optional[int]:
        self._require_open()
        return self._index.first_child(element_index)

    def next_sibling(self, element_index: int) -> Optional[int]:
        self._require_open()
        return self._index.next_sibling(element_index)

    def children(self, element_index: int) -> Iterator[int]:
        self._require_open()
        return self._index.children(element_index)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def label_index(self) -> LabelIndex:
        if self._label_index is None:
            self._label_index = LabelIndex(self._frozen, register=False)
        return self._label_index

    def select(self, path: str) -> List[int]:
        """Label-path matches at the pinned epoch (same dialect as
        :meth:`CompressedXml.select`)."""
        self._require_open()
        return engine_select(self._index, self.label_index, path)

    def count(self, path: str) -> int:
        self._require_open()
        return count_matches(self._index, self.label_index, path)

    def subtree_xml(
        self, element_index: int, indent: Optional[int] = None
    ) -> str:
        self._require_open()
        return serialize_xml(
            extract_subtree(self._index, element_index), indent=indent
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_document(self, budget: int = 50_000_000):
        from repro.grammar.derivation import expand

        self._require_open()
        return decode_binary(expand(self._frozen, budget=budget))

    def to_xml(
        self, indent: Optional[int] = None, budget: int = 50_000_000
    ) -> str:
        return serialize_xml(self.to_document(budget=budget), indent=indent)

    def export_state(self) -> "DocumentState":
        """The pinned state in :class:`DocumentState` form.

        This is what lets a checkpoint serialize without blocking
        writers: the state is assembled from the frozen bodies (aliased,
        not copied -- they are immutable by contract), so a concurrent
        commit stream never shows through.
        """
        from repro.storage.snapshot import DocumentState, ShardState

        self._require_open()
        grammar = self._grammar
        frozen = Grammar(grammar.alphabet, grammar.start)
        for head in grammar.heads_at(self.epoch):
            dict.__setitem__(
                frozen.rules, head, grammar.rule_at(self.epoch, head)
            )
        shard = None
        if self._shard_state is not None:
            width, prefix, parents = self._shard_state
            shard = ShardState(width=width, prefix=prefix,
                               parents=dict(parents))
        index = GrammarIndex(frozen, register=False)
        label_index = LabelIndex(frozen, register=False)
        return DocumentState(
            grammar=frozen,
            kin=self._kin,
            element_count=self._element_count,
            baselined=self._baselined,
            last_compressed_size=self._last_compressed_size,
            dirty_rules=[
                head for head in self._dirty_rules
                if frozen.has_rule(head)
            ],
            shard=shard,
            segments=index.export_segments(),
            label_counts=label_index.export_counts(),
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"epoch {self.epoch}"
        return (
            f"<SnapshotView {state}, {self._element_count} elements, "
            f"grammar size {self._compressed_size}>"
        )
