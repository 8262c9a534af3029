"""A persistent structural self-index over an SLCF grammar.

:class:`GrammarIndex` caches, per rule ``A`` of rank ``k``:

* the paper's ``size(A, 0..k)`` *node* segments (Section III-A),
* the analogous *element* segments counting only non-``⊥`` terminals,
* a per-RHS-node table of generated (node, element) subtree sizes plus the
  parameter indices occurring below each node.

Together these answer the navigation queries every update needs --

* ``element_count`` / ``node_count`` of ``valG(S)``,
* ``preorder_of_element``: document-order element index -> binary preorder
  index (the addressing step of :class:`repro.api.CompressedXml`),
* ``tag_of``: the element's label without touching the stream,
* ``end_of_children_position``: the preorder index of the ``⊥`` terminating
  an element's child list (the "insert on a null pointer" target of
  Section V-C) --

by *descending the derivation* in ``O(depth · rule-width)`` per query
instead of streaming the ``O(N)`` symbols of the generated tree.  This is
the grammar-level count-table idea of Maneth & Sebastian's structural
self-indexes, specialized to the update path of this reproduction.

Invalidation contract
---------------------
The index registers itself as a grammar observer (see
:meth:`repro.grammar.slcf.Grammar.register_observer`).  Whenever a rule is
installed, removed, or mutated in place, the cache entries of that rule
*and of every rule whose tables were computed from it* (the transitive
dependents along the call DAG) are evicted; recomputation happens lazily,
bottom-up, on the next query.  An isolated ``rename``/``insert``/``delete``
therefore costs one eviction of the start rule plus an
``O(|start RHS|)``-time lazy recompute -- independent of document size.
Callers that mutate rule bodies in place without going through
``set_rule`` must call :meth:`Grammar.notify_rule_changed`; the update and
compression layers of this code base all do.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.grammar.kernel import (
    GrammarKernel,
    kernel_iter_element_symbols,
    kernel_locate_element,
    kernel_resolve_preorder,
)
from repro.grammar.navigation import PathStep
from repro.grammar.slcf import Grammar, GrammarError
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = ["GrammarIndex", "check_element_index"]


def check_element_index(index: int, what: str = "element index") -> int:
    """Shared validation for document-order element indices.

    Every element-addressed entry point (``tag_of``/``rename``/``delete``/
    ``select`` results, batch operations, ``tags`` windows) funnels through
    this one contract: a non-``int`` (including ``bool`` -- almost always a
    bug, and batch ops already rejected it) raises ``TypeError``; a negative
    index raises ``IndexError``.  From-the-end indices are deliberately not
    supported -- under concurrent updates they are ambiguous.  The
    out-of-range check stays with the caller, who knows the element count.
    """
    if not isinstance(index, int) or isinstance(index, bool):
        raise TypeError(f"{what} must be an int, got {index!r}")
    if index < 0:
        raise IndexError(f"{what} must be >= 0, got {index}")
    return index


#: Per-RHS-node cache entry: (generated nodes, generated non-⊥ elements,
#: parameter indices occurring in the subtree).  Parameters contribute 0 to
#: both counts; the binding environment supplies the argument sizes.
_NodeInfo = Tuple[int, int, Tuple[int, ...]]

#: One binding of a rule parameter during a descent:
#: (argument node, its environment, its rule's node table,
#:  generated nodes, generated elements) -- slots 0..4 of the kernel's
#: binding tuples, which is all the post-descent helpers here read.
_Binding = Tuple[Node, tuple, Dict[int, _NodeInfo], int, int]


class _SegmentsView:
    """Lazy, always-current stand-in for ``parameter_segments(grammar)``.

    Subscripting ensures the rule's tables are computed, so path isolation
    can share the index's node segments instead of rebuilding the full
    segment dictionary on every update.
    """

    __slots__ = ("_index",)

    def __init__(self, index: "GrammarIndex") -> None:
        self._index = index

    def __getitem__(self, head: Symbol) -> List[int]:
        self._index._ensure(head)
        return self._index._node_segments[head]

    def get(self, head: Symbol, default=None):
        try:
            return self[head]
        except GrammarError:
            return default

    def __contains__(self, head: Symbol) -> bool:
        return self._index._grammar.has_rule(head)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._index._grammar.rules)


class GrammarIndex:
    """Cached count tables over a grammar, kept correct across updates.

    One index should be owned per mutable grammar (e.g. by
    :class:`repro.api.CompressedXml`); it registers itself as an observer
    on construction and can be released with :meth:`detach`.
    """

    def __init__(self, grammar: Grammar, register: bool = True) -> None:
        self._grammar = grammar
        self._node_segments: Dict[Symbol, List[int]] = {}
        self._elem_segments: Dict[Symbol, List[int]] = {}
        self._tables: Dict[Symbol, Dict[int, _NodeInfo]] = {}
        # Reverse call edges registered at computation time: callee -> rule
        # heads whose cached tables were derived from it.
        self._dependents: Dict[Symbol, Set[Symbol]] = {}
        # Memoized ``_locate_element`` descents.  Relabels change neither
        # subtree sizes nor node identities, so a located path stays
        # valid across rename traffic (the hot case: repeated point
        # updates to the same region); any structural change clears it.
        self._locations: Dict[Tuple[int, bool], tuple] = {}
        # Eviction instrumentation: per-rule evictions through the observer
        # channel vs wholesale resets.  Dirty-rule-scoped recompression is
        # asserted against these (untouched rules must keep their tables).
        self.evicted_rules = 0
        self.wholesale_invalidations = 0
        # The flat-array descent kernel (see :mod:`repro.grammar.kernel`):
        # per-rule packed integer encodings of the rule bodies, riding this
        # index's observer forwarding so packs and tables share one
        # invalidation lifetime.  Every descent below runs on it.
        self._kernel = GrammarKernel(self)
        self._registered = register
        if register:
            grammar.register_observer(self)

    @property
    def grammar(self) -> Grammar:
        return self._grammar

    def detach(self) -> None:
        """Unregister from the grammar; the index must not be used after."""
        if self._registered:
            self._grammar.unregister_observer(self)
            self._registered = False

    # ------------------------------------------------------------------
    # invalidation (grammar observer protocol)
    # ------------------------------------------------------------------
    def rule_changed(self, head: Symbol) -> None:
        self._evict(head)

    def rule_removed(self, head: Symbol) -> None:
        self._evict(head)

    def rule_relabeled(self, head: Symbol) -> None:
        """A terminal relabel changes no size any table here caches --
        keep everything (the tables reference live nodes, so even
        ``tag_of`` stays correct through the relabeled symbol).  The
        kernel pack of the relabeled rule *does* go: it caches interned
        symbol ids and names per position.  Only that one rule's pack --
        dependents' packs reference the relabeled terminal solely through
        this rule's body, which they never cache into their own arrays."""
        self._kernel.evict(head)

    def _evict(self, head: Symbol) -> None:
        """Drop cached tables of ``head`` and its transitive dependents.

        A rule is only ever cached after its callees (anti-SL order), so a
        cached dependent always has its reverse edge registered here --
        walking the dependent closure is sound.  Uncached rules are clean
        by definition (they recompute lazily).
        """
        self._locations.clear()
        kernel = self._kernel
        stack = [head]
        while stack:
            current = stack.pop()
            if current not in self._node_segments:
                continue
            del self._node_segments[current]
            del self._elem_segments[current]
            self._tables.pop(current, None)
            # A pack can only exist for a rule with computed tables
            # (it aliases them), so the cascade reaches every pack.
            kernel.evict(current)
            self.evicted_rules += 1
            stack.extend(self._dependents.pop(current, ()))

    def invalidate_all(self) -> None:
        """Drop every cache entry (e.g. after a full recompression run)."""
        self._node_segments.clear()
        self._elem_segments.clear()
        self._tables.clear()
        self._dependents.clear()
        self._locations.clear()
        self._kernel.invalidate_all()
        self.wholesale_invalidations += 1

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "evicted_rules": self.evicted_rules,
            "wholesale_invalidations": self.wholesale_invalidations,
            "cached_rules": len(self._node_segments),
        }

    # ------------------------------------------------------------------
    # flat-array kernel access
    # ------------------------------------------------------------------
    def kernel_info(self) -> dict:
        """Kernel stats for status surfaces (``durable status --json``)."""
        return self._kernel.to_dict()

    @property
    def kernel(self) -> GrammarKernel:
        """The flat-array kernel every descent of this index runs on."""
        return self._kernel

    @property
    def cached_rule_count(self) -> int:
        """How many rules currently have computed tables."""
        return len(self._node_segments)

    def is_cached(self, head: Symbol) -> bool:
        """True when ``head``'s tables are currently materialized."""
        return head in self._node_segments

    def cached_rules(self) -> Tuple[Symbol, ...]:
        """The rules with materialized segments, for external audits
        (the storage scrub verifies exactly these against a fresh
        recomputation and evicts the ones that drifted)."""
        return tuple(self._node_segments)

    # ------------------------------------------------------------------
    # snapshot state (the serializable half of the cache)
    # ------------------------------------------------------------------
    def export_segments(self) -> Dict[Symbol, Tuple[List[int], List[int]]]:
        """Per-rule (node, element) segment lists for every rule.

        Forces the whole reachable grammar first, so a snapshot built
        from this restores counting/addressing for *all* rules.  The
        id-keyed per-node tables are deliberately not exported -- they
        reference live ``Node`` objects and rebuild lazily per rule on
        first descent.
        """
        self._ensure(self._grammar.start)
        for head in self._grammar.rules:
            if head not in self._node_segments:
                self._ensure(head)  # unreachable-but-live rules, if any
        return {
            head: (list(self._node_segments[head]),
                   list(self._elem_segments[head]))
            for head in self._node_segments
        }

    def import_segments(
        self, segments: Dict[Symbol, Tuple[List[int], List[int]]]
    ) -> None:
        """Adopt snapshot segment lists without recomputation.

        Rebuilds the reverse call edges from the grammar so per-rule
        observer evictions keep cascading correctly over imported
        entries.  Counting queries (``element_count``, subtree sizes)
        are answered straight from the imported lists; descents rebuild
        their per-node tables lazily, one rule at a time.
        """
        grammar = self._grammar
        self._node_segments.clear()
        self._elem_segments.clear()
        self._tables.clear()
        self._dependents.clear()
        # A fresh table generation, not an eviction event: packs
        # rebuild lazily per rule (no wholesale-invalidation count --
        # snapshot opens must report ``rules_packed == 0`` cleanly).
        self._kernel.reset()
        for head, (node_segs, elem_segs) in segments.items():
            if head not in grammar.rules:
                raise GrammarError(
                    f"segments for unknown rule {head!r}"
                )
            if len(node_segs) != head.rank + 1 or \
                    len(elem_segs) != head.rank + 1:
                raise GrammarError(
                    f"rule {head!r}: segment arity does not match rank "
                    f"{head.rank}"
                )
            self._node_segments[head] = list(node_segs)
            self._elem_segments[head] = list(elem_segs)
        for head in self._node_segments:
            walk = [grammar.rhs(head)]
            seen: Set[Symbol] = set()
            while walk:
                node = walk.pop()
                symbol = node.symbol
                if symbol.is_nonterminal and symbol not in seen:
                    seen.add(symbol)
                    self._dependents.setdefault(symbol, set()).add(head)
                walk.extend(node.children)

    # ------------------------------------------------------------------
    # lazy recompute (bottom-up along the call DAG)
    # ------------------------------------------------------------------
    def _ensure(self, head: Symbol) -> None:
        # Membership is judged on the id-keyed per-node tables, not the
        # segment lists: imported snapshot state restores the segments
        # (the cross-rule aggregates) without tables, and those rules
        # must still rebuild their table lazily on first descent.
        if head in self._tables:
            return
        pending: Set[Symbol] = set()
        stack = [head]
        while stack:
            current = stack[-1]
            if current in self._tables:
                pending.discard(current)
                stack.pop()
                continue
            pending.add(current)
            rhs = self._grammar.rhs(current)
            callees: List[Symbol] = []
            seen: Set[Symbol] = set()
            walk = [rhs]
            while walk:
                node = walk.pop()
                symbol = node.symbol
                if symbol.is_nonterminal and symbol not in seen:
                    seen.add(symbol)
                    callees.append(symbol)
                walk.extend(node.children)
            missing = [c for c in callees if c not in self._node_segments]
            if missing:
                for callee in missing:
                    if callee in pending:
                        raise GrammarError(
                            f"grammar is recursive: cycle through {callee!r}"
                        )
                stack.extend(missing)
                continue
            self._compute(current, rhs, callees)
            pending.discard(current)
            stack.pop()

    def _compute(self, head: Symbol, rhs: Node, callees: List[Symbol]) -> None:
        node_segments = self._node_segments
        elem_segments = self._elem_segments

        # Pass 1 (post-order): per-node generated sizes and parameter sets.
        table: Dict[int, _NodeInfo] = {}
        stack: List[Tuple[Node, bool]] = [(rhs, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
                continue
            symbol = node.symbol
            if symbol.is_parameter:
                table[id(node)] = (0, 0, (symbol.param_index,))
                continue
            nodes = elems = 0
            params: Tuple[int, ...] = ()
            for child in node.children:
                child_nodes, child_elems, child_params = table[id(child)]
                nodes += child_nodes
                elems += child_elems
                if child_params:
                    params += child_params
            if symbol.is_terminal:
                nodes += 1
                if not symbol.is_bottom:
                    elems += 1
            else:
                nodes += sum(node_segments[symbol])
                elems += sum(elem_segments[symbol])
            table[id(node)] = (nodes, elems, params)

        # Pass 2 (preorder): split both counts at the parameters, weaving in
        # the callees' segments around their argument subtrees.
        node_segs: List[int] = []
        elem_segs: List[int] = []
        current_nodes = current_elems = 0
        walk: List[object] = [rhs]
        while walk:
            item = walk.pop()
            if item.__class__ is tuple:
                current_nodes += item[0]
                current_elems += item[1]
                continue
            symbol = item.symbol
            if symbol.is_parameter:
                node_segs.append(current_nodes)
                elem_segs.append(current_elems)
                current_nodes = current_elems = 0
            elif symbol.is_terminal:
                current_nodes += 1
                if not symbol.is_bottom:
                    current_elems += 1
                walk.extend(reversed(item.children))
            else:
                callee_nodes = node_segments[symbol]
                callee_elems = elem_segments[symbol]
                current_nodes += callee_nodes[0]
                current_elems += callee_elems[0]
                interleaved: List[object] = []
                for position, child in enumerate(item.children, start=1):
                    interleaved.append(child)
                    interleaved.append(
                        (callee_nodes[position], callee_elems[position])
                    )
                walk.extend(reversed(interleaved))
        node_segs.append(current_nodes)
        elem_segs.append(current_elems)
        if len(node_segs) != head.rank + 1:
            raise GrammarError(
                f"rule {head!r}: found {len(node_segs) - 1} parameters, "
                f"rank is {head.rank}"
            )

        node_segments[head] = node_segs
        elem_segments[head] = elem_segs
        self._tables[head] = table
        for callee in callees:
            self._dependents.setdefault(callee, set()).add(head)

    # ------------------------------------------------------------------
    # whole-document totals
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """``|valG(S)|`` in nodes (including ``⊥``), without decompression."""
        start = self._grammar.start
        self._ensure(start)
        return sum(self._node_segments[start])

    @property
    def element_count(self) -> int:
        """Number of non-``⊥`` nodes of ``valG(S)``: the document's elements."""
        start = self._grammar.start
        self._ensure(start)
        return sum(self._elem_segments[start])

    def segments(self) -> _SegmentsView:
        """Node segments as a lazy mapping, API-compatible with
        :func:`repro.grammar.properties.parameter_segments`."""
        return _SegmentsView(self)

    # ------------------------------------------------------------------
    # element addressing
    # ------------------------------------------------------------------
    def _sizes(
        self,
        node: Node,
        env: Tuple[_Binding, ...],
        table: Dict[int, _NodeInfo],
    ) -> Tuple[int, int]:
        """Generated (nodes, elements) of a RHS subtree with parameters bound."""
        nodes, elems, params = table[id(node)]
        for param in params:
            binding = env[param - 1]
            nodes += binding[3]
            elems += binding[4]
        return nodes, elems

    def _locate_element(
        self, element_index: int, track_axes: bool = False
    ) -> Tuple[int, Node, Tuple[_Binding, ...], Dict[int, _NodeInfo],
               List[PathStep], Optional[int], int]:
        """Descend the derivation to the ``element_index``-th element.

        Returns ``(binary preorder index, generating terminal node, binding
        environment, that node's rule table, derivation path, parent
        element index, document depth)``: everything the public queries
        need, in one ``O(depth · rule-width)`` walk.
        The recorded :class:`PathStep` list is exactly what
        :func:`repro.grammar.navigation.resolve_preorder_path` would
        produce for the resulting preorder index, so path isolation can
        replay it without a second descent.

        With ``track_axes`` the walk visits *every* binary ancestor of the
        target: in the first-child/next-sibling encoding the target's
        document parent is the last element from which the walk takes a
        first-child (slot 1) edge -- next-sibling (slot 2) edges stay on
        the same child list -- and depth counts those edges (the root has
        depth 0).  This forgoes the descend-directly-into-an-argument
        shortcut (whose skipped rule-body path may contain exactly those
        ancestors) and always enters the rule instead: same
        ``O(depth · rule-width)`` bound, and the recorded steps then
        over-approximate the isolation path, so axis queries ignore them.
        Without ``track_axes`` the two trailing results are meaningless.
        """
        check_element_index(element_index)
        total = self.element_count  # ensures the start rule's tables
        if element_index >= total:
            raise IndexError(
                f"element index {element_index} out of range "
                f"({total} elements)"
            )
        key = (element_index, track_axes)
        cached = self._locations.get(key)
        if cached is not None:
            position, node, env, table, steps, parent, depth = cached
            return position, node, env, table, list(steps), parent, depth
        located = kernel_locate_element(
            self, self._kernel, element_index, track_axes
        )
        position, node, env, table, steps, parent, depth = located
        if len(self._locations) >= 4096:
            self._locations.clear()
        self._locations[key] = (
            position, node, env, table, tuple(steps), parent, depth,
        )
        return located

    def preorder_of_element(self, element_index: int) -> int:
        """Binary preorder index of the ``element_index``-th element."""
        return self._locate_element(element_index)[0]

    def iter_element_symbols(
        self, start: int, stop: Optional[int] = None
    ) -> Iterator[Symbol]:
        """Element symbols ``start..stop-1`` in document order.

        The walk mirrors :func:`repro.grammar.navigation.stream_preorder`
        but skips any RHS subtree generating only elements before
        ``start`` in O(1) via the cached subtree sizes, so reaching the
        window costs O(depth · rule-width) instead of streaming the
        ``start`` preceding elements -- this is the indexed range
        iterator behind :meth:`repro.api.CompressedXml.tags`.
        """
        # From-the-end indices are ambiguous under concurrent updates;
        # reject negative bounds uniformly instead of silently yielding an
        # empty window for a negative ``stop`` (slicing-like callers
        # would misread that as "window past the end").
        check_element_index(start, "element window start")
        if stop is not None:
            check_element_index(stop, "element window stop")
        total = self.element_count  # ensures the start rule's tables
        if stop is None or stop > total:
            stop = total
        return kernel_iter_element_symbols(self, self._kernel, start, stop)

    def resolve_element(
        self, element_index: int
    ) -> Tuple[int, List[PathStep]]:
        """One-descent combo for the update path: the element's binary
        preorder index *and* its derivation path, ready for
        :func:`repro.updates.path_isolation.isolate` to replay."""
        located = self._locate_element(element_index)
        return located[0], located[4]

    def resolve_preorder(self, position: int) -> List[PathStep]:
        """Derivation path to the node at binary preorder ``position``.

        Produces exactly the steps
        :func:`repro.grammar.navigation.resolve_preorder_path` would --
        but descends on the cached per-RHS-node subtree sizes, so each
        step costs O(rule width) instead of the O(generated subtree)
        node walk ``generated_size_of_subtree_with_env`` pays per child
        probe.  This is the resolver behind append targets (child-list
        terminators are *nodes*, not elements, so the element descent
        cannot address them): without it, every append to a long child
        list re-walks the list's whole compressed representation.
        """
        check_element_index(position, "preorder position")
        total = self.node_count  # ensures the start rule's tables
        if position >= total:
            raise IndexError(
                f"preorder index {position} out of range for a tree of "
                f"{total} nodes"
            )
        return kernel_resolve_preorder(self, self._kernel, position)

    def tag_of(self, element_index: int) -> str:
        """Label of the ``element_index``-th element (document order)."""
        return self._locate_element(element_index)[1].symbol.name

    def _locate_fcns(self, element_index: int):
        """:meth:`_locate_element` for callers about to read the element's
        two binary slots: its generating terminal must be a rank-2
        first-child/next-sibling element."""
        located = self._locate_element(element_index)
        symbol = located[1].symbol
        if symbol.rank != 2:
            raise GrammarError(
                f"element {element_index} is generated by "
                f"{symbol!r}; expected a binary-encoded element of rank 2"
            )
        return located

    def resolve_element_with_extent(
        self, element_index: int
    ) -> Tuple[int, List[PathStep], int, int]:
        """Everything batch planning needs about an element, in one walk.

        Returns ``(binary preorder index, derivation path, unranked
        subtree extent in elements, child-list terminator's binary
        preorder index)`` -- the combination of :meth:`resolve_element`,
        :meth:`element_subtree_extent`, and
        :meth:`end_of_children_position` at the cost of a single
        ``O(depth · rule-width)`` descent.
        """
        position, node, env, table, steps, _parent, _depth = \
            self._locate_fcns(element_index)
        first_nodes, first_elems = self._sizes(node.children[0], env, table)
        return position, steps, 1 + first_elems, position + first_nodes

    def element_subtree_extent(self, element_index: int) -> int:
        """Elements of the *unranked* subtree rooted at an element.

        The element itself plus all of its document descendants: in the
        first-child/next-sibling encoding these are exactly the element
        and the non-``⊥`` terminals of its first-child subtree, so the
        answer is one subtree-size lookup (``O(depth · rule-width)``).
        ``delete(element_index)`` removes exactly this many elements --
        the quantity batch planning needs to shift later targets.
        """
        _pos, node, env, table, _steps, _parent, _depth = \
            self._locate_fcns(element_index)
        _nodes, elems = self._sizes(node.children[0], env, table)
        return 1 + elems

    def end_of_children_position(self, element_index: int) -> int:
        """Preorder index of the ``⊥`` terminating an element's child list.

        In the first-child/next-sibling encoding the terminator is the
        preorder-last node of the element's first-child subtree, so it sits
        exactly ``size(subtree(u.1))`` positions after the element ``u``
        itself -- one subtree-size lookup instead of a stream walk.
        """
        position, node, env, table, _steps, _parent, _depth = \
            self._locate_fcns(element_index)
        first_child_nodes, _ = self._sizes(node.children[0], env, table)
        return position + first_child_nodes

    # ------------------------------------------------------------------
    # document-tree navigation (axes over element indices)
    # ------------------------------------------------------------------
    def _child_slot_elements(self, element_index: int) -> Tuple[int, int]:
        """Elements generated below the element's two binary slots:
        ``(descendants, following siblings + their descendants)``."""
        _pos, node, env, table, _steps, _parent, _depth = \
            self._locate_fcns(element_index)
        _nodes, below = self._sizes(node.children[0], env, table)
        _nodes, after = self._sizes(node.children[1], env, table)
        return below, after

    def parent_of(self, element_index: int) -> Optional[int]:
        """Element index of the document parent (``None`` for the root).

        One ``O(depth · rule-width)`` descent: the parent is the last
        element from which the descent took a first-child edge.
        """
        return self._locate_element(element_index, track_axes=True)[5]

    def depth_of(self, element_index: int) -> int:
        """Document depth of an element (the root has depth 0)."""
        return self._locate_element(element_index, track_axes=True)[6]

    def first_child(self, element_index: int) -> Optional[int]:
        """Element index of the first child, or ``None`` for a leaf.

        In document order the first child immediately follows its parent,
        so the answer is ``element_index + 1`` whenever the element's
        first-child slot generates any element at all.
        """
        below, _after = self._child_slot_elements(element_index)
        return element_index + 1 if below else None

    def next_sibling(self, element_index: int) -> Optional[int]:
        """Element index of the next sibling, or ``None`` for a last child.

        The next sibling follows the element's whole subtree in document
        order: ``element_index + 1 + #descendants``, provided the
        next-sibling slot generates any element.
        """
        below, after = self._child_slot_elements(element_index)
        return element_index + 1 + below if after else None

    def children_with_tags(self, element_index: int) -> Iterator[Tuple[int, str]]:
        """``(element index, tag)`` of the direct children, document order.

        One ``O(depth · rule-width)`` descent per child: each locate
        yields the child's terminal (its tag for free) *and* the subtree
        sizes that address the next sibling -- the single-pass primitive
        child-axis query steps ride, instead of paying separate
        ``next_sibling`` + ``tag_of`` descents per sibling.
        """
        child = self.first_child(element_index)
        while child is not None:
            _pos, node, env, table, _steps, _parent, _depth = \
                self._locate_fcns(child)
            yield child, node.symbol.name
            _nodes, after = self._sizes(node.children[1], env, table)
            if not after:
                return
            _nodes, below = self._sizes(node.children[0], env, table)
            child = child + 1 + below

    def children(self, element_index: int) -> Iterator[int]:
        """Element indices of the direct children, in document order.

        Each step is one derivation descent, so enumerating ``k``
        children costs ``O(k · depth · rule-width)`` -- independent of
        the subtree sizes skipped between siblings.
        """
        for child, _tag in self.children_with_tags(element_index):
            yield child

    # ------------------------------------------------------------------
    # raw table access (the query subsystem's substrate)
    # ------------------------------------------------------------------
    def rule_table(self, head: Symbol) -> Dict[int, _NodeInfo]:
        """The per-RHS-node ``(nodes, elements, parameters)`` table of a
        rule, computing it (and its callees') on demand.

        This is the read-only substrate :mod:`repro.query.engine` walks:
        the entries are keyed by ``id(rhs_node)`` and stay valid exactly
        as long as the rule is untouched -- the observer channel evicts
        the table on any mutation, so callers must re-fetch per query and
        never cache across updates.
        """
        self._ensure(head)
        return self._tables[head]

    def element_segments(self, head: Symbol) -> List[int]:
        """The rule's element-count segments ``[e0, ..., ek]``: elements
        generated by the body before the first parameter, between
        consecutive parameters (preorder), and after the last.

        The query engine uses them to hop over a rule body whose label
        census is zero without walking it: the virtual preorder is
        ``seg0, arg1, seg1, ..., argk, segk``, so the element cursor can
        advance by whole body segments while only the argument subtrees
        are visited.  Same caching/invalidation as every other table.
        """
        self._ensure(head)
        return self._elem_segments[head]
