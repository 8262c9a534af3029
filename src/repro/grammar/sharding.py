"""Spine sharding: bounded-width start rules via balanced shard chains.

Under sustained update traffic every path isolation inlines rule bodies
into the start rule, so the start RHS grows without bound -- and every
isolation, index recompute, and residual rule walk is ``O(|start RHS|)``,
silently degrading the paper's O(depth) update claim to O(N) at the root.
Maneth & Sebastian's structural self-indexes keep navigation logarithmic
by keeping the grammar *spine* balanced; Leighton & Barbosa's XML
compressors get their bounds from controlling production width.  This
module applies the same discipline to the mutable start rule:

* When a *spine rule* (the start rule or a shard) exceeds the width
  budget -- more than ``2 * width`` RHS nodes -- :class:`ShardManager`
  splits it into fresh rank-``<=1`` **shard rules**.  The split walks
  the rule body's *spine path* (towards its parameter if it has one,
  else along heavy children), carves every sizable off-path subtree into
  a rank-0 shard, cuts the path itself into ``~width``-node segments
  that become rank-1 *chunk* rules (the segment's continuation replaced
  by ``y1``), and rewrites the body as their composition
  ``Ch1(Ch2(... Chm ...))``.  A composition chain that is itself wider
  than the budget is re-chunked the same way, so a start RHS of ``n``
  nodes becomes a *balanced* shard hierarchy of depth
  ``O(log^2(n / width))`` whose rules all have ``O(width)`` nodes --
  the ``S -> Sh1(Sh2(...))`` shape, nested.

* Each shard is referenced **exactly once**, from its parent spine rule.
  That makes in-place mutation of a shard body semantically local: path
  isolation that lands in one shard re-isolates only that shard's
  ``O(width)`` body (see :func:`repro.updates.path_isolation.isolate`),
  and the persistent indexes see one shard eviction plus its
  ``O(log)``-deep ancestor chain instead of a whole-start invalidation.

* A post-epoch :meth:`reshard` pass -- hooked into the same place as the
  auto-recompress policy -- rebalances *only the rules the epoch
  touched*: rules that drifted past ``2 * width`` are re-split, shards
  that fell below ``width // 2`` are merged back into their parent in
  the pass that finds them (the parent is then itself re-checked).  A
  recompression is an epoch like any other: the shard bodies it thinned
  reported ``rule_changed``, so the pass after it merges them.  Splits
  and merges go through the grammar observer channel rule by rule, so
  the structural, label, and occurrence indexes treat them as ordinary
  local events -- never a wholesale invalidation.

Recompression interacts through the *barrier* contract (see
:class:`repro.core.resolve.Resolver`): shard reference edges are never
censused and never resolved through, so GrammarRePair compresses shard
interiors -- and everything below them -- while the spine skeleton stays
put; the pruning phase receives the shard heads as protected rules so the
single-reference shards are not inlined away.

The manager is deliberately oblivious to *where* inside its parent a
shard reference sits: digram replacement may bury the reference under a
fresh digram rule application within the same spine rule, which is fine
-- merging locates the reference by a scan of the parent body
(``O(width)``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.grammar.slcf import Grammar, GrammarError
from repro.obs.metrics import NULL_METRIC
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = [
    "ShardManager", "ShardStats", "DEFAULT_SHARD_WIDTH", "MIN_SHARD_WIDTH",
]

#: Default width budget (RHS nodes) for spine rules.  At the EXI-Weblog
#: benchmark scale this keeps isolation and index recompute around a few
#: hundred nodes per update while creating only a handful of shard levels.
DEFAULT_SHARD_WIDTH = 256

#: Widths below this make the heavy-path cut degenerate (a cut must be
#: able to carve out a multi-node subtree strictly inside the rule body).
MIN_SHARD_WIDTH = 8


def _find(root: Node, match: Callable[[Node], bool]) -> Optional[Node]:
    """The first node of ``root``'s subtree (depth-first) that ``match``
    accepts -- a shard's application in its parent body, or a body's
    parameter leaf (a spine rule has at most one)."""
    stack = [root]
    while stack:
        node = stack.pop()
        if match(node):
            return node
        stack.extend(node.children)
    return None


def _is_parameter(node: Node) -> bool:
    return node.symbol.is_parameter


@dataclass
class ShardStats:
    """Lifetime instrumentation of one :class:`ShardManager`.

    ``splits`` counts spine rules that were split (one split may mint
    several shards -- ``shards_created`` counts those); ``merges`` counts
    shards inlined back into their parent, each in the reshard pass that
    found it under ``width // 2``.  ``reshard_runs`` only counts
    invocations that had touched spine rules to examine.
    """

    splits: int = 0
    merges: int = 0
    shards_created: int = 0
    shards_removed: int = 0
    reshard_runs: int = 0
    #: Widths (RHS nodes) of spine rules observed at reshard time, before
    #: rebalancing -- the drift the policy is reacting to.
    max_width_seen: int = 0
    #: Shard heads removed by garbage collection (a delete took the whole
    #: shard subtree with it) rather than by an explicit merge.
    collected: int = 0
    #: The most recent rebalancing actions (debugging aid).  Bounded: a
    #: long-lived document performs one action per drifted rule forever,
    #: and the manager must not accumulate memory alongside the
    #: O(width)-bounded grammar it exists to guarantee.
    history: Deque[str] = field(default_factory=lambda: deque(maxlen=64))

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "splits": self.splits,
            "merges": self.merges,
            "shards_created": self.shards_created,
            "shards_removed": self.shards_removed,
            "reshard_runs": self.reshard_runs,
            "max_width_seen": self.max_width_seen,
            "collected": self.collected,
        }


class ShardManager:
    """Keeps the spine rules of one mutable grammar inside a width budget.

    One manager is owned per grammar (by
    :class:`repro.api.CompressedXml` when constructed with
    ``shard_width``); it registers as a grammar observer to track which
    spine rules each mutation epoch touched, and :meth:`reshard`
    rebalances exactly those.

    ``heads`` is the live set of shard rule heads.  It doubles as

    * the *spine* set path isolation descends through without inlining
      (:func:`repro.updates.path_isolation.isolate` ``spine=``),
    * the *barrier* set recompression must not resolve through
      (:class:`repro.core.grammar_repair.GrammarRePair` ``barriers=``),
    * the *protected* set the pruning phase must not inline
      (handled via the same ``barriers`` parameter).
    """

    def __init__(
        self,
        grammar: Grammar,
        width: int = DEFAULT_SHARD_WIDTH,
        prefix: str = "Sp",
        parents: Optional[Dict[Symbol, Symbol]] = None,
    ) -> None:
        """Attach a manager to ``grammar``.

        Without ``parents`` the grammar may arrive with an oversized
        start rule (a freshly compressed document, a loaded grammar
        file): one reshard pass brings it inside the budget.  With
        ``parents`` -- the shard hierarchy of a snapshot, shard head ->
        the spine rule holding its reference -- the manager adopts it
        as is, with zero split/merge work, after checking it against
        the grammar: a shard section that does not match its grammar
        raises :class:`~repro.grammar.slcf.GrammarError` here rather
        than corrupting later isolations.
        """
        if width < MIN_SHARD_WIDTH:
            raise ValueError(
                f"shard width must be >= {MIN_SHARD_WIDTH}, got {width}"
            )
        self._grammar = grammar
        self.width = width
        self.prefix = prefix
        # shard head -> spine rule whose RHS holds its single reference.
        self._parent: Dict[Symbol, Symbol] = dict(parents or {})
        self.heads: Set[Symbol] = set(self._parent)
        # Spine rules mutated since the last reshard (observer-fed).
        self._touched: Set[Symbol] = set()
        # Reentrancy guard: the manager's own splits/merges fire observer
        # notifications (for the indexes); they must not re-dirty us.
        self._resharding = False
        self.stats = ShardStats()
        self._m_split = self._m_merge = self._m_demote = NULL_METRIC
        if parents is not None:
            for head in self.heads:
                if head not in grammar.rules:
                    raise GrammarError(f"shard head {head!r} has no rule")
            self.check_invariants()
        grammar.register_observer(self)
        if parents is None:
            self._touched.add(grammar.start)
            self.reshard()

    def bind_metrics(self, registry) -> None:
        """Resolve per-action latency histograms against ``registry``.

        Wiring-time resolution: a disabled registry hands back the
        shared null metric and the action sites stay branch-free.
        """
        self._m_split = registry.histogram(
            "repro_reshard_stage_seconds",
            "Latency of one shard rebalancing action",
            stage="split",
        )
        self._m_merge = registry.histogram(
            "repro_reshard_stage_seconds",
            "Latency of one shard rebalancing action",
            stage="merge",
        )
        self._m_demote = registry.histogram(
            "repro_reshard_stage_seconds",
            "Latency of one shard rebalancing action",
            stage="demote",
        )

    def export_state(self):
        """The serializable shard hierarchy: (width, prefix, parent map).

        ``heads`` is implied by the parent map's keys -- every shard has
        exactly one parent spine rule.
        """
        return self.width, self.prefix, dict(self._parent)

    # ------------------------------------------------------------------
    # grammar observer protocol
    # ------------------------------------------------------------------
    def rule_changed(self, head: Symbol) -> None:
        if self._resharding:
            return
        if head is self._grammar.start or head in self.heads:
            self._touched.add(head)

    def rule_relabeled(self, head: Symbol, node: Node) -> None:
        """A relabel changes no width -- nothing to rebalance."""

    def rule_removed(self, head: Symbol) -> None:
        self._touched.discard(head)
        if head in self.heads:
            # A delete (or garbage collection after one) dropped the
            # shard's single reference together with its subtree; any
            # nested shards lose their references the same way and are
            # reported here one by one.
            self.heads.discard(head)
            self._parent.pop(head, None)
            if not self._resharding:
                self.stats.collected += 1
                self.stats.shards_removed += 1

    def detach(self) -> None:
        self._grammar.unregister_observer(self)

    def __contains__(self, symbol: Symbol) -> bool:
        """Set-like membership: the isolation layer's ``spine`` protocol."""
        return symbol in self.heads

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def grammar(self) -> Grammar:
        return self._grammar

    @property
    def shard_count(self) -> int:
        return len(self.heads)

    def spine_rules(self) -> List[Symbol]:
        """The start rule plus every shard head (insertion-independent)."""
        return [self._grammar.start, *self.heads]

    def parent_of(self, head: Symbol) -> Optional[Symbol]:
        """The spine rule holding ``head``'s single reference."""
        return self._parent.get(head)

    def width_of(self, head: Symbol) -> int:
        """Current RHS width (nodes) of a rule -- the manager's one
        width source.  A body walk; the owning document plugs in its
        structural index's reading instead (a packed rule's width is
        the length of its columns)."""
        return self._grammar.rule_width(head)

    def max_spine_width(self) -> int:
        """The widest spine rule right now -- the bench's bounded metric."""
        return max(self.width_of(head) for head in self.spine_rules())

    def spine_depth(self) -> int:
        """Longest shard-reference chain below the start rule."""
        depth: Dict[Symbol, int] = {}

        def resolve(head: Symbol) -> int:
            chain: List[Symbol] = []
            current: Optional[Symbol] = head
            while current is not None and current not in depth:
                chain.append(current)
                current = self._parent.get(current)
            base = 0 if current is None else depth[current]
            for link in reversed(chain):
                base += 1
                depth[link] = base
            return depth[head]

        return max((resolve(head) for head in self.heads), default=0)

    def check_invariants(self) -> None:
        """Assert the shard model (tests/debugging; walks the grammar).

        Every shard head must be a rank-``<=1`` rule referenced exactly
        once, from a spine rule; no shard reference may occur outside
        the spine.
        """
        grammar = self._grammar
        refs: Dict[Symbol, List[Symbol]] = {head: [] for head in self.heads}
        for head, rhs in grammar.rules.items():
            stack = [rhs]
            while stack:
                node = stack.pop()
                if node.symbol in refs:
                    refs[node.symbol].append(head)
                stack.extend(node.children)
        spine = set(self.spine_rules())
        for head, owners in refs.items():
            if head.rank > 1:
                raise GrammarError(f"shard {head!r} has rank {head.rank}")
            if len(owners) != 1:
                raise GrammarError(
                    f"shard {head!r} referenced {len(owners)} times "
                    f"(from {owners!r}); must be exactly once"
                )
            if owners[0] not in spine:
                raise GrammarError(
                    f"shard {head!r} referenced from non-spine rule "
                    f"{owners[0]!r}"
                )
            if self._parent.get(head) is not owners[0]:
                raise GrammarError(
                    f"shard {head!r}: parent map says "
                    f"{self._parent.get(head)!r}, reference is in "
                    f"{owners[0]!r}"
                )

    # ------------------------------------------------------------------
    # rank repair (a delete may consume a chunk's continuation hole)
    # ------------------------------------------------------------------
    def repair_ranks(self) -> int:
        """Demote rank-1 shards whose parameter a delete consumed.

        A chunk rule's ``y1`` stands for the document continuation below
        the chunk.  A delete whose subtree extends across that boundary
        legitimately detaches the parameter with the deleted first-child
        chain -- the continuation *is* part of the deleted subtree -- but
        leaves a rank-1 rule with no parameter.  This pass (run by the
        update layer right after deletes, before any index recompute)
        restores the SLCF model: the rule is re-headed at rank 0 and the
        application in its parent drops its argument.  When the parent's
        own parameter sat inside that argument the demotion cascades --
        the delete swallowed several levels of continuation -- ending at
        a rank-0 spine rule by construction.  Returns the number of
        demotions performed.
        """
        grammar = self._grammar
        demoted = 0
        dropped_arguments: List[Node] = []
        for head in [h for h in self._touched if h in self.heads]:
            while (head is not None and head.rank > 0
                   and grammar.has_rule(head)
                   and _find(grammar.rhs(head), _is_parameter) is None):
                demote_started = time.perf_counter()
                head = self._demote(head, dropped_arguments)
                self._m_demote.observe(time.perf_counter() - demote_started)
                demoted += 1
        if dropped_arguments:
            # The dropped continuation arguments may have held the last
            # references to rules (including nested shards).
            from repro.grammar.properties import collect_garbage

            collect_garbage(grammar)
        return demoted

    def _demote(
        self, head: Symbol, dropped_arguments: List[Node]
    ) -> Optional[Symbol]:
        """Re-head a parameter-less rank-1 shard at rank 0 and drop the
        argument of its application.  Returns the owner when the dropped
        argument contained the owner's own parameter (cascade), else
        ``None``."""
        grammar = self._grammar
        owner = self._parent.get(head)
        if owner is None or not grammar.has_rule(owner):  # pragma: no cover
            return None
        application = self._application(owner, head)
        if application is None:  # pragma: no cover - invariant violation
            return None
        argument = application.children[0] if application.children else None
        fresh = grammar.alphabet.fresh_nonterminal(0, self.prefix)
        body = grammar.rhs(head)
        self.heads.add(fresh)
        self._parent[fresh] = owner
        grammar.set_rule(fresh, body)
        reference = Node(fresh)
        parent = application.parent
        if parent is None:
            grammar.set_rule(owner, reference)
        else:
            grammar.preserve_for_write(owner)
            parent.set_child(application.child_index(), reference)
            grammar.notify_rule_changed(owner)
        self._retire(head, fresh)
        self._touched.add(fresh)
        self._touched.add(owner)
        self.stats.history.append(f"demote {head.name} -> {fresh.name}")
        if argument is not None:
            argument.parent = None
            dropped_arguments.append(argument)
            if _find(argument, _is_parameter) is not None:
                return owner
        return None

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def reshard(self) -> int:
        """Rebalance the spine rules touched since the last call.

        Returns the number of split + merge actions performed.  Cost is
        ``O(width of the touched rules)`` when nothing drifted out of
        bounds (one :attr:`width_of` reading per touched rule), and
        proportional to the rebalanced mass otherwise -- never to the
        document or the untouched grammar.
        """
        if not self._touched:
            return 0
        touched = self._touched
        self._touched = set()
        grammar = self._grammar
        stats = self.stats
        stats.reshard_runs += 1
        actions = 0
        upper = 2 * self.width
        lower = self.width // 2
        work = list(touched)
        self._resharding = True
        try:
            while work:
                head = work.pop()
                if head is not grammar.start and head not in self.heads:
                    continue  # merged or collected while queued
                if not grammar.has_rule(head):
                    continue
                width = self.width_of(head)
                if width > stats.max_width_seen:
                    stats.max_width_seen = width
                if width > upper:
                    split_started = time.perf_counter()
                    owner = self._split(head, width)
                    self._m_split.observe(time.perf_counter() - split_started)
                    actions += 1
                    if owner is not None:
                        # A shard split grafts its chunk composition into
                        # the parent (width moves *up*, depth stays put);
                        # the parent may now be oversized itself.
                        work.append(owner)
                elif head in self.heads and width < lower:
                    merge_started = time.perf_counter()
                    merged = self._merge(head)
                    self._m_merge.observe(time.perf_counter() - merge_started)
                    if merged is not None:
                        actions += 1
                        # The parent absorbed the shard's body: it may
                        # now be oversized (or itself mergeable).
                        work.append(merged[0])
        finally:
            self._resharding = False
        return actions

    def recompression_settled(self) -> None:
        """No-op.  A recompression needs no hook of its own: the shard
        bodies it thinned reported ``rule_changed``, so the
        :meth:`reshard` pass that follows it merges them.  The name is
        kept because the end-to-end benchmark's tracer wraps it."""

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    def _split(self, owner: Symbol, owner_width: int) -> Optional[Symbol]:
        """Split an oversized spine rule; returns the rule to re-check.

        The start rule decomposes *in place*: its body becomes a chunk
        composition, adding one hierarchy level.  A **shard** split
        instead grafts the composition into its parent at the reference
        site (B-tree style): the shard rule disappears, its chunks
        become the parent's direct children, and the few nodes of the
        composition expression are the parent's width growth -- so
        sustained growth at one document position (the append-tail
        regime) propagates *width up the spine*, splitting ancestors
        amortizedly, instead of nesting ever-deeper shard chains at the
        hot spot.  Keeps the reference depth logarithmic under exactly
        the traffic that would otherwise degrade it.

        After a split every rule written has at most ``~2 * width``
        nodes; the returned parent (for shard grafts) may have grown
        past the budget and must be re-examined by the caller.
        """
        grammar = self._grammar
        before = self.stats.shards_created
        body = grammar.rhs(owner)
        parent_head = self._parent.get(owner)
        recheck: Optional[Symbol] = None
        if owner is grammar.start or parent_head is None \
                or not grammar.has_rule(parent_head):
            built = self._decompose(body)
            self._install(owner, built)
        else:
            built = self._decompose(body)
            if built is body:
                # Light cuts alone brought the body under budget; no
                # composition to graft.
                self._install(owner, built)
            else:
                self._graft(owner, parent_head, built)
                recheck = parent_head
        created = self.stats.shards_created - before
        self.stats.splits += 1
        self.stats.history.append(
            f"split {owner.name}[{owner_width}] +{created}"
        )
        return recheck

    def _graft(self, head: Symbol, parent_head: Symbol,
               expression: Node) -> None:
        """Replace ``head``'s reference in its parent by the composition
        ``expression`` its body decomposed into, and drop the rule."""
        grammar = self._grammar
        reference = self._application(parent_head, head)
        if reference is None:  # pragma: no cover - invariant violation
            self._install(head, expression)
            return
        if head.rank:
            # Substitute the application's argument into the
            # composition's parameter leaf (the expression generates the
            # old body, whose y1 stood for exactly that argument).
            argument = reference.children[0]
            hole = _find(expression, _is_parameter)
            assert hole is not None and hole.parent is not None
            argument.parent = None
            hole.parent.set_child(hole.child_index(), argument)
        # Adopt the expression's shard references (the chunk heads and
        # any shards riding along) into the parent.
        self._adopt(parent_head, expression)
        if reference.parent is None:
            grammar.set_rule(parent_head, expression)
        else:
            reference.parent.set_child(
                reference.child_index(), expression
            )
            grammar.notify_rule_changed(parent_head)
        self._retire(head, parent_head)

    def _install(self, head: Symbol, body: Node) -> None:
        """Install a freshly built rule body, adopting the shard
        references it contains into the parent map."""
        self._adopt(head, body)
        self._grammar.set_rule(head, body)

    def _adopt(self, owner: Symbol, root: Node) -> None:
        """Record ``owner`` as the parent of every shard referenced in
        ``root``'s subtree."""
        heads = self.heads
        scan = [root]
        while scan:
            node = scan.pop()
            if node.symbol in heads:
                self._parent[node.symbol] = owner
            scan.extend(node.children)

    def _application(self, owner: Symbol, head: Symbol) -> Optional[Node]:
        """Shard ``head``'s single application in ``owner``'s body, found
        by a scan (``O(width)``): recompression may bury it under a
        digram rule application anywhere in the body."""
        return _find(self._grammar.rhs(owner), lambda node: node.symbol is head)

    def _retire(self, head: Symbol, heir: Symbol) -> None:
        """Drop shard ``head``'s rule; the shards its body referenced are
        referenced from ``heir`` now."""
        for nested, parent in list(self._parent.items()):
            if parent is head:
                self._parent[nested] = heir
        self.heads.discard(head)
        self._parent.pop(head, None)
        self._grammar.remove_rule(head)

    @staticmethod
    def _subtree_sizes(root: Node) -> Dict[int, int]:
        """Post-order node counts per subtree, keyed by ``id(node)``."""
        sizes: Dict[int, int] = {}
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
                continue
            sizes[id(node)] = 1 + sum(
                sizes[id(child)] for child in node.children
            )
        return sizes

    def _decompose(self, root: Node) -> Node:
        """Rewrite a rule body (at most one parameter) to ``O(width)``
        nodes, minting shard rules for everything carved out.

        One round: follow the body's *spine path* -- towards the
        parameter when there is one (so no chunk ever needs two holes),
        else along heavy children -- then

        1. carve every off-path subtree larger than ``width // 4`` into
           a rank-0 shard (recursively decomposed),
        2. cut the path into segments of ``~width`` accumulated nodes;
           each segment becomes a rank-1 chunk rule whose ``y1`` stands
           for its continuation (the last segment keeps the original
           parameter instead, if any),
        3. return the segments' composition ``Ch1(Ch2(...Chm(...)))``.

        The composition chain has one node per segment; when it is still
        over budget the loop re-chunks it (its spine path is the chain
        itself), adding one hierarchy level per iteration -- balance for
        the sibling-chain bodies update traffic produces.
        """
        from repro.trees.symbols import parameter_symbol

        grammar = self._grammar
        upper = 2 * self.width
        light_max = max(1, self.width // 4)
        while True:
            sizes = self._subtree_sizes(root)
            if sizes[id(root)] <= upper:
                return root

            # The spine path: root towards the parameter leaf, or along
            # heavy children to a leaf when the body has no parameter.
            hole = _find(root, _is_parameter)
            path: List[Node] = []
            if hole is not None:
                node = hole.parent
                while node is not None:
                    path.append(node)
                    node = node.parent
                path.reverse()
            else:
                node = root
                while True:
                    path.append(node)
                    heaviest = None
                    for child in node.children:
                        if heaviest is None or \
                                sizes[id(child)] > sizes[id(heaviest)]:
                            heaviest = child
                    if heaviest is None:
                        break
                    node = heaviest
            on_path = {id(node) for node in path}
            if hole is not None:
                on_path.add(id(hole))

            # 1. Carve big off-path subtrees into rank-0 shards.  The
            # recursion bottoms out: an off-path subtree never contains
            # the parameter, and heavy-path rounds halve it.
            for node in path:
                for slot, child in enumerate(node.children, start=1):
                    if id(child) in on_path:
                        continue
                    if sizes[id(child)] <= light_max:
                        continue
                    shard = grammar.alphabet.fresh_nonterminal(
                        0, self.prefix
                    )
                    child.parent = None
                    node.set_child(slot, Node(shard))
                    self.heads.add(shard)
                    self.stats.shards_created += 1
                    self._install(shard, self._decompose(child))
            sizes = self._subtree_sizes(root)
            if sizes[id(root)] <= upper:
                return root

            # 2. Segment the path by accumulated weight (a path node
            # plus its now-small inline off-path subtrees).
            boundaries: List[int] = [0]
            accumulated = 0
            for index, node in enumerate(path):
                weight = sizes[id(node)]
                if index + 1 < len(path):
                    weight -= sizes[id(path[index + 1])]
                if accumulated and accumulated + weight > upper:
                    boundaries.append(index)
                    accumulated = 0
                accumulated += weight
                if accumulated >= self.width and index + 1 < len(path):
                    boundaries.append(index + 1)
                    accumulated = 0
            if boundaries and boundaries[-1] == len(path):
                boundaries.pop()
            if len(boundaries) < 2:
                return root  # cannot be segmented further

            # 3. Detach the segments innermost-first; each detachment
            # leaves a ``y1`` hole in the segment before it.
            chunk_heads: List[Symbol] = []
            for index in reversed(boundaries[1:]):
                first = path[index]
                parent = first.parent
                slot = first.child_index()
                first.parent = None
                parent.set_child(slot, Node(parameter_symbol(1)))
                rank = 1  # the continuation hole inserted above, or ...
                if index == boundaries[-1] and hole is None:
                    rank = 0  # ... a path that simply ends at a leaf
                head = grammar.alphabet.fresh_nonterminal(rank, self.prefix)
                self.heads.add(head)
                self.stats.shards_created += 1
                self._install(head, first)
                chunk_heads.append(head)
            top = grammar.alphabet.fresh_nonterminal(1, self.prefix)
            self.heads.add(top)
            self.stats.shards_created += 1
            self._install(top, path[0])
            chunk_heads.append(top)

            # Composition: top(next(...(last[...]))), innermost first.
            chunk_heads.reverse()  # outermost (the old root) first
            expression: Optional[Node] = None
            for head in reversed(chunk_heads):
                if expression is None:
                    expression = (
                        Node(head, [Node(parameter_symbol(1))])
                        if head.rank else Node(head)
                    )
                else:
                    expression = Node(head, [expression])
            assert expression is not None
            root = expression

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def absorb(self, head: Symbol, root: Node) -> Tuple[Symbol, Node]:
        """Merge shard ``head`` into its parent ahead of a delete of
        ``root``, its body's root, whose next sibling is the continuation
        parameter: deleting it in place would leave the bare parameter no
        rule body may be.  Returns the parent and ``root``'s copy there,
        where the delete lands instead."""
        self._grammar.preserve_for_write(self._parent[head])
        owner, copies = self._merge(head)
        return owner, copies[id(root)]

    def _merge(self, head: Symbol) -> Optional[Tuple[Symbol, Dict[int, Node]]]:
        """Inline an underweight shard back into its parent spine rule.

        Returns the parent head (so the caller can re-check its width)
        and the inline's copy map, or ``None`` when the shard's reference
        cannot be located (the shard is then left alone -- correctness
        never depends on merging).
        """
        from repro.grammar.derivation import inline_at

        grammar = self._grammar
        owner = self._parent.get(head)
        if owner is None or not grammar.has_rule(owner) \
                or not grammar.has_rule(head):
            return None
        reference = self._application(owner, head)
        if reference is None:  # pragma: no cover - invariant violation
            return None
        was_root = reference.parent is None
        new_root, copies = inline_at(grammar, reference)
        if was_root:
            grammar.set_rule(owner, new_root)
        else:
            grammar.notify_rule_changed(owner)
        # Nested shard references now live in the parent's RHS (inlining
        # copied the body; the reference *symbols* are unchanged).
        self._retire(head, owner)
        self.stats.merges += 1
        self.stats.shards_removed += 1
        self.stats.history.append(f"merge {head.name} -> {owner.name}")
        return owner, copies
