"""Optimized digram replacement (Algorithms 6-8).

Instead of inlining whole rules, the replacement maintains *rule versions*
``Q^F`` per isolation flag set ``F ⊆ {r, y1, y2, ...}``:

* ``r`` -- the version's root must be made an explicit terminal (a caller's
  generator resolves its tree *child* through this rule's root),
* ``yi`` -- the parent of parameter ``yi`` must be explicit (a caller's
  generator resolves its tree *parent* through ``yi``).

Versions are built lazily from the already-replaced original rule, marking
the isolated nodes, and *exporting* every maximal connected fragment of
unmarked non-parameter nodes into a fresh rule (Algorithm 8, the paper's
"lemma generation").  Inlining a version therefore copies only the marked
skeleton plus references to shared fragment rules -- this is what keeps the
intermediate grammar small (Figure 3's optimized curve).

The ReplacementDAG of the paper is realized implicitly: ``_version`` is
memoized on ``(symbol, flags)`` and recurses into sub-versions exactly
along the DAG's edges, while the driver visits the rules containing
occurrence generators bottom-up.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.core.retrieve import GrammarOccurrence
from repro.core.rewrite import inline_node, replace_digram_in_rule
from repro.grammar.derivation import inline_at
from repro.grammar.properties import anti_sl_order, reference_counts
from repro.grammar.slcf import Grammar
from repro.repair.digram import Digram, replace_occurrence_in_tree
from repro.trees.node import Node, deep_copy_with_map
from repro.trees.symbols import Symbol

__all__ = ["replace_all_occurrences_optimized", "OptimizedReplacer"]

#: Name prefix of exported fragment rules (``F1``, ``F2``, ...).
EXPORT_PREFIX = "F"

#: Flag values: the root flag, or a parameter index.
Flag = Union[str, int]
ROOT_FLAG = "r"


class OptimizedReplacer:
    """One digram-replacement round with version/export optimization."""

    def __init__(
        self,
        grammar: Grammar,
        digram: Digram,
        replacement: Symbol,
        occurrences: Sequence[GrammarOccurrence],
        opaque: Set[Symbol],
        ref_counts: Optional[Dict[Symbol, int]] = None,
        rule_order: Optional[Sequence[Symbol]] = None,
    ) -> None:
        self.grammar = grammar
        self.digram = digram
        self.replacement = replacement
        self.opaque = opaque
        # Rules whose installed right-hand sides this round mutated or
        # created -- the explicit edge-delta report consumed by the
        # incremental occurrence index (and cross-checked in tests against
        # the grammar's observer channel).
        self.touched_rules: Set[Symbol] = set()
        # Per rule: the mutations performed, in order, as tagged events --
        # ("edge", v, i, w, x) for an intra-rule replacement,
        # ("inline", n, region, argument_roots) for a version inlined at
        # node ``n``, where ``region`` lists the copy's nodes as inlined,
        # in DFS order from the copy root (``region[0]``), with the
        # argument roots at their positions.  Both deltas are local
        # (O(edit), not O(|rule|)), so the occurrence index can adapt
        # such rules without a rescan; rules rewritten non-locally
        # (fragment export) land in ``needs_rescan`` instead.
        self.event_log: Dict[Symbol, List] = {}
        self.needs_rescan: Set[Symbol] = set()
        self.occ_by_rule: Dict[Symbol, List[GrammarOccurrence]] = {}
        for occurrence in occurrences:
            self.occ_by_rule.setdefault(occurrence.rule, []).append(occurrence)
        # Marks are keyed by id() but must hold the node objects too:
        # a bare id-set would misfire when a dead node's address is reused
        # by a fresh allocation within the same round.
        self.marked: Dict[int, Node] = {}
        self.versions: Dict[Tuple[Symbol, FrozenSet[Flag]], Node] = {}
        self.export_cache: Dict[str, Symbol] = {}
        # Round-start |refG| snapshot: computed here unless the caller
        # already maintains it (the incremental occurrence index does).
        self.ref_counts = (
            reference_counts(grammar) if ref_counts is None else ref_counts
        )
        # Bottom-up order of the rules containing occurrences; callers
        # with a cached call graph pass it in, otherwise the full anti-SL
        # order is computed on demand in run().
        self.rule_order = rule_order
        # Live |refG| of rules created *during* this round (exported
        # fragment rules), maintained at every reference creation/discard
        # site -- see _ref_count.
        self.live_refs: Dict[Symbol, int] = {}
        self.processed: Set[Symbol] = set()
        self.replaced = 0
        self.exported_rules = 0

    # ------------------------------------------------------------------
    def run(self) -> int:
        order = (
            self.rule_order if self.rule_order is not None
            else anti_sl_order(self.grammar)
        )
        for head in order:
            if head in self.occ_by_rule:
                self._process_original(head)
        return self.replaced

    # ------------------------------------------------------------------
    def _is_transparent(self, symbol: Symbol) -> bool:
        return symbol.is_nonterminal and symbol not in self.opaque

    def _ref_count(self, symbol: Symbol) -> int:
        """|refG(symbol)|, correct also for rules created this round.

        The round-start snapshot covers the input rules; exported fragment
        rules appear later and must be counted live, otherwise their
        versions would never export and full inlining would sneak back in
        (exactly the blow-up Algorithm 8 exists to prevent).  Live counts
        are maintained incrementally at every site where a reference to a
        round-created rule enters or leaves the grammar -- template
        inlining, fragment export, and region discard -- instead of
        rescanning the whole grammar per query.
        """
        cached = self.ref_counts.get(symbol)
        if cached is not None:
            return cached
        return self.live_refs.get(symbol, 0)

    def _bump_new_refs(self, root: Node, delta: int = 1) -> None:
        """Adjust live counts for every round-created reference under
        ``root`` (a template about to be inlined into a live rule, or an
        exported rule body installed into the grammar)."""
        live_refs = self.live_refs
        snapshot = self.ref_counts
        stack = [root]
        while stack:
            node = stack.pop()
            symbol = node.symbol
            if symbol.is_nonterminal and symbol not in snapshot:
                live_refs[symbol] = live_refs.get(symbol, 0) + delta
            stack.extend(node.children)

    def _bump_region_refs(self, fragment_root: Node, delta: int) -> None:
        """Like :meth:`_bump_new_refs`, but stopping at region holes
        (marked or parameter nodes), whose subtrees survive as arguments."""
        live_refs = self.live_refs
        snapshot = self.ref_counts
        stack = [fragment_root]
        while stack:
            node = stack.pop()
            if id(node) in self.marked or node.symbol.is_parameter:
                continue
            symbol = node.symbol
            if symbol.is_nonterminal and symbol not in snapshot:
                live_refs[symbol] = live_refs.get(symbol, 0) + delta
            stack.extend(node.children)

    def _process_original(self, head: Symbol) -> None:
        """Isolate, replace and export within the original rule ``head``."""
        if head in self.processed:
            return
        self.processed.add(head)
        occurrences = self.occ_by_rule.get(head, ())
        if occurrences and all(
            not occ.parent_path and not occ.child_path for occ in occurrences
        ):
            # Every occurrence is explicit inside this rule: no isolation,
            # no marks, no export interplay.  Replace directly at the
            # stored endpoints instead of rescanning the whole right-hand
            # side -- O(occurrences), not O(|rule|).  (Stored occurrences
            # of one digram are pairwise disjoint, so order is free.)
            self._process_explicit(head, occurrences)
            return
        rhs = self.grammar.rules[head]

        # Flag assignment (ReplacementDAG construction, Section IV-E): every
        # generator that is a transparent nonterminal needs its root
        # isolated; every generator whose in-rule parent is a transparent
        # nonterminal needs that parent's corresponding parameter isolated.
        flags: Dict[int, Tuple[Node, Set[Flag]]] = {}

        def flag(node: Node, value: Flag) -> None:
            entry = flags.get(id(node))
            if entry is None:
                entry = (node, set())
                flags[id(node)] = entry
            entry[1].add(value)

        for occurrence in self.occ_by_rule.get(head, ()):
            generator = occurrence.generator
            if self._is_transparent(generator.symbol):
                flag(generator, ROOT_FLAG)
            parent = generator.parent
            if parent is not None and self._is_transparent(parent.symbol):
                flag(parent, generator.child_index())

        # Inline the matching version at each flagged node, parents before
        # children.  Sorting by depth (ancestors first, stable for
        # unrelated nodes) replaces the full preorder walk of the rule.
        def node_depth(node: Node) -> int:
            depth = 0
            current = node.parent
            while current is not None:
                depth += 1
                current = current.parent
            return depth

        ordered = sorted(
            (entry[0] for entry in flags.values()), key=node_depth
        )
        events = self.event_log.setdefault(head, [])
        transferred: List[Node] = []
        if ordered:
            self.touched_rules.add(head)
        for node in ordered:
            _, flag_set = flags[id(node)]
            template = self._version(node.symbol, frozenset(flag_set))
            # The inlined copy of the template becomes part of a live rule:
            # account for the round-created references it carries.
            self._bump_new_refs(template)
            argument_roots = list(node.children)
            new_root = inline_node(self.grammar, head, node,
                                   template=template, marked=self.marked,
                                   transferred=transferred)
            # Record the pristine copy region now, in DFS order from the
            # copy root with the argument roots at their positions: the
            # replacement scan below may rewrite it, and the occurrence
            # index adapts the region as inlined, with the later edge
            # deltas applied on top.
            argument_ids = {id(root) for root in argument_roots}
            region: List[Node] = []
            walk = [new_root]
            while walk:
                region_node = walk.pop()
                region.append(region_node)
                if id(region_node) not in argument_ids:
                    walk.extend(region_node.children)
            events.append(("inline", node, region, argument_roots))

        edge_log: List = []
        replaced_here = replace_digram_in_rule(
            self.grammar, head, self.digram, self.replacement, log=edge_log
        )
        events.extend(("edge",) + entry for entry in edge_log)
        if replaced_here:
            self.touched_rules.add(head)
        self.replaced += replaced_here
        if self._ref_count(head) > 1:
            new_root = self._export_fragments(self.grammar.rhs(head),
                                              live=True)
            self.grammar.set_rule(head, new_root)
            self.touched_rules.add(head)
            self.needs_rescan.add(head)
        # Clear exactly the marks this rule received (transferred copies)
        # instead of sweeping its whole right-hand side.
        for node in transferred:
            self.marked.pop(id(node), None)

    def _process_explicit(self, head: Symbol, occurrences) -> None:
        """Replace the stored, fully-local occurrences of ``head``.

        The fast path of :meth:`_process_original`: used when no
        occurrence needs a version inlined (all resolution paths empty),
        which after the first few rounds is the overwhelmingly common
        case on update-dominated grammars.
        """
        grammar = self.grammar
        root = grammar.rhs(head)
        events = self.event_log.setdefault(head, [])
        replaced = 0
        for occ in occurrences:
            parent, child = occ.parent_node, occ.child_node
            if (occ.child_index > len(parent.children)
                    or parent.children[occ.child_index - 1] is not child):
                continue  # stale occurrence; the scan path skips these too
            x = replace_occurrence_in_tree(
                parent, occ.child_index, child, self.replacement
            )
            if parent is root:
                root = x
                grammar.set_rule(head, x)
            events.append(("edge", parent, occ.child_index, child, x))
            replaced += 1
        if replaced:
            grammar.notify_rule_changed(head)
            self.touched_rules.add(head)
        self.replaced += replaced

    # ------------------------------------------------------------------
    def _version(self, symbol: Symbol, flag_set: FrozenSet[Flag]) -> Node:
        """The processed version ``symbol^flag_set`` (memoized template)."""
        key = (symbol, flag_set)
        cached = self.versions.get(key)
        if cached is not None:
            return cached
        # The original must have had its own occurrences replaced first;
        # rules without occurrences are processed trivially.
        self._process_original(symbol)

        copy_root, _ = deep_copy_with_map(self.grammar.rhs(symbol))
        # Locate the copy's parameter nodes once; they survive inlining.
        params: Dict[int, Node] = {}
        stack = [copy_root]
        while stack:
            node = stack.pop()
            if node.symbol.is_parameter:
                params[node.symbol.param_index] = node
            stack.extend(node.children)

        # Collect isolation targets on the copy: the root for ``r``, the
        # parameter parents for ``yi`` -- merged per node, because the root
        # may itself be a parameter parent.
        targets: Dict[int, Tuple[Node, Set[Flag]]] = {}

        def target(node: Node, value: Flag) -> None:
            entry = targets.get(id(node))
            if entry is None:
                entry = (node, set())
                targets[id(node)] = entry
            entry[1].add(value)

        if ROOT_FLAG in flag_set and self._is_transparent(copy_root.symbol):
            target(copy_root, ROOT_FLAG)
        for value in flag_set:
            if value == ROOT_FLAG:
                continue
            param = params[value]
            parent = param.parent
            if parent is not None and self._is_transparent(parent.symbol):
                target(parent, param.child_index())

        for node, sub_flags in list(targets.values()):
            template = self._version(node.symbol, frozenset(sub_flags))
            was_root = node is copy_root
            new_root, copy_map = inline_at(
                self.grammar, node, rhs_override=template
            )
            for original_id, copy in copy_map.items():
                if original_id in self.marked:
                    self.marked[id(copy)] = copy
            if was_root:
                copy_root = new_root

        # Mark the isolated nodes (Algorithm 7 lines 9 and 13).
        if ROOT_FLAG in flag_set:
            self.marked[id(copy_root)] = copy_root
        for value in flag_set:
            if value == ROOT_FLAG:
                continue
            parent = params[value].parent
            if parent is not None:
                self.marked[id(parent)] = parent

        if self._ref_count(symbol) > 1:
            copy_root = self._export_fragments(copy_root, live=False)
        self.versions[key] = copy_root
        return copy_root

    # ------------------------------------------------------------------
    def _export_fragments(self, root: Node, live: bool) -> Node:
        """Algorithm 8: factor unmarked multi-node fragments into rules.

        Returns the (possibly new) root of the rewritten tree.  ``live``
        distinguishes a grammar rule's RHS from a detached version
        template: only live trees contribute to the round-created rules'
        reference counts.
        """
        marked = self.marked
        if not any(id(n) in marked for n in _preorder(root)):
            return root

        # Fragment roots: unmarked non-parameter nodes whose parent is
        # marked or absent.  Regions below different roots are disjoint.
        fragment_roots: List[Node] = []
        for node in _preorder(root):
            if id(node) in marked or node.symbol.is_parameter:
                continue
            parent = node.parent
            if parent is None or id(parent) in marked:
                fragment_roots.append(node)

        for fragment_root in fragment_roots:
            region_size, holes = self._scan_region(fragment_root)
            if region_size < 2:
                continue
            rule_head, argument_order = self._export_rule(fragment_root, holes)
            if live:
                # The region's round-created references are discarded with
                # it; the fresh reference node below replaces them.
                self._bump_region_refs(fragment_root, -1)
                self.live_refs[rule_head] = (
                    self.live_refs.get(rule_head, 0) + 1
                )
            # Splice: the fragment subtree becomes a rule reference whose
            # arguments are the hole subtrees, in preorder order.
            for hole in argument_order:
                hole.parent = None
            reference = Node(rule_head, argument_order)
            parent = fragment_root.parent
            if parent is None:
                root = reference
            else:
                slot = fragment_root.child_index()
                fragment_root.parent = None
                parent.set_child(slot, reference)
        return root

    def _scan_region(self, fragment_root: Node) -> Tuple[int, List[Node]]:
        """Size of the unmarked region and its hole roots, in preorder."""
        size = 0
        holes: List[Node] = []
        stack = [fragment_root]
        while stack:
            node = stack.pop()
            if id(node) in self.marked or node.symbol.is_parameter:
                holes.append(node)
                continue
            size += 1
            stack.extend(reversed(node.children))
        return size, holes

    def _export_rule(
        self, fragment_root: Node, holes: List[Node]
    ) -> Tuple[Symbol, List[Node]]:
        """Create (or reuse) the rule for a fragment; returns (head, holes)."""
        hole_ids = {id(hole): position for position, hole in enumerate(holes, 1)}
        body = _copy_with_holes(fragment_root, hole_ids)
        canonical = body.to_sexpr()
        head = self.export_cache.get(canonical)
        if head is None:
            head = self.grammar.alphabet.fresh_nonterminal(
                len(holes), EXPORT_PREFIX
            )
            self.grammar.set_rule(head, body)
            self.touched_rules.add(head)
            self.live_refs.setdefault(head, 0)
            # The body itself lives in the grammar from here on, so any
            # round-created references it copied count immediately.
            self._bump_new_refs(body)
            self.export_cache[canonical] = head
            self.exported_rules += 1
        return head, holes


def _preorder(root: Node):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _copy_with_holes(root: Node, hole_ids: Dict[int, int]) -> Node:
    """Copy a fragment, substituting hole subtrees by parameters."""
    from repro.trees.symbols import parameter_symbol

    def shell(node: Node) -> Node:
        position = hole_ids.get(id(node))
        if position is not None:
            return Node(parameter_symbol(position))
        copy = Node.__new__(Node)
        copy.symbol = node.symbol
        copy.children = []
        copy.parent = None
        return copy

    copy_root = shell(root)
    if not copy_root.symbol.is_parameter:
        stack = [(root, copy_root)]
        while stack:
            original, copy = stack.pop()
            for child in original.children:
                child_copy = shell(child)
                child_copy.parent = copy
                copy.children.append(child_copy)
                if id(child) not in hole_ids:
                    stack.append((child, child_copy))
    return copy_root


def replace_all_occurrences_optimized(
    grammar: Grammar,
    digram: Digram,
    replacement: Symbol,
    occurrences: Sequence[GrammarOccurrence],
    opaque: Set[Symbol],
    touched: Optional[Set[Symbol]] = None,
    ref_counts: Optional[Dict[Symbol, int]] = None,
    rule_order: Optional[Sequence[Symbol]] = None,
    clean_edits: Optional[Dict[Symbol, List]] = None,
) -> int:
    """Replace every occurrence of ``digram`` with version/export reuse.

    Returns the number of in-rule replacements performed.  When
    ``touched`` is given, the heads of every rule mutated or created by
    this round are added to it (the same set the grammar's observer
    channel reports; see :mod:`repro.core.occurrence_index`).
    ``ref_counts`` and ``rule_order`` let a caller with a cached call
    graph supply the round-start reference counts and the bottom-up
    processing order of the occurrence rules, skipping two full-grammar
    walks per round.  ``clean_edits`` receives, per rule whose *only*
    mutations were intra-rule replacements, the ordered
    :data:`~repro.core.rewrite.EdgeReplacement` list -- the explicit edge
    deltas that let the occurrence index adapt those rules without a
    rescan.
    """
    replacer = OptimizedReplacer(
        grammar, digram, replacement, occurrences, opaque,
        ref_counts=ref_counts, rule_order=rule_order,
    )
    replaced = replacer.run()
    if touched is not None:
        touched.update(replacer.touched_rules)
    if clean_edits is not None:
        for head, events in replacer.event_log.items():
            if events and head not in replacer.needs_rescan:
                clean_edits[head] = events
    return replaced
