"""Updates on grammar-compressed trees (Section III / V-C).

Each operation isolates the target node into a mutable spine rule (path
isolation), applies the tree-level edit there, and garbage-collects rules
that lost their last reference.  *No recompression happens here* -- this is
the paper's "naive update"; callers interleave
:class:`repro.core.GrammarRePair` runs to keep the grammar small
(Figures 4 and 5) or decompress-and-recompress for the udc baseline.

Every operation accepts an optional shared
:class:`~repro.grammar.index.GrammarIndex`: its cached ``size(A, i)``
tables replace the per-call ``parameter_segments`` rebuild, and the
grammar's observer channel keeps the index correct across the mutations
performed here.

With a sharded spine (``spine=`` carries the shard heads of a
:class:`repro.grammar.sharding.ShardManager`), the edit lands in the
deepest shard the derivation path descends into -- only that shard's
``O(width)`` body is isolated and re-indexed, which is what keeps updates
O(depth · width) when the start rule would otherwise have grown with the
whole update history (see :mod:`repro.updates.path_isolation`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Container, Iterable, List, Optional, Set, Tuple

from repro.grammar.navigation import PathStep, resolve_preorder_path
from repro.grammar.properties import collect_garbage
from repro.grammar.slcf import Grammar
from repro.trees.node import Node, deep_copy
from repro.trees.symbols import BOTTOM_NAME, Symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.grammar.index import GrammarIndex
from repro.updates.operations import (
    DeleteOp,
    InsertOp,
    RenameOp,
    UpdateError,
    UpdateOp,
    delete_subtree,
    rename_node,
    rightmost_null,
    splice_before,
)
from repro.updates.path_isolation import isolate, isolate_many

__all__ = [
    "rename",
    "insert",
    "delete",
    "apply_op",
    "apply_ops",
    "PlannedEdit",
    "apply_isolated_batch",
]


def _resolve(
    grammar: Grammar,
    index: int,
    grammar_index: Optional["GrammarIndex"],
) -> List[PathStep]:
    """Derivation path to preorder ``index``: through the structural
    index's cached per-node subtree sizes when one is shared (O(depth ·
    rule-width)), else the self-contained segment walk."""
    if grammar_index is not None:
        return grammar_index.resolve_preorder(index)
    return resolve_preorder_path(grammar, index)


def rename(
    grammar: Grammar,
    index: int,
    new_label: str,
    grammar_index: Optional["GrammarIndex"] = None,
    steps: Optional[list] = None,
    spine: Optional[Container[Symbol]] = None,
) -> int:
    """Relabel the (non-``⊥``) node at preorder ``index`` of ``valG(S)``.

    Renaming a node to the label it already carries is a no-op: the target
    is located by a read-only path resolution and, when the labels
    coincide, no terminal is interned and no path isolation (i.e. no
    spine rule growth) happens at all.

    ``steps`` may carry a derivation path already resolved for ``index``
    (e.g. by :meth:`GrammarIndex.resolve_element`), saving the descent.

    Returns the number of rule inlines the isolation performed.
    """
    if steps is None:
        steps = _resolve(grammar, index, grammar_index)
    current_symbol = steps[-1].node.symbol
    if current_symbol.name == new_label and not current_symbol.is_bottom:
        return 0
    # Validate fully before mutating anything: the target and the new
    # label are both known from the read-only resolution, so every way
    # this operation can fail -- a ⊥ target, renaming *to* ⊥, an
    # alphabet rank clash on the new label -- is rejected here, and a
    # raising rename leaves the grammar exactly as it was (no isolation
    # bloat, no half-applied relabel).
    if current_symbol.is_bottom:
        raise UpdateError("cannot rename the empty node ⊥")
    if new_label == BOTTOM_NAME:
        raise UpdateError("cannot rename a node to ⊥")
    symbol = grammar.alphabet.terminal(new_label, current_symbol.rank)
    result = isolate(grammar, index, steps=steps, spine=spine)
    grammar.preserve_for_write(result.rule)
    rename_node(result.node, symbol)
    # Relabeling changes no structural count, but label censuses and
    # dirty-rule recorders listen on the observer channel and must see
    # it; isolation alone may not have notified at all when the target
    # already sat explicit in the mutated rule.  The relabel-specific
    # event lets size-only caches (GrammarIndex) keep their tables and
    # patch the one label they hold for this node.
    grammar.notify_rule_relabeled(result.rule, result.node)
    return result.inlined_rules


def insert(
    grammar: Grammar,
    index: int,
    fragment: Node,
    grammar_index: Optional["GrammarIndex"] = None,
    steps: Optional[list] = None,
    spine: Optional[Container[Symbol]] = None,
) -> int:
    """Insert an encoded forest before the node at preorder ``index``.

    ``fragment`` must be built over the grammar's alphabet (e.g. by
    :func:`repro.trees.binary.encode_forest`); its right-most leaf must be
    ``⊥``.  The fragment is copied, so it can be reused.

    Returns the number of rule inlines the isolation performed.
    """
    # Validate the fragment before isolating (a forest root that *is* ⊥
    # passes trivially -- it splices as the identity): a malformed
    # fragment must not cost the spine rule any isolation bloat.
    rightmost_null(fragment)
    result = isolate(grammar, index, grammar_index=grammar_index,
                     steps=steps, spine=spine)
    spliced = deep_copy(fragment)
    if not spliced.symbol.is_bottom:  # the empty forest is the identity
        grammar.preserve_for_write(result.rule)
        splice_before(grammar.rhs(result.rule), result.node, spliced)
        grammar.notify_rule_spliced(result.rule, result.node, spliced)
    return result.inlined_rules


def delete(
    grammar: Grammar,
    index: int,
    grammar_index: Optional["GrammarIndex"] = None,
    steps: Optional[list] = None,
    spine: Optional[Container[Symbol]] = None,
) -> int:
    """Delete the subtree rooted at the node at preorder ``index``.

    Rules referenced only from the deleted subtree are collected.
    Deleting the document root is rejected with an
    :class:`~repro.updates.operations.UpdateError` (a ``ValueError``):
    the result -- the root's next-sibling chain, i.e. a bare ``⊥`` for a
    well-formed document -- would not encode an XML document.

    Returns the number of rule inlines the isolation performed.
    """
    if steps is None:
        steps = _resolve(grammar, index, grammar_index)
    target_symbol = steps[-1].node.symbol
    # Reject undeletable targets before isolating (same errors
    # ``delete_subtree`` would raise, moved ahead of any mutation).
    if target_symbol.is_bottom:
        raise UpdateError("cannot delete the empty node ⊥")
    if target_symbol.rank != 2:
        raise UpdateError(
            f"delete needs a binary-encoded element, got {target_symbol!r}"
        )
    result = isolate(grammar, index, grammar_index=grammar_index,
                     steps=steps, spine=spine)
    rule, target = result.rule, result.node
    if index == 0 and target.children:
        # Preorder 0 is the document root; with a sharded spine its
        # terminal may sit inside a chunk shard's body (the start rule's
        # decomposition moves it there), so the root is recognized by
        # its index, not by being the start RHS root.  A preorder-0 node
        # with a real next-sibling chain is not a document root (general
        # SLCF trees) and stays deletable.
        sibling = target.children[1]
        if sibling.symbol.is_bottom:
            raise UpdateError("deleting the document root is not allowed")
    while target.parent is None and target.children[1].symbol.is_parameter:
        # A chunk shard whose whole body is the target in front of its
        # continuation would derive just its argument: merge it into its
        # parent (repeatedly, up to a rank-0 spine rule at worst).
        rule, target = spine.absorb(rule, target)
    grammar.preserve_for_write(rule)
    delete_subtree(grammar.rhs(rule), target)
    # The target's next-sibling chain moved up into its place.
    grammar.notify_rule_spliced(rule, target, target.children[1])
    collect_garbage(grammar)
    _repair_spine_ranks(spine)
    return result.inlined_rules


def _repair_spine_ranks(spine) -> None:
    """After deletes: restore shard ranks when a delete consumed a
    chunk's continuation parameter (see
    :meth:`repro.grammar.sharding.ShardManager.repair_ranks`).  A plain
    set of shard heads (tests, direct callers) has no repair hook and is
    skipped -- only deletes that cross a shard's continuation boundary
    need it."""
    repair = getattr(spine, "repair_ranks", None)
    if repair is not None:
        repair()


class PlannedEdit:
    """One grammar-level edit of a batch group, ready for execution.

    ``steps`` is the derivation path to the target (resolved against the
    grammar *before* any of the group's mutations); ``position`` the
    target's binary preorder index, kept for diagnostics.  ``kind`` is
    ``"rename"`` (with ``label``), ``"insert"`` (with ``fragment``; an
    append is an insert targeting the parent's child-list terminator), or
    ``"delete"``.  Planning lives in :mod:`repro.updates.batch`.
    """

    __slots__ = ("kind", "position", "steps", "fragment", "label")

    def __init__(
        self,
        kind: str,
        position: int,
        steps: List[PathStep],
        fragment: Optional[Node] = None,
        label: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.position = position
        self.steps = steps
        self.fragment = fragment
        self.label = label

    @property
    def enter_steps(self) -> int:
        """Rule entries on the path: what a solo isolation would inline."""
        return sum(1 for step in self.steps if step.enters_rule)


def apply_isolated_batch(
    grammar: Grammar,
    planned: List[PlannedEdit],
    spine: Optional[Container[Symbol]] = None,
    timings: Optional[dict] = None,
) -> Tuple[int, int]:
    """Execute one batch group against the isolated spine rules.

    The union of the planned derivation paths is isolated in one pass
    (shared prefixes inlined once, see
    :func:`~repro.updates.path_isolation.isolate_many`), then the
    tree-level edits run in operation order against the explicit target
    nodes.  Node identity makes this equivalent to the sequential loop:
    a rename relabels in place, a delete splices the target's sibling
    chain up wherever the target now sits, and an insert moves the (still
    addressable) target element into its fragment's right-most null slot.
    The one target that *is* consumed by an edit -- the child-list
    terminator ``⊥`` of an append -- is threaded to later operations
    aimed at it through the replacement terminator returned by
    :func:`~repro.updates.operations.splice_before`, so append chains on
    one parent keep their order.

    Observers see one mutation epoch per *touched* spine rule: isolation
    defers all notifications, and one final ``set_rule`` per rule that
    was actually inlined into or edited reports the change (with
    ``spine`` shard heads, a burst of ``k`` clustered ops touches about
    ``k / width`` shards); garbage collection after deletes reports
    removed rules as usual.  Returns ``(rule inlines performed, spine
    rules mutated)``.
    """
    if not planned:
        return 0, 0
    isolate_started = time.perf_counter()
    iso = isolate_many(
        grammar, [edit.steps for edit in planned], spine=spine
    )
    if timings is not None:
        timings["isolate_seconds"] = time.perf_counter() - isolate_started
    roots = iso.roots
    # Rules whose bodies *structurally* changed: an inline landed in
    # them, or (tracked below) a tree-level edit does.  Shards merely
    # descended through must not fire spurious epochs.  Rules touched
    # only by renames are kept apart: the relabel already happened in
    # place on the installed body (``roots[rule]`` is the live RHS when
    # no inline replaced it), so they take the relabel-specific
    # notification -- same as the single-op path -- and size-only caches
    # (GrammarIndex) keep their structural tables instead of recomputing
    # them after every rename-only batch.
    mutated: Set[Symbol] = set(iso.mutated)
    relabeled: Set[Symbol] = set()

    def flush(error: Optional[UpdateError] = None) -> None:
        for rule in mutated:
            grammar.set_rule(rule, roots[rule])
        for rule in relabeled - mutated:
            grammar.notify_rule_relabeled(rule)
        if deleted or error is not None:
            collect_garbage(grammar)
            # Before the planner's next index descent: a delete may have
            # consumed a chunk shard's continuation parameter.
            _repair_spine_ranks(spine)
        if error is not None:
            raise error

    terminator_remap: dict = {}
    deleted = False
    for edit, target, rule in zip(planned, iso.nodes, iso.rules):
        if edit.kind == "rename":
            symbol = grammar.alphabet.terminal(edit.label, target.symbol.rank)
            if target.symbol is not symbol:
                grammar.preserve_for_write(rule)
                rename_node(target, symbol)
                relabeled.add(rule)
        elif edit.kind == "insert":
            while id(target) in terminator_remap:
                target = terminator_remap[id(target)]
            spliced = deep_copy(edit.fragment)
            if spliced.symbol.is_bottom:
                continue
            grammar.preserve_for_write(rule)
            new_root, terminator = splice_before(roots[rule], target, spliced)
            roots[rule] = new_root
            mutated.add(rule)
            if terminator is not None:
                terminator_remap[id(target)] = terminator
        elif edit.kind == "delete":
            if edit.position == 0 and target.children:
                # Preorder 0 = the document root, wherever its terminal
                # now sits (start rule or a chunk shard's body).
                sibling = target.children[1]
                if sibling.symbol.is_bottom:
                    # Unreachable through the batch planner (it rejects
                    # apply-time index 0), but keep the grammar coherent
                    # before refusing, mirroring the sequential loop's
                    # state after its earlier operations.
                    flush(UpdateError(
                        "deleting the document root is not allowed"
                    ))
            grammar.preserve_for_write(rule)
            roots[rule] = delete_subtree(roots[rule], target)
            mutated.add(rule)
            deleted = True
        else:  # pragma: no cover - planner emits only the kinds above
            raise UpdateError(f"unknown planned edit kind {edit.kind!r}")
    flush()
    return iso.inlined_rules, len(mutated | relabeled)


def apply_op(
    grammar: Grammar,
    op: UpdateOp,
    grammar_index: Optional["GrammarIndex"] = None,
) -> None:
    """Apply one :class:`~repro.updates.operations.UpdateOp`."""
    if isinstance(op, RenameOp):
        rename(grammar, op.position, op.new_label, grammar_index=grammar_index)
    elif isinstance(op, InsertOp):
        insert(grammar, op.position, op.fragment, grammar_index=grammar_index)
    elif isinstance(op, DeleteOp):
        delete(grammar, op.position, grammar_index=grammar_index)
    else:
        raise UpdateError(f"unknown update operation {op!r}")


def apply_ops(
    grammar: Grammar,
    ops: Iterable[UpdateOp],
    grammar_index: Optional["GrammarIndex"] = None,
) -> int:
    """Apply a sequence of updates; returns how many were applied."""
    count = 0
    for op in ops:
        apply_op(grammar, op, grammar_index=grammar_index)
        count += 1
    return count
