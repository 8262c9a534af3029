"""Updates on grammar-compressed trees (Section III / V-C).

Each operation isolates the target node into a mutable spine rule (path
isolation), applies the tree-level edit there, and garbage-collects rules
that lost their last reference.  *No recompression happens here* -- this is
the paper's "naive update"; callers interleave
:class:`repro.core.GrammarRePair` runs to keep the grammar small
(Figures 4 and 5) or decompress-and-recompress for the udc baseline.

Every operation takes its target as a binary preorder index and, when
the caller already descended to it, as that descent's derivation path
(``steps``): :class:`repro.api.CompressedXml` passes the path its
:class:`~repro.grammar.index.GrammarIndex` resolved (``resolve_element``,
or ``end_of_children_position`` for an append), and the grammar's
observer channel keeps the index correct across the mutations performed
here.  Without ``steps`` the path comes from the reference
:func:`~repro.grammar.navigation.resolve_preorder_path`.

With a sharded spine (``spine=`` carries the shard heads of a
:class:`repro.grammar.sharding.ShardManager`), the edit lands in the
deepest shard the derivation path descends into -- only that shard's
``O(width)`` body is isolated and re-indexed, which is what keeps updates
O(depth · width) when the start rule would otherwise have grown with the
whole update history (see :mod:`repro.updates.path_isolation`).
"""

from __future__ import annotations

from typing import Container, Iterable, Optional

from repro.grammar.navigation import resolve_preorder_path
from repro.grammar.properties import collect_garbage
from repro.grammar.slcf import Grammar
from repro.trees.node import Node, deep_copy
from repro.trees.symbols import BOTTOM_NAME, Symbol
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
# ``isolate_many`` is bound here only because the end-to-end benchmark's
# tracer (benchmarks/e2e/trace.py) patches it as an attribute of this module.
from repro.updates.path_isolation import isolate, isolate_many  # noqa: F401

__all__ = [
    "rename",
    "insert",
    "delete",
    "apply_op",
    "apply_ops",
]


def rename(
    grammar: Grammar,
    index: int,
    new_label: str,
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
        steps = resolve_preorder_path(grammar, index)
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
    # occurrence indexes listen on the observer channel and must see
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
    result = isolate(grammar, index, steps=steps, spine=spine)
    spliced = deep_copy(fragment)
    if not spliced.symbol.is_bottom:  # the empty forest is the identity
        grammar.preserve_for_write(result.rule)
        splice_before(grammar.rhs(result.rule), result.node, spliced)
        grammar.notify_rule_spliced(result.rule, result.node, spliced)
    return result.inlined_rules


def delete(
    grammar: Grammar,
    index: int,
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
        steps = resolve_preorder_path(grammar, index)
    target_symbol = steps[-1].node.symbol
    # Reject undeletable targets before isolating (same errors
    # ``delete_subtree`` would raise, moved ahead of any mutation).
    if target_symbol.is_bottom:
        raise UpdateError("cannot delete the empty node ⊥")
    if target_symbol.rank != 2:
        raise UpdateError(
            f"delete needs a binary-encoded element, got {target_symbol!r}"
        )
    result = isolate(grammar, index, steps=steps, spine=spine)
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


def apply_op(
    grammar: Grammar,
    op: UpdateOp,
) -> None:
    """Apply one :class:`~repro.updates.operations.UpdateOp`."""
    if isinstance(op, RenameOp):
        rename(grammar, op.position, op.new_label)
    elif isinstance(op, InsertOp):
        insert(grammar, op.position, op.fragment)
    elif isinstance(op, DeleteOp):
        delete(grammar, op.position)
    else:
        raise UpdateError(f"unknown update operation {op!r}")


def apply_ops(
    grammar: Grammar,
    ops: Iterable[UpdateOp],
) -> int:
    """Apply a sequence of updates; returns how many were applied."""
    count = 0
    for op in ops:
        apply_op(grammar, op)
        count += 1
    return count
