"""Atomic update operations on binary trees (Section III / V-C).

The three operations the paper evaluates, defined on first-child/
next-sibling binary encodings:

* ``rename(t, u, σ)`` -- relabel node ``u`` (``u`` and ``σ`` non-``⊥``),
* ``insert(t, u, s)`` -- insert the encoded forest ``s`` *before* ``u``
  (formally ``t[u/s]`` if ``u`` is a null node, else ``t[u/s']`` with
  ``s' = s[v/t_u]`` for ``v`` the right-most null leaf of ``s``),
* ``delete(t, u)`` -- delete the subtree rooted at ``u``
  (``t[u/t_{u.2}]``: the next-sibling chain moves up).

These tree-level functions are the *reference semantics*: the grammar-level
updates in :mod:`repro.updates.grammar_updates` are property-tested against
them.  Operations return the (possibly new) tree root.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.trees.node import Node, deep_copy, replace_node
from repro.trees.symbols import Alphabet, Symbol
from repro.trees.traversal import node_at_preorder
from repro.trees.xml_io import _NAME

__all__ = [
    "UpdateError",
    "check_tag",
    "RenameOp",
    "InsertOp",
    "DeleteOp",
    "UpdateOp",
    "rename_node",
    "insert_before",
    "splice_before",
    "delete_subtree",
    "rightmost_null",
    "apply_op_to_tree",
]


_is_name = re.compile(_NAME).fullmatch


class UpdateError(ValueError):
    """Raised on invalid update operations."""


def check_tag(tag: object) -> str:
    """``tag``, if it is a name XML text can carry and a label path can
    address -- the one shape ``xml_io`` and the path parser accept; any
    other value would poison the document (and a durable store's log)."""
    if not isinstance(tag, str) or not _is_name(tag):
        raise UpdateError(f"invalid element tag {tag!r}")
    return tag


@dataclass(frozen=True)
class RenameOp:
    """Relabel the node at binary preorder ``position`` to ``new_label``."""

    position: int
    new_label: str


@dataclass(frozen=True)
class InsertOp:
    """Insert the encoded forest ``fragment`` before ``position``.

    The fragment is a binary tree whose right-most leaf is ``⊥`` (as
    produced by :func:`repro.trees.binary.encode_forest`).  It is copied on
    every application, so one op can be replayed many times.
    """

    position: int
    fragment: Node


@dataclass(frozen=True)
class DeleteOp:
    """Delete the subtree rooted at binary preorder ``position``."""

    position: int


UpdateOp = Union[RenameOp, InsertOp, DeleteOp]


def rightmost_null(fragment: Node) -> Node:
    """The right-most leaf of an encoded forest (necessarily ``⊥``)."""
    current = fragment
    while current.children:
        current = current.children[-1]
    if not current.symbol.is_bottom:
        raise UpdateError(
            f"fragment's right-most leaf is {current.symbol!r}, expected ⊥"
        )
    return current


def rename_node(node: Node, new_symbol: Symbol) -> None:
    """``rename``: relabel in place; ranks must agree and ``⊥`` is immutable."""
    if node.symbol.is_bottom:
        raise UpdateError("cannot rename the empty node ⊥")
    if new_symbol.is_bottom:
        raise UpdateError("cannot rename a node to ⊥")
    if new_symbol.rank != node.symbol.rank:
        raise UpdateError(
            f"rename must preserve rank: {node.symbol!r} -> {new_symbol!r}"
        )
    node.symbol = new_symbol


def insert_before(root: Node, target: Node, fragment: Node) -> Node:
    """``insert``: splice a copied fragment before ``target``.

    Returns the (possibly new) root.
    """
    spliced = deep_copy(fragment)
    if spliced.symbol.is_bottom:
        return root  # inserting the empty forest is the identity
    return splice_before(root, target, spliced)[0]


def splice_before(
    root: Node, target: Node, spliced: Node
) -> Tuple[Node, Optional[Node]]:
    """The non-copying core of :func:`insert_before`.

    ``spliced`` (an encoded forest, consumed by this call) replaces
    ``target``; a non-``⊥`` target moves into the fragment's right-most
    null slot.  Returns ``(new_root, terminator)`` where ``terminator``
    is the fragment's right-most ``⊥`` when the target was a null node --
    i.e. the node that *replaces* the consumed ``⊥`` as the child-list
    terminator.  The batch executor threads this through so a later
    operation aimed at the same terminator (an append-append chain on one
    parent) can retarget it; for non-``⊥`` targets it is ``None`` (the
    target itself fills the slot and remains addressable).
    """
    hole = rightmost_null(spliced)
    parent = target.parent
    slot = target.child_index() if parent is not None else 0
    terminator: Optional[Node] = None
    if target.symbol.is_bottom:
        # t[u/s]: the ⊥ leaf is simply discarded; the fragment's own
        # right-most ⊥ terminates the list from now on.
        terminator = hole
    else:
        # t[u/s'] with s' = s[v/t_u]: the target subtree moves into the
        # fragment's right-most null slot.
        target.parent = None
        replace_node(hole, target)
    # Install the fragment at the target's old position.
    if parent is None:
        spliced.parent = None
        return spliced, terminator
    parent.children[slot - 1] = spliced
    spliced.parent = parent
    return root, terminator


def delete_subtree(root: Node, target: Node) -> Node:
    """``delete``: replace ``target``'s subtree by its next-sibling chain.

    Returns the (possibly new) root.  The deleted first-child chain is
    detached; callers interested in garbage (e.g. rule references inside)
    must inspect it before dropping.
    """
    if target.symbol.is_bottom:
        raise UpdateError("cannot delete the empty node ⊥")
    if target.symbol.rank != 2:
        raise UpdateError(
            f"delete needs a binary-encoded element, got {target.symbol!r}"
        )
    sibling_chain = target.children[1]
    sibling_chain.parent = None
    parent = target.parent
    if parent is None:
        return sibling_chain
    slot = target.child_index()
    target.parent = None
    parent.set_child(slot, sibling_chain)
    return root


def apply_op_to_tree(root: Node, op: UpdateOp, alphabet: Alphabet) -> Node:
    """Apply one update to a plain binary tree (reference semantics)."""
    target = node_at_preorder(root, op.position)
    if isinstance(op, RenameOp):
        rename_node(target, alphabet.terminal(op.new_label, target.symbol.rank))
        return root
    if isinstance(op, InsertOp):
        return insert_before(root, target, op.fragment)
    if isinstance(op, DeleteOp):
        return delete_subtree(root, target)
    raise UpdateError(f"unknown update operation {op!r}")
