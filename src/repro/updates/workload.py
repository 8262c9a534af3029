"""Update workload generation (Section V-C).

The paper's protocol: *"The sequences are obtained by starting from a given
document, and then applying the inverse of the operations until a seed
document is derived.  In this way, each update sequence starts with a seed
document and ends up with an original document"* -- 90% inserts, 10%
deletes.

:func:`generate_update_workload` implements exactly that reverse
derivation on the binary encoding; replaying the returned operations on
the seed reproduces the original document bit for bit (a property the
tests assert).  :func:`generate_rename_workload` builds Figure 6's
workload: renames of random nodes to fresh labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.trees.node import Node, deep_copy, node_count
from repro.trees.symbols import Alphabet
from repro.trees.traversal import preorder, preorder_index_of
from repro.updates.operations import (
    DeleteOp,
    InsertOp,
    RenameOp,
    UpdateOp,
    delete_subtree,
    insert_before,
)

__all__ = [
    "UpdateWorkload",
    "generate_update_workload",
    "generate_rename_workload",
    "generate_clustered_element_ops",
]


@dataclass
class UpdateWorkload:
    """A seed tree plus the forward operation sequence.

    Replaying ``operations`` on ``seed`` (tree- or grammar-level) yields
    the document the workload was generated from.
    """

    seed: Node
    operations: List[UpdateOp] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.operations)


def _element_nodes(root: Node) -> List[Node]:
    return [n for n in preorder(root) if not n.symbol.is_bottom]


def _detached_chain_copy(node: Node, alphabet: Alphabet) -> Node:
    """Copy of ``node``'s subtree with its next-sibling slot emptied.

    This is the single-element fragment whose insertion before ``node``'s
    position inverts a deletion there.
    """
    copy = deep_copy(node)
    bottom = Node(alphabet.bottom())
    copy.set_child(2, bottom)
    return copy


def generate_update_workload(
    document: Node,
    n_updates: int,
    alphabet: Alphabet,
    insert_fraction: float = 0.9,
    rng: Optional[random.Random] = None,
    max_fragment_nodes: int = 64,
) -> UpdateWorkload:
    """Reverse-derive a workload ending at ``document``.

    ``document`` is a binary-encoded tree (it is not modified).  Working
    backwards from it, each forward *insert* is inverted by deleting a
    random element, each forward *delete* by inserting a copy of a random
    existing subtree; the forward sequence is returned reversed, with
    positions valid at forward application time.
    """
    if not 0.0 <= insert_fraction <= 1.0:
        raise ValueError("insert_fraction must be within [0, 1]")
    rng = rng or random.Random(0)
    current = deep_copy(document)
    reverse_ops: List[UpdateOp] = []

    for _ in range(n_updates):
        elements = _element_nodes(current)
        want_insert = rng.random() < insert_fraction
        non_root = [n for n in elements if n.parent is not None]
        if want_insert and non_root:
            # Forward op: insert.  Reverse: delete a random element.
            victim = rng.choice(non_root)
            position = preorder_index_of(current, victim)
            fragment = _detached_chain_copy(victim, alphabet)
            reverse_ops.append(InsertOp(position, fragment))
            current = delete_subtree(current, victim)
        else:
            # Forward op: delete.  Reverse: insert a small random fragment
            # modeled on existing content.
            source = rng.choice(elements)
            fragment = _detached_chain_copy(source, alphabet)
            if node_count(fragment) > max_fragment_nodes:
                # Too bulky: strip to a single element.
                fragment = Node(
                    source.symbol,
                    [Node(alphabet.bottom()), Node(alphabet.bottom())],
                )
            targets = list(preorder(current))
            target = rng.choice(targets[1:] or targets)
            position = preorder_index_of(current, target)
            current = insert_before(current, target, fragment)
            reverse_ops.append(DeleteOp(position))

    reverse_ops.reverse()
    return UpdateWorkload(seed=current, operations=reverse_ops)


def generate_clustered_element_ops(
    element_count: int,
    n_ops: int,
    rng: Optional[random.Random] = None,
    cluster_width: int = 200,
    tags: Tuple[str, ...] = ("a", "b", "c", "d"),
    max_delete_extent: int = 64,
):
    """A burst of element-index operations hitting nearby preorder indices.

    This is the batch-update workload (ROADMAP "Batch updates"): real
    traffic arrives in bursts whose targets cluster in document order, so
    their derivation paths share long rule prefixes: once one op has
    isolated a region, the ops after it inline little or nothing there
    (one :meth:`repro.api.CompressedXml.apply_batch` call).  Returns a list
    of batch ops with *sequential semantics* (each index valid for the
    document as the previous ops leave it), drawn around a random cluster
    center: mostly renames, some single-element inserts and appends, a few
    deletes.

    Index validity is guaranteed without simulating the document: the
    generator tracks a conservative lower bound on the live element count
    (every delete is charged ``max_delete_extent`` elements -- the subtree
    a delete removes is not knowable from the count alone), clamps every
    index below that bound, and stops drawing deletes once the budget
    would dip near the cluster (they degrade to renames).  Documents whose
    subtrees can exceed ``max_delete_extent`` within the cluster should
    raise it -- ``apply_batch`` validates every index and fails loudly
    otherwise.
    """
    from repro.trees.unranked import XmlNode
    from repro.updates.batch import (
        BatchAppend,
        BatchDelete,
        BatchInsert,
        BatchRename,
    )

    if element_count < 3:
        raise ValueError("document too small for a clustered workload")
    rng = rng or random.Random(0)
    cluster_width = max(1, min(cluster_width, element_count - 2))
    center = rng.randint(1, max(1, element_count - cluster_width - 1))
    ops = []
    kinds = ("rename", "rename", "rename", "rename",
             "insert", "insert", "append", "append", "delete")
    safe_count = element_count  # lower bound on the live element count
    for step in range(n_ops):
        index = center + rng.randrange(cluster_width)
        index = max(1, min(index, safe_count - 1))
        kind = rng.choice(kinds)
        if kind == "delete" and \
                safe_count - max_delete_extent < cluster_width + 2:
            kind = "rename"  # delete budget exhausted: stay read-mostly
        tag = rng.choice(tags)
        if kind == "rename":
            ops.append(BatchRename(index, f"{tag}{step % 7}"))
        elif kind == "insert":
            ops.append(BatchInsert(index, XmlNode(tag)))
            safe_count += 1
        elif kind == "append":
            ops.append(BatchAppend(index, XmlNode(tag)))
            safe_count += 1
        else:
            ops.append(BatchDelete(index))
            safe_count -= max_delete_extent
    return ops


def generate_rename_workload(
    document: Node,
    n_renames: int,
    alphabet: Alphabet,
    rng: Optional[random.Random] = None,
    fresh_labels: bool = True,
) -> List[RenameOp]:
    """Figure 6's workload: rename random nodes to fresh labels.

    Renames never move nodes, so all positions are computed against the
    unchanged document structure.
    """
    rng = rng or random.Random(0)
    elements = _element_nodes(document)
    operations: List[RenameOp] = []
    for k in range(n_renames):
        victim = rng.choice(elements)
        if fresh_labels:
            label = alphabet.fresh_terminal(victim.symbol.rank, "fresh").name
        else:
            label = rng.choice(elements).symbol.name
        operations.append(
            RenameOp(preorder_index_of(document, victim), label)
        )
    return operations
