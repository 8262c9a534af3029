"""Batch updates: a batch is the sequential composition of single ops.

Operations use *sequential* semantics -- each element index addresses the
document as the operations before it leave it -- and that is also how
they run: :func:`execute_batch` applies them one at a time through
:func:`apply_batch_op`, the very resolve-and-mutate step the single-op
API (:meth:`repro.api.CompressedXml.rename` / ``insert`` /
``append_child`` / ``delete``) takes, so every operation is one path
isolation plus one spliced edit (Section III), exactly as in the paper.
A batch therefore equals the op loop by construction, error behavior
included.  Following FLUX's reading of an update program as the
composition of its updates, what a batch adds lives in its caller
(:meth:`~repro.api.CompressedXml.apply_batch`): one writer lock, an
optional rollback transaction, one WAL record in the durable layer, and
one settle -- reshard plus the auto-recompression check -- at the end
instead of after every operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Container, Iterable, List, Optional, Sequence, Tuple,
    Union,
)

from repro.grammar.index import check_element_index
from repro.grammar.slcf import Grammar
from repro.trees.binary import encode_forest
from repro.trees.symbols import Symbol
from repro.trees.unranked import XmlNode
from repro.updates import grammar_updates
from repro.updates.operations import UpdateError, check_tag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.grammar.index import GrammarIndex

__all__ = [
    "BatchRename",
    "BatchInsert",
    "BatchAppend",
    "BatchDelete",
    "BatchOp",
    "BatchStats",
    "BatchBuilder",
    "apply_batch_op",
    "execute_batch",
    "normalize_content",
]


def normalize_content(
    content: Union[XmlNode, Sequence[XmlNode]]
) -> Tuple[XmlNode, ...]:
    """Coerce insert/append content to a validated tuple of elements
    (every tag below them checked: see :func:`check_tag`)."""
    siblings = (content,) if isinstance(content, XmlNode) else tuple(content)
    for item in siblings:
        if not isinstance(item, XmlNode):
            raise UpdateError(
                f"inserted content must be XmlNode elements, got {item!r}"
            )
        for node in item.preorder():
            check_tag(node.tag)
    return siblings


class BatchRename:
    """Relabel the element at (sequential-semantics) ``index``."""

    __slots__ = ("index", "new_tag")

    def __init__(self, index: int, new_tag: str) -> None:
        self.index = check_element_index(index, "rename index")
        self.new_tag = check_tag(new_tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchRename({self.index}, {self.new_tag!r})"


class BatchInsert:
    """Insert ``content`` before the element at ``index``."""

    __slots__ = ("index", "content")

    def __init__(
        self, index: int, content: Union[XmlNode, Sequence[XmlNode]]
    ) -> None:
        self.index = check_element_index(index, "insert index")
        self.content = normalize_content(content)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchInsert({self.index}, {list(self.content)!r})"


class BatchAppend:
    """Append ``content`` as the last children of element ``parent_index``."""

    __slots__ = ("parent_index", "content")

    def __init__(
        self, parent_index: int, content: Union[XmlNode, Sequence[XmlNode]]
    ) -> None:
        self.parent_index = check_element_index(
            parent_index, "append parent index")
        self.content = normalize_content(content)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchAppend({self.parent_index}, {list(self.content)!r})"


class BatchDelete:
    """Delete the element at ``index`` together with its subtree."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = check_element_index(index, "delete index")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchDelete({self.index})"


BatchOp = Union[BatchRename, BatchInsert, BatchAppend, BatchDelete]


@dataclass
class BatchStats:
    """Instrumentation of one :func:`execute_batch` run.

    ``inlined_rules`` counts the rule applications the operations' path
    isolations performed -- once an operation has isolated a spine
    region, later operations on it inline nothing.
    """

    operations: int = 0
    inlined_rules: int = 0
    #: Grammar epoch the batch resolved against / the epoch it published
    #: (filled in by :meth:`repro.api.CompressedXml.apply_batch`): a
    #: writer's edits are planned at ``base_epoch`` and become visible to
    #: new snapshots exactly at ``commit_epoch``.
    base_epoch: int = 0
    commit_epoch: int = 0
    #: Seconds spent applying the operations (resolution, isolation and
    #: edit, one operation at a time).  No stage runs ahead of the edits,
    #: so ``plan_seconds`` and ``isolate_seconds`` are always 0.0; they
    #: remain for readers of the three-stage split.  The caller
    #: (``apply_batch``) adds the "settle"
    #: stage -- resharding and the auto-recompression check -- to its own
    #: metrics.
    plan_seconds: float = 0.0
    isolate_seconds: float = 0.0
    apply_seconds: float = 0.0

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "operations": self.operations,
            "inlined_rules": self.inlined_rules,
            "base_epoch": self.base_epoch,
            "commit_epoch": self.commit_epoch,
            "plan_seconds": self.plan_seconds,
            "isolate_seconds": self.isolate_seconds,
            "apply_seconds": self.apply_seconds,
        }


class BatchBuilder:
    """Collects operations for :meth:`repro.api.CompressedXml.apply_batch`.

    Returned by :meth:`CompressedXml.batch`; usable as a context manager
    (the batch is applied on a clean exit, and :attr:`stats` holds the
    resulting :class:`BatchStats`)::

        with doc.batch() as b:
            b.rename(3, "seen")
            b.append_child(3, XmlNode("mark"))
            b.delete(9)
    """

    def __init__(self, doc) -> None:
        self._doc = doc
        self._ops: List[BatchOp] = []
        self.stats: Optional[BatchStats] = None

    def rename(self, element_index: int, new_tag: str) -> "BatchBuilder":
        self._ops.append(BatchRename(element_index, new_tag))
        return self

    def insert(
        self, element_index: int, content: Union[XmlNode, Sequence[XmlNode]]
    ) -> "BatchBuilder":
        self._ops.append(BatchInsert(element_index, content))
        return self

    def append_child(
        self, parent_element_index: int, content: Union[XmlNode, Sequence[XmlNode]]
    ) -> "BatchBuilder":
        self._ops.append(BatchAppend(parent_element_index, content))
        return self

    def delete(self, element_index: int) -> "BatchBuilder":
        self._ops.append(BatchDelete(element_index))
        return self

    @property
    def operations(self) -> List[BatchOp]:
        return list(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __enter__(self) -> "BatchBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.stats = self._doc.apply_batch(self._ops)
        return False


_OP_TYPES = (BatchRename, BatchInsert, BatchAppend, BatchDelete)


def apply_batch_op(
    grammar: Grammar,
    grammar_index: "GrammarIndex",
    op: BatchOp,
    spine: Optional[Container[Symbol]] = None,
    encode=encode_forest,
) -> int:
    """Apply one operation to the document as it stands now.

    The target is resolved on ``grammar_index`` -- position and
    derivation path, from one element descent -- and the edit runs through
    the single-op mutator of :mod:`repro.updates.grammar_updates` (one
    path isolation, one spliced edit).  ``encode`` turns insert / append
    content into a fragment over the grammar's alphabet.  Returns the
    rule inlines the isolation performed.
    """
    if isinstance(op, BatchRename):
        position, steps = grammar_index.resolve_element(op.index)
        return grammar_updates.rename(
            grammar, position, op.new_tag, steps=steps, spine=spine)
    if isinstance(op, BatchDelete):
        if op.index == 0:
            raise UpdateError("deleting the document root is not allowed")
        position, steps = grammar_index.resolve_element(op.index)
        return grammar_updates.delete(
            grammar, position, steps=steps, spine=spine)
    if isinstance(op, BatchInsert) and op.index == 0:
        raise UpdateError(
            "inserting before the document root would create a forest"
        )
    fragment = encode(list(op.content), grammar.alphabet)
    if isinstance(op, BatchAppend):
        # The insertion point is the parent's child-list terminator.
        position, steps = grammar_index.end_of_children_position(
            op.parent_index)
    else:
        position, steps = grammar_index.resolve_element(op.index)
    return grammar_updates.insert(
        grammar, position, fragment, steps=steps, spine=spine)


def execute_batch(
    grammar: Grammar,
    grammar_index: "GrammarIndex",
    ops: Iterable[BatchOp],
    spine: Optional[Container[Symbol]] = None,
) -> BatchStats:
    """Apply a batch of element-index operations, one at a time.

    Every operation is checked up front, so a malformed batch changes
    nothing.  Then each goes through :func:`apply_batch_op` against the
    document the earlier ones left: an out-of-range index or a root
    deletion raises (``IndexError`` / ``UpdateError``) *after* the
    operations before it have been applied, exactly as the single-op
    loop would leave the document.
    """
    ops = list(ops)
    for position, op in enumerate(ops):
        if not isinstance(op, _OP_TYPES):
            raise UpdateError(f"op #{position} is not a batch operation: {op!r}")
    stats = BatchStats(operations=len(ops))
    started = time.perf_counter()
    for op in ops:
        stats.inlined_rules += apply_batch_op(
            grammar, grammar_index, op, spine=spine)
    stats.apply_seconds = time.perf_counter() - started
    return stats
