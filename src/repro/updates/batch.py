"""Batch updates: plan many element-index operations as one program.

The paper's update algorithm isolates one derivation path per operation.
Real workloads arrive in bursts that hit nearby preorder indices, and a
per-op loop pays three times for their proximity: every operation
re-isolates (and, after an interleaved recompression, *re-inlines*) the
rule prefix the paths share, every operation dirties the start rule so
the next one recomputes the structural index's start tables, and the
automatic maintenance policy may recompress mid-burst several times.
Following FLUX's view of updates as composite programs, this module
plans a whole list of operations first and executes it in few strokes:

1. **Validate and index-adjust** (:func:`execute_batch`).  Operations
   use *sequential* semantics -- each element index is interpreted
   against the document as left by the operations before it, exactly as
   if the caller had invoked the single-op API in a loop.  The planner
   translates every index back into the coordinates of the unmodified
   document by undoing the shifts of the earlier operations: an insert
   of ``m`` elements before index *i* shifts later targets at ``>= i``
   up by ``m``; a delete at *i* removes its whole subtree's ``s``
   indices (``s`` from :meth:`GrammarIndex.element_subtree_extent`,
   adjusted for batch content that earlier operations put inside or
   took out of that subtree); an append lands at ``parent + extent``,
   *one past* the parent's subtree -- the off-the-end position that is
   exactly ``element_count`` when the parent is the last element.

2. **Group.**  A target that falls *inside* content created earlier in
   the same batch has no pre-batch coordinate; the planner then flushes
   the group collected so far and starts a new one, so the batch
   degrades gracefully to the sequential loop in the worst case and
   stays a single group on the common burst of distinct targets.

3. **Isolate the union** (:func:`~repro.updates.path_isolation.isolate_many`).
   All derivation paths of a group are resolved against the same
   unmodified grammar and replayed as one trie: shared path prefixes
   are inlined once, not once per operation.

4. **Edit the spine** (:func:`~repro.updates.grammar_updates.apply_isolated_batch`).
   Tree-level edits run in operation order against the isolated start
   rule; one ``set_rule`` ends the mutation epoch, so observers (the
   structural index, the dirty-rule recorder) see a single coherent
   change and the caller settles with a single recompression check.
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
from repro.trees.unranked import XmlNode, xml_node_count
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


def _check_index(index: int, what: str) -> int:
    # Error parity with the single-op API: the shared check raises
    # TypeError for non-ints (bools included) and IndexError for negative
    # indices, exactly as GrammarIndex._locate_element does.
    return check_element_index(index, what)


class BatchRename:
    """Relabel the element at (sequential-semantics) ``index``."""

    __slots__ = ("index", "new_tag")

    def __init__(self, index: int, new_tag: str) -> None:
        self.index = _check_index(index, "rename index")
        self.new_tag = check_tag(new_tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchRename({self.index}, {self.new_tag!r})"


class BatchInsert:
    """Insert ``content`` before the element at ``index``."""

    __slots__ = ("index", "content")

    def __init__(
        self, index: int, content: Union[XmlNode, Sequence[XmlNode]]
    ) -> None:
        self.index = _check_index(index, "insert index")
        self.content = normalize_content(content)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchInsert({self.index}, {list(self.content)!r})"


class BatchAppend:
    """Append ``content`` as the last children of element ``parent_index``."""

    __slots__ = ("parent_index", "content")

    def __init__(
        self, parent_index: int, content: Union[XmlNode, Sequence[XmlNode]]
    ) -> None:
        self.parent_index = _check_index(parent_index, "append parent index")
        self.content = normalize_content(content)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchAppend({self.parent_index}, {list(self.content)!r})"


class BatchDelete:
    """Delete the element at ``index`` together with its subtree."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = _check_index(index, "delete index")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchDelete({self.index})"


BatchOp = Union[BatchRename, BatchInsert, BatchAppend, BatchDelete]


@dataclass
class BatchStats:
    """Instrumentation of one :func:`execute_batch` run.

    ``inlined_rules`` counts the rule applications the shared isolation
    actually performed; ``per_path_inlines`` what isolating every path
    separately would have performed (the sum of each path's rule
    entries) -- their difference is the amortization the batch bought.
    ``groups`` is 1 plus the number of forced flushes (a flush happens
    when an operation targets content created earlier in the batch).
    """

    operations: int = 0
    groups: int = 0
    isolations: int = 0
    inlined_rules: int = 0
    per_path_inlines: int = 0
    #: Spine rules (start rule / shards) whose bodies the batch actually
    #: rewrote, summed over groups.  With a sharded spine a clustered
    #: burst touches ~``ops / width`` shards instead of one giant RHS.
    rules_touched: int = 0
    #: Grammar epoch the batch resolved against / the epoch it published
    #: (filled in by :meth:`repro.api.CompressedXml.apply_batch`): a
    #: writer's edits are planned at ``base_epoch`` and become visible to
    #: new snapshots exactly at ``commit_epoch``.
    base_epoch: int = 0
    commit_epoch: int = 0
    #: Where the batch spent its time (seconds): planning / index
    #: adjustment, shared-path isolation, and spine edits.  The caller
    #: (``apply_batch``) adds a fourth "settle" stage -- resharding and
    #: the auto-recompression check -- to its own metrics.
    plan_seconds: float = 0.0
    isolate_seconds: float = 0.0
    apply_seconds: float = 0.0

    @property
    def inlines_saved(self) -> int:
        return self.per_path_inlines - self.inlined_rules

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "operations": self.operations,
            "groups": self.groups,
            "isolations": self.isolations,
            "inlined_rules": self.inlined_rules,
            "per_path_inlines": self.per_path_inlines,
            "inlines_saved": self.inlines_saved,
            "rules_touched": self.rules_touched,
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


class _Shift:
    """One earlier operation's effect on later element indices.

    ``position``/``delta`` live in the coordinates of the moment the
    operation applies (that is what later indices must be translated
    through); ``pre_anchor``/``pre_span``/``parent_pre`` are the same
    facts in pre-group coordinates, used to adjust the apply-time
    extent of later deletes and appends whose subtrees absorbed or lost
    batch content.
    """

    __slots__ = ("position", "delta", "pre_anchor", "pre_span", "parent_pre")

    def __init__(
        self,
        position: int,
        delta: int,
        pre_anchor: Optional[int] = None,
        pre_span: Optional[Tuple[int, int]] = None,
        parent_pre: Optional[int] = None,
    ) -> None:
        self.position = position
        self.delta = delta
        self.pre_anchor = pre_anchor
        self.pre_span = pre_span
        self.parent_pre = parent_pre


def _to_pre_group(index: int, records: List[_Shift]) -> Optional[int]:
    """Translate an apply-time element index to pre-group coordinates.

    Walks the earlier operations' shifts newest-first, undoing each.
    Returns ``None`` when the index denotes an element created earlier
    in the batch (it has no pre-group coordinate; the caller flushes).
    """
    current = index
    for record in reversed(records):
        if record.delta >= 0:
            if current < record.position:
                continue
            if current < record.position + record.delta:
                return None
            current -= record.delta
        else:
            if current >= record.position:
                current -= record.delta  # delta is negative: shift up
    return current


def _apply_time_extent(
    pre_position: int, pre_extent: int, records: List[_Shift]
) -> int:
    """Apply-time element count of the subtree at pre-group ``pre_position``.

    Starts from the unmodified document's extent and accounts for batch
    content earlier operations put inside the subtree (inserts anchored
    strictly within it, appends whose parent lies within it -- including
    the subtree root itself) or removed from it (deletes of nested
    subtrees).  Subtree element intervals nest or are disjoint, so a
    nested delete is recognized by its span start alone.
    """
    extent = pre_extent
    high = pre_position + pre_extent
    for record in records:
        if record.delta >= 0:
            if record.parent_pre is not None:  # append
                if pre_position <= record.parent_pre < high:
                    extent += record.delta
            elif record.pre_anchor is not None:  # insert before an element
                if pre_position < record.pre_anchor < high:
                    extent += record.delta
        elif record.pre_span is not None:  # delete of a nested subtree
            if pre_position < record.pre_span[0] < high:
                extent += record.delta  # delta is negative
    return extent


def execute_batch(
    grammar: Grammar,
    grammar_index: "GrammarIndex",
    ops: Iterable[BatchOp],
    spine: Optional[Container[Symbol]] = None,
) -> BatchStats:
    """Plan and apply a batch of element-index operations.

    Observationally equivalent to applying ``ops`` one by one through
    the single-op API (the property the batch tests pin down), including
    error behavior: an out-of-range index or a root deletion raises
    (``IndexError`` / ``UpdateError``) *after* the operations before it
    have been applied, exactly as the sequential loop would leave the
    document.
    """
    from repro.updates.grammar_updates import PlannedEdit, apply_isolated_batch

    started = time.perf_counter()
    ops = list(ops)
    for position, op in enumerate(ops):
        if not isinstance(op, (BatchRename, BatchInsert, BatchAppend, BatchDelete)):
            raise UpdateError(f"op #{position} is not a batch operation: {op!r}")
    stats = BatchStats(operations=len(ops))

    planned: List[PlannedEdit] = []
    records: List[_Shift] = []
    renamed_pre: set = set()  # pre-group positions renamed in this group
    current_count = grammar_index.element_count

    def flush() -> None:
        nonlocal current_count
        if not planned:
            return
        stats.groups += 1
        stats.isolations += len(planned)
        stats.per_path_inlines += sum(p.enter_steps for p in planned)
        timings: dict = {}
        group_started = time.perf_counter()
        inlined, touched = apply_isolated_batch(
            grammar, planned, spine=spine, timings=timings
        )
        group_elapsed = time.perf_counter() - group_started
        isolate_s = timings.get("isolate_seconds", 0.0)
        stats.isolate_seconds += isolate_s
        stats.apply_seconds += max(0.0, group_elapsed - isolate_s)
        stats.inlined_rules += inlined
        stats.rules_touched += touched
        planned.clear()
        records.clear()
        renamed_pre.clear()
        current_count = grammar_index.element_count

    for op in ops:
        if isinstance(op, BatchAppend):
            target = op.parent_index
        else:
            target = op.index
        # Apply-time validation, sequential parity: the index must be valid
        # for the document as the earlier operations leave it.
        if target >= current_count:
            flush()
            raise IndexError(
                f"element index {target} out of range "
                f"({current_count} elements at this point of the batch)"
            )
        if isinstance(op, BatchDelete) and target == 0:
            flush()
            raise UpdateError("deleting the document root is not allowed")
        if isinstance(op, BatchInsert) and target == 0:
            # Error parity with CompressedXml.insert: a sibling before
            # the document root would make the document a forest.
            flush()
            raise UpdateError(
                "inserting before the document root would create a forest"
            )

        pre = _to_pre_group(target, records)
        if pre is None:
            # The target was created earlier in this batch: it has no
            # coordinate on the unmodified document, so everything planned
            # so far is applied first and planning restarts.
            flush()
            pre = target

        if isinstance(op, BatchRename):
            position, steps = grammar_index.resolve_element(pre)
            # The single-op no-op fast path: renaming to the label the
            # element already carries plans nothing (no isolation, no
            # start-rule growth).  Only sound when no earlier rename in
            # this group targets the same element -- the resolution shows
            # pre-group labels, not the group's pending relabelings.
            current_symbol = steps[-1].node.symbol
            if (current_symbol.name == op.new_tag
                    and not current_symbol.is_bottom
                    and pre not in renamed_pre):
                continue
            renamed_pre.add(pre)
            planned.append(PlannedEdit("rename", position, steps, label=op.new_tag))
            continue

        if isinstance(op, BatchDelete):
            position, steps, pre_extent, _end = \
                grammar_index.resolve_element_with_extent(pre)
            planned.append(PlannedEdit("delete", position, steps))
            removed = _apply_time_extent(pre, pre_extent, records)
            records.append(
                _Shift(target, -removed, pre_span=(pre, pre + pre_extent))
            )
            current_count -= removed
            continue

        added = sum(xml_node_count(element) for element in op.content)
        if added == 0:
            continue  # inserting the empty forest is the identity
        fragment = encode_forest(list(op.content), grammar.alphabet)
        if isinstance(op, BatchInsert):
            position, steps = grammar_index.resolve_element(pre)
            planned.append(PlannedEdit("insert", position, steps, fragment=fragment))
            records.append(_Shift(target, added, pre_anchor=pre))
        else:  # BatchAppend: the target is the parent's child-list terminator
            _parent_pos, _parent_steps, pre_extent, position = \
                grammar_index.resolve_element_with_extent(pre)
            steps = grammar_index.resolve_preorder(position)
            planned.append(PlannedEdit("insert", position, steps, fragment=fragment))
            # The appended elements land one past the parent's subtree --
            # at apply-time index target + extent, which is exactly the
            # current element count when the parent is the last element.
            insert_at = target + _apply_time_extent(pre, pre_extent, records)
            records.append(_Shift(insert_at, added, parent_pre=pre))
        current_count += added

    flush()
    total = time.perf_counter() - started
    stats.plan_seconds = max(
        0.0, total - stats.isolate_seconds - stats.apply_seconds
    )
    return stats
