"""The label census's counters, as a read view of the structural index.

Per rule, the ``label -> count`` census of the elements its body
generates is one more cached attribute of
:class:`repro.grammar.index.GrammarIndex` -- computed lazily callees
first, moved by a splice's or relabel's delta up the shard spine and
dropped per rule beyond it by the observer events that drop the segments
and packs, exported into and imported from snapshots with them (``label_census`` / ``document_label_count`` there).
:class:`LabelIndex` holds nothing: it reports that census's eviction
counters in the stats-object shape the metrics gauge exports as
``label_*`` keys.
"""

from __future__ import annotations

from repro.grammar.index import GrammarIndex

__all__ = ["LabelIndex"]


class LabelIndex:
    """Census counters of one :class:`GrammarIndex`, read on demand."""

    __slots__ = ("_index",)

    def __init__(self, index: GrammarIndex) -> None:
        self._index = index

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol): census
        evictions, wholesale resets, rules with a cached census."""
        index = self._index
        return {
            "evicted_rules": index.censuses_evicted,
            "wholesale_invalidations": index.wholesale_invalidations,
            "cached_rules": index.censused_rule_count,
        }
