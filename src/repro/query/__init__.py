"""Grammar-native query engine: label paths evaluated on the grammar.

This package is the read-side counterpart of :mod:`repro.updates`: where
the update layer mutates the compressed document without decompressing it,
the query layer *navigates* it without decompressing it, following Maneth
& Sebastian's observation that grammar-compressed XML supports fast
structural navigation directly on the SLP.

* :mod:`repro.query.parser` -- label-path expressions (``/a/b//c`` style:
  child and descendant axes, label or ``*`` tests, optional positional
  predicates),
* :mod:`repro.query.engine` -- one derivation walk per path (the path
  automaton rides it), with derivation subtrees skipped in O(1) when no
  step can match below them or their label census is zero -- the
  per-rule censuses :class:`~repro.grammar.index.GrammarIndex` keeps and
  invalidates with its segments and packs -- plus subtree extraction by
  partial derivation,
* :mod:`repro.query.label_index` -- :class:`LabelIndex`, a read view of
  those censuses' eviction counters,
* :mod:`repro.query.naive` -- the decompressed-tree evaluation the engine
  is property-tested against.

Results are document-order element indices -- the same coordinate space
every update operation of :class:`repro.api.CompressedXml` accepts, so a
``select`` feeds directly into a batch of updates.
"""

from repro.query.engine import (
    count_matches,
    extract_subtree,
    iter_matching_elements,
    select,
)
from repro.query.label_index import LabelIndex
from repro.query.naive import naive_select
from repro.query.parser import LabelPath, QueryStep, QuerySyntaxError, parse_path

__all__ = [
    "LabelPath",
    "QueryStep",
    "QuerySyntaxError",
    "parse_path",
    "LabelIndex",
    "select",
    "count_matches",
    "extract_subtree",
    "iter_matching_elements",
    "naive_select",
]
