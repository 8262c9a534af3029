"""SLCF tree grammars: model, derivation, properties, navigation."""

from repro.grammar.derivation import (
    DecompressionBudgetExceeded,
    expand,
    inline_all_references,
    inline_at,
)
from repro.grammar.index import GrammarIndex
from repro.grammar.kernel import (
    RulePack,
    SymbolTable,
    global_symbol_table,
)
from repro.grammar.navigation import (
    PathStep,
    generates_same_tree,
    grammar_generates_tree,
    resolve_preorder_path,
    stream_preorder,
)
from repro.grammar.properties import (
    anti_sl_order,
    collect_garbage,
    dead_nonterminals,
    generated_node_count,
    parameter_segments,
    reference_counts,
    references,
    sl_order,
    usage,
)
from repro.grammar.serialize import (
    GrammarFormatError,
    format_grammar,
    parse_grammar,
)
from repro.grammar.sharding import ShardManager, ShardStats
from repro.grammar.slcf import Grammar, GrammarError, GrammarSizeTracker
from repro.grammar.strings import (
    gn_family_grammar,
    grammar_string,
    string_grammar,
)

__all__ = [
    "Grammar",
    "GrammarError",
    "GrammarIndex",
    "GrammarSizeTracker",
    "RulePack",
    "SymbolTable",
    "global_symbol_table",
    "ShardManager",
    "ShardStats",
    "inline_at",
    "inline_all_references",
    "expand",
    "DecompressionBudgetExceeded",
    "references",
    "reference_counts",
    "usage",
    "sl_order",
    "anti_sl_order",
    "parameter_segments",
    "generated_node_count",
    "dead_nonterminals",
    "collect_garbage",
    "stream_preorder",
    "generates_same_tree",
    "grammar_generates_tree",
    "resolve_preorder_path",
    "PathStep",
    "format_grammar",
    "parse_grammar",
    "GrammarFormatError",
    "string_grammar",
    "grammar_string",
    "gn_family_grammar",
]
