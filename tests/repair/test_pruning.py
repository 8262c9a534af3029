"""Tests for the pruning phase (Section IV-D)."""

import pytest
from hypothesis import given, settings

from repro.grammar.navigation import generates_same_tree
from repro.grammar.properties import reference_counts
from repro.grammar.serialize import parse_grammar
from repro.repair.pruning import prune_grammar, saving

from tests.strategies import slcf_grammars


class TestSaving:
    def test_saving_formula(self):
        g = parse_grammar("start S\nS -> f(A,A)\nA -> g(g(a))\n")
        A = g.alphabet.get("A")
        # size(tA) = 2 edges, rank 0, |ref| = 2: sav = 2*2 - 2 = 2.
        assert saving(g, A, 2) == 2

    def test_saving_negative_for_single_reference(self):
        g = parse_grammar("start S\nS -> f(A,b)\nA -> g(g(a))\n")
        A = g.alphabet.get("A")
        # sav = 1*(2-0) - 2 = 0; with rank 1 it would be negative.
        assert saving(g, A, 1) == 0

    def test_saving_accounts_for_rank(self):
        g = parse_grammar("start S\nS -> f(A(a),A(b))\nA/1 -> g(g(y1))\n")
        A = g.alphabet.get("A")
        # size 2 edges... tA = g(g(y1)): 3 nodes, 2 edges, rank 1:
        # sav = 2*(2-1) - 2 = 0.
        assert saving(g, A, 2) == 0


class TestPrune:
    def test_dead_rules_are_dropped(self):
        g = parse_grammar(
            "start S\nS -> f(a,b)\nD -> g(E)\nE -> g(a)\n"
        )
        removed = prune_grammar(g)
        assert removed == 2
        assert len(g) == 1
        g.validate()

    def test_single_reference_rules_inlined(self):
        g = parse_grammar("start S\nS -> f(A,b)\nA -> g(g(g(a)))\n")
        reference = g.copy()
        prune_grammar(g)
        assert len(g) == 1
        assert generates_same_tree(g, reference)

    def test_protected_rules_survive(self):
        g = parse_grammar("start S\nS -> f(A,b)\nA -> g(g(g(a)))\n")
        A = g.alphabet.get("A")
        prune_grammar(g, protected=[A])
        assert g.has_rule(A)

    def test_unproductive_small_rule_inlined(self):
        # B -> g(y1) has size 1: sav = 2*(1-1) - 1 = -1 < 0.
        g = parse_grammar("start S\nS -> f(B(a),B(b))\nB/1 -> g(y1)\n")
        reference = g.copy()
        prune_grammar(g)
        assert len(g) == 1
        assert generates_same_tree(g, reference)

    def test_productive_rule_survives(self):
        g = parse_grammar(
            "start S\nS -> f(A,A)\nA -> g(g(g(g(a))))\n"
        )
        A = g.alphabet.get("A")
        prune_grammar(g)
        assert g.has_rule(A)

    def test_zero_edge_chain_rule_inlined(self):
        # X -> Y has no edge: sav = 2*(0-0) - 0 = 0, not < 0, yet each
        # reference is one node either way -- X goes, Y (productive) stays.
        g = parse_grammar(
            "start S\nS -> f(X,f(X,Y))\nX -> Y\nY -> g(g(a))\n"
        )
        X, Y = g.alphabet.get("X"), g.alphabet.get("Y")
        reference = g.copy()
        before = g.size
        assert prune_grammar(g) == 1
        assert not g.has_rule(X) and g.has_rule(Y)
        assert g.size == before
        assert generates_same_tree(g, reference)

    def test_cascading_prune_through_chain(self):
        # A used once inside B which is used once: both vanish.
        g = parse_grammar(
            "start S\nS -> f(B,c)\nB -> g(A)\nA -> g(g(a))\n"
        )
        reference = g.copy()
        prune_grammar(g)
        assert len(g) == 1
        assert generates_same_tree(g, reference)

    def test_size_never_grows_when_pruning_singles(self):
        g = parse_grammar("start S\nS -> f(A,b)\nA -> g(g(g(a)))\n")
        before = g.size
        prune_grammar(g)
        assert g.size <= before + 1  # inlining a 1-ref rule is size-neutral

    @settings(max_examples=40)
    @given(slcf_grammars())
    def test_prune_preserves_generated_tree(self, grammar):
        reference = grammar.copy()
        prune_grammar(grammar)
        grammar.validate()
        assert generates_same_tree(grammar, reference)

    @settings(max_examples=40)
    @given(slcf_grammars())
    def test_after_prune_no_single_reference_rules(self, grammar):
        prune_grammar(grammar)
        counts = reference_counts(grammar)
        for head, count in counts.items():
            if head is not grammar.start:
                assert count >= 2
