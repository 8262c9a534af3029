"""Tests for the SLCF grammar model and its validation."""

import pytest
from hypothesis import given

from repro.grammar.slcf import Grammar, GrammarError
from repro.trees.builder import parse_term
from repro.trees.node import Node
from repro.trees.symbols import Alphabet, parameter_symbol

from tests.strategies import slcf_grammars


class TestConstruction:
    def test_from_tree_is_trivial_grammar(self, alphabet):
        tree = parse_term("f(a,b)", alphabet)
        grammar = Grammar.from_tree(tree, alphabet)
        grammar.validate()
        assert len(grammar) == 1
        assert grammar.rhs(grammar.start) is tree

    def test_start_must_be_rank0_nonterminal(self, alphabet):
        with pytest.raises(GrammarError):
            Grammar(alphabet, alphabet.terminal("a", 0))
        with pytest.raises(GrammarError):
            Grammar(alphabet, alphabet.nonterminal("A", 1))

    def test_bare_parameter_rhs_rejected(self, alphabet):
        S = alphabet.nonterminal("S", 0)
        A = alphabet.nonterminal("A", 1)
        grammar = Grammar(alphabet, S)
        with pytest.raises(GrammarError, match="parameter"):
            grammar.set_rule(A, Node(parameter_symbol(1)))

    def test_remove_start_rule_rejected(self, figure1_grammar):
        with pytest.raises(GrammarError):
            figure1_grammar.remove_rule(figure1_grammar.start)

    def test_rhs_of_unknown_nonterminal(self, figure1_grammar):
        missing = figure1_grammar.alphabet.nonterminal("ZZ", 0)
        with pytest.raises(GrammarError, match="no rule"):
            figure1_grammar.rhs(missing)


class TestSplicedEvent:
    """``notify_rule_spliced`` stands in for ``set_rule`` after in-place
    surgery: the root goes in through the same install, and a rewrite
    nobody preserved under a pin fails loudly instead of leaking into
    the pinned overlay."""

    def test_root_splice_installs_like_set_rule(self, alphabet):
        old = parse_term("f(a,b)", alphabet)
        grammar = Grammar.from_tree(old, alphabet)
        new = Node(alphabet.terminal("g", 1), [old])
        events = []

        class Observer:
            def rule_changed(self, head):
                events.append(head)

            rule_removed = rule_changed

        grammar.register_observer(Observer())
        epoch = grammar.epoch
        grammar.notify_rule_spliced(grammar.start, old, new)
        assert grammar.rhs(grammar.start) is new and new.parent is None
        assert events == [grammar.start]  # no hook: the coarse event
        assert grammar.epoch == epoch + 1
        with pytest.raises(GrammarError, match="parameter"):
            grammar.notify_rule_spliced(
                grammar.start, new, Node(parameter_symbol(1)))

    def test_unpreserved_rewrite_under_a_pin_is_rejected(self, alphabet):
        old = parse_term("f(a,b)", alphabet)
        grammar = Grammar.from_tree(old, alphabet)
        epoch = grammar.pin()
        new = Node(alphabet.terminal("g", 1), [old])
        with pytest.raises(GrammarError, match="preserve_for_write"):
            grammar.notify_rule_spliced(grammar.start, old, new)
        assert grammar.rhs(grammar.start) is old
        old.parent = None
        grammar.preserve_for_write(grammar.start)
        new = Node(alphabet.terminal("g", 1), [old])
        grammar.notify_rule_spliced(grammar.start, old, new)
        assert grammar.rhs(grammar.start) is new
        assert grammar.rule_at(epoch, grammar.start).symbol.name == "f"
        grammar.unpin(epoch)


class TestMeasures:
    def test_size_counts_edges_of_all_rules(self, figure1_grammar):
        # S -> f(A(B,B),#): 5 nodes/4 edges; B -> A(#,#): 3/2;
        # A -> a(#,a(y1,y2)): 5/4.  Total 10 edges.
        assert figure1_grammar.size == 10

    def test_node_size(self, figure1_grammar):
        assert figure1_grammar.node_size == 13

    def test_len_counts_rules(self, figure1_grammar):
        assert len(figure1_grammar) == 3


class TestCopy:
    def test_copy_is_deep(self, figure1_grammar):
        clone = figure1_grammar.copy()
        clone.validate()
        original_rhs = figure1_grammar.rhs(figure1_grammar.start)
        clone_rhs = clone.rhs(clone.start)
        assert clone_rhs is not original_rhs
        assert clone_rhs.to_sexpr() == original_rhs.to_sexpr()

    def test_copy_mutation_does_not_leak(self, figure1_grammar):
        clone = figure1_grammar.copy()
        bottom = clone.alphabet.bottom()
        clone.set_rule(clone.start, Node(clone.alphabet.terminal("z", 0)))
        assert figure1_grammar.rhs(figure1_grammar.start).label == "f"

    @given(slcf_grammars())
    def test_copy_validates_property(self, grammar):
        grammar.copy().validate()


class TestValidation:
    def _base(self):
        alphabet = Alphabet()
        S = alphabet.nonterminal("S", 0)
        return alphabet, S, Grammar(alphabet, S)

    def test_missing_start_rule(self):
        _, _, grammar = self._base()
        with pytest.raises(GrammarError, match="start"):
            grammar.validate()

    def test_undefined_nonterminal_reference(self):
        alphabet, S, grammar = self._base()
        alphabet.nonterminal("A", 0)
        grammar.set_rule(S, parse_term("g(A)", alphabet, frozenset({"A"})))
        with pytest.raises(GrammarError, match="undefined"):
            grammar.validate()

    def test_start_referenced_in_rhs(self):
        alphabet, S, grammar = self._base()
        A = alphabet.nonterminal("A", 0)
        grammar.set_rule(S, parse_term("g(A)", alphabet, frozenset({"A"})))
        grammar.set_rule(A, parse_term("g(S)", alphabet, frozenset({"S"})))
        with pytest.raises(GrammarError, match="start"):
            grammar.validate()

    def test_parameters_must_be_exactly_linear(self):
        alphabet, S, grammar = self._base()
        A = alphabet.nonterminal("A", 2)
        grammar.set_rule(A, parse_term("f(y1,y1)", alphabet))
        grammar.set_rule(S, parse_term("A(a,a)", alphabet, frozenset({"A"})))
        with pytest.raises(GrammarError, match="parameters"):
            grammar.validate()

    def test_parameters_must_appear_in_preorder_order(self):
        alphabet, S, grammar = self._base()
        A = alphabet.nonterminal("A", 2)
        grammar.set_rule(A, parse_term("f(y2,y1)", alphabet))
        grammar.set_rule(S, parse_term("A(a,a)", alphabet, frozenset({"A"})))
        with pytest.raises(GrammarError, match="preorder"):
            grammar.validate()

    def test_recursion_detected(self):
        alphabet, S, grammar = self._base()
        A = alphabet.nonterminal("A", 0)
        B = alphabet.nonterminal("B", 0)
        nts = frozenset({"A", "B"})
        grammar.set_rule(S, parse_term("g(A)", alphabet, nts))
        grammar.set_rule(A, parse_term("g(B)", alphabet, nts))
        grammar.set_rule(B, parse_term("g(A)", alphabet, nts))
        with pytest.raises(GrammarError, match="recursive"):
            grammar.validate()

    def test_broken_parent_pointer_detected(self, figure1_grammar):
        rhs = figure1_grammar.rhs(figure1_grammar.start)
        rhs.children[0].parent = None  # corrupt deliberately
        with pytest.raises(GrammarError, match="parent"):
            figure1_grammar.validate()

    def test_figure1_grammar_is_valid(self, figure1_grammar):
        figure1_grammar.validate()

    @given(slcf_grammars())
    def test_random_grammars_validate(self, grammar):
        grammar.validate()
