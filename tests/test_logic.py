import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetmc as pm
from posetmc import logic
from posetmc.logic import And, AtomKind, Lit, Or, format_sentence
from conftest import antichain, chain, make_sentence_text


def test_parse_basic_sentence():
    s = pm.parse_sentence("E x. E y. x <= y & !(y <= x)")
    assert [v.name for v in s.vars] == ["x", "y"]
    assert s.matrix == And(
        (Lit(AtomKind.Leq, "x", "y", False), Lit(AtomKind.Leq, "y", "x", True))
    )


def test_parse_universal_rejected():
    with pytest.raises(pm.UnsupportedQuantifier):
        pm.parse_sentence("A x. x <= x")


def test_parse_free_variable_after_nnf():
    with pytest.raises(pm.FreeVariable) as exc:
        pm.parse_sentence("E x. !(x <= y & y <= x)")
    assert exc.value.name == "y"


def test_demorgan_normalization_shape():
    s = pm.parse_sentence("E x. E y. !(x <= y & y <= x)")
    assert s.matrix == Or(
        (Lit(AtomKind.Leq, "x", "y", True), Lit(AtomKind.Leq, "y", "x", True))
    )


def test_double_negation_cancels():
    s = pm.parse_sentence("E x. !!(x <= x)")
    assert s.matrix == Lit(AtomKind.Leq, "x", "x", False)


def test_parse_errors_carry_position():
    with pytest.raises(pm.FormulaSyntaxError) as exc:
        pm.parse_sentence("E x. x <= ?")
    assert exc.value.pos == 10
    with pytest.raises(pm.FormulaSyntaxError):
        pm.parse_sentence("E x. E x. x <= x")
    with pytest.raises(pm.FormulaSyntaxError):
        pm.parse_sentence("E x. (x <= x")
    with pytest.raises(pm.FormulaSyntaxError):
        pm.parse_sentence("E x. x <= x x = x")


def test_nesting_limit():
    # alternating & and | under negations: every level is a node of the NNF tree
    levels = logic.MAX_NESTING
    deepest = "(x <= y & !(y <= x | " * (levels // 3) + "x = y" + "))" * (levels // 3)
    s = pm.parse_sentence("E x. E y. " + deepest)
    assert pm.parse_sentence(format_sentence(s)) == s
    assert pm.model_check(s, chain(2))[0] == pm.brute_force_model_check(s, chain(2))
    text = "E x. " + "(" * levels + "!" + "x <= x" + ")" * levels
    with pytest.raises(pm.FormulaSyntaxError) as exc:
        pm.parse_sentence(text)
    assert exc.value.pos == text.index("!")
    pm.parse_sentence(text.replace("!", ""))


def test_eval_matrix_examples():
    c2 = chain(2)
    leq = pm.parse_sentence("E x. E y. x <= y").matrix
    assert pm.eval_matrix(leq, c2, {"x": 0, "y": 1})
    eq = pm.parse_sentence("E x. E y. x = y").matrix
    assert not pm.eval_matrix(eq, c2, {"x": 0, "y": 1})
    assert pm.eval_matrix(eq, c2, {"x": 1, "y": 1})


def test_eval_unbound_variable():
    m = pm.parse_sentence("E x. E y. x <= y").matrix
    with pytest.raises(pm.UnboundVariable):
        pm.eval_matrix(m, chain(2), {"x": 0})


def test_reflexivity_atoms_always_true(rng):
    leq_m = pm.parse_sentence("E x. x <= x").matrix
    eq_m = pm.parse_sentence("E x. x = x").matrix
    for _ in range(10):
        p = pm.random_poset(rng.randint(1, 6), rng.uniform(0, 1), rng.randrange(2**30))
        for a in range(p.n):
            assert pm.eval_matrix(leq_m, p, {"x": a})
            assert pm.eval_matrix(eq_m, p, {"x": a})


def test_demorgan_semantic_law():
    lhs = pm.parse_sentence("E x. E y. !(x <= y & y <= x)")
    rhs = pm.parse_sentence("E x. E y. !(x <= y) | !(y <= x)")
    p = pm.close_and_validate(3, [(0, 1)])
    for a in range(3):
        for b in range(3):
            env = {"x": a, "y": b}
            assert pm.eval_matrix(lhs.matrix, p, env) == pm.eval_matrix(rhs.matrix, p, env)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 3), st.integers(1, 6))
def test_negation_flips_evaluation(seed, q, n):
    # normalization preserves semantics: the NNF of !(F) must evaluate to the
    # complement of the NNF of F on every assignment
    rng = random.Random(seed)
    text = make_sentence_text(rng, q)
    prefix, _, matrix_text = text.rpartition(". ")
    pos = pm.parse_sentence(text)
    neg = pm.parse_sentence(f"{prefix}. !({matrix_text})")
    p = pm.random_poset(n, rng.uniform(0, 1), rng.randrange(2**30))
    names = [v.name for v in pos.vars]
    for _ in range(8):
        env = {name: rng.randrange(n) for name in names}
        assert pm.eval_matrix(pos.matrix, p, env) != pm.eval_matrix(neg.matrix, p, env)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 3))
def test_print_parse_roundtrip(seed, q):
    rng = random.Random(seed)
    s = pm.parse_sentence(make_sentence_text(rng, q))
    assert pm.parse_sentence(pm.format_sentence(s)) == s


def test_formula_size_counts_nodes():
    s = pm.parse_sentence("E x. E y. x <= y & !(y <= x)")
    assert pm.formula_size(s) == 2 + 3  # two quantifiers, two literals, one connective
