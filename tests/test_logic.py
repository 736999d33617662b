import random

import pytest
from hypothesis import example, given, settings
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


# -- differential test: one-pass NNF parser against parse-then-normalise --------
#
# A test-local copy of the earlier two-pass parser: a raw tuple tree, then a
# separate pass pushing negations to the atoms.  It shares only the tokenizer
# and the token helpers with the library's parser.


class _RawParser(logic._Parser):
    def parse_sentence(self):
        names = []
        while self.peek().kind == "ident" and self.peek().text in logic._RESERVED:
            quant = self.take()
            if quant.text == "A":
                raise pm.UnsupportedQuantifier(quant.pos)
            name = self.ident("a variable name")
            self.expect("dot", "'.'")
            if name.text in names:
                raise pm.FormulaSyntaxError(f"variable {name.text!r} quantified twice", name.pos)
            names.append(name.text)
        matrix = self.parse_or()
        tok = self.peek()
        if tok.kind != "eof":
            raise pm.FormulaSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return names, matrix

    def parse_or(self):
        items = [self.parse_and()]
        while self.peek().kind == "or":
            self.take()
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else ("or", tuple(items))

    def parse_and(self):
        items = [self.parse_unary()]
        while self.peek().kind == "and":
            self.take()
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else ("and", tuple(items))

    def parse_unary(self):
        tok = self.peek()
        if tok.kind in ("not", "lp"):
            self.take()
            self.depth += 1
            if self.depth > logic.MAX_NESTING:
                raise pm.FormulaSyntaxError(f"nesting deeper than {logic.MAX_NESTING} levels", tok.pos)
            if tok.kind == "not":
                node = ("not", self.parse_unary())
            else:
                node = self.parse_or()
                self.expect("rp", "')'")
            self.depth -= 1
            return node
        left = self.ident("a variable name")
        op = self.take()
        if op.kind == "leq":
            kind = AtomKind.Leq
        elif op.kind == "eq":
            kind = AtomKind.Eq
        else:
            raise pm.FormulaSyntaxError(f"expected '<=' or '=', found {op.text or 'end of input'!r}", op.pos)
        right = self.ident("a variable name")
        return ("atom", kind, left.text, right.text)


def _flatten(cls, items):
    out = []
    for item in items:
        out.extend(item.items if isinstance(item, cls) else (item,))
    return tuple(out)


def _to_nnf(node, negated):
    tag = node[0]
    if tag == "atom":
        _, kind, left, right = node
        return Lit(kind, left, right, negated)
    if tag == "not":
        return _to_nnf(node[1], not negated)
    items = tuple(_to_nnf(child, negated) for child in node[1])
    if (tag == "and") == negated:  # and under negation becomes or, and vice versa
        return Or(_flatten(Or, items))
    return And(_flatten(And, items))


def _names(m):
    if isinstance(m, Lit):
        return {m.left, m.right}
    return set().union(*(_names(c) for c in m.items))


def _two_pass_parse(text):
    names, raw = _RawParser(logic._tokenize(text)).parse_sentence()
    matrix = _to_nnf(raw, False)
    for name in sorted(_names(matrix)):
        if name not in names:
            raise pm.FreeVariable(name)
    return logic.Sentence(tuple(logic.Variable(name, i) for i, name in enumerate(names)), matrix)


_NAMES = st.sampled_from(["x", "y", "z", "w"])  # w is never bound
_ATOMS = st.builds("{} {} {}".format, _NAMES, st.sampled_from(["<=", "="]), _NAMES)


def _group(op, items, parenthesised):
    text = op.join(items)
    return f"({text})" if parenthesised else text


_FORMULAS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        inner.map("!{}".format),
        st.builds(_group, st.sampled_from([" & ", " | "]), st.lists(inner, min_size=2, max_size=3), st.booleans()),
    ),
    max_leaves=16,
)
_NOISE = st.sampled_from(["!", "(", ")", "&", "|", "<=", "=", "E", "A", ".", "x", "w", "?"])


def _outcome(parse, text):
    try:
        return parse(text)
    except pm.PosetmcError as exc:
        return type(exc), str(exc)


# an edit is (position, token to insert there, or None to drop a character)
_EDITS = st.none() | st.tuples(st.integers(0, 10**6), st.none() | _NOISE)


@settings(max_examples=400, deadline=None)
@given(_FORMULAS, _EDITS)
@example("(x <= y & y <= z) & !(z = x | !(x = y & y <= x))", None)
@example("x <= y | !(y = z & w <= x)", None)
def test_one_pass_parser_matches_two_pass_reference(formula, edit):
    text = "E x. E y. E z. " + formula
    if edit is not None:  # malformed text, mostly
        k, token = edit[0] % (len(text) + 1), edit[1]
        text = text[:k] + (token or "") + text[k + (token is None) :]
    assert _outcome(pm.parse_sentence, text) == _outcome(_two_pass_parse, text)
