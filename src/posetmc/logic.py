"""Prenex existential sentences over the vocabulary {<=, =}.

Grammar (operators by decreasing precedence: ! then & then |):

    sentence := quantifier* matrix
    quantifier := 'E' IDENT '.'
    matrix   := or
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '!' unary | '(' or ')' | atom
    atom     := IDENT ('<=' | '=') IDENT

'E' and 'A' are reserved words.  A universal quantifier ('A') is rejected.
Negation may appear anywhere in the input.  The parser builds the matrix in
negation normal form (negations on atoms only), which is the shape every
other module relies on: it carries the parity of the enclosing negations
down the grammar, so a negated conjunction comes out as a disjunction of
negated parts and vice versa, and nested conjunctions (disjunctions) are
flattened into one node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

from .errors import FormulaSyntaxError, FreeVariable, PosetmcError, UnboundVariable, UnsupportedQuantifier
from .poset import Poset


class AtomKind(Enum):
    Leq = "<="
    Eq = "="


@dataclass(frozen=True)
class Variable:
    name: str
    index: int


@dataclass(frozen=True)
class Lit:
    kind: AtomKind
    left: str
    right: str
    negated: bool = False


@dataclass(frozen=True)
class And:
    items: tuple["Matrix", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Matrix", ...]


Matrix = Union[Lit, And, Or]


@dataclass(frozen=True)
class Sentence:
    vars: tuple[Variable, ...]
    matrix: Matrix


# -- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<leq><=)
      | (?P<eq>=)
      | (?P<not>!)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<dot>\.)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_RESERVED = {"E", "A"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind is None:
            raise PosetmcError(f"internal error: token at position {pos} matched no group")
        if kind != "ws":
            out.append(_Token(kind, m.group(), pos))
        pos = m.end()
    out.append(_Token("eof", "", len(text)))
    return out


# -- parser --------------------------------------------------------------------

# Parentheses and negations open at once.  Every recursive walk of a formula
# (this parser, `eval_matrix`, `format_matrix`) takes at most three frames
# per level, so this keeps them well inside Python's default recursion limit
# of 1000.
MAX_NESTING = 100


def _join(cls: type, items: list[Matrix]) -> Matrix:
    """One item, or a `cls` node whose items of class `cls` are spliced in."""
    if len(items) == 1:
        return items[0]
    return cls(tuple(x for item in items for x in (item.items if isinstance(item, cls) else (item,))))


class _Parser:
    """Recursive descent that builds the NNF matrix directly: each rule is
    told whether an odd number of negations encloses it, and a negated
    rule swaps `And` and `Or` and negates its atoms (De Morgan)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.used: set[str] = set()  # names read in atoms

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def ident(self, what: str) -> _Token:
        tok = self.expect("ident", what)
        if tok.text in _RESERVED:
            raise FormulaSyntaxError(f"{tok.text!r} is reserved and cannot name a variable", tok.pos)
        return tok

    def parse_sentence(self) -> Sentence:
        names: list[str] = []
        while self.peek().kind == "ident" and self.peek().text in _RESERVED:
            quant = self.take()
            if quant.text == "A":
                raise UnsupportedQuantifier(quant.pos)
            name = self.ident("a variable name")
            self.expect("dot", "'.'")
            if name.text in names:
                raise FormulaSyntaxError(f"variable {name.text!r} quantified twice", name.pos)
            names.append(name.text)
        matrix = self.parse_or(False)
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        free = sorted(self.used.difference(names))
        if free:
            raise FreeVariable(free[0])
        return Sentence(tuple(Variable(name, i) for i, name in enumerate(names)), matrix)

    def parse_or(self, negated: bool) -> Matrix:
        items = [self.parse_and(negated)]
        while self.peek().kind == "or":
            self.take()
            items.append(self.parse_and(negated))
        return _join(And if negated else Or, items)

    def parse_and(self, negated: bool) -> Matrix:
        items = [self.parse_unary(negated)]
        while self.peek().kind == "and":
            self.take()
            items.append(self.parse_unary(negated))
        return _join(Or if negated else And, items)

    def parse_unary(self, negated: bool) -> Matrix:
        tok = self.peek()
        if tok.kind in ("not", "lp"):
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
            if tok.kind == "not":
                node = self.parse_unary(not negated)
            else:
                node = self.parse_or(negated)
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
            raise FormulaSyntaxError(f"expected '<=' or '=', found {op.text or 'end of input'!r}", op.pos)
        right = self.ident("a variable name")
        self.used.update((left.text, right.text))
        return Lit(kind, left.text, right.text, negated)


def parse_sentence(text: str) -> Sentence:
    """Parse a prenex existential sentence; the matrix comes out in NNF."""
    return _Parser(_tokenize(text)).parse_sentence()


def eval_matrix(m: Matrix, p: Poset, assignment: Mapping[str, int]) -> bool:
    """Evaluate a quantifier-free NNF matrix under a total assignment."""
    if isinstance(m, Lit):
        try:
            a = assignment[m.left]
            b = assignment[m.right]
        except KeyError as exc:
            raise UnboundVariable(f"no value for variable {exc.args[0]!r}") from exc
        if m.kind is AtomKind.Leq:
            value = bool(p.leq[a, b])
        else:
            value = a == b
        return value != m.negated
    if isinstance(m, And):
        return all(eval_matrix(c, p, assignment) for c in m.items)
    return any(eval_matrix(c, p, assignment) for c in m.items)


def format_matrix(m: Matrix) -> str:
    if isinstance(m, Lit):
        s = f"{m.left} {m.kind.value} {m.right}"
        return f"!({s})" if m.negated else s
    if isinstance(m, And):
        return " & ".join(
            f"({format_matrix(c)})" if isinstance(c, Or) else format_matrix(c) for c in m.items
        )
    return " | ".join(format_matrix(c) for c in m.items)


def format_sentence(s: Sentence) -> str:
    prefix = "".join(f"E {v.name}. " for v in s.vars)
    return prefix + format_matrix(s.matrix)


def formula_size(s: Sentence) -> int:
    """Node count of the sentence tree (quantifiers plus matrix nodes)."""

    def nodes(m: Matrix) -> int:
        if isinstance(m, Lit):
            return 1
        return 1 + sum(nodes(c) for c in m.items)

    return len(s.vars) + nodes(s.matrix)
