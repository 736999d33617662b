"""From sentences to embedding instances.

A sentence with variables x_1..x_q holds on a host poset exactly when, for
some partition of the variables (identifying variables forced equal) and some
poset on the blocks satisfying the matrix, that block poset embeds into the
host.  Enumerating every (partition, block poset) pair whose induced
interpretation satisfies the matrix and testing each pattern for embedding is
therefore a complete decision procedure.  The enumeration is intrinsically
exponential in q, hence the variable cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator

from . import oracle
from .clique import embed_via_clique
from .csp import embed_via_csp
from .errors import PosetmcError, PreconditionViolation, TooManyVariables
from .instrument import OpCounter
from .logic import Sentence, eval_matrix
from .poset import Poset

# The largest q whose worst case was measured finishing.  The q = 6 tautology
# `v0 <= v0` yields all 209,527 templates in 5.8 s at a 195 MB peak resident
# set (2-core VM, Python 3.11); the q = 6 chain v0 <= .. <= v5 takes 3.2 s.
# At q = 7 the tautology would hold 9,535,241 templates (sum over b of
# S(7, b) times the posets on b labelled points), over 7 GB at that cost,
# and the q = 7 chain did not finish in 600 s.
DEFAULT_VARIABLE_CAP = 6


@dataclass(frozen=True)
class QuotientTemplate:
    """A partition of the sentence's variables plus a poset on the blocks.

    The induced interpretation (x <= y iff the blocks are related in the
    pattern, x = y iff the blocks coincide) satisfies the sentence's matrix.
    """

    blocks: tuple[tuple[str, ...], ...]
    pattern: Poset
    block_of: dict[str, int]


def _restricted_growth_strings(q: int) -> Iterator[list[int]]:
    """All set partitions of q items as restricted growth strings, in lex order."""
    a = [0] * q

    def rec(i: int, top: int) -> Iterator[list[int]]:
        if i == q:
            yield list(a)
            return
        for v in range(top + 2):
            a[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def _labeled_posets(b: int) -> Iterator[list[list[bool]]]:
    """Every partial order on b labelled points, as its leq matrix.

    Pairs i < j are signed depth-first in lexicographic order (incomparable,
    less, greater), so survivors come in product order.  Pair (m, j) is the
    last signed in every triple i < m < j, so its sign is kept only while
    those triples, all signed, stay transitive: every leaf is a partial order.
    """
    pairs = [(i, j) for i in range(b) for j in range(i + 1, b)]
    rel = [[i == j for j in range(b)] for i in range(b)]

    def sign(k: int) -> Iterator[list[list[bool]]]:
        if k == len(pairs):
            yield [row[:] for row in rel]
            return
        m, j = pairs[k]
        for less, greater in ((False, False), (True, False), (False, True)):
            rel[m][j], rel[j][m] = less, greater
            triples = [permutations((i, m, j)) for i in range(m)]
            if all(rel[x][z] or not (rel[x][y] and rel[y][z]) for t in triples for x, y, z in t):
                yield from sign(k + 1)

    yield from sign(0)


def enumerate_templates(s: Sentence) -> list[QuotientTemplate]:
    """Every satisfying (partition, block poset) pair, in a fixed order.

    Partitions are iterated as restricted growth strings (lexicographic),
    block posets by pair-sign assignment (incomparable, less, greater); no
    satisfying pair is missing and none repeats.
    """
    q = len(s.vars)
    if q < 1:
        raise PreconditionViolation("sentence must have at least one variable")
    if q > DEFAULT_VARIABLE_CAP:
        raise TooManyVariables(f"{q} variables over cap {DEFAULT_VARIABLE_CAP}")
    names = [v.name for v in s.vars]
    out: list[QuotientTemplate] = []
    seen: set[tuple] = set()
    # block posets per block count, built once; _labeled_posets yields only
    # partial orders.  Only the all-distinct partition has q blocks, so
    # those posets, the most numerous, stream instead.
    posets: dict[int, list[Poset]] = {}
    for rgs in _restricted_growth_strings(q):
        b = max(rgs) + 1
        block_of = {name: rgs[i] for i, name in enumerate(names)}
        blocks = tuple(
            tuple(name for name in names if block_of[name] == blk) for blk in range(b)
        )
        patterns = posets.get(b)
        if patterns is None:
            patterns = (Poset(rel, validate=False) for rel in _labeled_posets(b))
            if b < q:
                patterns = posets[b] = list(patterns)
        for pattern in patterns:
            if eval_matrix(s.matrix, pattern, block_of):
                key = (tuple(rgs), pattern.leq.tobytes())
                if key in seen:
                    raise PosetmcError("internal error: duplicate template")
                seen.add(key)
                out.append(QuotientTemplate(blocks, pattern, dict(block_of)))
    return out


# Embedding engines by name; each is called as engine(q, p, counter=counter).
_SOLVERS: dict[str, Callable] = {
    "clique": embed_via_clique,
    "csp": embed_via_csp,
    "brute": oracle.brute_force_embed,
}


def model_check(
    s: Sentence,
    p: Poset,
    solver: str = "clique",
    counter: OpCounter | None = None,
) -> tuple[bool, dict[str, int] | None]:
    """Decide whether the sentence holds on the host; witness on success.

    Templates are tried in enumeration order and the witness comes from the
    first whose pattern embeds, so results are deterministic.  All variables
    of one block map to the same host element.
    """
    if p.n == 0:
        raise PreconditionViolation("host poset must be nonempty")
    if solver not in _SOLVERS:
        raise PreconditionViolation(f"unknown solver {solver!r}")
    embed = _SOLVERS[solver]
    for template in enumerate_templates(s):
        e = embed(template.pattern, p, counter=counter)
        if e is not None:
            witness = {name: int(e[blk]) for name, blk in template.block_of.items()}
            return True, witness
    return False, None
