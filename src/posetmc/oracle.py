"""Brute-force reference implementations.

These are deliberately plain: exhaustive enumeration against the raw
definitions, reading the dense relation matrices directly.  They share no
chain-partition, constraint or interval machinery with the optimized
solvers, so agreement tests between the two sides are meaningful.

Work caps are configuration: every oracle takes explicit cap arguments, and
the environment variable POSETMC_ORACLE_CAP, when set, replaces all defaults
at once; a value that is not an integer is a PreconditionViolation.
"""

from __future__ import annotations

import os
from itertools import product

from .clique import ColoredGraph
from .errors import CapExceeded, PreconditionViolation
from .instrument import OpCounter
from .logic import Sentence, eval_matrix
from .poset import Poset, _check_embed_inputs

DEFAULT_EMBED_PATTERN_CAP = 6
DEFAULT_EMBED_HOST_CAP = 16
DEFAULT_ASSIGNMENT_CAP = 10**6
DEFAULT_TRANSVERSAL_CAP = 10**6
DEFAULT_WIDTH_CAP = 16

_ENV_CAP = "POSETMC_ORACLE_CAP"


def _cap(explicit: int | None, default: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(_ENV_CAP)
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise PreconditionViolation(f"{_ENV_CAP} must be an integer, got {env!r}") from None


def brute_force_embed(
    q: Poset,
    p: Poset,
    pattern_cap: int | None = None,
    host_cap: int | None = None,
    counter: OpCounter | None = None,
) -> tuple[int, ...] | None:
    """First (in lexicographic order) injective order-preserving-and-reflecting map.

    Equivalent to filtering the full lexicographic enumeration of injective
    maps by the embedding definition; a partial map whose assigned pairs
    already violate the definition is skipped together with all its
    extensions, which cannot repair it.
    """
    _check_embed_inputs(q, p)
    if q.n > _cap(pattern_cap, DEFAULT_EMBED_PATTERN_CAP):
        raise CapExceeded(f"pattern size {q.n} over cap")
    if p.n > _cap(host_cap, DEFAULT_EMBED_HOST_CAP):
        raise CapExceeded(f"host size {p.n} over cap")
    c = counter if counter is not None else OpCounter()
    image: list[int] = []
    used = [False] * p.n

    def consistent(i: int, target: int) -> bool:
        for j in range(i):
            c.add()
            if bool(q.leq[i, j]) != bool(p.leq[target, image[j]]):
                return False
            if bool(q.leq[j, i]) != bool(p.leq[image[j], target]):
                return False
        return True

    def search(i: int) -> bool:
        if i == q.n:
            return True
        for target in range(p.n):
            if used[target] or not consistent(i, target):
                continue
            used[target] = True
            image.append(target)
            if search(i + 1):
                return True
            image.pop()
            used[target] = False
        return False

    return tuple(image) if search(0) else None


def brute_force_model_check(s: Sentence, p: Poset, cap: int | None = None) -> bool:
    """True iff some total assignment of the variables satisfies the matrix."""
    q = len(s.vars)
    total = p.n**q
    if total > _cap(cap, DEFAULT_ASSIGNMENT_CAP):
        raise CapExceeded(f"{total} assignments over cap")
    names = [v.name for v in s.vars]
    for values in product(range(p.n), repeat=q):
        if eval_matrix(s.matrix, p, dict(zip(names, values))):
            return True
    return False


def brute_force_width(p: Poset, cap: int | None = None) -> int:
    """Maximum size over all pairwise-incomparable subsets, by subset scan."""
    if p.n > _cap(cap, DEFAULT_WIDTH_CAP):
        raise CapExceeded(f"poset size {p.n} over cap")
    n = p.n
    comparable = [0] * n  # bitmask of elements comparable (or equal) to a
    for a in range(n):
        mask = 0
        for b in range(n):
            if p.leq[a, b] or p.leq[b, a]:
                mask |= 1 << b
        comparable[a] = mask
    best = 0
    for subset in range(1 << n):
        rest = subset
        ok = True
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if comparable[a] & rest:
                ok = False
                break
        if ok:
            best = max(best, subset.bit_count())
    return best


def brute_force_clique(g: ColoredGraph, cap: int | None = None) -> tuple[int, ...] | None:
    """First transversal (one vertex per class, lexicographic) that is a clique."""
    sizes = [len(cls) for cls in g.elements]
    total = 1
    for s in sizes:
        total *= s
    if total > _cap(cap, DEFAULT_TRANSVERSAL_CAP):
        raise CapExceeded(f"{total} transversals over cap")
    if any(s == 0 for s in sizes):
        return None
    mats = {}
    for i in range(g.k):
        for j in range(i + 1, g.k):
            mats[(i, j)] = g.adjacency(i, j)
    for positions in product(*(range(s) for s in sizes)):
        if all(
            mats[(i, j)][positions[i], positions[j]]
            for i in range(g.k)
            for j in range(i + 1, g.k)
        ):
            return tuple(int(x) for x in positions)
    return None
