"""Embedding via binary CSPs closed under the chain-minimum operation.

For a pattern Q, host P, chain partition of P and a compatibility function f,
the coloured graph of `clique.build_colored_graph` is a binary CSP: one
variable per pattern element whose domain is its colour class C_f(q) (a
chain, so totally ordered), and for each pair of distinct pattern elements
the adjacency matrix as the relation, keeping exactly the host pairs whose
comparabilities mirror the pattern's.  Every such relation is closed under
the coordinatewise chain minimum, so enforcing pairwise arc consistency
decides satisfiability, and the chain-least survivor of each domain
assembles the canonical least solution.

Arc consistency is built one variable at a time (`csp_step`).  The domains
of a prefix of variables contain those of every extension, so a variable
can be added on top of its prefix's fixpoint: `solve_min_closed` folds the
step over a whole graph, and the embedding walk keeps one state per prefix
of a compatibility function (`clique.embed_over_compat_functions`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .clique import ColoredGraph, embed_over_compat_functions, fold_classes
from .errors import NotMinClosed
from .instrument import OpCounter
from .poset import Poset


def relation_is_min_closed(rel: np.ndarray) -> bool:
    """Exhaustive two-tuple check: positions index ascending chains, so the
    coordinatewise chain minimum is the coordinatewise position minimum."""
    cells = [(int(a), int(b)) for a, b in np.argwhere(rel)]
    for a1, b1 in cells:
        for a2, b2 in cells:
            if not rel[min(a1, a2), min(b1, b2)]:
                return False
    return True


def assert_min_closed(g: ColoredGraph) -> None:
    for x in range(g.k):
        for y in range(x + 1, g.k):
            if not relation_is_min_closed(g.adjacency(x, y)):
                raise NotMinClosed(f"constraint {(x, y)} is not min-closed")


def csp_step(state: tuple | None, i: int, size: int, entries: list, c: OpCounter) -> tuple | None:
    """Add variable i to the arc-consistent domains of variables 0..i-1.

    The state is (alive, sizes, rels): per variable its surviving positions
    as a boolean mask and their count, and `rels[y][x]` the relation of the
    pair x < y with x's positions as rows (`entries[x].rel` for y = i).  The
    new domain starts as its whole chain; a worklist seeded by the arcs that
    touch i revises to the fixpoint, re-queueing the arcs into a domain that
    shrank.  The fixpoint is the greatest arc-consistent one whatever the
    order, so it is the one a whole-instance run reaches.  Returns None when
    a domain empties.
    """
    if not size:
        return None
    alive, sizes, rels = state if state is not None else ((), (), ())
    alive = [*alive, np.ones(size, dtype=bool)]
    sizes = [*sizes, size]
    rels = (*rels, [e.rel for e in entries])
    queue = deque([(i, j) for j in range(i)] + [(j, i) for j in range(i)])
    queued = set(queue)
    while queue:
        v, u = arc = queue.popleft()  # revise v against u
        queued.remove(arc)
        c.add(sizes[v] * sizes[u])
        rel = rels[u][v] if v < u else rels[v][u].T
        new = alive[v] & (rel @ alive[u])  # boolean product: some live partner in u
        n = np.count_nonzero(new)
        if n != sizes[v]:  # new is a subset of alive[v], so equal counts mean no change
            if not n:
                return None
            alive[v], sizes[v] = new, n
            for x in range(i + 1):
                if x != v and x != u and (x, v) not in queued:
                    queued.add((x, v))
                    queue.append((x, v))
    return alive, sizes, rels


def _least_survivors(state: tuple | None) -> tuple[int, ...]:
    return tuple(int(np.argmax(a)) for a in state[0]) if state is not None else ()


def solve_min_closed(g: ColoredGraph, counter: OpCounter | None = None) -> tuple[int, ...] | None:
    """Arc consistency to fixpoint (`csp_step` folded over the variables),
    then the least survivor of each domain.

    Returns the coordinatewise-minimum solution (one position per class) or
    None when some domain empties.  Correct only for min-closed relations;
    `assert_min_closed` checks that exhaustively.
    """
    state, done = fold_classes(g, csp_step, counter)
    return _least_survivors(state) if done == g.k else None


def embed_via_csp(q: Poset, p: Poset, counter: OpCounter | None = None) -> tuple[int, ...] | None:
    """Embedding of q into p, or None, by looping the CSP over all
    compatibility functions in lexicographic order (see
    `clique.embed_over_compat_functions`)."""
    return embed_over_compat_functions(q, p, counter, csp_step, _least_survivors)
