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
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .clique import ColoredGraph, embed_over_compat_functions
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


def solve_min_closed(g: ColoredGraph, counter: OpCounter | None = None) -> tuple[int, ...] | None:
    """Arc consistency to fixpoint, then the least survivor of each domain.

    Returns the coordinatewise-minimum solution (one position per class) or
    None when some domain empties.  Correct only for min-closed relations;
    `assert_min_closed` checks that exhaustively.
    """
    c = counter if counter is not None else OpCounter()
    size = [g.class_size(v) for v in range(g.k)]
    alive = [np.ones(n, dtype=bool) for n in size]
    if not all(size):
        return None
    # each pair x < y in order, revising x against y and then y against x
    pairs = combinations(range(g.k), 2)
    arcs = [(v, u, g.adjacency(v, u)) for x, y in pairs for v, u in ((x, y), (y, x))]
    changed = True
    while changed:
        changed = False
        for v, u, rel in arcs:
            c.add(size[v] * size[u])
            new = alive[v] & (rel & alive[u]).any(axis=1)
            n = int(new.sum())
            if n != size[v]:  # new is a subset of alive[v], so equal counts mean no change
                if not n:
                    return None
                alive[v], size[v] = new, n
                changed = True
    return tuple(int(np.argmax(a)) for a in alive)


def embed_via_csp(q: Poset, p: Poset, counter: OpCounter | None = None) -> tuple[int, ...] | None:
    """Embedding of q into p, or None, by looping the CSP over all
    compatibility functions in lexicographic order (see
    `clique.embed_over_compat_functions`)."""
    return embed_over_compat_functions(q, p, counter, solve_min_closed)
