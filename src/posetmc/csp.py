"""Embedding via binary CSPs closed under the chain-minimum operation.

For a pattern Q, host P, chain partition of P and a compatibility function f,
the instance has one variable per pattern element with domain C_f(q) (a chain,
so totally ordered), and for each pair of distinct pattern elements a binary
relation keeping exactly the host pairs whose comparabilities mirror the
pattern's.  Every such relation is closed under the coordinatewise chain
minimum, so enforcing pairwise arc consistency decides satisfiability, and
the chain-least survivor of each domain assembles the canonical least
solution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NotMinClosed
from .instrument import OpCounter
from .poset import ChainPartition, Poset, compat_relations, embed_over_compat_functions


class CspInstance:
    """Variables 0..k-1, chain domains, and one relation per unordered pair.

    Relations are boolean matrices indexed by domain positions; domains list
    host elements in ascending chain order.
    """

    def __init__(
        self,
        domains: Sequence[Sequence[int]],
        constraints: dict[tuple[int, int], np.ndarray],
        f: tuple[int, ...],
    ):
        self.domains = [np.asarray(d, dtype=np.int64) for d in domains]
        self.constraints = dict(constraints)
        self.f = f
        for (x, y), rel in self.constraints.items():
            if rel.shape != (len(self.domains[x]), len(self.domains[y])):
                raise ValueError(f"relation {(x, y)} has shape {rel.shape}")


def build_csp(
    q: Poset,
    p: Poset,
    f: Sequence[int],
    cp: ChainPartition,
    counter: OpCounter | None = None,
    cache: dict | None = None,
) -> CspInstance:
    """The compatible-embedding instance for (q, p, f) over the given chains.

    For distinct pattern elements x < y the relation keeps the pairs (a, b)
    with a in C_f(x), b in C_f(y), a <=_P b iff x <=_Q y, and b <=_P a iff
    y <=_Q x (the shared edge rule of `poset.compat_relations`).  `cache`
    memoizes relations across compatibility functions of one embedding run
    (keyed by chain pair and pattern relation pair).
    """
    c = counter if counter is not None else OpCounter()
    constraints, _ = compat_relations(q, p, f, cp, c, cache)
    return CspInstance([cp.chains[f[x]] for x in range(q.n)], constraints, tuple(f))


def relation_is_min_closed(rel: np.ndarray) -> bool:
    """Exhaustive two-tuple check: positions index ascending chains, so the
    coordinatewise chain minimum is the coordinatewise position minimum."""
    cells = [(int(a), int(b)) for a, b in np.argwhere(rel)]
    for a1, b1 in cells:
        for a2, b2 in cells:
            if not rel[min(a1, a2), min(b1, b2)]:
                return False
    return True


def assert_min_closed(inst: CspInstance) -> None:
    for scope, rel in inst.constraints.items():
        if not relation_is_min_closed(rel):
            raise NotMinClosed(f"constraint {scope} is not min-closed")


def solve_min_closed(inst: CspInstance, counter: OpCounter | None = None) -> tuple[int, ...] | None:
    """Arc consistency to fixpoint, then the least survivor of each domain.

    Returns the coordinatewise-minimum solution (as host elements, one per
    variable) or None when some domain empties.  Correct only for min-closed
    relations; `assert_min_closed` checks that exhaustively.
    """
    c = counter if counter is not None else OpCounter()
    nvars = len(inst.domains)
    alive = [np.ones(len(d), dtype=bool) for d in inst.domains]
    if any(len(d) == 0 for d in inst.domains):
        return None
    items = sorted(inst.constraints.items())
    changed = True
    while changed:
        changed = False
        for (x, y), rel in items:
            c.add(int(alive[x].sum()) * int(alive[y].sum()))
            sup_x = (rel & alive[y][None, :]).any(axis=1)
            new_x = alive[x] & sup_x
            if not np.array_equal(new_x, alive[x]):
                if not new_x.any():
                    return None
                alive[x] = new_x
                changed = True
            c.add(int(alive[x].sum()) * int(alive[y].sum()))
            sup_y = (rel & alive[x][:, None]).any(axis=0)
            new_y = alive[y] & sup_y
            if not np.array_equal(new_y, alive[y]):
                if not new_y.any():
                    return None
                alive[y] = new_y
                changed = True
    return tuple(int(inst.domains[v][int(np.argmax(alive[v]))]) for v in range(nvars))


def _csp_step(
    q: Poset, p: Poset, f: Sequence[int], cp: ChainPartition, c: OpCounter, cache: dict
) -> tuple[int, ...] | None:
    return solve_min_closed(build_csp(q, p, f, cp, counter=c, cache=cache), counter=c)


def embed_via_csp(q: Poset, p: Poset, counter: OpCounter | None = None) -> tuple[int, ...] | None:
    """Embedding of q into p, or None, by looping the CSP over all
    compatibility functions in lexicographic order (see
    `poset.embed_over_compat_functions`)."""
    return embed_over_compat_functions(q, p, counter, _csp_step)
