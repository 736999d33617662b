"""Embedding via interval-monotone multicoloured clique.

Given a pattern Q (elements identified with classes 0..k-1), a host P with a
chain partition, and a compatibility function f assigning each pattern
element to a chain, the coloured graph has one class per pattern element
(a copy of the assigned chain, in chain order), and an edge between copies
p of p' and q of q' in distinct classes i, j exactly when

    (p' <=_P q'  iff  i <=_Q j)  and  (q' <=_P p'  iff  j <=_Q i).

Such graphs are interval-monotone: per-class neighbourhoods are intervals of
the class order, and crossing edges force the closing rectangle edges.  That
structure lets a dynamic program find a k-clique (one vertex per class) in
time proportional to k times the edge count, by tabulating per vertex the
coordinatewise-minimum and -maximum cliques over each prefix of classes.

The same graph is the instance of the CSP engine (`csp.py`): classes are its
domains and the adjacency matrices its relations.  Each engine is one step
that adds class i to the solver state of classes 0..i-1 (`clique_step`, the
MinK/MaxK rows of class i, each one loop over the class's vertices in
`_row`; `csp.csp_step`, arc-consistent domains).  The whole-graph solvers
fold that step over a `ColoredGraph`; `embed_over_compat_functions` walks
the compatibility functions as a prefix tree and keeps one state per depth,
so each row or domain is computed once per prefix, and a prefix with no
partial solution cuts its subtree.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NotIntervalMonotone, PosetmcError, PreconditionViolation
from .instrument import OpCounter
from .poset import ChainPartition, Poset, pair_relation
from .poset import _check_embed_inputs, is_embedding, width_and_chain_partition


def _row_intervals(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row neighbour interval [lo, hi] in column order; empty rows get lo > hi.

    Raises NotIntervalMonotone if some row's neighbours are not contiguous.
    """
    m, width = mat.shape
    if m == 0 or width == 0:
        return np.full(m, width, dtype=np.int64), np.full(m, -1, dtype=np.int64)
    nonempty = mat.any(axis=1)
    lo = np.where(nonempty, mat.argmax(axis=1), width).astype(np.int64)
    hi = np.where(nonempty, width - 1 - mat[:, ::-1].argmax(axis=1), -1).astype(np.int64)
    counts = mat.sum(axis=1)
    if not np.array_equal(counts, np.where(nonempty, hi - lo + 1, 0)):
        raise NotIntervalMonotone("a neighbourhood is not an interval of the class order")
    return lo, hi


class ColoredGraph:
    """k >= 1 ordered colour classes with adjacency between distinct classes only.

    `elements[i]` records the host element underlying each vertex of class i;
    vertices are referred to by their position in their class, which is also
    the class order.  Adjacency between classes i < j is a boolean matrix
    indexed (position in i, position in j).
    """

    def __init__(self, elements: Sequence[Sequence[int]], adjacency: Mapping[tuple[int, int], np.ndarray]):
        self.k = len(elements)
        if not self.k:
            raise PreconditionViolation("coloured graph needs at least one class")
        self.elements = [np.asarray(cls, dtype=np.int64) for cls in elements]
        sizes = [len(cls) for cls in self.elements]
        self._adj: dict[tuple[int, int], np.ndarray] = {}
        for i, j in combinations(range(self.k), 2):
            try:
                mat = np.asarray(adjacency[i, j], dtype=bool)
            except KeyError:
                raise PreconditionViolation(f"adjacency {(i, j)} is missing") from None
            if mat.shape != (sizes[i], sizes[j]):
                raise PreconditionViolation(f"adjacency {(i, j)} has shape {mat.shape}")
            self._adj[i, j] = mat
        self._ivals: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def class_size(self, i: int) -> int:
        return len(self.elements[i])

    def adjacency(self, i: int, j: int) -> np.ndarray:
        """Adjacency matrix oriented with class-i vertices as rows."""
        if i < j:
            return self._adj[(i, j)]
        return self._adj[(j, i)].T

    def intervals(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Interval bounds of N_j(v) for every v in class i."""
        key = (i, j)
        if key not in self._ivals:
            self._ivals[key] = _row_intervals(self.adjacency(i, j))
        return self._ivals[key]

    def entries(self, i: int) -> list["_GraphPair"]:
        """Class i's pairs (j, i), j < i, with the `poset.PairEntry` fields a
        step reads when it adds class i (see `_GraphPair`)."""
        return [_GraphPair(self, j, i) for j in range(i)]

    def edge_count(self) -> int:
        return sum(int(m.sum()) for m in self._adj.values())


class _GraphPair:
    """Pair (j, i), j < i, of a coloured graph read like a `poset.PairEntry`:
    `rel` has class-j rows and `col_ivals` are the intervals of class i into
    j.  Fields are computed on access, so a step that reads no intervals
    (the CSP's) computes none."""

    __slots__ = ("g", "j", "i")

    def __init__(self, g: ColoredGraph, j: int, i: int):
        self.g, self.j, self.i = g, j, i

    @property
    def rel(self) -> np.ndarray:
        return self.g.adjacency(self.j, self.i)

    @property
    def col_ivals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.g.intervals(self.i, self.j)


def build_colored_graph(
    q: Poset,
    p: Poset,
    f: Sequence[int],
    cp: ChainPartition,
    counter: OpCounter | None = None,
    cache: dict | None = None,
) -> ColoredGraph:
    """Construct G(P, Q, f) for the given chain partition of the host p.

    Edges follow the shared edge rule of `poset.pair_relation`, called for
    each pattern pair i < j in order, which reads only the chain index that
    `cp` carries; `cache`, when supplied, memoizes the per-class-pair
    relations across compatibility functions of one embedding run.
    """
    c = counter if counter is not None else OpCounter()
    qleq = q.leq.tolist()
    adjacency = {
        (i, j): pair_relation(cp, (f[i], f[j], qleq[i][j], qleq[j][i]), c, cache).rel
        for i, j in combinations(range(q.n), 2)
    }
    return ColoredGraph([cp.arrays[f[i]] for i in range(q.n)], adjacency)


Step = Callable[[Any, int, int, list, OpCounter], Any]


def embed_over_compat_functions(
    q: Poset, p: Poset, counter: OpCounter | None, step: Step, solution: Callable[[Any], tuple[int, ...]]
) -> tuple[int, ...] | None:
    """Embedding of q into p, or None, trying compatibility functions in
    lexicographic order (base-w numerals over chain indices).

    The functions are walked depth first as a prefix tree, f[0] at the root
    and chains in increasing order.  Chain a is given to pattern element i
    only while the edge rule relates chains f[j] and a for every j < i; an
    empty relation leaves no clique and no CSP solution, so the whole
    subtree is cut.  At each leaf reached this way (one branch) the engine's
    `step(state, i, chain size, entries, counter)`, given the
    `poset.PairEntry` of each pair (j, i), j < i, adds class i to the
    solver state of classes 0..i-1.  It runs one depth at a time
    from the first depth whose prefix changed since the last leaf; states
    stay on a stack, so each is computed once per prefix.  A step returns
    None when its prefix has no partial solution: the walk then cuts back
    to that depth.  `solution(state)` of a full state gives one position
    per class; it is mapped to host elements and re-verified before it is
    returned.
    """
    _check_embed_inputs(q, p)
    c = counter if counter is not None else OpCounter()
    w, cp = width_and_chain_partition(p)
    cache: dict = {}
    qleq = q.leq.tolist()
    k = q.n
    f = [0] * k
    entries: list = [None] * k  # entries[i]: PairEntry of each pair (j, i), j < i, under f
    states: list = [None] * k  # states[d]: solver state of classes 0..d
    solved = 0  # states[:solved] belong to the current f[:solved]
    i = 0  # f[:i] is a consistent prefix and f[i] the chain tried at depth i
    while True:
        row = []
        for j in range(i):
            entry = pair_relation(cp, (f[j], f[i], qleq[j][i], qleq[i][j]), c, cache)
            if not entry.nonempty:
                break
            row.append(entry)
        if len(row) == i:
            entries[i] = row
            if i + 1 < k:
                i += 1
                f[i] = 0  # a new prefix tries every chain again below it
                continue
            c.branches += 1
            while solved < k:
                prev = states[solved - 1] if solved else None
                state = step(prev, solved, len(cp.chains[f[solved]]), entries[solved], c)
                if state is None:
                    break
                states[solved] = state
                solved += 1
            if solved == k:
                e = tuple(cp.chains[f[x]][pos] for x, pos in enumerate(solution(states[-1])))
                if not is_embedding(q, p, e):
                    raise PosetmcError("internal error: solver produced a non-embedding")
                return e
            i = solved  # f[:solved + 1] has no partial solution: cut its subtree
        f[i] += 1
        while f[i] == w:  # every chain tried at depth i: back up
            if i == 0:
                return None
            i -= 1
            f[i] += 1
        solved = min(solved, i)


def fold_classes(g: ColoredGraph, step: Step, counter: OpCounter | None = None) -> tuple[Any, int]:
    """Fold `step` over the classes of g in order: the last state it returned
    (None before class 0) and the number of classes that state covers, which
    is below g.k when some prefix has no partial solution."""
    c = counter if counter is not None else OpCounter()
    state = None
    for i in range(g.k):
        nxt = step(state, i, g.class_size(i), g.entries(i), c)
        if nxt is None:
            return state, i
        state = nxt
    return state, g.k


def is_interval_monotone(g: ColoredGraph) -> bool:
    """Exhaustively decide the two interval-monotonicity conditions.

    Condition (a) -- neighbourhoods are intervals -- is checked as row and
    column contiguity for every class pair.  Given (a), condition (b) -- a
    crossing pair of edges implies the rectangle's other two edges -- holds
    exactly when the interval endpoints are monotone along each class order,
    which is what is checked here (empty neighbourhoods constrain nothing).
    Diagnostic use; the solver assumes these conditions.
    """
    for i in range(g.k):
        for j in range(i + 1, g.k):
            mat = g.adjacency(i, j)
            for m in (mat, mat.T):
                try:
                    lo, hi = _row_intervals(m)
                except NotIntervalMonotone:
                    return False
                nonempty = lo <= hi
                if np.any(np.diff(lo[nonempty]) < 0) or np.any(np.diff(hi[nonempty]) < 0):
                    return False
    return True


def is_clique(g: ColoredGraph, vertices: Mapping[int, int]) -> bool:
    """True iff the given class->position map is pairwise adjacent."""
    classes = sorted(vertices)
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            i, j = classes[a], classes[b]
            if not g.adjacency(i, j)[vertices[i], vertices[j]]:
                return False
    return True


def _require_clique(g: ColoredGraph, vertices: Mapping[int, int], classes: Iterable[int]) -> None:
    if set(vertices) != set(classes):
        raise PreconditionViolation("vertex set does not cover the stated classes")
    if not is_clique(g, vertices):
        raise PreconditionViolation("input vertex set is not a clique")


def _clique_extreme(
    cliques: Sequence[Mapping[int, int]],
    classes: Iterable[int],
    g: ColoredGraph,
    pick: Callable[..., int],
) -> dict[int, int]:
    classes = sorted(classes)
    if not cliques:
        raise PreconditionViolation("need at least one clique")
    for kq in cliques:
        _require_clique(g, kq, classes)
    return {i: pick(kq[i] for kq in cliques) for i in classes}


def clique_min(cliques: Sequence[Mapping[int, int]], classes: Iterable[int], g: ColoredGraph) -> dict[int, int]:
    """Coordinatewise class-order minimum of cliques over the same classes.

    For interval-monotone graphs the result is again a clique.
    """
    return _clique_extreme(cliques, classes, g, min)


def clique_max(cliques: Sequence[Mapping[int, int]], classes: Iterable[int], g: ColoredGraph) -> dict[int, int]:
    """Coordinatewise maximum; dual of clique_min."""
    return _clique_extreme(cliques, classes, g, max)


class CliqueTable:
    """MinK/MaxK tables: per prefix size i and vertex v of class i-1, the
    coordinatewise extreme clique of size i through v within classes 0..i-1,
    or None when no such clique exists."""

    def __init__(self, min_tables: list, max_tables: list):
        self._min = min_tables
        self._max = max_tables
        self.k = len(min_tables) - 1

    def min_entry(self, i: int, v: int) -> tuple[int, ...] | None:
        return self._min[i][v]

    def max_entry(self, i: int, v: int) -> tuple[int, ...] | None:
        return self._max[i][v]


def _row(ivals: tuple, i: int, size: int, opposite: tuple, want_min: bool, c: OpCounter) -> list:
    """The MinK (`want_min`) or MaxK row of class i: one entry per vertex v.

    `ivals[i][l]` holds the neighbour intervals (lo, hi) of class i into
    class l < i, and `opposite[j]` is the MaxK (resp. MinK) row of class j.
    Each entry grows X = {v} downward through classes i-1 .. 0.  At class j
    the candidate set N_j(X) is the running interval intersection; candidates
    are scanned from its least (resp. greatest) end, and a candidate x is
    accepted when its opposite-kind entry lies inside the running up-set
    (resp. down-set) thresholds of X.  A class with no accepted candidate
    (an empty interval has none) leaves v no clique: None.  `c` gets, per
    vertex, i, then per class j 1 + j per candidate scanned and j per
    interval update, added once per row.
    """
    own = ivals[i]
    # per vertex, the intervals (lo, hi) into classes 0..i-1 start the running ones
    starts = zip(zip(*[lo for lo, _ in own]), zip(*[hi for _, hi in own])) if i else [((), ())] * size
    row = []
    ops = 0
    for v, (los, his) in enumerate(starts):
        los, his = list(los), list(his)
        result = [v] * (i + 1)
        ops += i
        for j in range(i - 1, -1, -1):
            low, high = los[j], his[j]
            table = opposite[j]
            for x in range(low, high + 1) if want_min else range(high, low - 1, -1):
                entry = table[x]
                if entry is None:
                    continue
                if want_min:
                    for l in range(j):
                        if entry[l] < los[l]:
                            break
                    else:
                        break
                else:
                    for l in range(j):
                        if entry[l] > his[l]:
                            break
                    else:
                        break
            else:
                ops += (1 + j) * max(0, high - low + 1)
                row.append(None)
                break
            ops += (1 + j) * (x - low + 1 if want_min else high - x + 1) + j
            result[j] = x
            for l, (lo_row, hi_row) in enumerate(ivals[j]):
                if lo_row[x] > los[l]:
                    los[l] = lo_row[x]
                if hi_row[x] < his[l]:
                    his[l] = hi_row[x]
        else:
            row.append(tuple(result))
    c.add(ops)
    return row


def clique_step(state: tuple | None, i: int, size: int, entries: list, c: OpCounter) -> tuple | None:
    """Add class i to the MinK/MaxK rows of classes 0..i-1.

    The state is (ivals, mins, maxs), one item per class: the intervals of
    the class into each earlier class, and its MinK and MaxK rows (see
    `_row`).  `entries[j].col_ivals` are the intervals of class i into class
    j; class 0 has none, so its rows are the trivial cliques {v}.  Returns
    None when the MinK row of class i has no entry: then classes 0..i have
    no clique.
    """
    ivals, mins, maxs = state if state is not None else ((), (), ())
    ivals = (*ivals, tuple((e.col_ivals[0].tolist(), e.col_ivals[1].tolist()) for e in entries))
    min_row = _row(ivals, i, size, maxs, True, c)
    if not any(min_row):  # entries are nonempty tuples or None
        return None
    return ivals, (*mins, min_row), (*maxs, _row(ivals, i, size, mins, False, c))


def _least_clique(state: tuple) -> tuple[int, ...]:
    """The MinK entry of the class-order-least last-class vertex that has one."""
    return next(entry for entry in state[1][-1] if entry is not None)


def compute_clique_tables(g: ColoredGraph, counter: OpCounter | None = None) -> CliqueTable:
    """Fill MinK and MaxK for every prefix size 1..k by folding `clique_step`.

    Size 1 is the trivial base row {v}; size i is computed from the opposite
    tables of sizes below i, exactly one entry per vertex.  Once a prefix has
    no clique, every larger size has none, and its rows are all None.
    """
    state, done = fold_classes(g, clique_step, counter)
    _, mins, maxs = state if state is not None else ((), (), ())
    empty = [[None] * g.class_size(i) for i in range(done, g.k)]
    return CliqueTable([None, *mins, *empty], [None, *maxs, *empty])


def solve_multicolored_clique(
    g: ColoredGraph, counter: OpCounter | None = None
) -> tuple[int, ...] | None:
    """A k-clique (one position per class) or None, read off the MinK table.

    The witness is MinK[k][v] for the class-order-least v whose entry is
    nonempty, so results are deterministic.
    """
    state, done = fold_classes(g, clique_step, counter)
    return _least_clique(state) if done == g.k else None


def embed_via_clique(q: Poset, p: Poset, counter: OpCounter | None = None) -> tuple[int, ...] | None:
    """Embedding of q into p, or None, via the coloured-clique solver.

    Compatibility functions are tried in lexicographic order (see
    `embed_over_compat_functions`); the witness comes from the first
    successful one and is re-verified against the embedding definition.
    """
    return embed_over_compat_functions(q, p, counter, clique_step, _least_clique)
