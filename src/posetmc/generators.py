"""Instance families for tests and benchmarks.

Includes the hardness constructions (chain triples per graph vertex, padding
and stacking for OR-composition), seeded random posets, and the banded
layered-chain family the benchmark harness uses for width-controlled hosts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IndexOutOfRange, PreconditionViolation
from .poset import Poset, _check_dense_fits, _format_lines, _parse_lines, _read_text, _unpack, disjoint_union


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected loopless graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise PreconditionViolation(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexOutOfRange(f"edge ({u}, {v}) outside [0, {self.n})")
            if u > v:
                raise PreconditionViolation("edges must be normalized with u < v")

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        return SimpleGraph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))


def independent_poset(k: int) -> Poset:
    """I_k: k mutually incomparable chains of three elements (3i, 3i+1, 3i+2),
    the chain-triple poset of the edgeless graph on k vertices."""
    if k < 1:
        raise PreconditionViolation("k must be at least 1")
    return poset_of_graph(SimpleGraph(k, frozenset()))


def poset_of_graph(g: SimpleGraph) -> Poset:
    """Three-element chain a_v < b_v < c_v per vertex, plus a_v < c_u per edge.

    The stated relation is already transitively closed: every a_v is minimal
    and every c_v maximal, so the cross pairs compose with nothing.
    """
    n = 3 * g.n
    _check_dense_fits(n, f"{g.n} vertices")
    leq = np.eye(n, dtype=bool)
    for v in range(g.n):
        a = 3 * v
        leq[a, a + 1] = leq[a, a + 2] = leq[a + 1, a + 2] = True
    for u, v in g.edges:
        leq[3 * u, 3 * v + 2] = True
        leq[3 * v, 3 * u + 2] = True
    return Poset(leq, validate=False)


def stack_posets(parts: Sequence[Poset]) -> Poset:
    """Disjoint union plus every pair (p, p') with p in an earlier part.

    The result's width is the maximum width over the parts: any antichain
    meets only one part, since cross-part pairs are comparable.
    """
    if len(parts) < 1:
        raise PreconditionViolation("need at least one poset")
    n = sum(p.n for p in parts)
    _check_dense_fits(n, f"{n} elements")
    leq = np.zeros((n, n), dtype=bool)
    offset = 0
    offsets = []
    for p in parts:
        offsets.append(offset)
        leq[offset : offset + p.n, offset : offset + p.n] = p.leq
        offset += p.n
    for i in range(len(parts)):
        lo_i = offsets[i]
        hi_i = lo_i + parts[i].n
        leq[lo_i:hi_i, hi_i:] = True
    return Poset(leq, validate=False)


def or_compose(instances: Sequence[tuple[Poset, int]]) -> tuple[Poset, int]:
    """OR-composition for the independent-embedding problem.

    Each (P_i, k_i) is padded with I_{kmax - k_i} to equalize the parameter,
    then the padded posets are stacked.  I_{kmax} embeds into the result iff
    it embeds into some padded part, i.e. iff some input was a Yes-instance.

    The stacking argument needs kmax > 1 (stacked singleton chains would
    fabricate a 3-chain), so kmax == 1 is solved directly: each instance asks
    for a 3-element chain, and a constant-size instance with the disjunction
    verdict is returned.
    """
    if len(instances) < 1:
        raise PreconditionViolation("need at least one instance")
    if any(k < 1 for _, k in instances):
        raise PreconditionViolation("all parameters must be at least 1")
    k_max = max(k for _, k in instances)
    if k_max == 1:
        # a 3-chain has a middle: an element with something below and above it
        if any(((p.leq.sum(axis=0) > 1) & (p.leq.sum(axis=1) > 1)).any() for p, _ in instances):
            return independent_poset(1), 1
        one = np.ones((1, 1), dtype=bool)
        return Poset(one, validate=False), 1
    padded = []
    for p, k in instances:
        padded.append(p if k == k_max else disjoint_union(p, independent_poset(k_max - k)))
    return stack_posets(padded), k_max


def random_poset(n: int, density: float, seed: int) -> Poset:
    """Closure of index-respecting random arcs; always a valid poset.

    Each pair (i, j) with i < j becomes an arc with the given probability;
    arcs point from lower to higher index, so the sampled digraph is acyclic
    and the closure never violates antisymmetry.  Arcs into i are drawn before
    row i, so an arc (i, j) ORs i's finished down-set bitset into j's.
    """
    if n < 0:
        raise PreconditionViolation(f"negative size {n}")
    if not 0.0 <= density <= 1.0:
        raise PreconditionViolation(f"density {density} outside [0, 1]")
    _check_dense_fits(n, f"{n} elements")
    rng = random.Random(seed)
    down = [1 << j for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                down[j] |= down[i]
    return Poset(_unpack(down, n).T, validate=False)


def banded_poset(n: int, w: int, band: int = 1, offsets: Sequence[int] | None = None) -> Poset:
    """w chains with cross-chain order a < b iff height(b) - height(a) >= band.

    Heights run 1.. along each chain, shifted per chain by `offsets`.  The
    band (>= 1) guarantees transitivity and antisymmetry by construction, and
    with small offsets every chain contains a common height, so the width is
    exactly w.  Benchmark hosts come from this family.
    """
    if w < 1 or n < w:
        raise PreconditionViolation(f"need 1 <= w <= n, got w={w}, n={n}")
    if band < 1:
        raise PreconditionViolation("band must be at least 1")
    _check_dense_fits(n, f"{n} elements")
    if offsets is None:
        offsets = [0] * w
    if len(offsets) != w:
        raise PreconditionViolation("need one offset per chain")
    lengths = [n // w + (r < n % w) for r in range(w)]
    height = np.concatenate([np.arange(1, k + 1, dtype=np.int64) + off for k, off in zip(lengths, offsets)])
    leq = height[:, None] + band <= height[None, :]
    for end, k in zip(np.cumsum(lengths), lengths):  # heights ascend along a chain
        leq[end - k : end, end - k : end] = np.tri(k, dtype=bool).T
    return Poset(leq, validate=False)


# -- graph text format: the line grammar of `poset.py`, 3 elements per vertex --


def parse_graph_text(text: str) -> SimpleGraph:
    """The graph of the text's edge lines; edges are normalized to u < v."""
    return _parse_lines(text, "graph", "vertices", ("edge",), "vertex", 3, SimpleGraph.from_edges)


def format_graph_text(g: SimpleGraph, name: str = "g") -> str:
    return _format_lines("graph", name, "vertices", g.n, "edge", sorted(g.edges))


def load_graph(path: str) -> SimpleGraph:
    return parse_graph_text(_read_text(path))
