"""Seeded decision lists for the three workloads, and their reference answers.

Each workload turns a seed into a fixed list of decisions.  Building that
list is the set-up the benchmark times: generation through the library's
generators, a write/read round trip of every host through the poset text
format, and parsing of every sentence.  Reference answers come from checks
in this file that share nothing with the embedding engines, or from
`posetmc.oracle`, and are never timed.

Generators and parsers are looked up on their modules at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass

import numpy as np

from posetmc import generators, logic, oracle, poset


@dataclass
class Decision:
    """One call into the library: an embedding test or a model check."""

    index: int
    stratum: str
    host: poset.Poset
    pattern: poset.Poset | None = None
    sentence: logic.Sentence | None = None
    formula: tuple | None = None  # the harness's own syntax tree of `sentence`
    expect: bool | None = None  # set where the answer holds by construction


def _round_trip(host: poset.Poset) -> poset.Poset:
    """What every CLI user pays: write the host as poset text and read it back."""
    parsed = poset.parse_poset_text(poset.format_poset_text(host))
    if not np.array_equal(parsed.leq, host.leq):
        raise RuntimeError("poset text round trip changed the host")
    return parsed


def is_embedding_ref(q: np.ndarray, p: np.ndarray, e) -> bool:
    """Injective, order-preserving and order-reflecting, straight from the definition."""
    e = [int(x) for x in e]
    if len(e) != len(q) or len(set(e)) != len(e) or not all(0 <= x < len(p) for x in e):
        return False
    return all(bool(q[i][j]) == bool(p[e[i]][e[j]]) for i in range(len(e)) for j in range(len(e)))


def inputs_digest(decisions: list[Decision]) -> str:
    h = hashlib.sha256()
    for d in decisions:
        h.update(d.host.leq.tobytes())
        if d.pattern is not None:
            h.update(d.pattern.leq.tobytes())
        if d.sentence is not None:
            h.update(logic.format_sentence(d.sentence).encode())
    return h.hexdigest()[:16]


# -- embed-banded ----------------------------------------------------------------
#
# Banded hosts of width 3 with 50, 80, .., 200 elements (the chains' height
# offsets 0, 1, 2 in an order drawn from the seed), and patterns of four
# elements.  One decision in three plants its
# pattern (the host restricted to four seeded elements, so YES).  The others
# are NO: they take, in turn, each of the nine shapes of four-element posets
# that embed into no banded host, in fixed labellings.  Every engine then
# tries all 3^4 = 81 compatibility functions on long chains.  Host size,
# shape and labelling set the cost of a NO decision: a factor of 20 between
# shapes on the CSP engine, and of 7 in clique operations between labellings
# of one shape.  Drawing them at random made throughput follow the draw, so
# only the order of the offsets and the planted elements come from the seed.

BANDED_SIZES = (50, 80, 110, 140, 170, 200)


def _weak_order_levels(leq: np.ndarray) -> list[int] | None:
    """Level sizes, bottom up, if incomparability is an equivalence; else None.

    In a weak order x < y exactly when fewer elements lie strictly below x
    than below y, so that count names the level.
    """
    n = len(leq)
    below = leq.sum(axis=0) - 1
    strict = leq & ~np.eye(n, dtype=bool)
    if not np.array_equal(strict, below[:, None] < below[None, :]):
        return None
    _, sizes = np.unique(below, return_counts=True)
    return [int(s) for s in sizes]


def weak_order_embeds(pattern: np.ndarray, host_levels: list[int]) -> bool:
    """A pattern embeds into a weak order iff it is one itself and its levels
    fit, in order, into distinct host levels at least as large."""
    levels = _weak_order_levels(pattern)
    if levels is None:
        return False
    j = 0
    for size in levels:
        while j < len(host_levels) and host_levels[j] < size:
            j += 1
        if j == len(host_levels):
            return False
        j += 1
    return True


def _shape(leq: np.ndarray) -> bytes:
    """Canonical form of a four-element poset: least relation over relabellings."""
    return min(leq[np.ix_(perm, perm)].tobytes() for perm in itertools.permutations(range(4)))


@functools.cache
def _no_patterns() -> list[list[np.ndarray]]:
    """Every labelled four-element poset that embeds into no weak order of
    width 3 (not a weak order, or four incomparable elements), grouped by
    shape; groups and their members in a fixed order."""
    by_shape: dict[bytes, list[np.ndarray]] = {}
    pairs = list(itertools.combinations(range(4), 2))
    for signs in itertools.product((0, 1, 2), repeat=len(pairs)):
        leq = np.eye(4, dtype=bool)
        for (i, j), sign in zip(pairs, signs):
            if sign:
                leq[(i, j) if sign == 1 else (j, i)] = True
        if ((leq.astype(int) @ leq.astype(int) > 0) & ~leq).any():
            continue
        levels = _weak_order_levels(leq)
        if levels is None or max(levels) > 3:
            by_shape.setdefault(_shape(leq), []).append(leq)
    return [by_shape[shape] for shape in sorted(by_shape)]


def banded_decisions(seed: int, count: int) -> list[Decision]:
    rng = random.Random(f"embed-banded:{seed}")
    hosts = []
    for p in BANDED_SIZES:
        offsets = rng.sample((0, 1, 2), 3)
        host = _round_trip(generators.banded_poset(p, 3, band=1, offsets=offsets))
        levels = _weak_order_levels(host.leq)
        if levels is None:
            raise RuntimeError("a banded host with band 1 must be a weak order")
        hosts.append((host, levels))
    no_patterns = _no_patterns()
    out = []
    made = [0, 0]  # NO, YES decisions so far
    for i in range(count):
        expect = i % 3 == 1
        host, levels = hosts[made[expect] % len(hosts)]
        if expect:
            elements = rng.sample(range(host.n), 4)
            pattern = poset.Poset(host.leq[np.ix_(elements, elements)], validate=False)
        else:
            group = no_patterns[made[0] % len(no_patterns)]
            pattern = poset.Poset(group[made[0] // len(no_patterns) * 5 % len(group)], validate=False)
        if weak_order_embeds(pattern.leq, levels) != expect:
            raise RuntimeError("embed-banded pattern has the wrong answer")
        made[expect] += 1
        out.append(Decision(i, f"p{host.n}/{'planted' if expect else 'no'}", host, pattern=pattern, expect=expect))
    return out


# -- embed-hardness ----------------------------------------------------------------
#
# I_2 (two incomparable 3-chains) against chain-triple posets of graphs on
# three vertices, alone or OR-composed in stacks.  I_2 embeds iff some graph
# has two non-adjacent vertices, so NO instances are stacks of triangles
# whatever the seed: each engine tries all 3^6 = 729 compatibility functions
# on chains of three or six elements.  Of every six decisions two are single
# triangles, two are stacks of two triangles, and two are YES: a triangle
# with one edge removed.  Which edge sets how many compatibility functions
# come before the first that fits (13, 26 or 377), so every three YES
# decisions remove each edge once, in an order drawn from the seed.  With 18
# decisions the median falls inside the single triangles for every seed.

HARDNESS_SCHEDULE = (1, 0, 2, 1, 0, 2)  # triangles stacked; 0 = a YES instance
TRIANGLE = ((0, 1), (0, 2), (1, 2))


def _has_independent_pair(g: generators.SimpleGraph) -> bool:
    return any((u, v) not in g.edges for u, v in itertools.combinations(range(g.n), 2))


def hardness_decisions(seed: int, count: int) -> list[Decision]:
    rng = random.Random(f"embed-hardness:{seed}")
    pattern = generators.independent_poset(2)
    triangle = generators.SimpleGraph.from_edges(3, TRIANGLE)
    removed: list[tuple[int, int]] = []
    out = []
    for i in range(count):
        triangles = HARDNESS_SCHEDULE[i % len(HARDNESS_SCHEDULE)]
        if triangles:
            graphs = (triangle,) * triangles
        else:
            if not removed:
                removed = rng.sample(TRIANGLE, len(TRIANGLE))
            gone = removed.pop()
            graphs = (generators.SimpleGraph.from_edges(3, [e for e in TRIANGLE if e != gone]),)
        expect = any(_has_independent_pair(g) for g in graphs)
        if len(graphs) == 1:
            host = generators.poset_of_graph(graphs[0])
        else:
            host, _ = generators.or_compose([(generators.poset_of_graph(g), 2) for g in graphs])
        stratum = f"{'yes' if expect else 'no'}/{len(graphs)}"
        out.append(Decision(i, stratum, _round_trip(host), pattern=pattern, expect=expect))
    return out


# -- check-q5 -----------------------------------------------------------------------
#
# Random existential sentences in five variables, each checked on two small
# random hosts in a row.  Template enumeration for five variables costs
# the same for every sentence and dominates each decision.

CHECK_VARS = ("x0", "x1", "x2", "x3", "x4")
CHECK_HOST_SIZES = (8, 13)  # 13^5 assignments keep the brute-force oracle under a second
CHECK_HOSTS_PER_SENTENCE = 2


def _random_formula(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.25:
        a, b = rng.sample(CHECK_VARS, 2)
        return ("lit", rng.choice(("<=", "<=", "=")), a, b, rng.random() < 0.5)
    op = rng.choice(("&", "|"))
    return (op, tuple(_random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def _formula_text(f: tuple) -> str:
    if f[0] == "lit":
        _, op, a, b, negated = f
        return f"!({a} {op} {b})" if negated else f"{a} {op} {b}"
    return "(" + f" {f[0]} ".join(_formula_text(c) for c in f[1]) + ")"


def formula_holds(f: tuple, leq: np.ndarray, value: dict[str, int]) -> bool:
    if f[0] == "lit":
        _, op, a, b, negated = f
        atom = bool(leq[value[a], value[b]]) if op == "<=" else value[a] == value[b]
        return atom != negated
    if f[0] == "&":
        return all(formula_holds(c, leq, value) for c in f[1])
    return any(formula_holds(c, leq, value) for c in f[1])


def check_reference(d: Decision) -> bool:
    return oracle.brute_force_model_check(d.sentence, d.host, cap=CHECK_HOST_SIZES[1] ** len(CHECK_VARS))


def check_decisions(seed: int, count: int) -> list[Decision]:
    rng = random.Random(f"check-q5:{seed}")
    out: list[Decision] = []
    s = 0
    while len(out) < count:
        formula = _random_formula(rng, 2)
        text = "".join(f"E {v}. " for v in CHECK_VARS) + _formula_text(formula)
        sentence = logic.parse_sentence(text)
        for _ in range(min(CHECK_HOSTS_PER_SENTENCE, count - len(out))):
            n = rng.randint(*CHECK_HOST_SIZES)
            host = generators.random_poset(n, rng.uniform(0.15, 0.5), rng.randrange(2**30))
            out.append(Decision(len(out), f"s{s}", _round_trip(host), sentence=sentence, formula=formula))
        s += 1
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, count) -> list[Decision]
    reference: object  # Decision -> bool for decisions without `expect`, else None
    count: int  # decisions measured; three passes take about 30 s on a 2-core Xeon VM
    traced: int  # the traced run measures exactly this prefix, so counts repeat
    warmup: int  # decisions run per engine before any timing


WORKLOADS = {
    "embed-banded": Workload("embed-banded", banded_decisions, None, 54, 18, 3),
    "check-q5": Workload("check-q5", check_decisions, check_reference, 4, 2, 1),
    "embed-hardness": Workload("embed-hardness", hardness_decisions, None, 36, 12, 2),
}


def witness_ok(d: Decision, witness) -> bool:
    """A YES witness must satisfy the definition, checked without the engines."""
    if d.sentence is not None:
        return set(witness) == set(CHECK_VARS) and formula_holds(d.formula, d.host.leq, witness)
    return is_embedding_ref(d.pattern.leq, d.host.leq, witness)
