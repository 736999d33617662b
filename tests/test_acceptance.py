"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and corpus bound is pinned here.
"""

import random
import time
from itertools import combinations, product

import numpy as np
import pytest

import posetmc as pm
from posetmc.clique import compute_clique_tables
from conftest import make_random_pair, make_sentence_text


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label} {suffix}"


@pytest.fixture(scope="module")
def embed_corpus():
    """Criterion-1 corpus: 500 seeded (pattern, host) pairs, width(host) <= 4."""
    rng = random.Random(20240917)
    return [make_random_pair(rng, max_q=4, max_p=12, max_width=4) for _ in range(500)]


def test_criterion_1_three_way_solver_agreement(embed_corpus):
    start = time.perf_counter()
    mismatches = 0
    for q, p in embed_corpus:
        ref = pm.brute_force_embed(q, p) is not None
        via_csp = pm.embed_via_csp(q, p) is not None
        via_clique = pm.embed_via_clique(q, p) is not None
        if not (ref == via_csp == via_clique):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "three-way solver agreement",
        mismatches == 0 and elapsed < 60.0,
        f"500 pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_model_checking_equivalence():
    rng = random.Random(998877)
    mismatches = 0
    total = 200
    for _ in range(total):
        s = pm.parse_sentence(make_sentence_text(rng, rng.randint(1, 3), max_atoms=4))
        p = pm.random_poset(rng.randint(1, 8), rng.uniform(0, 1), rng.randrange(2**30))
        expected = pm.brute_force_model_check(s, p)
        for solver in ("clique", "csp", "brute"):
            got, witness = pm.model_check(s, p, solver=solver)
            if got != expected:
                mismatches += 1
            if got and not pm.eval_matrix(s.matrix, p, witness):
                mismatches += 1
    _report(
        2,
        "model-checking equivalence",
        mismatches == 0,
        f"{total} sentences x 3 solvers, {mismatches} mismatches",
    )


def test_criterion_3_min_polymorphism_closure():
    rng = random.Random(555111)
    instances = 0
    failures = 0
    while instances < 100:
        q, p = make_random_pair(rng, max_q=3, max_p=10)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        instances += 1
        for i in range(g.k):
            for j in range(i + 1, g.k):
                if not pm.relation_is_min_closed(g.adjacency(i, j)):
                    failures += 1
    _report(3, "min-polymorphism closure", failures == 0, f"{instances} instances, {failures} failures")


def test_criterion_4_interval_monotonicity(embed_corpus):
    failures = 0
    graphs = 0
    for q, p in embed_corpus:
        w, cp = pm.width_and_chain_partition(p)
        cache = {}
        for f in product(range(w), repeat=q.n):
            g = pm.build_colored_graph(q, p, f, cp, cache=cache)
            graphs += 1
            if not pm.is_interval_monotone(g):
                failures += 1
    # hand-built counterexamples must fail the check
    hole = pm.ColoredGraph(
        [np.arange(1), np.arange(3)],
        {(0, 1): np.array([[True, False, True]])},
    )
    cross = pm.ColoredGraph(
        [np.arange(2), np.arange(2)],
        {(0, 1): np.array([[False, True], [True, False]])},
    )
    counterexamples_fail = not pm.is_interval_monotone(hole) and not pm.is_interval_monotone(cross)
    _report(
        4,
        "interval monotonicity",
        failures == 0 and counterexamples_fail,
        f"{graphs} built graphs, {failures} failures; counterexamples fail: {counterexamples_fail}",
    )


def test_criterion_5_clique_minimum_property():
    rng = random.Random(424242)
    pairs_checked = 0
    failures = 0
    while pairs_checked < 200:
        q, p = make_random_pair(rng, max_q=3, max_p=10)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        sizes = [g.class_size(i) for i in range(g.k)]
        if 0 in sizes:
            continue
        cliques = []
        for combo in product(*(range(s) for s in sizes)):
            cand = dict(enumerate(combo))
            if pm.is_clique(g, cand):
                cliques.append(cand)
            if len(cliques) >= 12:
                break
        if len(cliques) < 2:
            continue
        for _ in range(min(4, len(cliques))):
            a, b = rng.sample(cliques, 2)
            lo = pm.clique_min([a, b], range(g.k), g)
            hi = pm.clique_max([a, b], range(g.k), g)
            pairs_checked += 1
            if not (pm.is_clique(g, lo) and pm.is_clique(g, hi)):
                failures += 1
    _report(5, "clique minimum/maximum", failures == 0, f"{pairs_checked} pairs, {failures} failures")


def _brute_tables(g):
    """Vectorised transversal enumeration of coordinatewise extreme cliques."""
    mins: dict[tuple[int, int], tuple | None] = {}
    maxs: dict[tuple[int, int], tuple | None] = {}
    for i in range(1, g.k + 1):
        sizes = [g.class_size(j) for j in range(i)]
        if 0 in sizes:
            for v in range(sizes[-1] if sizes else 0):
                mins[(i, v)] = maxs[(i, v)] = None
            continue
        combos = np.indices(sizes).reshape(i, -1).T
        ok = np.ones(len(combos), dtype=bool)
        for a in range(i):
            for b in range(a + 1, i):
                ok &= g.adjacency(a, b)[combos[:, a], combos[:, b]]
        for v in range(sizes[-1]):
            rows = combos[ok & (combos[:, i - 1] == v)]
            if len(rows):
                mins[(i, v)] = tuple(int(x) for x in rows.min(axis=0))
                maxs[(i, v)] = tuple(int(x) for x in rows.max(axis=0))
            else:
                mins[(i, v)] = maxs[(i, v)] = None
    return mins, maxs


def test_criterion_6_dp_table_oracle():
    rng = random.Random(31415)
    graphs = 0
    mismatches = 0
    entries = 0
    while graphs < 100:
        q, p = make_random_pair(rng, max_q=4, max_p=12)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        transversals = 1
        for i in range(g.k):
            transversals *= max(g.class_size(i), 1)
        if transversals > 10**4:
            continue
        graphs += 1
        ref_min, ref_max = _brute_tables(g)
        tables = compute_clique_tables(g)
        for i in range(1, g.k + 1):
            for v in range(g.class_size(i - 1)):
                entries += 1
                if tables.min_entry(i, v) != ref_min[(i, v)]:
                    mismatches += 1
                if tables.max_entry(i, v) != ref_max[(i, v)]:
                    mismatches += 1
    _report(
        6,
        "DP table oracle",
        mismatches == 0,
        f"{graphs} graphs, {entries} entries, {mismatches} mismatches",
    )


def test_criterion_7_width_correctness():
    rng = random.Random(161803)
    corpus = [
        pm.close_and_validate(1, []),
        pm.close_and_validate(12, [(i, i + 1) for i in range(11)]),
        pm.close_and_validate(12, []),
        pm.independent_poset(4),
        pm.close_and_validate(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        pm.banded_poset(12, 3),
        pm.stack_posets([pm.independent_poset(2), pm.independent_poset(2)]),
    ]
    corpus += [
        pm.random_poset(rng.randint(1, 12), rng.uniform(0, 1), rng.randrange(2**30))
        for _ in range(60)
    ]
    failures = 0
    for p in corpus:
        w, cp = pm.width_and_chain_partition(p)
        ok = w == pm.brute_force_width(p)
        ok &= len(cp.chains) == w
        ok &= sorted(e for ch in cp.chains for e in ch) == list(range(p.n))
        ok &= all(
            bool(p.leq[a, b]) for ch in cp.chains for a, b in zip(ch, ch[1:])
        )
        ok &= len(cp.antichain) == w
        ok &= all(
            pm.relate(p, a, b) is pm.Relation.Incomparable
            for a, b in combinations(cp.antichain, 2)
        )
        if not ok:
            failures += 1
    _report(7, "width correctness", failures == 0, f"{len(corpus)} posets, {failures} failures")


def _has_independent_set(g: pm.SimpleGraph, k: int) -> bool:
    for combo in combinations(range(g.n), k):
        if all((u, v) not in g.edges for u, v in combinations(combo, 2)):
            return True
    return False


def test_criterion_8_graph_poset_equivalence():
    rng = random.Random(271828)
    mismatches = 0
    graphs = 100
    for _ in range(graphs):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.uniform(0.1, 0.9)]
        g = pm.SimpleGraph.from_edges(n, edges)
        host = pm.poset_of_graph(g)
        for k in (1, 2, 3):
            if k > n:
                continue
            expected = _has_independent_set(g, k)
            got = (
                pm.brute_force_embed(pm.independent_poset(k), host, pattern_cap=9, host_cap=24)
                is not None
            )
            if got != expected:
                mismatches += 1
    _report(8, "independent set <-> embedding", mismatches == 0, f"{graphs} graphs, {mismatches} mismatches")


def test_criterion_9_or_composition():
    rng = random.Random(141421)
    lists = 50
    failures = 0
    for _ in range(lists):
        t = rng.randint(2, 4)
        instances = []
        for _ in range(t):
            p = pm.random_poset(rng.randint(1, 6), rng.uniform(0, 1), rng.randrange(2**30))
            instances.append((p, rng.randint(1, 2)))
        composed, k_max = pm.or_compose(instances)
        pattern = pm.independent_poset(k_max)
        got = pm.brute_force_embed(pattern, composed, pattern_cap=9, host_cap=48) is not None
        expected = any(
            pm.brute_force_embed(pm.independent_poset(k), p, pattern_cap=9, host_cap=16) is not None
            for p, k in instances
        )
        if got != expected:
            failures += 1
        # width claim for the stacking step: stacked width == max padded width
        padded = [
            p if k == k_max else pm.disjoint_union(p, pm.independent_poset(k_max - k))
            for p, k in instances
        ]
        stacked = pm.stack_posets(padded)
        w_stacked, _ = pm.width_and_chain_partition(stacked)
        w_max = max(pm.width_and_chain_partition(p)[0] for p in padded)
        if w_stacked != w_max:
            failures += 1
    _report(9, "OR composition and width claim", failures == 0, f"{lists} lists, {failures} failures")


def test_criterion_10_scaling_shape():
    start = time.perf_counter()
    # pattern: x || y, y || z, x < z -- unembeddable into unit-band hosts,
    # so every compatibility branch is exercised at every size
    leq = np.eye(3, dtype=bool)
    leq[0, 2] = True
    pattern = pm.Poset(leq)

    clique_sizes = [200, 400, 800, 1600, 3200]
    clique_ops = []
    for n in clique_sizes:
        host = pm.banded_poset(n, 3, band=1)
        counter = pm.OpCounter()
        assert pm.embed_via_clique(pattern, host, counter) is None
        clique_ops.append(counter.ops)
    clique_slope = float(np.polyfit(np.log(clique_sizes), np.log(clique_ops), 1)[0])

    csp_sizes = [50, 100, 200, 400]
    csp_ops = []
    for n in csp_sizes:
        host = pm.banded_poset(n, 3, band=1)
        counter = pm.OpCounter()
        assert pm.embed_via_csp(pattern, host, counter) is None
        csp_ops.append(counter.ops)
    csp_slope = float(np.polyfit(np.log(csp_sizes), np.log(csp_ops), 1)[0])

    elapsed = time.perf_counter() - start
    ok = 1.5 <= clique_slope <= 2.8 and csp_slope > clique_slope and elapsed <= 300.0
    _report(
        10,
        "scaling shape",
        ok,
        f"clique slope {clique_slope:.2f} in [1.5, 2.8], csp slope {csp_slope:.2f}, {elapsed:.1f}s",
    )


def test_criterion_11_quotient_enumeration_counts():
    def distinct_sentence(q: int) -> pm.Sentence:
        names = ["x", "y", "z"][:q]
        atoms = [
            f"!({a} = {b})" for i, a in enumerate(names) for b in names[i + 1 :]
        ]
        prefix = "".join(f"E {n}. " for n in names)
        return pm.parse_sentence(prefix + " & ".join(atoms))

    count2 = len(pm.enumerate_templates(distinct_sentence(2)))
    count3 = len(pm.enumerate_templates(distinct_sentence(3)))
    within_bound = True
    for q in (1, 2, 3):
        names = ["x", "y", "z"][:q]
        prefix = "".join(f"E {n}. " for n in names)
        always_true = pm.parse_sentence(prefix + "x <= x")
        if len(pm.enumerate_templates(always_true)) >= 4 ** (q * q):
            within_bound = False
    _report(
        11,
        "quotient enumeration sanity",
        count2 == 3 and count3 == 19 and within_bound,
        f"counts q=2: {count2} (want 3), q=3: {count3} (want 19), bound ok: {within_bound}",
    )
