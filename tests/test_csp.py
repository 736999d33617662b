import random
from itertools import product

import numpy as np
import pytest

import posetmc as pm
from conftest import antichain, chain, make_random_pair


def _relation_pairs(g, x, y):
    rel = g.adjacency(x, y)
    return sorted((int(g.elements[x][a]), int(g.elements[y][b])) for a, b in np.argwhere(rel))


def _relations(g):
    return {(x, y): g.adjacency(x, y) for x in range(g.k) for y in range(x + 1, g.k)}


def test_build_csp_chain_into_chain():
    q = chain(2)
    p = chain(3)
    _, cp = pm.width_and_chain_partition(p)
    g = pm.build_colored_graph(q, p, (0, 0), cp)
    assert _relation_pairs(g, 0, 1) == [(0, 1), (0, 2), (1, 2)]


def test_build_csp_antichain_into_chain_empty():
    q = antichain(2)
    p = chain(4)
    _, cp = pm.width_and_chain_partition(p)
    g = pm.build_colored_graph(q, p, (0, 0), cp)
    assert not g.adjacency(0, 1).any()


def test_built_instances_min_closed_and_injective(rng):
    for _ in range(60):
        q, p = make_random_pair(rng, max_q=3, max_p=8)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        pm.assert_min_closed(g)  # raises on violation
        for (x, y), rel in _relations(g).items():
            if f[x] == f[y]:
                assert not rel.diagonal().any()


def test_solve_empty_relation_is_none():
    q = antichain(2)
    p = chain(4)
    _, cp = pm.width_and_chain_partition(p)
    g = pm.build_colored_graph(q, p, (0, 0), cp)
    assert pm.solve_min_closed(g) is None


def test_solve_no_constraints_returns_minima():
    g = pm.ColoredGraph([[3, 5, 9], [2, 7]], {(0, 1): np.ones((3, 2), dtype=bool)})
    assert pm.solve_min_closed(g) == (0, 0)


def test_not_min_closed_detected():
    rel = np.zeros((2, 2), dtype=bool)
    rel[0, 1] = rel[1, 0] = True  # missing (0, 0)
    g = pm.ColoredGraph([[0, 1], [2, 3]], {(0, 1): rel})
    assert not pm.relation_is_min_closed(rel)
    with pytest.raises(pm.NotMinClosed):
        pm.assert_min_closed(g)


def _solutions(g):
    relations = _relations(g)
    for combo in product(*(range(g.class_size(v)) for v in range(g.k))):
        if all(rel[combo[x], combo[y]] for (x, y), rel in relations.items()):
            yield combo


def _brute_csp_satisfiable(g):
    return next(_solutions(g), None)


def test_solver_agrees_with_exhaustive_search(rng):
    for _ in range(50):
        q, p = make_random_pair(rng, max_q=3, max_p=8)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp, counter=None)
        pm.assert_min_closed(g)
        got = pm.solve_min_closed(g)
        ref = _brute_csp_satisfiable(g)
        assert (got is None) == (ref is None)
        if got is not None:
            # satisfies every constraint and is injective as a map into p
            for (x, y), rel in _relations(g).items():
                assert rel[got[x], got[y]]
            hosts = [int(g.elements[v][got[v]]) for v in range(q.n)]
            assert len(set(hosts)) == len(hosts)


def test_solution_is_canonical_least(rng):
    # rerunning arc consistency on the instance reproduces the same minima
    for _ in range(30):
        q, p = make_random_pair(rng, max_q=3, max_p=8)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        first = pm.solve_min_closed(g)
        assert first == pm.solve_min_closed(g)
        if first is not None:
            assert _brute_csp_satisfiable(g) == first  # lexicographic-first == pointwise min here
            # every solution dominates the returned one coordinatewise
            for combo in _solutions(g):
                for v in range(q.n):
                    assert first[v] <= combo[v]


def test_embed_via_csp_examples():
    single = pm.close_and_validate(1, [])
    host = pm.random_poset(5, 0.4, 11)
    _, cp = pm.width_and_chain_partition(host)
    e = pm.embed_via_csp(single, host)
    assert e == (cp.chains[0][0],)  # minimum of chain 1

    assert pm.embed_via_csp(antichain(2), chain(2)) is None


def test_embed_via_csp_requires_nonempty_host():
    with pytest.raises(pm.PreconditionViolation):
        pm.embed_via_csp(chain(1), pm.close_and_validate(0, []))


def test_embed_via_csp_matches_bruteforce(rng):
    for _ in range(120):
        q, p = make_random_pair(rng)
        got = pm.embed_via_csp(q, p)
        ref = pm.brute_force_embed(q, p)
        assert (got is None) == (ref is None)
        if got is not None:
            assert pm.is_embedding(q, p, got)


def test_embed_deterministic_lex_least_branch(rng):
    for _ in range(20):
        q, p = make_random_pair(rng, max_q=3, max_p=8)
        assert pm.embed_via_csp(q, p) == pm.embed_via_csp(q, p)
