import random
from itertools import combinations

import numpy as np
import pytest

import posetmc as pm
from conftest import chain


def _brute_independent_set(g: pm.SimpleGraph, k: int) -> bool:
    for combo in combinations(range(g.n), k):
        if all((u, v) not in g.edges for u, v in combinations(combo, 2)):
            return True
    return False


def _random_graph(rng, n, density=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return pm.SimpleGraph.from_edges(n, edges)


def test_independent_poset_basics():
    i1 = pm.independent_poset(1)
    assert i1 == chain(3)
    for k in (1, 2, 3, 4):
        w, _ = pm.width_and_chain_partition(pm.independent_poset(k))
        assert w == k
    i2 = pm.independent_poset(2)
    assert pm.brute_force_embed(i2, i2) == (0, 1, 2, 3, 4, 5)


def test_poset_of_graph_single_edge():
    g = pm.SimpleGraph.from_edges(2, [(0, 1)])
    p = pm.poset_of_graph(g)
    assert p.n == 6
    p.validate()  # closure adds nothing: the stated relation is transitive
    assert int(p.leq.sum()) == 6 + 3 + 3 + 2
    closed = pm.close_and_validate(6, [(a, b) for a in range(6) for b in range(6) if a != b and p.leq[a, b]])
    assert closed == p


def test_poset_of_graph_edgeless_is_independent():
    g = pm.SimpleGraph.from_edges(4, [])
    assert pm.poset_of_graph(g) == pm.independent_poset(4)


def test_poset_of_graph_extremes(rng):
    for _ in range(10):
        g = _random_graph(rng, rng.randint(1, 6))
        p = pm.poset_of_graph(g)
        p.validate()
        for v in range(g.n):
            a, c = 3 * v, 3 * v + 2
            assert not p.leq[:, a].sum() > 1  # a_v minimal
            assert not p.leq[c, :].sum() > 1  # c_v maximal


def test_independent_set_iff_embedding(rng):
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 8))
        p = pm.poset_of_graph(g)
        for k in (1, 2, 3):
            if k > g.n:
                continue
            expected = _brute_independent_set(g, k)
            got = pm.brute_force_embed(
                pm.independent_poset(k), p, pattern_cap=9, host_cap=24
            )
            assert (got is not None) == expected


def test_stack_two_singletons_is_chain():
    assert pm.stack_posets([chain(1), chain(1)]) == chain(2)


def test_stack_width_is_component_max(rng):
    for _ in range(15):
        parts = [
            pm.random_poset(rng.randint(1, 5), rng.uniform(0, 1), rng.randrange(2**30))
            for _ in range(rng.randint(1, 4))
        ]
        stacked = pm.stack_posets(parts)
        w, _ = pm.width_and_chain_partition(stacked)
        assert w == max(pm.brute_force_width(p) for p in parts)
        assert w == pm.brute_force_width(stacked, cap=20)


def test_stack_preserves_component_relations(rng):
    parts = [pm.random_poset(4, 0.5, s) for s in (1, 2, 3)]
    stacked = pm.stack_posets(parts)
    offset = 0
    for p in parts:
        assert np.array_equal(stacked.leq[offset : offset + p.n, offset : offset + p.n], p.leq)
        offset += p.n


def test_independent_embeds_into_stack_iff_some_component(rng):
    i2 = pm.independent_poset(2)
    for _ in range(12):
        parts = [
            pm.random_poset(rng.randint(1, 6), rng.uniform(0, 1), rng.randrange(2**30))
            for _ in range(3)
        ]
        stacked = pm.stack_posets(parts)
        direct = pm.brute_force_embed(i2, stacked, host_cap=20) is not None
        componentwise = any(
            pm.brute_force_embed(i2, p) is not None for p in parts
        )
        assert direct == componentwise


def test_or_compose_single_instance_equivalent():
    p = pm.random_poset(5, 0.5, 21)
    composed, k = pm.or_compose([(p, 2)])
    assert k == 2
    direct = pm.brute_force_embed(pm.independent_poset(2), p) is not None
    via = pm.brute_force_embed(pm.independent_poset(2), composed, host_cap=20) is not None
    assert direct == via


def test_or_compose_yes_and_no_examples():
    chain5 = chain(5)
    chain3 = chain(3)
    i2 = pm.independent_poset(2)
    composed, k = pm.or_compose([(chain5, 1), (i2, 2)])
    assert k == 2
    assert pm.brute_force_embed(pm.independent_poset(k), composed, host_cap=20) is not None
    composed, k = pm.or_compose([(chain3, 2), (chain3, 2)])
    assert k == 2
    assert pm.brute_force_embed(pm.independent_poset(k), composed, host_cap=20) is None


def test_or_compose_parameter_one_solved_directly():
    # stacked singletons must not fabricate a 3-chain
    single = pm.close_and_validate(1, [])
    composed, k = pm.or_compose([(single, 1), (single, 1), (single, 1)])
    assert k == 1
    assert pm.brute_force_embed(pm.independent_poset(1), composed) is None
    composed, k = pm.or_compose([(single, 1), (chain(3), 1)])
    assert pm.brute_force_embed(pm.independent_poset(1), composed) is not None


def test_random_poset_extremes_and_determinism():
    assert pm.random_poset(5, 0.0, 1) == pm.close_and_validate(5, [])
    assert pm.random_poset(5, 1.0, 1) == chain(5)
    a = pm.random_poset(9, 0.4, 123)
    b = pm.random_poset(9, 0.4, 123)
    assert a == b
    a.validate()


def test_banded_poset_width_and_validity():
    for n, w in ((9, 3), (10, 3), (8, 2), (12, 4)):
        p = pm.banded_poset(n, w, band=1)
        p.validate()
        got, _ = pm.width_and_chain_partition(p)
        assert got == w
    offset = pm.banded_poset(12, 3, band=2, offsets=[0, 1, 2])
    offset.validate()


def test_graph_text_roundtrip(rng):
    g = _random_graph(rng, 6)
    text = pm.format_graph_text(g, name="t")
    assert pm.parse_graph_text(text) == g
    with pytest.raises(pm.FormatError):
        pm.parse_graph_text("graph t\nedge 0 1\n")
    with pytest.raises(pm.FormatError):
        pm.parse_graph_text("graph t\nvertices 2\nedge 0 5\n")
    with pytest.raises(pm.FormatError):
        pm.parse_graph_text("graph t\nvertices 2\nedge 1 1\n")


def test_graph_text_vertices_over_memory_is_error():
    # 3e10 poset elements, about 1e22 bytes; rejected before anything is allocated
    with pytest.raises(pm.FormatError, match="10000000000 vertices"):
        pm.parse_graph_text("graph t\nvertices 10000000000\n")


def test_simple_graph_bad_edges_are_typed_errors():
    with pytest.raises(pm.PreconditionViolation):
        pm.SimpleGraph(2, frozenset({(1, 1)}))
    with pytest.raises(pm.PreconditionViolation):
        pm.SimpleGraph(2, frozenset({(1, 0)}))
