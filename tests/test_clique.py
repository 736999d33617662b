import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import posetmc as pm
from posetmc.clique import clique_step, compute_clique_tables, fold_classes
from conftest import antichain, chain, make_random_pair


def _edges_as_elements(g, i, j):
    mat = g.adjacency(i, j)
    return sorted(
        (int(g.elements[i][a]), int(g.elements[j][b])) for a, b in np.argwhere(mat)
    )


def _hand_graph(class_sizes, edges):
    elements = [np.arange(s) for s in class_sizes]
    adjacency = {}
    for i in range(len(class_sizes)):
        for j in range(i + 1, len(class_sizes)):
            adjacency[(i, j)] = np.zeros((class_sizes[i], class_sizes[j]), dtype=bool)
    for (i, a), (j, b) in edges:
        if i < j:
            adjacency[(i, j)][a, b] = True
        else:
            adjacency[(j, i)][b, a] = True
    return pm.ColoredGraph(elements, adjacency)


def _literal_interval_monotone(g):
    """Direct quantification over triples and quadruples; tiny graphs only."""
    for i in range(g.k):
        for j in range(g.k):
            if i == j:
                continue
            mat = g.adjacency(i, j)
            mi, mj = mat.shape
            for p in range(mi):
                for q1 in range(mj):
                    for q2 in range(q1, mj):
                        for q3 in range(q2, mj):
                            if mat[p, q1] and mat[p, q3] and not mat[p, q2]:
                                return False
            for p1 in range(mi):
                for p2 in range(p1, mi):
                    for q1 in range(mj):
                        for q2 in range(q1, mj):
                            if mat[p1, q2] and mat[p2, q1] and not (
                                mat[p1, q1] and mat[p2, q2]
                            ):
                                return False
    return True


def test_build_graph_chain_into_chain():
    q = chain(2)
    p = chain(3)
    _, cp = pm.width_and_chain_partition(p)
    g = pm.build_colored_graph(q, p, (0, 0), cp)
    assert _edges_as_elements(g, 0, 1) == [(0, 1), (0, 2), (1, 2)]


def test_built_graphs_interval_monotone(rng):
    for _ in range(60):
        q, p = make_random_pair(rng, max_q=4, max_p=10)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        assert pm.is_interval_monotone(g)


def test_fast_checker_matches_literal_conditions(rng):
    # random adjacency: the optimized checker is exactly the two conditions
    for _ in range(150):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        edges = []
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                for a in range(sizes[i]):
                    for b in range(sizes[j]):
                        if rng.random() < 0.5:
                            edges.append(((i, a), (j, b)))
        g = _hand_graph(sizes, edges)
        assert pm.is_interval_monotone(g) == _literal_interval_monotone(g)


def test_hand_built_counterexamples():
    # hole in a neighbourhood: p adjacent to q1 and q3 but not q2
    hole = _hand_graph([1, 3], [((0, 0), (1, 0)), ((0, 0), (1, 2))])
    assert not pm.is_interval_monotone(hole)
    assert not _literal_interval_monotone(hole)
    # crossing edges without the closing rectangle
    cross = _hand_graph([2, 2], [((0, 0), (1, 1)), ((0, 1), (1, 0))])
    assert not pm.is_interval_monotone(cross)
    assert not _literal_interval_monotone(cross)


def test_colored_graph_shape_mismatch_is_typed_error():
    with pytest.raises(pm.PosetmcError):
        pm.ColoredGraph([[0, 1], [2]], {(0, 1): np.ones((2, 2), dtype=bool)})
    with pytest.raises(pm.PosetmcError):
        pm.ColoredGraph([[0], [1]], {})


def test_clique_min_single_input_identity():
    q = chain(2)
    p = chain(3)
    _, cp = pm.width_and_chain_partition(p)
    g = pm.build_colored_graph(q, p, (0, 0), cp)
    k = {0: 0, 1: 2}
    assert pm.clique_min([k], [0, 1], g) == k
    assert pm.clique_max([k], [0, 1], g) == k


def test_clique_min_rectangle():
    # two disjoint 2-cliques whose minimum is the rectangle corner
    g = _hand_graph(
        [2, 2],
        [
            ((0, 0), (1, 0)),
            ((0, 0), (1, 1)),
            ((0, 1), (1, 0)),
            ((0, 1), (1, 1)),
        ],
    )
    assert pm.is_interval_monotone(g)
    got = pm.clique_min([{0: 0, 1: 1}, {0: 1, 1: 0}], [0, 1], g)
    assert got == {0: 0, 1: 0}
    assert pm.is_clique(g, got)
    got = pm.clique_max([{0: 0, 1: 1}, {0: 1, 1: 0}], [0, 1], g)
    assert got == {0: 1, 1: 1}
    assert pm.is_clique(g, got)


def test_clique_min_precondition_checked():
    g = _hand_graph([2, 2], [((0, 0), (1, 0))])
    with pytest.raises(pm.PreconditionViolation):
        pm.clique_min([{0: 1, 1: 1}], [0, 1], g)  # not a clique
    with pytest.raises(pm.PreconditionViolation):
        pm.clique_min([{0: 0}], [0, 1], g)  # wrong classes


def _random_cliques_of_graph(g, rng, classes, tries=40):
    sizes = [g.class_size(i) for i in classes]
    found = []
    for _ in range(tries):
        cand = {i: rng.randrange(s) for i, s in zip(classes, sizes) if s}
        if len(cand) == len(classes) and pm.is_clique(g, cand):
            found.append(cand)
    return found


def test_clique_min_max_outputs_are_cliques(rng):
    checked = 0
    while checked < 200:
        q, p = make_random_pair(rng, max_q=3, max_p=10)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        classes = list(range(g.k))
        cliques = _random_cliques_of_graph(g, rng, classes)
        for i in range(0, len(cliques) - 1, 2):
            pair = cliques[i : i + 2]
            lo = pm.clique_min(pair, classes, g)
            hi = pm.clique_max(pair, classes, g)
            assert pm.is_clique(g, lo)
            assert pm.is_clique(g, hi)
            checked += 1


def test_solve_k1_returns_least_vertex():
    g = _hand_graph([3], [])
    assert pm.solve_multicolored_clique(g) == (0,)


def test_solve_k2_singletons():
    with_edge = _hand_graph([1, 1], [((0, 0), (1, 0))])
    assert pm.solve_multicolored_clique(with_edge) == (0, 0)
    without = _hand_graph([1, 1], [])
    assert pm.solve_multicolored_clique(without) is None


def test_solve_agrees_with_bruteforce(rng):
    for _ in range(250):
        q, p = make_random_pair(rng, max_q=4, max_p=10)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        got = pm.solve_multicolored_clique(g)
        ref = pm.brute_force_clique(g)
        assert (got is None) == (ref is None)
        if got is not None:
            assert pm.is_clique(g, dict(enumerate(got)))


def test_clique_existence_iff_f_compatible_embedding(rng):
    for _ in range(80):
        q, p = make_random_pair(rng, max_q=3, max_p=8)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        has_clique = pm.solve_multicolored_clique(g) is not None
        compatible = False
        for combo in product(*(cp.chains[f[i]] for i in range(q.n))):
            if len(set(combo)) != q.n:
                continue
            if all(
                bool(q.leq[i, j]) == bool(p.leq[combo[i], combo[j]])
                for i in range(q.n)
                for j in range(q.n)
            ):
                compatible = True
                break
        assert has_clique == compatible


def test_upward_closure_is_suffix(rng):
    for _ in range(40):
        q, p = make_random_pair(rng, max_q=3, max_p=10)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        for i in range(g.k):
            for j in range(g.k):
                if i == j:
                    continue
                mat = g.adjacency(i, j)
                size_j = g.class_size(j)
                for v in range(g.class_size(i)):
                    nbrs = [x for x in range(size_j) if mat[v, x]]
                    upcl = {x for x in range(size_j) if any(y <= x for y in nbrs)}
                    if nbrs:
                        assert upcl == set(range(min(nbrs), size_j))
                    else:
                        assert upcl == set()


def test_tables_match_bruteforce_extremes(rng):
    for _ in range(40):
        q, p = make_random_pair(rng, max_q=4, max_p=9)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        tables = compute_clique_tables(g)
        for i in range(1, g.k + 1):
            for v in range(g.class_size(i - 1)):
                cliques = []
                for combo in product(*(range(g.class_size(j)) for j in range(i - 1))):
                    full = dict(enumerate(combo))
                    full[i - 1] = v
                    if pm.is_clique(g, full):
                        cliques.append([full[j] for j in range(i)])
                if cliques:
                    arr = np.array(cliques)
                    assert tables.min_entry(i, v) == tuple(int(x) for x in arr.min(axis=0))
                    assert tables.max_entry(i, v) == tuple(int(x) for x in arr.max(axis=0))
                else:
                    assert tables.min_entry(i, v) is None
                    assert tables.max_entry(i, v) is None


def test_dp_work_linear_in_k_times_edges(rng):
    # per-graph table work stays within a fixed multiple of k*(|E| + |V|)
    for _ in range(60):
        q, p = make_random_pair(rng, max_q=4, max_p=12)
        w, cp = pm.width_and_chain_partition(p)
        f = tuple(rng.randrange(w) for _ in range(q.n))
        g = pm.build_colored_graph(q, p, f, cp)
        c = pm.OpCounter()
        compute_clique_tables(g, c)
        vertices = sum(g.class_size(i) for i in range(g.k))
        budget = 8 * g.k * (g.edge_count() + vertices)
        assert c.ops <= budget


def test_embed_via_clique_examples():
    assert pm.embed_via_clique(pm.independent_poset(1), chain(5)) is not None
    assert pm.embed_via_clique(antichain(2), chain(4)) is None
    small = pm.random_poset(5, 0.4, 9)
    e = pm.embed_via_clique(small, small)
    assert e is not None and pm.is_embedding(small, small, e)


def test_embed_three_way_agreement(rng):
    for _ in range(120):
        q, p = make_random_pair(rng)
        ref = pm.brute_force_embed(q, p)
        via_csp = pm.embed_via_csp(q, p)
        via_clique = pm.embed_via_clique(q, p)
        assert (ref is None) == (via_csp is None) == (via_clique is None)
        if via_clique is not None:
            assert pm.is_embedding(q, p, via_clique)


def _product_loop(q, p, solve):
    """The loop the prefix-tree walk replaced: every compatibility function
    in lexicographic order, one graph each; (witness or None, branches)."""
    c = pm.OpCounter()
    w, cp = pm.width_and_chain_partition(p)
    cache: dict = {}
    for f in product(range(w), repeat=q.n):
        c.branches += 1
        g = pm.build_colored_graph(q, p, f, cp, counter=c, cache=cache)
        sol = solve(g, counter=c)
        if sol is not None:
            return tuple(int(g.elements[i][pos]) for i, pos in enumerate(sol)), c.branches
    return None, c.branches


@st.composite
def _adversarial_hosts(draw):
    """Hosts of at most 16 elements (the oracle's default cap) and width at most 5."""
    kind = draw(st.sampled_from(["graph", "stack", "banded", "union"]))
    seeds = st.integers(0, 2**30)
    density = st.floats(0.0, 1.0)
    if kind == "graph":
        n = draw(st.integers(1, 4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        host = pm.poset_of_graph(pm.SimpleGraph.from_edges(n, edges))
    elif kind == "stack":
        sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        host = pm.stack_posets([pm.random_poset(s, draw(density), draw(seeds)) for s in sizes])
    elif kind == "banded":
        w = draw(st.integers(1, 5))
        n = draw(st.integers(w, 16))
        offsets = draw(st.lists(st.integers(0, 2), min_size=w, max_size=w))
        host = pm.banded_poset(n, w, band=draw(st.integers(1, 2)), offsets=offsets)
    else:
        a = pm.random_poset(draw(st.integers(1, 8)), draw(density), draw(seeds))
        b = pm.banded_poset(draw(st.integers(2, 8)), 2, band=1)
        host = pm.disjoint_union(a, b)
    assume(pm.width_and_chain_partition(host)[0] <= 5)
    return host


@st.composite
def _relabelled_patterns(draw):
    """random_poset orders along the index; a relabelling orients pairs both ways."""
    k = draw(st.integers(1, 5))
    leq = pm.random_poset(k, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**30))).leq
    perm = draw(st.permutations(range(k)))
    return pm.Poset(leq[np.ix_(perm, perm)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_adversarial_hosts(), _relabelled_patterns())
# a step fails at depth 2 of 4, then of 5, below which the first
# pair-consistent leaf has f[3] = 1: after the cut every deeper depth must
# start again at chain 0, or the first gives a later witness and the second
# a false NO
@example(pm.banded_poset(6, 3, band=2, offsets=[1, 2, 0]), pm.close_and_validate(4, [(0, 2), (2, 1), (0, 3)]))
@example(pm.disjoint_union(chain(4), pm.banded_poset(7, 2, band=1)), pm.close_and_validate(5, [(1, 4), (4, 3)]))
def test_prefix_tree_matches_product_loop(host, pattern):
    expected = pm.brute_force_embed(pattern, host) is not None
    engines = [(pm.embed_via_clique, pm.solve_multicolored_clique), (pm.embed_via_csp, pm.solve_min_closed)]
    for embed, solve in engines:
        counter = pm.OpCounter()
        e = embed(pattern, host, counter)
        loop_e, loop_branches = _product_loop(pattern, host, solve)
        assert e == loop_e
        assert (e is not None) == expected
        assert counter.branches <= loop_branches


def test_prefix_tree_cuts_antichain_overflow_to_no_leaves():
    # a 4-antichain below one top element cannot embed into width 3: every
    # assignment puts two antichain elements on one chain, an empty relation
    leq = np.eye(5, dtype=bool)
    leq[:, 4] = True
    pattern = pm.Poset(leq)
    host = pm.banded_poset(300, 3, band=1)
    for embed in (pm.embed_via_clique, pm.embed_via_csp):
        counter = pm.OpCounter()
        assert embed(pattern, host, counter) is None
        assert counter.branches == 0


def test_pattern_longer_than_host_is_cut():
    # 11 elements cannot fit 10: a prefix that puts more elements on a chain
    # than it has has no partial solution, so its whole subtree is cut
    pattern = chain(11)
    host = pm.banded_poset(10, 3, band=1)
    for embed in (pm.embed_via_clique, pm.embed_via_csp):
        counter = pm.OpCounter()
        assert embed(pattern, host, counter) is None
        assert counter.branches == 135


def _reference_extend(ivals, ci, v, mins, maxs, want_min, c):
    """The per-vertex table entry that `clique._row` replaced, kept verbatim
    as the reference for its rows and its `ops`."""
    own = ivals[ci]
    los = [own[l][0][v] for l in range(ci)]
    his = [own[l][1][v] for l in range(ci)]
    ops = ci
    result = [-1] * (ci + 1)
    result[ci] = v
    for j in range(ci - 1, -1, -1):
        low, high = los[j], his[j]
        found = -1
        if want_min:
            x = low
            while x <= high:
                ops += 1 + j
                if j == 0:
                    found = x
                    break
                entry = maxs[j][x]
                if entry is not None and all(entry[l] >= los[l] for l in range(j)):
                    found = x
                    break
                x += 1
        else:
            x = high
            while x >= low:
                ops += 1 + j
                if j == 0:
                    found = x
                    break
                entry = mins[j][x]
                if entry is not None and all(entry[l] <= his[l] for l in range(j)):
                    found = x
                    break
                x -= 1
        if found < 0:
            c.add(ops)
            return None
        result[j] = found
        for l, (lo_row, hi_row) in enumerate(ivals[j]):
            los[l] = max(los[l], lo_row[found])
            his[l] = min(his[l], hi_row[found])
        ops += j
    c.add(ops)
    return tuple(result)


def _reference_step(state, i, size, entries, c):
    """`clique_step` with one `_reference_extend` call per vertex."""
    ivals, mins, maxs = state if state is not None else ((), (), ())
    ivals = (*ivals, tuple((e.col_ivals[0].tolist(), e.col_ivals[1].tolist()) for e in entries))
    if i == 0:
        if not size:
            return None
        min_row = max_row = [(v,) for v in range(size)]
    else:
        min_row = [_reference_extend(ivals, i, v, mins, maxs, True, c) for v in range(size)]
        if all(entry is None for entry in min_row):
            return None
        max_row = [_reference_extend(ivals, i, v, mins, maxs, False, c) for v in range(size)]
    return ivals, (*mins, min_row), (*maxs, max_row)


@st.composite
def _sliced_graphs(draw):
    """G(P, Q, f) for a pattern of k <= 5 elements and a host of width w <= 4,
    with each class optionally cut to a contiguous slice, possibly empty.
    An induced subgraph of an interval-monotone graph on slices of the class
    orders is again interval-monotone."""
    seeds, density = st.integers(0, 2**30), st.floats(0.0, 1.0)
    k = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(k)))
    q = pm.Poset(pm.random_poset(k, draw(density), draw(seeds)).leq[np.ix_(perm, perm)])
    if draw(st.booleans()):
        w = draw(st.integers(1, 4))
        offsets = draw(st.lists(st.integers(0, 2), min_size=w, max_size=w))
        p = pm.banded_poset(draw(st.integers(w, 14)), w, band=draw(st.integers(1, 2)), offsets=offsets)
    else:
        p = pm.random_poset(draw(st.integers(1, 10)), draw(st.floats(0.3, 1.0)), draw(seeds))
    w, cp = pm.width_and_chain_partition(p)
    assume(w <= 4)
    f = draw(st.lists(st.integers(0, w - 1), min_size=k, max_size=k))
    g = pm.build_colored_graph(q, p, f, cp)
    if not draw(st.booleans()):
        return g
    cuts = [sorted(draw(st.lists(st.integers(0, g.class_size(i)), min_size=2, max_size=2))) for i in range(k)]
    elements = [g.elements[i][a:b] for i, (a, b) in enumerate(cuts)]
    adjacency = {
        (i, j): g.adjacency(i, j)[cuts[i][0] : cuts[i][1], cuts[j][0] : cuts[j][1]]
        for i in range(k)
        for j in range(i + 1, k)
    }
    return pm.ColoredGraph(elements, adjacency)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sliced_graphs())
@example(_hand_graph([2, 0, 1], []))  # an empty class
@example(_hand_graph([2, 2, 2], [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 1), (2, 0)), ((0, 1), (2, 0))]))
def test_row_loop_matches_per_vertex_reference(g):
    # step by step: every MinK/MaxK row and the ops each step adds
    def both(state, i, size, entries, c):
        new_state, ref_state = state if state is not None else (None, None)
        c_new, c_ref = pm.OpCounter(), pm.OpCounter()
        new = clique_step(new_state, i, size, entries, c_new)
        ref = _reference_step(ref_state, i, size, entries, c_ref)
        assert c_new.ops == c_ref.ops
        assert (new is None) == (ref is None)
        if new is None:
            return None
        assert new[1][-1] == ref[1][-1] and new[2][-1] == ref[2][-1]
        return new, ref

    fold_classes(g, both)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sliced_graphs())
def test_table_entries_monotone_in_class_order(g):
    """MinK[i][v] <= MinK[i][v'] and MaxK[i][v] <= MaxK[i][v'] coordinatewise
    for v < v' in class i-1 that both have entries A and B.

    clique_min(A, B) is a clique (interval monotonicity) through v, so A <= min(A, B) <= B by A's minimality;
    clique_max(A, B) is a clique through v', so A <= max(A, B) <= B by B's maximality.
    Any vectorised row (cumulative extremes, binary search) may rest on this.
    """
    assert pm.is_interval_monotone(g)
    tables = compute_clique_tables(g)
    for i in range(1, g.k + 1):
        for entry_of in (tables.min_entry, tables.max_entry):
            entries = [e for e in (entry_of(i, v) for v in range(g.class_size(i - 1))) if e is not None]
            for a, b in zip(entries, entries[1:]):
                assert all(x <= y for x, y in zip(a, b))
